"""Splits of initial intervals: the before order, numbering of the
minimum-size splits by an interval of the integers, witness-range
dichotomies, and repeated splits on finite lines.

Everything here works on a window of explicitly evaluated cuts plus a
classification of how splits behave beyond the window.  Deep inside a
periodic segment the split at a cut one period further out is obtained from
the current one by a fixed rule: either it is identical (a constant family)
or the mobile part shifts by the stride (a marching family).  The window is
sized so that all irregular behavior (finite segments, pinned-vertex
collisions, vertices shared between segments) is inside it; the rule is then
checked on several consecutive blocks before being extrapolated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union

from linedecomp.line import (
    Cut,
    CutPosition,
    Ordering,
    Point,
    SegmentKind,
    UnsupportedScopeError,
    all_points,
    compare_cuts,
    cut_after_point,
    enumerate_cuts,
    normalize_cut,
)
from linedecomp.decomposition import (
    Bag,
    Decomposition,
    PeriodicBags,
    Side,
    boundary_split,
    limit_vertices,
    shift_set,
)


@dataclass(frozen=True)
class Split:
    """A finite vertex set cutting the graph, with cuts that witness it."""

    vertices: Bag
    witness_cuts: tuple[Cut, ...]

    def __post_init__(self):
        if not self.witness_cuts:
            raise ValueError("a split needs at least one witness cut")

    @property
    def size(self) -> int:
        return len(self.vertices)


def split_at(d: Decomposition, cut: Cut) -> Split:
    c = normalize_cut(d.line, cut)
    return Split(boundary_split(d, c), (c,))


def before(d: Decomposition, s1: Split, s2: Split) -> Ordering:
    """Order two equal-size splits.  Comparing one witness pair decides it:
    totality for distinct equal-size splits lets a single inclusion stand in
    for all of them."""
    if s1.vertices == s2.vertices:
        return Ordering.EQ
    if len(s1.vertices) != len(s2.vertices):
        raise ValueError("before is only defined for splits of equal size")
    return compare_cuts(d.line, s1.witness_cuts[0], s2.witness_cuts[0])


# ---------------------------------------------------------------------------
# Window sizing


def _template_reach(t: PeriodicBags) -> int:
    """Offset radius beyond which the template's splits behave generically."""
    p = t.period
    reach = 2 * p
    per_tag: dict[str, int] = {}
    for res in t.residues:
        for v in res:
            if v.index is not None:
                per_tag[v.tag] = per_tag.get(v.tag, 0) + 1
    if per_tag:
        # a vertex shared with a neighbouring segment can be pinned at most
        # this deep: its occurrence is one run touching every entry of its tag
        reach = max(reach, p * (max(per_tag.values()) + 2))
    if t.stride:
        for c in t.constant:
            if c.index is None:
                continue
            for res in t.residues:
                for w in res:
                    if w.index is None or w.tag != c.tag:
                        continue
                    q, rem = divmod(c.index - w.index, t.stride)
                    if rem == 0:
                        reach = max(reach, p * (abs(q) + 3))
    return reach


def split_budget(d: Decomposition) -> int:
    span = sum(s.length for s in d.line.segments if s.kind is SegmentKind.FIN)
    per = 1
    reach = 0
    for t in d.templates:
        if isinstance(t, PeriodicBags):
            per = max(per, t.period)
            reach = max(reach, _template_reach(t))
    return 2 * (span + per) + 2 * reach + 8


# ---------------------------------------------------------------------------
# Behaviour beyond the window


@dataclass(frozen=True)
class _DeepClass:
    kind: str  # "constant" | "marching"
    offset: int  # cut offset of this alignment class at the edge block
    fixed: Bag
    mobile: Bag  # empty for constant classes

    @property
    def size(self) -> int:
        return len(self.fixed | self.mobile)


def _classify_deep(d: Decomposition, j: int, direction: int,
                   base: int) -> list[_DeepClass]:
    """How splits behave marching outward from the window edge of segment j.

    Evaluates one full period of alignment classes at the edge block and the
    three blocks beyond it, and fits each class to a constant or marching
    rule.  Anything else cannot be numbered by an integer interval, so it is
    rejected as out of scope rather than mis-indexed.

    A marching class's fixed part is read off the template, not off the
    samples: the vertices the shift leaves alone are the statics and the
    segment constant.  Every other vertex of the split moves one stride per
    block, however many consecutive samples it happens to sit in (a split
    of size m that marches one index per block keeps a vertex for m blocks).
    """
    t = d.templates[j]
    p = t.period
    out = []
    for a in range(p):
        off = base + direction * a
        ss = [boundary_split(d, Cut(j, CutPosition.AFTER_OFFSET,
                                    off + direction * p * i))
              for i in range(4)]
        if ss[0] == ss[1] == ss[2] == ss[3]:
            out.append(_DeepClass("constant", off, ss[0], frozenset()))
            continue
        fixed = frozenset(v for v in ss[0] if v.is_static or v in t.constant)
        step = t.stride * direction
        if all(ss[i + 1] == fixed | shift_set(ss[i] - fixed, step)
               for i in range(3)):
            out.append(_DeepClass("marching", off, fixed, ss[0] - fixed))
        else:
            raise UnsupportedScopeError(
                f"splits do not stabilize beyond the window in segment {j}")
    return out


@dataclass(frozen=True)
class _Tail:
    """An infinite family of indexed splits marching off one end of the line."""

    segment: int
    period: int
    step: int  # shift applied to the mobile part per block, marching outward
    entries: tuple[_DeepClass, ...]  # size-m marching classes, window-side first


@dataclass(frozen=True)
class MinSplitIndexing:
    """The distinct minimum-size splits, numbered by an interval of the
    integers so that lower indices come before higher ones.

    K is [lo, hi] with None for an unbounded end.  Window entries carry all
    their witness cuts inside the evaluation window; tail entries are
    generated on demand from the marching rule.
    """

    m: Optional[int]
    lo: Optional[int]
    hi: Optional[int]
    window: tuple[Split, ...]
    low_tail: Optional[_Tail]
    high_tail: Optional[_Tail]
    note: str = ""

    def in_range(self, i: int) -> bool:
        if self.m is None:
            return False
        if self.lo is not None and i < self.lo:
            return False
        if self.hi is not None and i > self.hi:
            return False
        return True

    def split(self, i: int) -> Split:
        if self.m is None:
            raise ValueError("no cuts: nothing to index")
        wn = len(self.window)
        if 0 <= i < wn:
            return self.window[i]
        if i < 0 and self.low_tail is not None:
            return self._tail_split(self.low_tail, -i - 1, -1)
        if i >= wn and self.high_tail is not None:
            return self._tail_split(self.high_tail, i - wn, +1)
        raise IndexError(f"index {i} is outside K")

    def _tail_split(self, tail: _Tail, u: int, direction: int) -> Split:
        blk, r = divmod(u, len(tail.entries))
        e = tail.entries[r]
        verts = e.fixed | shift_set(e.mobile, tail.step * blk)
        cut = Cut(tail.segment, CutPosition.AFTER_OFFSET,
                  e.offset + direction * tail.period * blk)
        return Split(verts, (cut,))


@dataclass(frozen=True)
class SplitBounds:
    """Extremes of the witness family of a minimum split.

    Each bound is a Cut unless the witnesses run off that end of the line
    forever, in which case the split provably equals the full set of limit
    vertices on that side and the bound is the Side marker.
    """

    lower: Union[Cut, Side]
    upper: Union[Cut, Side]


# ---------------------------------------------------------------------------
# The analysis of one decomposition

_Reach = tuple[int, int, tuple[_DeepClass, ...]]  # (segment, base, classes)


@dataclass(frozen=True)
class SplitAnalysis:
    """The split window of one decomposition and how its splits continue
    past both ends of the line.  Build it with analyze_splits and ask it as
    many questions as needed: the window is evaluated once.

    The classes of the interior infinite reaches are not part of it.  Each
    method that needs them classifies them as it goes, so a reach that is
    out of scope is refused by the question that looks at it, not by the
    construction.  m is the minimum split size, None when there are no cuts.
    """

    d: Decomposition
    budget: int
    window_cuts: tuple[Cut, ...]
    window_splits: tuple[Bag, ...]
    low: Optional[_Reach]
    high: Optional[_Reach]
    m: Optional[int]

    def interior_classes(self) -> Iterator[tuple[int, int, list[_DeepClass]]]:
        """(segment, direction, classes) for every infinite reach that does
        not run off an end of the line, classified one reach at a time."""
        n = len(self.d.line.segments)
        b = self.budget
        for j, seg in enumerate(self.d.line.segments):
            reaches = []
            if seg.kind is SegmentKind.OMEGA and j < n - 1:
                reaches.append((+1, b))
            if seg.kind is SegmentKind.OMEGA_STAR and j > 0:
                reaches.append((-1, -b - 1))
            if seg.kind is SegmentKind.ZETA:
                if j > 0:
                    reaches.append((-1, -b))
                if j < n - 1:
                    reaches.append((+1, b))
            for direction, base in reaches:
                yield j, direction, _classify_deep(self.d, j, direction, base)

    def min_splits(self) -> MinSplitIndexing:
        m = self.m
        if m is None:
            return MinSplitIndexing(None, None, None, (), None, None, "no cuts")
        if m == 0:
            return MinSplitIndexing(0, None, None, (), None, None, "disconnected")

        entries: list[tuple[Bag, list[Cut]]] = []
        for c, s in zip(self.window_cuts, self.window_splits):
            if len(s) != m:
                continue
            if entries and entries[-1][0] == s:
                entries[-1][1].append(c)
            else:
                entries.append((s, [c]))
        window = tuple(Split(s, tuple(cs)) for s, cs in entries)
        catalogue = {s for s, _ in entries}

        self._interior_deep_guard(catalogue)
        low_tail = self._edge_tail(self.low, catalogue, -1) if self.low else None
        high_tail = self._edge_tail(self.high, catalogue, +1) if self.high else None

        lo = None if low_tail else 0
        hi = None if high_tail else len(window) - 1
        return MinSplitIndexing(m, lo, hi, window, low_tail, high_tail)

    def _interior_deep_guard(self, catalogue: set[Bag]) -> None:
        """Interior infinite reaches may only repeat window splits at size m."""
        for _, _, classes in self.interior_classes():
            for cls in classes:
                if cls.size != self.m:
                    continue
                if cls.kind == "marching":
                    raise UnsupportedScopeError(
                        "minimum splits march in an interior segment; "
                        "their order cannot be numbered by integers")
                if cls.fixed not in catalogue:
                    raise UnsupportedScopeError(
                        "an interior constant split family does not match "
                        "any window split")

    def _edge_tail(self, side: _Reach, catalogue: set[Bag],
                   direction: int) -> Optional[_Tail]:
        j, _, classes = side
        m = self.m
        marching = [c for c in classes if c.kind == "marching" and c.size == m]
        constant = [c for c in classes if c.kind == "constant" and c.size == m]
        if marching and constant:
            raise UnsupportedScopeError(
                "a constant and a marching family of minimum splits share one "
                "end of the line; they are not comparable")
        for c in constant:
            if c.fixed not in catalogue:
                raise UnsupportedScopeError(
                    "a constant split family at the line end does not match any "
                    "window split")
        if not marching:
            return None
        t = self.d.templates[j]
        step = t.stride * direction
        seen: set[Bag] = set()
        for blk in range(4):
            for cls in marching:
                s = cls.fixed | shift_set(cls.mobile, step * blk)
                if s in seen:
                    raise UnsupportedScopeError(
                        "two marching witness families generate a common split; "
                        "the numbering would list one entry twice")
                seen.add(s)
        return _Tail(j, t.period, step, tuple(marching))

    def empty_cuts(self) -> list[Cut]:
        """All cuts with empty split, in line order.  These chop the graph
        into its connected pieces.  Raises when they run into an infinite
        reach, since the pieces can then not be listed one by one."""
        for side in (self.low, self.high):
            if side and any(cls.size == 0 for cls in side[2]):
                raise UnsupportedScopeError(
                    "empty splits repeat forever toward an end of the line; "
                    "the connected pieces cannot be enumerated")
        for _, _, classes in self.interior_classes():
            if any(cls.size == 0 for cls in classes):
                raise UnsupportedScopeError(
                    "empty splits repeat forever inside the line; the connected "
                    "pieces cannot be enumerated")
        return [c for c, s in zip(self.window_cuts, self.window_splits) if not s]

    def bounds(self, s: Split) -> SplitBounds:
        """The extreme witnesses of the minimum split s."""
        d = self.d
        if self.m is None:
            raise ValueError("no cuts: nothing to bound")
        if len(s.vertices) != self.m:
            raise ValueError("split is not of minimum size")

        wit = normalize_cut(d.line, s.witness_cuts[0])
        for side, direction in ((self.low, -1), (self.high, +1)):
            if side is None:
                continue
            j, base, classes = side
            deep = (wit.segment == j and wit.position is CutPosition.AFTER_OFFSET
                    and (wit.offset <= base if direction < 0 else wit.offset >= base))
            if deep:
                cls = classes[(direction * (wit.offset - base)) % len(classes)]
                if cls.kind == "constant":
                    continue  # merges with the window witnesses below
                # a marching tail member: all its witnesses sit near this block
                p = d.templates[j].period
                local = _scan_local(d, s.vertices, j, wit.offset, 2 * p + 1)
                if not local:
                    raise ValueError("the given cut does not witness this split")
                return SplitBounds(local[0], local[-1])

        ws = [c for c, b in zip(self.window_cuts, self.window_splits)
              if b == s.vertices]
        if not ws:
            raise ValueError("not witnessed anywhere within the window")

        lower: Union[Cut, Side] = ws[0]
        upper: Union[Cut, Side] = ws[-1]
        if self.low is not None:
            if any(c.kind == "constant" and c.fixed == s.vertices
                   for c in self.low[2]):
                if s.vertices != limit_vertices(d, Side.LEFT):
                    raise UnsupportedScopeError(
                        "witnesses descend forever but the split is not the "
                        "left-limit set; the input cannot be a valid tidy "
                        "decomposition")
                lower = Side.LEFT
        if self.high is not None:
            if any(c.kind == "constant" and c.fixed == s.vertices
                   for c in self.high[2]):
                if s.vertices != limit_vertices(d, Side.RIGHT):
                    raise UnsupportedScopeError(
                        "witnesses ascend forever but the split is not the "
                        "right-limit set; the input cannot be a valid tidy "
                        "decomposition")
                upper = Side.RIGHT
        return SplitBounds(lower, upper)


def analyze_splits(d: Decomposition) -> SplitAnalysis:
    """Evaluate the split window of d and classify both line ends."""
    line = d.line
    budget = split_budget(d)
    cuts = enumerate_cuts(line, budget)
    n = len(line.segments)
    low = high = None
    first, last = line.segments[0], line.segments[-1]
    if first.kind in (SegmentKind.OMEGA_STAR, SegmentKind.ZETA):
        base = -budget - 1 if first.kind is SegmentKind.OMEGA_STAR else -budget
        low = (0, base, tuple(_classify_deep(d, 0, -1, base)))
    if last.kind in (SegmentKind.OMEGA, SegmentKind.ZETA):
        high = (n - 1, budget, tuple(_classify_deep(d, n - 1, +1, budget)))

    def in_deep(c: Cut) -> bool:
        if c.position is not CutPosition.AFTER_OFFSET:
            return False
        if low and c.segment == low[0] and c.offset <= low[1]:
            return True
        if high and c.segment == high[0] and c.offset >= high[1]:
            return True
        return False

    window_cuts = tuple(c for c in cuts if not in_deep(c))
    window_splits = tuple(boundary_split(d, c) for c in window_cuts)
    m = min(map(len, window_splits)) if window_splits else None
    return SplitAnalysis(d, budget, window_cuts, window_splits, low, high, m)


def enumerate_min_splits(d: Decomposition) -> MinSplitIndexing:
    return analyze_splits(d).min_splits()


def empty_split_cuts(d: Decomposition) -> list[Cut]:
    """The cuts with empty split; see SplitAnalysis.empty_cuts."""
    return analyze_splits(d).empty_cuts()


def split_bounds(d: Decomposition, s: Split) -> SplitBounds:
    return analyze_splits(d).bounds(s)


def _scan_local(d: Decomposition, s: Bag, j: int, center: int,
                radius: int) -> list[Cut]:
    out = []
    for o in range(center - radius, center + radius + 1):
        c = Cut(j, CutPosition.AFTER_OFFSET, o)
        if boundary_split(d, c) == s:
            out.append(c)
    return out


# ---------------------------------------------------------------------------
# Repeated splits (finite lines)


@dataclass(frozen=True)
class RepeatedSplit:
    """A split witnessed by at least two cuts, with its repeat interval:
    the run of points lying in some witness interval but not all of them."""

    split: Split
    interval: tuple[Point, Point]  # inclusive
    maximal: bool


def repeated_splits(d: Decomposition) -> list[RepeatedSplit]:
    if any(not s.is_finite for s in d.line.segments):
        raise UnsupportedScopeError(
            "repeated splits are only computed on finite lines")
    pts = all_points(d.line)
    n = len(pts)
    groups: dict[Bag, tuple[list[int], list[Cut]]] = {}
    for k in range(1, n):
        c = cut_after_point(d.line, pts[k - 1])
        s = boundary_split(d, c)
        ks, cs = groups.setdefault(s, ([], []))
        ks.append(k)
        cs.append(c)
    reps = [(s, ks, cs) for s, (ks, cs) in groups.items() if len(ks) >= 2]
    spans = [(min(ks), max(ks)) for _, ks, _ in reps]
    out = []
    for (s, ks, cs), (lo, hi) in zip(reps, spans):
        maximal = not any(
            (lo2 <= lo and hi <= hi2) and (lo2, hi2) != (lo, hi)
            for lo2, hi2 in spans)
        out.append(RepeatedSplit(Split(s, tuple(cs)),
                                 (pts[lo], pts[hi - 1]), maximal))
    out.sort(key=lambda r: (r.interval[0].segment, r.interval[0].offset,
                            sorted(r.split.vertices)))
    return out
