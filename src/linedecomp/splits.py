"""Splits of initial intervals: the before order, numbering of the
minimum-size splits by an interval of the integers, witness-range
dichotomies, and repeated splits on finite lines.

Everything here works on a window of explicitly evaluated cuts plus a
classification of how splits behave beyond the window.  A split inside a
periodic segment is its template's split formula, so one period further
out it is identical (a constant family) or its mobile part shifts by the
stride (a marching family), except where a shifted base meets a mobile
vertex of the segment constant (a collision).  The window runs out to an
exact radius: every finite segment whole, every periodic segment past its
last collision (L1, _evaluation_radius).  Beyond it each alignment class is
one SplitFamily, and questions about repeated splits are answered by
arithmetic on the families.  The minimum splits keep a wider radius as
their numbering origin (split_budget): the entries between the two radii
are read off the families.
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

from linedecomp.line import (
    Cut,
    CutPosition,
    Ordering,
    Point,
    SegmentKind,
    UnsupportedScopeError,
    all_points,
    compare_cuts,
    enumerate_cuts,
    normalize_cut,
)
from linedecomp.decomposition import (
    Bag,
    Decomposition,
    PeriodicBags,
    Side,
    boundary_split,
    boundary_splits,
    common_indices,
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
    """The collision reach of a template: 2 * period, or more so that every
    collision offset o (o in offsets_of(c) for a mobile constant vertex c)
    has |o| + period < reach.  The split at offset i is shift(bases[r],
    stride * b) | constant for i = b * period + r, and a shifted base vertex
    is c only where i is in offsets_of(c), so past the reach every split
    follows its class's formula."""
    p = t.period
    reach = 2 * p
    if t.stride:
        for c in t.constant:
            if c.is_mobile:
                for o in t.offsets_of(c):
                    reach = max(reach, p * (abs(o // p) + 3))
    return reach


def _evaluation_radius(d: Decomposition) -> int:
    """The offset radius of the evaluated split window: the longest finite
    segment and every collision reach, plus one.  enumerate_cuts then lists
    every cut of a finite segment.  L1 (sizing): block 0 of every class
    (_classify_deep) sits at an offset of magnitude at least the radius, so
    more than a period beyond every collision, and block -1 of every class
    is a window cut beyond every collision too."""
    longest = max((s.length for s in d.line.segments if s.kind is SegmentKind.FIN),
                  default=0)
    reach = max((_template_reach(t) for t in d.templates
                 if isinstance(t, PeriodicBags)), default=0)
    return max(longest, reach) + 1


def split_budget(d: Decomposition) -> int:
    """The numbering origin of the minimum splits (min_splits reads the
    entries out to it off the families) and the offset radius of the
    `linedecomp splits` listing.  Its reach also covers how deep a vertex
    shared with a neighbouring segment can be pinned, so it exceeds the
    evaluation radius by more than |offsets_of(v)| for every mobile residue
    vertex v, the premise of _edge_tail."""
    span = sum(s.length for s in d.line.segments if s.kind is SegmentKind.FIN)
    per = 1
    reach = 0
    for t in d.templates:
        if isinstance(t, PeriodicBags):
            per = max(per, t.period)
            tags = collections.Counter(v.tag for res in t.residues for v in res
                                       if v.is_mobile)
            pinned = t.period * (max(tags.values()) + 2) if tags else 0
            reach = max(reach, _template_reach(t), pinned)
    return 2 * (span + per) + 2 * reach + 8


# ---------------------------------------------------------------------------
# Behaviour beyond the window


def _uniform_shift(a: Bag, b: Bag) -> Optional[int]:
    """The delta with shift_set(a, delta) == b, when one exists."""
    mob_a = sorted(v for v in a if v.is_mobile)
    mob_b = sorted(v for v in b if v.is_mobile)
    if len(mob_a) != len(mob_b):
        return None
    if not mob_a:
        return 0 if a == b else None
    delta = mob_b[0].index - mob_a[0].index
    return delta if shift_set(a, delta) == b else None


@dataclass(frozen=True)
class SplitFamily:
    """One alignment class of splits beyond the window of an infinite reach:
    at block b >= 0 the cut sits b periods past `offset` in `direction`,
    and the split is `fixed` plus `mobile` shifted by step * b.  A constant
    family has no mobile part; a marching one has indexed mobile vertices
    and a nonzero step.

    Invariant (argued by _classify_deep): from block 0 on, the shifted
    mobile part never lands on a fixed vertex.  So a bag is the split at
    block b exactly when it holds the fixed part and the rest is the mobile
    part shifted by step * b (meets).  Two families share a split either
    where one's mobile part runs into the other's fixed part, at finitely
    many blocks found by divisibility, or with equal fixed parts and mobile
    parts a uniform shift delta = step_a * i - step_b * j apart, i, j >= 0,
    where the progressions {step_a * i} and {delta + step_b * j} meet
    (common_indices; delta 0 meets at i = j = 0, also for the zero steps of
    constant families).  No block is sampled.
    """

    segment: int
    direction: int  # +1 marching toward larger offsets, -1 toward smaller
    offset: int  # cut offset at block 0, just past the radius it was classified at
    period: int
    step: int  # index shift of the mobile part per block
    fixed: Bag
    mobile: Bag

    @property
    def size(self) -> int:
        return len(self.fixed) + len(self.mobile)

    def at(self, b: int) -> Bag:
        """The split at block b."""
        return self.fixed | shift_set(self.mobile, self.step * b)

    def cut(self, b: int) -> Cut:
        """The cut at block b."""
        return Cut(self.segment, CutPosition.AFTER_OFFSET,
                   self.offset + self.direction * self.period * b)

    def meets(self, bag: Bag) -> Optional[int]:
        """The first block whose split is bag, or None.  A constant family
        meets its split at every block, a marching one at one block only."""
        if len(bag) != self.size or not self.fixed <= bag:
            return None
        if not self.mobile:
            return 0
        delta = _uniform_shift(self.mobile, bag - self.fixed)
        if delta is None or delta % self.step:
            return None
        b = delta // self.step
        return b if b >= 0 else None

    def _blocks_onto(self, bag: Bag) -> Iterator[int]:
        """The blocks where the shifted mobile part takes a vertex of bag."""
        for w in self.mobile:
            for v in bag:
                if v.is_mobile and v.tag == w.tag:
                    b, r = divmod(v.index - w.index, self.step)
                    if r == 0 and b >= 0:
                        yield b

    def collides(self, other: "SplitFamily") -> bool:
        """Do the two families produce one split, at blocks i, j >= 0?"""
        for f, g in ((self, other), (other, self)):
            if any(g.meets(f.at(b)) is not None for b in f._blocks_onto(g.fixed)):
                return True
        # elsewhere neither mobile part touches the other fixed part, so a
        # common split has equal fixed parts and equal mobile parts
        if self.fixed != other.fixed:
            return False
        delta = _uniform_shift(self.mobile, other.mobile)
        return delta == 0 or delta is not None and bool(common_indices(
            self.step, 0, (0, None), other.step, delta, (0, None), 1))


def _classify_deep(d: Decomposition, j: int, direction: int,
                   base: int) -> tuple[SplitFamily, ...]:
    """How splits behave marching outward from the window edge of segment j:
    one family per alignment class, the cuts after offset base + direction * a
    plus whole periods, for a < period.

    Past the window the split at offset b * period + r is
    shift(base_r, stride * b) | C by the split formula (PeriodicBags.split),
    C the segment constant.  So a class's split at block b is
    C | shift(Y, step * b) for its split Y at the edge cut, and the shifted
    mobile part meets the fixed one only at a collision: none lies beyond
    the edge (L1, _evaluation_radius).

    L2 (statics): in a verifying decomposition a static vertex of residue r
    is in the bags at r and r + period, so by betweenness in every bag of
    the segment; with a zero stride so is every residue vertex.  So a split
    in the segment is S | C | M: S | C = full_vertices(d, j), the limit set
    at an open end, and M the moving vertices, outside it.  A constant
    family is S | C, which holds the split at a limit cut bounding the
    segment; a marching one is strictly larger.
    """
    t = d.templates[j]
    p = t.period
    step = t.stride * direction
    out = []
    for a in range(p):
        off = base + direction * a
        s = t.split(off)
        mobile = frozenset(v for v in s - t.constant if v.is_mobile and t.stride)
        out.append(SplitFamily(j, direction, off, p, step, s - mobile, mobile))
    return tuple(out)


@dataclass(frozen=True)
class MinSplitIndexing:
    """The distinct minimum-size splits, numbered by an interval of the
    integers so that lower indices come before higher ones.

    K is [lo, hi] with None for an unbounded end.  The window runs out to
    split_budget, the numbering origin; tail entries past it are generated
    on demand from the marching families of size m, which take turns block
    by block, window-side first.  A window entry carries its witness cuts
    inside the evaluation radius (_evaluation_radius), and an entry read off
    a marching family between the two radii its one cut there.  A split of
    a constant family recurs at every block: its witnesses past the radius
    are left out, and they lie between the entry's first and last listed
    witness, or run off to an end, where its bound is the Side marker.
    """

    m: Optional[int]
    lo: Optional[int]
    hi: Optional[int]
    window: tuple[Split, ...]
    low_tail: Optional[tuple[SplitFamily, ...]]
    high_tail: Optional[tuple[SplitFamily, ...]]
    note: str = ""

    def in_range(self, i: int) -> bool:
        if not self.m:  # no cuts, or disconnected: nothing is numbered
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
            tail, u = self.low_tail, -i - 1
        elif i >= wn and self.high_tail is not None:
            tail, u = self.high_tail, i - wn
        else:
            raise IndexError(f"index {i} is outside K")
        blk, r = divmod(u, len(tail))
        return Split(tail[r].at(blk), (tail[r].cut(blk),))


@dataclass(frozen=True)
class SplitBounds:
    """Extremes of the witness family of a minimum split.

    Each bound is a Cut unless the witnesses run off that end of the line
    forever, in a constant family, in which case the split is the limit set
    on that side (L2 of _classify_deep) and the bound is the Side marker.
    """

    lower: Union[Cut, Side]
    upper: Union[Cut, Side]


# ---------------------------------------------------------------------------
# The analysis of one decomposition


@dataclass(frozen=True)
class SplitAnalysis:
    """The split window of one decomposition and how its splits continue
    past both ends of the line.  Build it with analyze_splits and ask it as
    many questions as needed: the window is evaluated once.

    The window holds every cut out to the offset radius (_evaluation_radius).
    low and high hold the families of the reaches running off the ends of
    the line, classified just past it, one per alignment class in offset
    order from the window edge.  The families of the interior infinite
    reaches are not part of it: interior_classes classifies them for the
    questions that need them.  m is the minimum split size, None when there
    are no cuts.
    """

    d: Decomposition
    radius: int
    window_cuts: tuple[Cut, ...]
    window_splits: tuple[Bag, ...]
    low: Optional[tuple[SplitFamily, ...]]
    high: Optional[tuple[SplitFamily, ...]]
    m: Optional[int]

    def interior_classes(self) -> Iterator[SplitFamily]:
        """The families of every infinite reach that does not run off an end
        of the line, classified one reach at a time.  A reach's block 0
        starts at the segment's outermost window cut."""
        n = len(self.d.line.segments)
        for j, direction in _reaches(self.d.line):
            if (j, direction) not in ((0, -1), (n - 1, +1)):
                yield from _families_past(self.d, j, direction, self.radius)

    def min_splits(self) -> MinSplitIndexing:
        """The tails are the families past split_budget, the numbering
        origin; the entries out to it come from _marching_between."""
        m = self.m
        if m is None:
            return MinSplitIndexing(None, None, None, (), None, None, "no cuts")
        if m == 0:
            return MinSplitIndexing(0, None, None, (), None, None, "disconnected")

        origin = split_budget(self.d)
        low, high = _end_families(self.d, origin)
        low_tail = self._edge_tail(low) if low else None
        high_tail = self._edge_tail(high) if high else None
        between = origin - self.radius
        entries: list[tuple[Bag, list[Cut]]] = []
        for c, s in itertools.chain(
                reversed(self._marching_between(self.low, between)),
                zip(self.window_cuts, self.window_splits),
                self._marching_between(self.high, between)):
            if len(s) != m:
                continue
            if entries and entries[-1][0] == s:
                entries[-1][1].append(c)
            else:
                entries.append((s, [c]))
        window = tuple(Split(s, tuple(cs)) for s, cs in entries)

        lo = None if low_tail else 0
        hi = None if high_tail else len(window) - 1
        return MinSplitIndexing(m, lo, hi, window, low_tail, high_tail)

    def _marching_between(self, side: Optional[tuple[SplitFamily, ...]],
                          cuts: int) -> list[tuple[Cut, Bag]]:
        """The cut and split of every marching class of size m of one end
        among its first `cuts` cuts past the radius, outward, by the family
        formula (L1).  No other cut there adds an entry.  A constant family
        has its split at every block, block -1 in the window too, and no
        marching family of size m shares its end (L2, _classify_deep): so
        its cuts there only extend the window entry next to the edge."""
        if not side:
            return []
        p = len(side)
        marching = [(a, f) for a, f in enumerate(side) if f.mobile and f.size == self.m]
        return [(f.cut(b), f.at(b)) for b in range(-(-cuts // p))
                for a, f in marching if b * p + a < cuts]

    def _edge_tail(self, side: tuple[SplitFamily, ...]
                   ) -> Optional[tuple[SplitFamily, ...]]:
        """The marching families of minimum splits at one end, classified at
        the numbering origin (split_budget), or None.

        Nothing else beyond the origin needs a number.  An interior reach
        has no marching minimum split: the limit cut bounding it is a window
        cut with a smaller split (L2, _classify_deep).  A constant family is
        its split at every cut of its class, so at a window cut too (interior
        block 0, or one period in from an end's block 0), and by L2 never
        shares an end with a marching minimum family.  A cut with split
        f.at(b) lies in f's segment within |offsets_of(v)| bags of f.cut(b),
        v a moving vertex of the split, and the origin lies further than that
        past the radius: so past the radius, where splits follow their
        class's formula (L1), and its translates outward are f.at(b + 1), ...
        up to block 0 of a marching class: another class, a common split
        refused below, or f's own, a repeat of f.
        """
        marching = tuple(f for f in side if f.mobile and f.size == self.m)
        if not marching:
            return None
        if any(a.collides(b) for a, b in itertools.combinations(marching, 2)):
            raise UnsupportedScopeError(
                "two marching witness families generate a common split; "
                "the numbering would list one entry twice")
        return marching

    def window_meetings(self, families: Sequence[SplitFamily]
                        ) -> Iterator[tuple[SplitFamily, int, Cut]]:
        """Each of the marching families that meets a window split, with the
        last block b >= 0 where it does and a window cut of that split, from
        one index of the window per segment.  A split's key is its rest once
        its moving vertices (mobile, outside the segment constant) are out,
        their translation class ((tag, index - least index) each) and their
        least index lo modulo the stride.  By the family invariant a family
        meets a window split at block b exactly when the keys agree and the
        split's lo lies step * b past its own.
        """
        def keyed(s: Bag, t: PeriodicBags) -> tuple[tuple, int]:
            moving = [v for v in s if v.is_mobile and v not in t.constant]
            lo = min((v.index for v in moving), default=0)
            cls = frozenset((v.tag, v.index - lo) for v in moving)
            return (s.difference(moving), cls, lo % abs(t.stride)), lo

        for j in sorted({f.segment for f in families}):
            fs = [f for f in families if f.segment == j]
            t = self.d.templates[j]
            sizes = {f.size for f in fs}
            index: dict[tuple, list[tuple[int, Cut]]] = {}
            for c, s in zip(self.window_cuts, self.window_splits):
                if len(s) in sizes and t.constant <= s:
                    key, lo = keyed(s, t)
                    index.setdefault(key, []).append((lo, c))
            for f in fs:
                key, lo_f = keyed(f.fixed | f.mobile, t)
                if key in index:
                    farthest = max if f.step > 0 else min
                    lo, c = farthest(index[key], key=lambda e: e[0])
                    b = (lo - lo_f) // f.step  # exact: lo = lo_f mod step
                    if b >= 0:
                        yield f, b, c

    def empty_cuts(self) -> list[Cut]:
        """All cuts with empty split, in line order.  These chop the graph
        into its connected pieces.  Raises when they run into an infinite
        reach, since the pieces can then not be listed one by one."""
        for side in (self.low, self.high):
            if side and any(f.size == 0 for f in side):
                raise UnsupportedScopeError(
                    "empty splits repeat forever toward an end of the line; "
                    "the connected pieces cannot be enumerated")
        if any(f.size == 0 for f in self.interior_classes()):
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
        for side in (self.low, self.high):
            if side is None:
                continue
            edge = side[0]
            if (wit.segment != edge.segment
                    or wit.position is not CutPosition.AFTER_OFFSET):
                continue
            blk, r = divmod(edge.direction * (wit.offset - edge.offset), len(side))
            if blk < 0 or not side[r].mobile:
                continue  # in the window, or merges with its witnesses below
            # a marching member past the radius: it meets no window split
            # (_edge_tail), min_splits refuses one that meets another family,
            # and one family never repeats a split: its only witness
            if side[r].at(blk) != s.vertices:
                raise ValueError("the given cut does not witness this split")
            return SplitBounds(wit, wit)

        ws = [c for c, b in zip(self.window_cuts, self.window_splits)
              if b == s.vertices]
        if not ws:
            raise ValueError("not witnessed anywhere within the window")

        lower: Union[Cut, Side] = ws[0]
        upper: Union[Cut, Side] = ws[-1]
        if any(not f.mobile and f.fixed == s.vertices for f in self.low or ()):
            lower = Side.LEFT
        if any(not f.mobile and f.fixed == s.vertices for f in self.high or ()):
            upper = Side.RIGHT
        return SplitBounds(lower, upper)


def _reaches(line) -> Iterator[tuple[int, int]]:
    """(segment, direction) of every infinite reach, in line order: down an
    omega* or zeta segment (-1), up an omega or zeta segment (+1)."""
    for j, seg in enumerate(line.segments):
        if seg.kind in (SegmentKind.OMEGA_STAR, SegmentKind.ZETA):
            yield j, -1
        if seg.kind in (SegmentKind.OMEGA, SegmentKind.ZETA):
            yield j, +1


def _families_past(d: Decomposition, j: int, direction: int,
                   edge: int) -> tuple[SplitFamily, ...]:
    """The families of one reach with block 0 at the first offsets past
    enumerate_cuts(line, edge) in segment j."""
    omega_star = d.line.segments[j].kind is SegmentKind.OMEGA_STAR
    base = edge if direction > 0 else -edge - 1 if omega_star else -edge
    return _classify_deep(d, j, direction, base)


def _end_families(d: Decomposition, edge: int) -> tuple:
    """The families past `edge` of the reaches running off the low and the
    high end of the line, None for a closed end."""
    reaches = set(_reaches(d.line))
    return tuple(_families_past(d, *r, edge) if r in reaches else None
                 for r in ((0, -1), (len(d.line.segments) - 1, +1)))


def analyze_splits(d: Decomposition) -> SplitAnalysis:
    """Evaluate the split window of d and classify both line ends.
    Precondition: d verifies."""
    radius = _evaluation_radius(d)
    low, high = _end_families(d, radius)
    # block 0 of an end's class 0 is the outermost cut listed at that end
    cuts = enumerate_cuts(d.line, radius)
    window_cuts = tuple(cuts[bool(low):len(cuts) - bool(high)])
    window_splits = boundary_splits(d, window_cuts)
    m = min(map(len, window_splits)) if window_splits else None
    return SplitAnalysis(d, radius, window_cuts, window_splits, low, high, m)


def enumerate_min_splits(d: Decomposition) -> MinSplitIndexing:
    """The minimum splits of d, numbered.  Precondition: d verifies."""
    return analyze_splits(d).min_splits()


def empty_split_cuts(d: Decomposition) -> list[Cut]:
    """The cuts with empty split; see SplitAnalysis.empty_cuts.
    Precondition: d verifies."""
    return analyze_splits(d).empty_cuts()


def split_bounds(d: Decomposition, s: Split) -> SplitBounds:
    """The extreme witnesses of the minimum split s of d.  Precondition: d
    verifies."""
    return analyze_splits(d).bounds(s)


# ---------------------------------------------------------------------------
# Repeated splits (finite lines)


@dataclass(frozen=True)
class RepeatedSplit:
    """A split witnessed by at least two cuts, with its repeat interval:
    the run of points lying in some witness interval but not all of them."""

    split: Split
    interval: tuple[Point, Point]  # inclusive
    maximal: bool


def _maximal(spans: list[tuple[int, int]]) -> list[bool]:
    """For each span (lo, hi): does no other span contain it?  Sorted by
    (lo, -hi), the distinct spans containing one come before it, so one sort
    and a running maximum of hi decide all of them."""
    inside, reach = set(), -math.inf
    for lo, hi in sorted(set(spans), key=lambda s: (s[0], -s[1])):
        if reach >= hi:
            inside.add((lo, hi))
        reach = max(reach, hi)
    return [s not in inside for s in spans]


def repeated_splits(d: Decomposition) -> list[RepeatedSplit]:
    """On a finite line the split after the k-th point is the overlap of the
    k-th bag and the next one in the flattened bag list, as in
    boundary_splits, so each bag is read once."""
    if any(not s.is_finite for s in d.line.segments):
        raise UnsupportedScopeError(
            "repeated splits are only computed on finite lines")
    pts = all_points(d.line)
    bags = [b for t in d.templates for b in t.bags]
    groups: dict[Bag, tuple[list[int], list[Cut]]] = {}
    for k, (p, a, b) in enumerate(zip(pts, bags, bags[1:]), 1):
        c = Cut(p.segment, CutPosition.AFTER_OFFSET, p.offset)
        ks, cs = groups.setdefault(a & b, ([], []))
        ks.append(k)
        cs.append(c)
    reps = [(s, ks, cs) for s, (ks, cs) in groups.items() if len(ks) >= 2]
    spans = [(ks[0], ks[-1]) for _, ks, _ in reps]
    out = [RepeatedSplit(Split(s, tuple(cs)), (pts[lo], pts[hi - 1]), maximal)
           for (s, _, cs), (lo, hi), maximal in zip(reps, spans, _maximal(spans))]
    out.sort(key=lambda r: (r.interval[0].segment, r.interval[0].offset,
                            sorted(r.split.vertices)))
    return out
