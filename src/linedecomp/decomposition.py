"""Finitely presented line-decompositions.

A decomposition assigns a finite bag of vertices to every point of a line.
Finite segments carry explicit bag lists.  Infinite segments carry periodic
templates: ``period`` residue sets, a shift ``stride`` applied once per full
period, and an optional ``constant`` set pinned into every bag unshifted.
The graph being decomposed is always the clique-completion: vertices are the
union of all bags, and each bag is a clique.

Everything here is exact.  Verification, splits, limits and tidying are
decided symbolically from the templates, never by sampling a window and
hoping.
"""

from __future__ import annotations

import collections
import enum
import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

from linedecomp.line import (
    Cut,
    CutPosition,
    Line,
    Ordering,
    Point,
    Segment,
    SegmentKind,
    UnsupportedScopeError,
    compare_cuts,
    fin,
    normalize_cut,
    reverse_line,
)


class VertexId(tuple):
    """A graph vertex: a tag plus an optional integer index.

    Vertices with an index are mobile (they slide along periodic templates);
    vertices without one are static.  The value is the tuple (tag,
    is_mobile, index or 0, index), so hashing, equality and order run in C:
    tuple order on it puts statics before mobiles of the same tag, then
    orders by index, and a vertex never equals a (tag, index) pair.
    """

    __slots__ = ()

    def __new__(cls, tag: str, index: Optional[int] = None):
        return tuple.__new__(cls, (tag, index is not None, index or 0, index))

    def __getnewargs__(self):
        return (self[0], self[3])

    tag = property(operator.itemgetter(0))
    is_mobile = property(operator.itemgetter(1))
    index = property(operator.itemgetter(3))

    @property
    def is_static(self) -> bool:
        return self[3] is None

    def shift(self, d: int) -> "VertexId":
        if self[3] is None or d == 0:
            return self
        return tuple.__new__(VertexId, (self[0], True, self[3] + d, self[3] + d))

    def __repr__(self):
        if self[3] is None:
            return f"V({self[0]!r})"
        return f"V({self[0]!r},{self[3]})"


def V(tag: str, index: Optional[int] = None) -> VertexId:
    return VertexId(tag, index)


def shift_set(vs: Iterable[VertexId], d: int) -> frozenset[VertexId]:
    return frozenset(v.shift(d) for v in vs)


Bag = frozenset[VertexId]


def bag_of(*vs) -> Bag:
    out = []
    for v in vs:
        if isinstance(v, VertexId):
            out.append(v)
        elif isinstance(v, str):
            out.append(VertexId(v))
        else:
            tag, idx = v
            out.append(VertexId(tag, idx))
    return frozenset(out)


@dataclass(frozen=True)
class ExplicitBags:
    """Template of a finite segment: one bag per offset."""

    bags: tuple[Bag, ...]

    def bag(self, i: int) -> Bag:
        return self.bags[i]


@dataclass(frozen=True)
class PeriodicBags:
    """Template of an infinite segment.

    bag(i) = shift(residues[i mod period], stride * floor(i / period)) | constant

    Python's % and // give floor semantics for negative offsets, which is
    exactly the block arithmetic the formula needs.
    """

    period: int
    residues: tuple[Bag, ...]
    stride: int = 0
    constant: Bag = frozenset()
    bases: tuple[Bag, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.period < 1 or len(self.residues) != self.period:
            raise ValueError("period must match the number of residue templates")
        after = self.residues[1:] + (shift_set(self.residues[0], self.stride),)
        object.__setattr__(self, "bases", tuple(
            a & b for a, b in zip(self.residues, after)))

    def bag(self, i: int) -> Bag:
        b, r = divmod(i, self.period)
        return shift_set(self.residues[r], self.stride * b) | self.constant

    def split(self, i: int) -> Bag:
        """bag(i) & bag(i + 1), by the split formula: for i = b * period + r
        it is shift(bases[r], stride * b) | constant, where bases[r] is
        residue r met with residue r + 1, the last residue meeting residue 0
        shifted by one stride.  Exact because (A | C) & (B | C) = (A & B) | C
        and a shift commutes with &."""
        b, r = divmod(i, self.period)
        return shift_set(self.bases[r], self.stride * b) | self.constant

    def offsets_of(self, v: VertexId) -> tuple[int, ...]:
        """The offsets b*period + r, in order and unclipped, where residue
        vertex w of residue r shifted by stride * b is v; for mobile v and a
        nonzero stride.  Each w of v's tag reaches v at most once, in block
        (v.index - w.index) / stride when that divides, so no block is
        scanned.  Membership through the constant is not listed."""
        return tuple(sorted(
            b * self.period + r
            for r, res in enumerate(self.residues) for w in res
            if w.is_mobile and w.tag == v.tag
            for b, rem in [divmod(v.index - w.index, self.stride)] if rem == 0))


BagTemplate = Union[ExplicitBags, PeriodicBags]


class Side(enum.Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class Decomposition:
    line: Line
    templates: tuple[BagTemplate, ...]
    z1: Bag = frozenset()
    z2: Bag = frozenset()
    # what `_remembered` functions found about this object, by name
    _facts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.templates) != len(self.line.segments):
            raise ValueError("one template per segment")
        for seg, t in zip(self.line.segments, self.templates):
            if seg.kind is SegmentKind.FIN:
                if not isinstance(t, ExplicitBags) or len(t.bags) != seg.length:
                    raise ValueError("finite segments take one explicit bag per point")
                if any(not b for b in t.bags):
                    raise ValueError("bags must be nonempty")
            else:
                if not isinstance(t, PeriodicBags):
                    raise ValueError("infinite segments take periodic templates")
                if any(not (r | t.constant) for r in t.residues):
                    raise ValueError("bags must be nonempty")


def _remembered(fn):
    """fn(d) computed once per decomposition object and kept on it, which is
    sound because a Decomposition is never mutated.  A result that is d
    itself is kept as None, so that d holds no reference to itself."""
    @functools.wraps(fn)
    def once(d: Decomposition):
        out = d._facts.get(fn.__name__, once)
        if out is once:
            out = fn(d)
            d._facts[fn.__name__] = None if out is d else out
        return d if out is None else out
    return once


def bag_at(d: Decomposition, t: Point) -> Bag:
    seg = d.line.segments[t.segment]
    if not seg.contains_offset(t.offset):
        raise ValueError("point out of range")
    return d.templates[t.segment].bag(t.offset)


def full_vertices(d: Decomposition, j: int) -> Bag:
    """Vertices present in every bag of segment j, a periodic segment: every
    caller asks at an open end of the line or beside a limit point, and only
    an infinite segment has one."""
    t = d.templates[j]
    common = set(t.residues[0])
    for r in t.residues[1:]:
        common &= r
    keep = {v for v in common if v.is_static or t.stride == 0}
    return frozenset(keep) | t.constant


def width(d: Decomposition) -> int:
    """Max bag size minus one.  Periodic sizes are taken at generic blocks,
    where shifted residues can only meet the constant in its static part."""
    best = 0
    for t in d.templates:
        if isinstance(t, ExplicitBags):
            best = max(best, max(len(b) for b in t.bags))
        else:
            for r in t.residues:
                always = sum(1 for v in r & t.constant
                             if v.is_static or t.stride == 0)
                best = max(best, len(r) + len(t.constant) - always)
    return best - 1


# ---------------------------------------------------------------------------
# Verification


@dataclass(frozen=True)
class VerificationReport:
    betweenness_ok: bool
    boundary_ok: bool
    width: int
    counterexample: Optional[tuple] = None

    @property
    def ok(self) -> bool:
        return self.betweenness_ok and self.boundary_ok


def _explicit_occurrences(d: Decomposition, vertices: set[VertexId]
                          ) -> dict[int, dict[VertexId, list[int]]]:
    """For each explicit segment j: each of `vertices` in its bags mapped to
    the offsets where it occurs, in order, from one pass over the bags."""
    occ = {}
    for j, t in enumerate(d.templates):
        if isinstance(t, ExplicitBags):
            occ[j] = seen = collections.defaultdict(list)
            for i, b in enumerate(t.bags):
                for v in b & vertices:
                    seen[v].append(i)
    return occ


def _occurrence(d: Decomposition, j: int, v: VertexId, occ) -> Optional[tuple]:
    """v's occurrence in segment j as (first, last, low, high, gap), or None
    when no bag of the segment holds v.  gap is (r, s, t), offsets with v at
    r and t but not at s, or None.  Without a gap v occupies one run of
    offsets: first and last are occupied offsets, the least and the
    greatest where the run has them, and low (high) says that the run
    reaches the segment's lower (upper) end.  Explicit segments are read
    from `occ`, built by `_explicit_occurrences` over a set holding v.

    A static or unshifted vertex is in bag i exactly when i mod period is one
    of its residues.  Missing some residue, it shows a gap within any two
    consecutive periods of the segment: it is at r0 and r0 + period for a
    residue r0 it has, and not at the missing residue between them."""
    seg, t = d.line.segments[j], d.templates[j]
    if isinstance(t, ExplicitBags):
        offs = occ[j].get(v, ())
    elif v in t.constant:
        offs = None
    elif v.is_static or t.stride == 0:
        p = t.period
        rs = {r for r in range(p) if v in t.residues[r]}
        base = -2 * p if seg.kind is SegmentKind.OMEGA_STAR else 0
        offs = None if len(rs) == p else [
            o for o in range(base, base + 2 * p) if o % p in rs]
    else:
        offs = [o for o in t.offsets_of(v) if seg.contains_offset(o)]
    if offs is None:  # every bag of the segment
        first = -1 if seg.kind is SegmentKind.OMEGA_STAR else 0
        last = first if seg.max_offset is None else seg.max_offset
        return (first, last, True, True, None)
    if not offs:
        return None
    gap = next(((a, a + 1, b) for a, b in zip(offs, offs[1:]) if b > a + 1), None)
    return (offs[0], offs[-1], offs[0] == seg.min_offset,
            offs[-1] == seg.max_offset, gap)


def common_indices(s1: int, m1: int, r1: tuple[Optional[int], Optional[int]],
                   s2: int, m2: int, r2: tuple[Optional[int], Optional[int]],
                   count: int) -> list[int]:
    """Where the progressions {m1 + s1*b : b in r1} and {m2 + s2*b : b in r2}
    meet, for nonzero strides s1 and s2 and block ranges (lo, hi), None for
    an open end.  A common index exists iff g = gcd(s1, s2) divides m2 - m1;
    then m1 + s1*b0 is one, b0 = (m2 - m1)/g * (s1/g)^-1 mod |s2|/g, and
    they step by lcm(|s1|, |s2|).  Each bounded end of a range bounds them on
    one side.  Returns, in increasing order, `count` of them from each
    bounded end, or all of them when at most 2 * count lie between two
    bounded ends; when no range bounds them, `count` upward from the least
    one >= m1."""
    g = math.gcd(s1, s2)
    if (m2 - m1) % g:
        return []
    n = abs(s2) // g
    x = m1 + s1 * ((m2 - m1) // g * pow(s1 // g, -1, n) % n)
    step = abs(s1) * n
    lows, highs = [], []
    for s, m, (b_lo, b_hi) in ((s1, m1, r1), (s2, m2, r2)):
        for b, below in ((b_lo, s > 0), (b_hi, s < 0)):
            if b is not None:
                (lows if below else highs).append(m + s * b)
    if not lows and not highs:
        lows = [m1]
    low = max(lows) + (x - max(lows)) % step if lows else None
    high = min(highs) - (min(highs) - x) % step if highs else None
    if low is not None and high is not None:
        if low > high:
            return []
        if high - low < 2 * count * step:
            return list(range(low, high + 1, step))
    out = []
    if low is not None:
        out += range(low, low + count * step, step)
    if high is not None:
        out += range(high - (count - 1) * step, high + 1, step)
    return out


def _mobile_tag_indices(t: PeriodicBags) -> dict[str, set[int]]:
    out: dict[str, set[int]] = {}
    for res in t.residues:
        for w in res:
            if w.is_mobile:
                out.setdefault(w.tag, set()).add(w.index)
    return out


def _betweenness_counterexample(d: Decomposition) -> Optional[tuple]:
    """None when every vertex's occurrence set is an interval of the line,
    else (vertex, r, s, t) with the vertex in the bags at r and t but not s,
    for the least failing vertex among the candidates checked.

    An explicit vertex is settled, and not a candidate, when it occurs in
    one explicit segment only, without a gap, and no periodic template holds
    a vertex of its tag.  `_occurrence` sees a vertex in a periodic segment
    only through vertices of its tag, so a settled vertex occupies one
    segment: nothing pins it to an end, its offsets are contiguous, and
    `_check_candidate` returns None for it.
    """
    candidates: set[VertexId] = set()

    # 1) shifted orbits within one periodic segment: a pattern with a gap
    #    breaks every member (the vertex stride*k further occurs at the
    #    offsets plus k*period), so one representative per (tag, index mod
    #    |stride|) stands for the orbit, slid until its whole pattern is
    #    admissible and it avoids the finitely many constant vertices
    for seg, t in zip(d.line.segments, d.templates):
        if isinstance(t, PeriodicBags) and t.stride != 0:
            reps = {VertexId(w.tag, w.index % abs(t.stride))
                    for res in t.residues for w in res if w.is_mobile}
            for v in reps:
                pattern = t.offsets_of(v)
                if len(pattern) > 1 and pattern[-1] - pattern[0] + 1 != len(pattern):
                    k = _expose_shift(seg.kind, t, pattern, v)
                    candidates.add(v.shift(t.stride * k))

    # 2) vertices shared between two shifted periodic templates j1 < j2: for
    #    residue indices m1 of j1 and m2 of j2 of one tag, a progression of
    #    common indices.  A member passes only if its run in j1 reaches the
    #    segment's upper end and its run in j2 the lower end: it is in both
    #    constants, or in j1's bag at offset -1 (an omega*) as m1' - stride
    #    for a residue index m1', or in j2's bag at offset 0 (an omega) as a
    #    residue index.  So fewer than `need` members pass, and `need` of
    #    them from a bounded end, upward from m1 when nothing bounds them, or
    #    all of them between two bounded ends hold a failing one if any fails.
    periodic = [(t, (seg.min_offset, seg.max_offset))
                for seg, t in zip(d.line.segments, d.templates)
                if isinstance(t, PeriodicBags) and t.stride != 0]
    for (t1, r1), (t2, r2) in itertools.combinations(periodic, 2):
        idx1, idx2 = _mobile_tag_indices(t1), _mobile_tag_indices(t2)
        for tag in set(idx1) & set(idx2):
            need = len(idx1[tag]) + len(idx2[tag]) + 2 + sum(
                1 for v in t1.constant & t2.constant if v.tag == tag and v.is_mobile)
            for m1, m2 in itertools.product(idx1[tag], idx2[tag]):
                shared = common_indices(t1.stride, m1, r1, t2.stride, m2, r2, need)
                candidates.update(VertexId(tag, i) for i in shared)

    # 3) concrete candidates: statics, pinned vertices and unshifted mobiles
    #    of periodic templates, and the explicit vertices left unsettled by
    #    one sweep per explicit segment: those that come back after leaving,
    #    those of two explicit segments, those of a tag a template holds
    tags: set[str] = set()
    seen: set[VertexId] = set()
    for t in d.templates:
        if isinstance(t, ExplicitBags):
            prev, left = frozenset(), set()
            for b in t.bags:
                left |= prev - b
                candidates |= b & left
                prev = b
            left |= prev
            candidates |= seen & left
            seen |= left
        else:
            candidates.update(t.constant)
            tags.update(v.tag for v in t.constant)
            for res in t.residues:
                tags.update(v.tag for v in res)
                candidates.update(v for v in res if v.is_static or t.stride == 0)
    candidates.update(v for v in seen if v.tag in tags)
    if not candidates:
        return None

    # the least failing vertex: each counterexample starts with its vertex;
    # every lookup in occ asks about the candidate being checked
    occ = _explicit_occurrences(d, candidates)
    return min(filter(None, (_check_candidate(d, v, occ) for v in candidates)),
               key=lambda bad: bad[0], default=None)


def _expose_shift(kind: SegmentKind, t: PeriodicBags, pattern, v: VertexId) -> int:
    """Blocks to slide an orbit pattern so every offset is admissible and the
    slid representative vertex is not pinned by the constant set."""
    p = t.period
    k = 0
    while True:
        offs = [o + k * p for o in pattern]
        ok = ((kind is not SegmentKind.OMEGA or offs[0] >= 0)
              and (kind is not SegmentKind.OMEGA_STAR or offs[-1] <= -1))
        if ok and v.shift(t.stride * k) not in t.constant:
            return k
        k = k + 1 if kind is not SegmentKind.OMEGA_STAR else k - 1


def _check_candidate(d: Decomposition, v: VertexId, occ) -> Optional[tuple]:
    """(v, r, s, t) when v's bags are not an interval of the line, else None.
    A gap inside a segment is its own witness.  Otherwise v occupies one run
    of each segment it meets, and consecutive segments j1 < j2 that it meets
    must join up: no segment lies between them, the run in j1 reaches its
    upper end and the run in j2 its lower end."""
    found = [(j, rec) for j in range(len(d.line.segments))
             for rec in [_occurrence(d, j, v, occ)] if rec is not None]
    for j, (_, _, _, _, gap) in found:
        if gap is not None:
            return (v,) + tuple(Point(j, o) for o in gap)
    for (j1, (_, last, _, high, _)), (j2, (first, _, low, _, _)) in zip(found, found[1:]):
        r, t = Point(j1, last), Point(j2, first)
        if j2 > j1 + 1:
            between = d.line.segments[j1 + 1]
            return (v, r, Point(j1 + 1, -1 if between.kind is SegmentKind.OMEGA_STAR
                                else 0), t)
        if not high:
            return (v, r, Point(j1, last + 1), t)
        if not low:
            return (v, r, Point(j2, first - 1), t)
    return None


def limit_vertices(d: Decomposition, side: Side) -> Bag:
    if side is Side.LEFT:
        seg = d.line.segments[0]
        if seg.min_offset is not None:
            return bag_at(d, Point(0, seg.min_offset))
        return full_vertices(d, 0)
    j = len(d.line.segments) - 1
    seg = d.line.segments[j]
    if seg.max_offset is not None:
        return bag_at(d, Point(j, seg.max_offset))
    return full_vertices(d, j)


@_remembered
def verify(d: Decomposition) -> VerificationReport:
    """Check betweenness and the designated limit vertices.  A betweenness
    counterexample (v, r, s, t) names the least failing vertex v among the
    candidates checked (one vertex stands for each shifted orbit) and three
    points r < s < t of the line with v in the bags at r and t but not in
    the bag at s.  The vertices two shifted segments share are checked a
    few from each bounded end of every progression of common indices
    (common_indices); two zeta segments bound them on neither side, and
    then they are checked upward from the first segment's residue index.
    Finite segments cost one set sweep each, O(B) over the B
    vertex slots of their bags.  Per-vertex checks, one lookup per segment,
    run only for gapped vertices, vertices of two explicit segments and
    vertices whose tag a periodic template holds; every other vertex is
    settled by the sweep, as `_betweenness_counterexample` argues.
    Periodic segments use templates."""
    w = width(d)
    bad = _betweenness_counterexample(d)
    if bad is not None:
        return VerificationReport(False, True, w, bad)
    left = limit_vertices(d, Side.LEFT)
    right = limit_vertices(d, Side.RIGHT)
    if not d.z1 <= left:
        v = min(d.z1 - left)
        return VerificationReport(True, False, w, (v,))
    if not d.z2 <= right:
        v = min(d.z2 - right)
        return VerificationReport(True, False, w, (v,))
    return VerificationReport(True, True, w)


# ---------------------------------------------------------------------------
# Splits at cuts (the exact boundary formula; the splits module builds on it)


def boundary_split(d: Decomposition, c: Cut) -> Bag:
    """W(I) & W(L\\I) for the initial interval named by the cut; see
    boundary_splits."""
    return boundary_splits(d, (c,))[0]


def boundary_splits(d: Decomposition, cuts: Sequence[Cut]) -> tuple[Bag, ...]:
    """The split W(I) & W(L\\I) at each cut, in one pass.

    With betweenness, a vertex on both sides must sit in the bag at the
    interval's greatest point when it exists, and must occur throughout the
    open end otherwise; dually above.  So the split is the intersection of
    the two boundary bags, with full_vertices standing in at open ends.

    Cost: one normalize_cut per cut, then one shifted base (PeriodicBags.
    split) when both points lie in one periodic segment.  Elsewhere the
    last bag built is kept, so consecutive explicit cuts share their common
    point: r such cuts in a row build r + 1 bags, not 2r.  Any order gives
    the same splits.
    """
    segs = d.line.segments
    kept_at, kept = None, frozenset()  # (segment, offset) of the last bag

    def bag(j: int, i: Optional[int]) -> Bag:
        """The bag at (j, i); i None means the open end of segment j."""
        nonlocal kept_at, kept
        if kept_at != (j, i):
            kept_at = (j, i)
            kept = full_vertices(d, j) if i is None else d.templates[j].bag(i)
        return kept

    out = []
    for c in cuts:
        c = normalize_cut(d.line, c)  # never BEFORE_SEGMENT from here on
        j, i = c.segment, c.offset  # i is None at a limit cut
        if i is not None and segs[j].contains_offset(i + 1):
            t = d.templates[j]
            out.append(t.split(i) if isinstance(t, PeriodicBags)
                       else bag(j, i) & bag(j, i + 1))
        else:
            out.append(bag(j, i) & bag(j + 1, segs[j + 1].min_offset))
    return tuple(out)


# ---------------------------------------------------------------------------
# Structural transforms and slicing


def reverse_decomposition(d: Decomposition) -> Decomposition:
    temps = []
    for t in reversed(d.templates):
        if isinstance(t, ExplicitBags):
            temps.append(ExplicitBags(tuple(reversed(t.bags))))
        else:
            p = t.period
            res = tuple(shift_set(t.residues[p - 1 - r], -t.stride) for r in range(p))
            temps.append(PeriodicBags(p, res, -t.stride, t.constant))
    return Decomposition(reverse_line(d.line), tuple(temps), d.z2, d.z1)


def add_to_bags(d: Decomposition, s: Bag) -> Decomposition:
    if not s:
        return d
    def add(t):
        if isinstance(t, ExplicitBags):
            return ExplicitBags(tuple(b | s for b in t.bags))
        return PeriodicBags(t.period, t.residues, t.stride, t.constant | s)
    return Decomposition(d.line, tuple(add(t) for t in d.templates),
                         d.z1 | s, d.z2 | s)


def remove_from_bags(d: Decomposition, s: Bag) -> Optional[Decomposition]:
    """Delete the vertices of s from every bag.  Points whose bags empty out
    are dropped from the line; returns None when nothing remains.

    On periodic segments this is only expressible when each removed vertex
    is pinned, static, or unshifted; a vertex riding a nonzero stride occurs
    at isolated offsets and its removal has no template form.
    """
    if not s:
        return d
    segs: list[Segment] = []
    temps: list[BagTemplate] = []
    for seg, t in zip(d.line.segments, d.templates):
        if isinstance(t, ExplicitBags):
            bags = [b - s for b in t.bags]
            bags = [b for b in bags if b]
            if bags:
                segs.append(fin(len(bags)))
                temps.append(ExplicitBags(tuple(bags)))
            continue
        if t.stride != 0 and any(v.is_mobile and v not in t.constant
                                 and t.offsets_of(v) for v in s):
            raise UnsupportedScopeError(
                "cannot remove a vertex that rides the stride")
        res = tuple(r - s for r in t.residues)
        const = t.constant - s
        keep = [r for r in range(t.period) if res[r] | const]
        if not keep:
            continue
        segs.append(seg)
        temps.append(_retemplate(
            PeriodicBags(t.period, res, t.stride, const), keep))
    if not segs:
        return None
    z1 = d.z1 - s
    z2 = d.z2 - s
    return Decomposition(Line(tuple(segs)), tuple(temps), z1, z2)


def _retemplate(t: PeriodicBags, offsets: Sequence[int]) -> PeriodicBags:
    """Template u with u.bag(b*q + r) == t.bag(offsets[r] + b*t.period),
    q = len(offsets): one period of t's offsets, renumbered consecutively.
    A run of p consecutive offsets rephases t; a sub-pattern of residues
    drops the others while the origin stays at block 0."""
    p = t.period
    res = tuple(shift_set(t.residues[o % p], t.stride * (o // p)) for o in offsets)
    return PeriodicBags(len(res), res, t.stride, t.constant)


def slice_between(d: Decomposition, lo: Optional[Cut], hi: Optional[Cut]) -> Decomposition:
    """The piece strictly above `lo` and weakly below `hi` (None = line end).

    Its ends designate the splits at the cuts, or d's own limit sets at an
    open end.  Each segment keeps the offsets between the cuts: all of
    them (kept whole), a finite run (a bag list), or a ray, renumbered so
    an omega starts at 0 and an omega* ends at -1.
    """
    if lo is None and hi is None:
        return d
    lo = None if lo is None else normalize_cut(d.line, lo)
    hi = None if hi is None else normalize_cut(d.line, hi)
    if lo is not None and hi is not None and compare_cuts(d.line, lo, hi) is not Ordering.LT:
        raise ValueError("slice_between needs lo to lie below hi")
    segs: list[Segment] = []
    temps: list[BagTemplate] = []
    for j, (seg, t) in enumerate(zip(d.line.segments, d.templates)):
        start, end = seg.min_offset, seg.max_offset
        if lo is not None and j <= lo.segment:
            if j < lo.segment or lo.position is CutPosition.AFTER_SEGMENT:
                continue
            start = lo.offset + 1
        if hi is not None and j >= hi.segment:
            if j > hi.segment:
                break
            if hi.position is CutPosition.AFTER_OFFSET:
                end = hi.offset
        if (start, end) == (seg.min_offset, seg.max_offset):
            segs.append(seg)
            temps.append(t)
        elif start is None:
            segs.append(Segment(SegmentKind.OMEGA_STAR))
            temps.append(_retemplate(t, range(end + 1, end + 1 + t.period)))
        elif end is None:
            segs.append(Segment(SegmentKind.OMEGA))
            temps.append(_retemplate(t, range(start, start + t.period)))
        elif start <= end:
            segs.append(fin(end - start + 1))
            temps.append(ExplicitBags(tuple(t.bag(o) for o in range(start, end + 1))))
    z1 = d.z1 if lo is None else boundary_split(d, lo)
    z2 = d.z2 if hi is None else boundary_split(d, hi)
    return Decomposition(Line(tuple(segs)), tuple(temps), z1, z2)


# ---------------------------------------------------------------------------
# Tidying


def _nesting(t: PeriodicBags) -> tuple[list[bool], list[bool]]:
    """Per residue r: up[r] says bag r lies inside bag r + 1, down[r] that
    it lies inside bag r - 1, on blocks away from collisions.

    N1.  Take a block where no shifted residue vertex is a mobile constant
    vertex.  There a shift is one-to-one and meets the constant only in its
    static part, so bag r lies inside bag r + 1 exactly when residue r lies
    inside residue r + 1 (residue 0 shifted by one stride, past the last)
    joined with the static constant; likewise toward r - 1.  On a zero
    stride every block can meet the mobile constant, so its constant must
    be folded into the residues first (_canonical).  All bags are equal
    exactly when every residue nests both ways: a nonempty mobile part on a
    nonzero stride never does, since the shift moves its least index.
    """
    res = t.residues
    static = frozenset(v for v in t.constant if v.is_static)
    after = res[1:] + (shift_set(res[0], t.stride),)
    before = (shift_set(res[-1], -t.stride),) + res[:-1]
    return ([r <= a | static for r, a in zip(res, after)],
            [r <= b | static for r, b in zip(res, before)])


def _canonical(d: Decomposition) -> tuple[Decomposition, bool]:
    """Fold a zero stride's constant into its residues, then collapse each
    periodic template whose bags are all equal (N1) to one explicit bag."""
    changed = False
    segs, temps = [], []
    for seg, t in zip(d.line.segments, d.templates):
        if isinstance(t, PeriodicBags):
            if t.stride == 0 and t.constant:
                t = PeriodicBags(t.period, tuple(r | t.constant for r in t.residues), 0)
                changed = True
            if all(map(all, _nesting(t))):
                seg, t = fin(1), ExplicitBags((t.residues[0] | t.constant,))
                changed = True
        segs.append(seg)
        temps.append(t)
    if not changed:
        return d, False
    return Decomposition(Line(tuple(segs)), tuple(temps), d.z1, d.z2), True


@dataclass
class _Zone:
    seg_index: int
    template: BagTemplate
    hull_lo: int              # first explicit offset (explicit segments: 0)
    hull_bags: list[Bag]
    tail_down: bool = False   # infinitely many bags below the hull
    tail_up: bool = False
    keep_pattern: Optional[set[int]] = None   # kept residues, tails only
    kept_hull: list[int] = field(default_factory=list)


def _zone_for_segment(d: Decomposition, j: int) -> _Zone:
    """Segment j's hull: every bag of a finite segment; on a periodic one,
    whole blocks reaching at least two blocks past every collision block
    (the specials b - 1..b + 1 of each collision block b, then one more).
    So the bags just outside a hull, and every bag beyond them, lie on
    blocks where _nesting's residue test holds (N1), and _decide_drops
    needs only one template bag past each hull edge (N2)."""
    seg = d.line.segments[j]
    t = d.templates[j]
    if isinstance(t, ExplicitBags):
        return _Zone(j, t, 0, list(t.bags))
    p = t.period
    specials: set[int] = set()
    if t.stride != 0:
        for c in t.constant:
            if c.is_mobile:
                for o in t.offsets_of(c):
                    b = o // p
                    specials.update({b - 1, b, b + 1})
    if seg.kind is SegmentKind.OMEGA:
        blk_lo = 0
        blk_hi = max([1] + [b for b in specials if b >= 0]) + 1
    elif seg.kind is SegmentKind.OMEGA_STAR:
        blk_hi = -1
        blk_lo = min([-2] + [b for b in specials if b <= -1]) - 1
    else:
        blk_lo = min([-1] + list(specials)) - 1
        blk_hi = max([0] + list(specials)) + 1
    hull_lo = blk_lo * p
    hull_hi = (blk_hi + 1) * p - 1
    bags = [t.bag(i) for i in range(hull_lo, hull_hi + 1)]
    return _Zone(j, t, hull_lo, bags,
                 tail_down=seg.kind in (SegmentKind.OMEGA_STAR, SegmentKind.ZETA),
                 tail_up=seg.kind in (SegmentKind.OMEGA, SegmentKind.ZETA))


def _tail_drops(t: PeriodicBags) -> tuple[list[bool], list[bool]]:
    """Per residue r, far out on a tail: whether bag r lies inside the bag
    before it, and whether it lies inside the first differing bag after its
    run of equal bags.  Bags r and r + 1 are equal when up[r] and
    down[r + 1] both hold (N1).

    N2.  On a template that is not constant (_canonical collapsed those),
    a run of equal bags away from collisions joins fewer than p neighbours:
    p equal neighbours in a row cover every pair of residues r, r + 1, so
    every residue would nest both ways.  So the walk below stops within
    p - 1 steps, and the bag that ends a run is never the same residue a
    period on.
    """
    up, down = _nesting(t)
    p = t.period
    later = []
    for r in range(p):
        k = r
        while up[k % p] and down[(k + 1) % p]:
            k += 1
        later.append(up[k % p])
    return down, later


def _decide_drops(d: Decomposition, zones: list[_Zone]) -> bool:
    """Fill kept_hull / keep_pattern on every zone by tidy's drop rule;
    True if anything drops.  A hull bag is tested against the bag before
    it: the previous hull bag, one template bag past its own tail's edge,
    or the open segment's full set across a limit point.  "Inside a later
    bag" is resolved from the right: a bag equal to the one after it takes
    that one's flag.  A run reaching a hull's upper edge takes its tail's
    residue-0 flag: N1 holds past the hull, and by N2 the run ends within
    the tail's first period.  A full set ends a run with the flag set: a
    bag inside every bag of a segment that is not constant sits strictly
    inside one of them.
    """
    any_drop = False
    after: Optional[tuple[Bag, bool]] = None   # the bag right of here, its flag
    for zi in range(len(zones) - 1, -1, -1):
        z = zones[zi]
        t = z.template
        if z.tail_up or z.tail_down:
            before_tail, later_tail = _tail_drops(t)
            z.keep_pattern = {r for r in range(t.period)
                              if not (before_tail[r] or later_tail[r])}
            any_drop |= len(z.keep_pattern) < t.period
        if z.tail_up:
            after = (t.bag(z.hull_lo + len(z.hull_bags)), later_tail[0])
        elif zi + 1 < len(zones) and zones[zi + 1].tail_down:
            after = (full_vertices(d, zi + 1), True)
        if z.tail_down:
            before = t.bag(z.hull_lo - 1)
        elif zi > 0 and zones[zi - 1].tail_up:
            before = full_vertices(d, zi - 1)
        else:
            before = zones[zi - 1].hull_bags[-1] if zi > 0 else None
        bags = z.hull_bags
        later = [False] * len(bags)
        for i in range(len(bags) - 1, -1, -1):
            b = bags[i]
            later[i] = after is not None and (after[1] if b == after[0] else b <= after[0])
            after = (b, later[i])
        prev = [before] + bags[:-1]
        z.kept_hull = [i for i, b in enumerate(bags)
                       if not (later[i] or (prev[i] is not None and b <= prev[i]))]
        any_drop |= len(z.kept_hull) < len(bags)
    return any_drop


def _assemble(d: Decomposition, zones: list[_Zone]) -> Decomposition:
    pieces: list[tuple] = []  # ('bags', [..]) | ('seg', Segment, template)
    for z in zones:
        kept_bags = [z.hull_bags[i] for i in z.kept_hull]
        if not (z.tail_down or z.tail_up):
            pieces.append(("bags", kept_bags))
            continue
        t = z.template
        keep = sorted(z.keep_pattern)
        # periodic hulls start and end on block boundaries, so the kept
        # offsets of the block just below (above) the hull are offsets
        # -q..-1 (0..q-1) of the omega* (omega) tail
        hull_end = z.hull_lo + len(z.hull_bags)
        if z.kept_hull == [i for i in range(len(z.hull_bags)) if i % t.period in keep]:
            # the explicit window dropped nothing beyond the periodic pattern,
            # so the segment keeps its shape
            pieces.append(("seg", d.line.segments[z.seg_index], _retemplate(t, keep)))
            continue
        if z.tail_down:
            pieces.append(("seg", Segment(SegmentKind.OMEGA_STAR),
                           _retemplate(t, [z.hull_lo + r for r in keep])))
        pieces.append(("bags", kept_bags))
        if z.tail_up:
            pieces.append(("seg", Segment(SegmentKind.OMEGA),
                           _retemplate(t, [hull_end + r for r in keep])))
    segs: list[Segment] = []
    temps: list[BagTemplate] = []
    run: list[Bag] = []
    for piece in pieces:
        if piece[0] == "bags":
            run.extend(piece[1])
        else:
            if run:
                segs.append(fin(len(run)))
                temps.append(ExplicitBags(tuple(run)))
                run = []
            segs.append(piece[1])
            temps.append(piece[2])
    if run:
        segs.append(fin(len(run)))
        temps.append(ExplicitBags(tuple(run)))
    assert segs, "tidying never empties a decomposition"
    return Decomposition(Line(tuple(segs)), tuple(temps), d.z1, d.z2)


@_remembered
def tidy(d: Decomposition) -> Decomposition:
    """Drop every bag that duplicates or nests inside another.

    The rule, along the line: a bag drops when it lies inside the bag
    before it, or inside the first differing bag after its run of equal
    bags.  Across a limit point the open segment's full set stands for the
    bag there.  A periodic segment whose bags are all equal is one bag.

    The output has pairwise distinct, non-nested bags (they are exactly the
    maximal cliques of the graph), the same clique-completion, and width at
    most the input's.  Returns the input object itself when it is already
    tidy in this structural sense.
    """
    canon, changed = _canonical(d)
    zones = [_zone_for_segment(canon, j) for j in range(len(canon.line.segments))]
    if not _decide_drops(canon, zones) and not changed:
        return d
    return _assemble(canon, zones)
