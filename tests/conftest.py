"""Fixtures and oracles shared by several test modules."""

import itertools
import random
from dataclasses import dataclass, field

import pytest

from typing import Callable, Optional

from linedecomp.line import (
    Cut,
    CutPosition,
    Line,
    Ordering,
    Point,
    SegmentKind,
    check_cut,
    compare_points,
    enumerate_cuts,
    fin,
    is_well_order,
    omega,
    omega_star,
    zeta,
)
from linedecomp.decomposition import (
    Bag,
    Decomposition,
    ExplicitBags,
    PeriodicBags,
    V,
    VertexId,
    bag_at,
    boundary_splits,
    full_vertices,
    verify,
)
from linedecomp.splits import SplitAnalysis, _classify_deep, split_budget


# ---------------------------------------------------------------------------
# Neighbours of a cut
#
# The points on either side of a cut, read off each spelling separately.
# The library computes them by offset arithmetic on normalized cuts; the
# tests check it against these.


def point_just_below_cut(line: Line, c: Cut) -> Optional[Point]:
    """Greatest point inside the cut's interval, if the interval has one."""
    check_cut(line, c)
    if c.position is CutPosition.AFTER_OFFSET:
        return Point(c.segment, c.offset)
    hi = line.segments[segment_below_cut(c)].max_offset
    return None if hi is None else Point(segment_below_cut(c), hi)


def point_just_above_cut(line: Line, c: Cut) -> Optional[Point]:
    """Least point outside the cut's interval, if the complement has one."""
    check_cut(line, c)
    j = segment_above_cut(line, c)
    if c.position is CutPosition.AFTER_OFFSET and j == c.segment:
        return Point(j, c.offset + 1)
    lo = line.segments[j].min_offset
    return None if lo is None else Point(j, lo)


def segment_below_cut(c: Cut) -> int:
    """Index of the segment holding the top of the cut's interval."""
    return c.segment - 1 if c.position is CutPosition.BEFORE_SEGMENT else c.segment


def segment_above_cut(line: Line, c: Cut) -> int:
    """Index of the segment holding the bottom of the cut's complement."""
    if c.position is CutPosition.BEFORE_SEGMENT:
        return c.segment
    if c.position is CutPosition.AFTER_SEGMENT:
        return c.segment + 1
    seg = line.segments[c.segment]
    return c.segment if seg.contains_offset(c.offset + 1) else c.segment + 1


def oracle_split(d: Decomposition, c: Cut) -> Bag:
    """The split at one cut as the meet of the two bags around it, each
    built from its template and read off the cut's own spelling, with
    full_vertices at an open end."""
    below = point_just_below_cut(d.line, c)
    above = point_just_above_cut(d.line, c)
    down = (bag_at(d, below) if below is not None
            else full_vertices(d, segment_below_cut(c)))
    up = (bag_at(d, above) if above is not None
          else full_vertices(d, segment_above_cut(d.line, c)))
    return down & up


# ---------------------------------------------------------------------------
# Integral lines
#
# Whether a line order-embeds into the integers, and the embedding, by
# counting the points between two points.  The library never needs either;
# the tests use them to check the line algebra's order against the integers.


def count_points_between(line: Line, a: Point, b: Point) -> Optional[int]:
    """Number of points p with a < p <= b, or None when infinite.

    Requires a <= b.
    """
    if compare_points(line, a, b) is Ordering.GT:
        raise ValueError("expected a <= b")
    if a.segment == b.segment:
        return b.offset - a.offset
    total = 0
    seg_a = line.segments[a.segment]
    if seg_a.kind is SegmentKind.FIN:
        total += seg_a.length - 1 - a.offset
    elif seg_a.kind is SegmentKind.OMEGA_STAR:
        total += -1 - a.offset
    else:
        return None
    for j in range(a.segment + 1, b.segment):
        mid = line.segments[j]
        if not mid.is_finite:
            return None
        total += mid.length
    seg_b = line.segments[b.segment]
    if seg_b.kind in (SegmentKind.FIN, SegmentKind.OMEGA):
        total += b.offset + 1
    else:
        return None
    return total


def is_integral(line: Line) -> tuple[bool, Optional[Callable[[Point], int]]]:
    """Does the line order-embed into the integers?

    Equivalent to every closed interval [r, t] being finite.  In the segment
    algebra that means: any segment with points above it must have finite
    upward tails (Fin or omega*), and any segment with points below it must
    have finite downward parts (Fin or omega).  When true, the second
    component is a strictly monotone map into the integers, anchored at the
    accessible end of the first segment.
    """
    n = len(line.segments)
    for j, seg in enumerate(line.segments):
        if j < n - 1 and seg.kind in (SegmentKind.OMEGA, SegmentKind.ZETA):
            return False, None
        if j > 0 and seg.kind in (SegmentKind.OMEGA_STAR, SegmentKind.ZETA):
            return False, None

    seg0 = line.segments[0]
    anchor = Point(0, -1) if seg0.kind is SegmentKind.OMEGA_STAR else Point(0, 0)

    def phi(p: Point) -> int:
        order = compare_points(line, p, anchor)
        if order is Ordering.EQ:
            return 0
        if order is Ordering.GT:
            k = count_points_between(line, anchor, p)
        else:
            k = count_points_between(line, p, anchor)
            k = None if k is None else -k
        assert k is not None  # integral: all intervals finite
        return k

    return True, phi


# ---------------------------------------------------------------------------
# The split window at full radius
#
# analyze_splits as the library first wrote it: every cut out to
# split_budget evaluated through boundary_splits, and the line ends
# classified there.  At that radius min_splits reads no entry off the
# families, so it numbers the minimum splits from evaluated cuts alone.  The
# library evaluates only out to the radius past the last collision; the
# tests check that both number, bound, refuse and rebuild alike.


def full_radius_analysis(d: Decomposition) -> SplitAnalysis:
    """The split analysis of d with its window evaluated out to
    split_budget(d)."""
    budget = split_budget(d)
    segs = d.line.segments
    n = len(segs)
    low = high = None
    if segs[0].kind is SegmentKind.OMEGA_STAR:
        low = _classify_deep(d, 0, -1, -budget - 1)
    if segs[0].kind is SegmentKind.ZETA:
        low = _classify_deep(d, 0, -1, -budget)
    if segs[-1].kind in (SegmentKind.OMEGA, SegmentKind.ZETA):
        high = _classify_deep(d, n - 1, +1, budget)

    def deep(c: Cut) -> bool:
        return c.position is CutPosition.AFTER_OFFSET and bool(
            (low and c.segment == 0 and c.offset <= low[0].offset)
            or (high and c.segment == n - 1 and c.offset >= high[0].offset))

    cuts = tuple(c for c in enumerate_cuts(d.line, budget) if not deep(c))
    splits = boundary_splits(d, cuts)
    m = min(map(len, splits)) if splits else None
    return SplitAnalysis(d, budget, cuts, splits, low, high, m)


# ---------------------------------------------------------------------------
# Window meetings by pair scan
#
# SplitAnalysis.window_meetings as the library first wrote it, inline in
# its callers: every marching family tested against every window split with
# SplitFamily.meets.  The library probes an index of the window instead;
# the tests check that both find the same meetings and that min_splits and
# is_prime decide the same either way.


def window_meetings_by_scan(sa, families):
    """Each marching family that meets a window split, with the last block
    where it does and the first window cut of the split there."""
    for f in families:
        if not f.mobile:
            continue
        hits = [(b, c) for c, s in zip(sa.window_cuts, sa.window_splits)
                for b in [f.meets(s)] if b is not None]
        if hits:
            b, c = max(hits, key=lambda h: h[0])
            yield f, b, c


# ---------------------------------------------------------------------------
# Exact path-width by pushing
#
# The vertex-separation DP as the library first wrote it: boundaries counted
# vertex by vertex, and every dp[S] pushed forward to each S + v, keeping the
# first strict improvement and the vertex that gave it.  The library pulls
# instead; the tests check that it returns the same value and the same bags.


def pathwidth_push(g) -> tuple[int, tuple[Bag, ...]]:
    """Path-width of a finite graph and the bags of its elimination order."""
    verts = sorted(g.vertices)
    n = len(verts)
    index = {v: i for i, v in enumerate(verts)}
    adj = [0] * n
    for e in g.edges:
        u, w = tuple(e)
        adj[index[u]] |= 1 << index[w]
        adj[index[w]] |= 1 << index[u]

    full = (1 << n) - 1
    INF = n + 1
    dp = [INF] * (full + 1)
    parent = [-1] * (full + 1)
    bnd = [0] * (full + 1)
    for mask in range(1, full + 1):
        b = 0
        m = mask
        while m:
            lw = m & -m
            if adj[lw.bit_length() - 1] & ~mask & full:
                b += 1
            m ^= lw
        bnd[mask] = b

    dp[0] = 0
    for mask in range(full + 1):
        cur = dp[mask]
        if cur >= INF:
            continue
        free = full & ~mask
        while free:
            low = free & -free
            nm = mask | low
            cost = cur if cur > bnd[nm] else bnd[nm]
            if cost < dp[nm]:
                dp[nm] = cost
                parent[nm] = low.bit_length() - 1
            free ^= low

    order_rev = []
    mask = full
    while mask:
        v = parent[mask]
        order_rev.append(v)
        mask ^= 1 << v
    order = order_rev[::-1]

    # Bag i holds v_i plus every earlier vertex with a neighbour at or past i.
    maxnbr = [-1] * n
    pos = {v: i for i, v in enumerate(order)}
    for e in g.edges:
        u, w = tuple(e)
        a, b = pos[index[u]], pos[index[w]]
        if a > b:
            a, b = b, a
        maxnbr[a] = max(maxnbr[a], b)
    bags = []
    for i in range(n):
        bag = {verts[order[i]]}
        for j in range(i):
            if maxnbr[j] >= i:
                bag.add(verts[order[j]])
        bags.append(frozenset(bag))
    return dp[full], tuple(bags)


# ---------------------------------------------------------------------------
# The band certificate by enumeration
#
# certificate_lowerbound as the library first wrote it: fact (b) decided by
# listing every set that holds the anchor block, up to the cap.  The library
# counts the matching edges that miss the block instead; the tests check
# that both give the same answer at every cap.  The cost grows about 4x per
# k, so the tests stop at k = 7.


def certificate_by_enumeration(k: int, max_set_size: Optional[int] = None) -> bool:
    """The three-block lower-bound certificate of witness_family(k)."""
    limit = 2 * k if max_set_size is None else max_set_size
    v = lambda i: VertexId("v", i)
    pool = [v(i) for i in range(-k - 1, 2 * k + 2)]
    edges = {frozenset((v(a), v(b))) for a in range(-k - 1, 2 * k + 2)
             for b in range(a + 1, min(a + k, 2 * k + 1) + 1)}
    blocks = {
        "L": frozenset(v(i) for i in range(-k - 1, 0)),
        "M": frozenset(v(i) for i in range(0, k + 1)),
        "R": frozenset(v(i) for i in range(k + 1, 2 * k + 2)),
    }
    for b in blocks.values():
        if any(frozenset(e) not in edges for e in itertools.combinations(b, 2)):
            return False
    for b1, b2 in itertools.combinations(blocks.values(), 2):
        if b1 & b2 or len(b1 | b2) <= limit:
            return False
    matching_mr = [frozenset((v(t), v(t + k))) for t in range(1, k + 1)]
    matching_lm = [frozenset((v(t - k - 1), v(t - 1))) for t in range(1, k + 1)]
    for matching in (matching_mr, matching_lm):
        ends: set[VertexId] = set()
        for e in matching:
            if e not in edges or e & ends:
                return False
            ends |= e
    for anchor, matching in (("L", matching_mr), ("R", matching_lm)):
        base = blocks[anchor]
        others = [u for u in pool if u not in base]
        for r in range(limit - len(base) + 1):
            for extra in itertools.combinations(others, r):
                w = base | frozenset(extra)
                if all(e & w for e in matching):
                    return False
    return True


# ---------------------------------------------------------------------------
# Vertex universes
#
# The oracle for the vertex set of a presented decomposition.  Presented
# decompositions can have infinitely many vertices, but only along
# arithmetic progressions: a mobile vertex in a periodic template recurs
# shifted by the stride once per block.


@dataclass(frozen=True)
class Ray:
    """The mobile vertices start, start+step, start+2*step, ... of one tag."""

    tag: str
    start: int
    step: int

    def __post_init__(self):
        if self.step == 0:
            raise ValueError("a ray needs a nonzero step")

    def member(self, v: VertexId) -> bool:
        if not v.is_mobile or v.tag != self.tag:
            return False
        q, r = divmod(v.index - self.start, self.step)
        return r == 0 and q >= 0


Universe = tuple[Bag, frozenset[Ray]]


def vertex_universe(d: Decomposition) -> Universe:
    """All vertices of the decomposition, as a finite set plus rays."""
    finite: set[VertexId] = set(d.z1) | set(d.z2)
    rays: set[Ray] = set()
    for seg, t in zip(d.line.segments, d.templates):
        if isinstance(t, ExplicitBags):
            for b in t.bags:
                finite |= b
            continue
        finite |= t.constant
        for r in t.residues:
            for v in r:
                if v.is_static or t.stride == 0:
                    finite.add(v)
                    continue
                if seg.kind in (SegmentKind.OMEGA, SegmentKind.ZETA):
                    rays.add(Ray(v.tag, v.index, t.stride))
                if seg.kind in (SegmentKind.OMEGA_STAR, SegmentKind.ZETA):
                    rays.add(Ray(v.tag, v.index - t.stride, -t.stride))
    return frozenset(finite), frozenset(rays)


# ---------------------------------------------------------------------------
# Counting templates


class CountingBags(tuple):
    """A bag tuple that counts the bags read from it."""

    reads = 0

    def __getitem__(self, i):
        out = super().__getitem__(i)
        self.reads += len(out) if isinstance(i, slice) else 1
        return out

    def __iter__(self):
        for b in super().__iter__():
            self.reads += 1
            yield b


@dataclass(frozen=True)
class CountingPeriodicBags(PeriodicBags):
    """A periodic template that logs the offset of every bag it builds."""

    built: list = field(default_factory=list, compare=False, repr=False)

    def bag(self, i: int) -> Bag:
        self.built.append(i)
        return super().bag(i)


def counting(d: Decomposition) -> Decomposition:
    """d with every periodic template replaced by one that logs its bags."""
    return Decomposition(d.line, tuple(
        CountingPeriodicBags(t.period, t.residues, t.stride, t.constant)
        if isinstance(t, PeriodicBags) else t for t in d.templates), d.z1, d.z2)


# ---------------------------------------------------------------------------
# Random corpora



def _random_periodic(rng):
    kinds = [omega(), omega_star(), zeta()]
    nseg = rng.randint(1, 3)
    segs, temps = [], []
    for j in range(nseg):
        if rng.random() < 0.3 and 0 < j < nseg - 1:
            n = rng.randint(1, 3)
            pool = [V("p"), V("q"), V("c", 0),
                    V("uvw"[0], rng.randint(-2, 2)),
                    V("uvw"[nseg - 1], rng.randint(-2, 2)), V("x")]
            bags = tuple(frozenset(rng.sample(pool, rng.randint(1, 4)))
                         for _ in range(n))
            segs.append(fin(n))
            temps.append(ExplicitBags(bags))
            continue
        seg = rng.choice(kinds)
        p = rng.randint(1, 2)
        size = rng.randint(0, 2)
        stride = p * rng.choice([1, 1, 1, -1])
        res = tuple(
            frozenset(V("uvw"[j], (r if stride > 0 else -r) + i)
                      for i in range(size + 1))
            for r in range(p))
        const = set()
        if rng.random() < 0.5:
            const.add(V("p"))
        if rng.random() < 0.25:
            const.add(V("q"))
        segs.append(seg)
        temps.append(PeriodicBags(p, res, stride, frozenset(const)))
    z1 = frozenset()
    if rng.random() < 0.3:
        z1 = frozenset(rng.sample([V("p"), V("q")], rng.randint(1, 2)))
    return Decomposition(Line(tuple(segs)), tuple(temps), z1, frozenset())


_MIXED_POOL = [V(tag) for tag in "abc"] + [V("m", i) for i in range(-6, 6)]


def _random_mixed(rng):
    """An arbitrary decomposition, most often not a valid one: 1-4 segments,
    each fin (1-4 bags), omega, omega* or zeta; periodic templates of period
    1-3 with stride 0, +-1, 2 or +-period; bags, residues and the optional
    constant and designations drawn from 3 statics and 12 mobiles, residues
    of 0-3 vertices."""
    segs, temps = [], []
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice([fin, omega, omega_star, zeta])
        if kind is fin:
            n = rng.randint(1, 4)
            segs.append(fin(n))
            temps.append(ExplicitBags(tuple(
                frozenset(rng.sample(_MIXED_POOL, rng.randint(1, 3)))
                for _ in range(n))))
            continue
        p = rng.randint(1, 3)
        const = frozenset(rng.sample(_MIXED_POOL, rng.randint(1, 2))
                          if rng.random() < 0.3 else ())
        res = tuple(frozenset(rng.sample(_MIXED_POOL, rng.randint(0 if const else 1, 3)))
                    for _ in range(p))
        segs.append(kind())
        temps.append(PeriodicBags(p, res, rng.choice([0, 1, -1, 2, p, -p]), const))
    z1, z2 = (frozenset(rng.sample(_MIXED_POOL, 1) if rng.random() < 0.2 else ())
              for _ in range(2))
    return Decomposition(Line(tuple(segs)), tuple(temps), z1, z2)


@pytest.fixture(scope="module")
def random_corpus():
    """The valid draws of _random_periodic (seed 5024, 420 draws) whose
    line is not a well-order."""
    rng = random.Random(5024)
    out = []
    for _ in range(420):
        try:
            d = _random_periodic(rng)
        except ValueError:
            continue
        if not is_well_order(d.line) and verify(d).ok:
            out.append(d)
    return out
