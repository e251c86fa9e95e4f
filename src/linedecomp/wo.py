"""Decompositions on well-ordered lines, and the rebuild that turns any
verified decomposition into one.

The rebuild works outward from the minimum-size splits.  Around each one the
decomposition is sliced at the extremes of its witness range, the split is
removed from the slice (narrowing it), the remainder is rebuilt recursively
and the split is added back to every bag.  Between consecutive witness
ranges every split is strictly larger, so those stretches rebuild by a
recursion that raises the minimum.  When there is no earliest minimum split
the line is cut in two at one of them and the lower part is rebuilt in
reverse; when the minimum splits march off the upper end forever, one
period's worth of rebuilt pieces is replicated along a fresh omega segment.
The pieces are then concatenated in order, gluing along the splits.

Bag sizes at most double: a rebuilt slice lost the split that is added back,
and the split has minimum size.  Designated left-limit vertices sharpen the
bound since they are removed up front and never reappear inside a slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from linedecomp.line import (
    Cut,
    CutPosition,
    Line,
    Ordering,
    SegmentKind,
    UnsupportedScopeError,
    compare_cuts,
    cut_key,
    fin,
    is_well_order,
    omega,
)
from linedecomp.decomposition import (
    Bag,
    Decomposition,
    ExplicitBags,
    PeriodicBags,
    Region,
    Side,
    VertexId,
    add_to_bags as _widen,
    limit_vertices,
    remove_from_bags,
    restrict,
    reverse_decomposition,
    slice_between,
    tidy,
    verify,
)
from linedecomp.splits import (
    MinSplitIndexing,
    Split,
    SplitAnalysis,
    analyze_splits,
)


# ---------------------------------------------------------------------------
# Vertex universes
#
# Concatenation must check that two decompositions share exactly the vertices
# of the interface.  Presented decompositions can have infinitely many
# vertices, but only along arithmetic progressions: a mobile vertex in a
# periodic template recurs shifted by the stride once per block.


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


def _ray_pair_overlap(a: Ray, b: Ray) -> Optional[frozenset[VertexId]]:
    """Common vertices of two rays; None when there are infinitely many."""
    if a.tag != b.tag:
        return frozenset()
    if (a.step > 0) == (b.step > 0):
        g = math.gcd(a.step, b.step)
        if (b.start - a.start) % g:
            return frozenset()
        # same direction and compatible residues: they meet forever
        return None
    asc, desc = (a, b) if a.step > 0 else (b, a)
    sa, sd = asc.step, -desc.step
    g = math.gcd(sa, sd)
    diff = desc.start - asc.start
    if diff % g:
        return frozenset()
    md = sd // g
    t0 = 0 if md == 1 else (diff // g) * pow(sa // g, -1, md) % md
    x = asc.start + sa * t0  # least common member >= asc.start
    lcm = sa * sd // g
    out = set()
    while x <= desc.start:
        out.add(VertexId(a.tag, x))
        x += lcm
    return frozenset(out)


def universe_overlap(u1: Universe, u2: Universe) -> Optional[frozenset[VertexId]]:
    """Intersection of two universes; None when it is infinite."""
    f1, r1 = u1
    f2, r2 = u2
    out = set(f1 & f2)
    for ray in r2:
        out.update(v for v in f1 if ray.member(v))
    for ray in r1:
        out.update(v for v in f2 if ray.member(v))
    for a in r1:
        for b in r2:
            shared = _ray_pair_overlap(a, b)
            if shared is None:
                return None
            out |= shared
    return frozenset(out)


# ---------------------------------------------------------------------------
# The well-ordered subtype


@dataclass(frozen=True, eq=False)
class WoDecomposition(Decomposition):
    """A decomposition whose line is a well-order.

    Carries no extra data; equality and hashing compare content with plain
    decompositions.  Construct through as_wo so the invariant actually holds.
    """


def as_wo(d: Decomposition, *, check: bool = True) -> WoDecomposition:
    """Tag a decomposition as well-ordered, optionally re-verifying it."""
    if not is_well_order(d.line):
        raise ValueError("the line is not a well-order")
    if check:
        rep = verify(d)
        if not rep.ok:
            raise ValueError(f"does not verify: {rep.counterexample}")
    if isinstance(d, WoDecomposition):
        return d
    return WoDecomposition(d.line, d.templates, d.z1, d.z2)


def add_to_bags(d: Decomposition, s: Bag) -> Decomposition:
    """Union s into every bag and both designated sets.

    Well-orderedness is preserved, so tagged inputs give tagged outputs.
    """
    out = _widen(d, s)
    if isinstance(d, WoDecomposition):
        return as_wo(out, check=False)
    return out


def raw_concat(d1: Decomposition, d2: Decomposition, s: Bag) -> Decomposition:
    """Glue d2 above d1 along the interface s, without re-verifying."""
    if not s <= limit_vertices(d1, Side.RIGHT):
        raise ValueError("interface is not a right-limit set of the lower part")
    if not s <= limit_vertices(d2, Side.LEFT):
        raise ValueError("interface is not a left-limit set of the upper part")
    shared = universe_overlap(vertex_universe(d1), vertex_universe(d2))
    if shared is None:
        raise ValueError("the parts share infinitely many vertices")
    if shared != s:
        raise ValueError(
            "the parts must share exactly the interface vertices; "
            f"off by {sorted(shared ^ s)!r}")
    segs1, ts1 = d1.line.segments, d1.templates
    segs2, ts2 = d2.line.segments, d2.templates
    if (segs1 and segs2 and segs1[-1].kind is SegmentKind.FIN
            and segs2[0].kind is SegmentKind.FIN):
        joined = fin(segs1[-1].length + segs2[0].length)
        bags = ts1[-1].bags + ts2[0].bags
        segs = segs1[:-1] + (joined,) + segs2[1:]
        ts = ts1[:-1] + (ExplicitBags(bags),) + ts2[1:]
    else:
        segs = segs1 + segs2
        ts = ts1 + ts2
    return Decomposition(Line(segs), ts, d1.z1, d2.z2)


def concat_wo(d1: Decomposition, d2: Decomposition, s: Bag) -> WoDecomposition:
    """Concatenate two well-ordered decompositions along the interface s.

    s must be a right-limit set of d1 and a left-limit set of d2, and the two
    vertex universes must intersect in exactly s.  The result lives on the
    ordinal sum of the two lines and its width is the larger of the two.
    """
    if not is_well_order(d1.line):
        raise ValueError("the lower part is not on a well-order")
    if not is_well_order(d2.line):
        raise ValueError("the upper part is not on a well-order")
    return as_wo(raw_concat(d1, d2, frozenset(s)))


# ---------------------------------------------------------------------------
# Rebuilding on a well-order


def to_wo(d: Decomposition) -> WoDecomposition:
    """Rebuild d on a well-ordered line.

    The output covers the same clique-completed graph, keeps the designated
    limit sets, and has width at most 2k - |z1| where k is the input width.
    Already well-ordered inputs come back unchanged.  Raises ValueError when
    the input does not verify or when more left-limit vertices are designated
    than the minimum split size allows, and UnsupportedScopeError when a
    rebuilt piece has no presentation in this form.
    """
    rep = verify(d)
    if not rep.ok:
        raise ValueError(f"does not verify: {rep.counterexample}")
    if is_well_order(d.line):
        return as_wo(d, check=False)
    return as_wo(_rebuild(d))


def _rebuild(d: Decomposition) -> Decomposition:
    """Recursive core of to_wo.  Inputs are valid; designations are kept."""
    out = _rebuild_any(d)
    if out.z1 != d.z1 or out.z2 != d.z2:
        out = replace(out, z1=d.z1, z2=d.z2)
    return out


def _rebuild_any(d: Decomposition) -> Decomposition:
    direct = _directly_orderable(d)
    if direct is not None:
        return direct
    td = tidy(d)
    direct = _directly_orderable(td)
    if direct is not None:
        return direct
    a = analyze_splits(td)
    idx = a.min_splits()
    if idx.m is None:
        raise UnsupportedScopeError("a line without cuts that is not a "
                                    "well-order has no rebuild here")
    if len(td.z1) > idx.m:
        raise ValueError(
            f"{len(td.z1)} left-limit vertices are designated but some "
            f"split has only {idx.m}; no rebuild keeps them all leftmost")
    if idx.m == 0:
        return _rebuild_components(a)
    if idx.lo is None:
        return _split_off_lower_part(a, idx)
    return _assemble_along_splits(a, idx)


def _directly_orderable(d: Decomposition) -> Optional[Decomposition]:
    """The input itself, or its reversal, when already well-ordered."""
    if is_well_order(d.line):
        return d
    rev = reverse_decomposition(d)
    if (is_well_order(rev.line)
            and d.z1 <= limit_vertices(rev, Side.LEFT)
            and d.z2 <= limit_vertices(rev, Side.RIGHT)):
        return replace(rev, z1=d.z1, z2=d.z2)
    return None


def _single_bag(s: Bag) -> Decomposition:
    return Decomposition(Line((fin(1),)), (ExplicitBags((s,)),), s, s)


def _fold_chain(pieces: list[Decomposition]) -> Decomposition:
    """Concatenate rebuilt pieces in order; each one's designated left set
    is the split it was glued along."""
    out = pieces[0]
    for nxt in pieces[1:]:
        out = raw_concat(out, nxt, nxt.z1)
    return out


def _require_cut(x, what: str) -> Cut:
    if isinstance(x, Cut):
        return x
    raise ValueError(f"witnesses of {what} run off the line end unexpectedly")


def _rebuild_components(a: SplitAnalysis) -> Decomposition:
    """Empty splits chop the line into vertex-disjoint stretches; rebuild
    each and chain them with empty interfaces."""
    d = a.d
    cuts = a.empty_cuts()
    pieces = []
    prev: Optional[Cut] = None
    for c in cuts:
        pieces.append(_rebuild(slice_between(d, prev, c)))
        prev = c
    pieces.append(_rebuild(slice_between(d, prev, None)))
    return _fold_chain(pieces)


def _around_split(d: Decomposition, s: Bag, lower: Optional[Cut],
                  upper: Optional[Cut]) -> Decomposition:
    """Rebuild the stretch between the extreme witnesses of a minimum split.

    s sits in every bag there, so removing it narrows the slice by its size;
    adding it back to the rebuilt remainder gives a piece running from s to
    s.  A missing lower (upper) cut means the witnesses run off that end of
    the line, in which case the slice absorbs everything below (above).
    """
    if lower is not None and upper is not None \
            and compare_cuts(d.line, lower, upper) is Ordering.EQ:
        return _single_bag(s)
    sl = slice_between(d, lower, upper)
    if upper is None and not d.z2 <= s:
        raise ValueError("designated right-limit vertices escape the last "
                         "minimum split; no rebuild keeps them rightmost")
    core = remove_from_bags(sl, s)
    if core is None:
        return _single_bag(s)
    piece = _widen(_rebuild(core), s)
    return replace(piece, z1=s, z2=s)


def _split_off_lower_part(a: SplitAnalysis, idx: MinSplitIndexing) -> Decomposition:
    """No earliest minimum split: cut at one that contains the designated
    left set and rebuild the lower part in reverse.

    Reversal is what makes the lower part tractable: seen from the cut its
    minimum splits start at the chosen one, so the recursion proceeds by
    assembly instead of arriving back here.
    """
    d = a.d
    candidates = [sp for sp in idx.window if d.z1 <= sp.vertices]
    if idx.low_tail is not None:
        for u in range(len(idx.low_tail.entries)):
            sp = idx.split(-1 - u)
            if d.z1 <= sp.vertices:
                candidates.append(sp)
    if not candidates:
        raise ValueError("no minimum split contains the designated "
                         "left-limit set")

    def preference(sp: Split) -> tuple:
        c = a.bounds(sp).lower
        c = _require_cut(c, "a candidate split")
        origin = abs(c.offset) if c.position is CutPosition.AFTER_OFFSET else 0
        return (origin, cut_key(d.line, c), tuple(sorted(sp.vertices)))

    chosen = min(candidates, key=preference)
    s0 = chosen.vertices
    c0 = _require_cut(a.bounds(chosen).lower, "the chosen split")

    lower_part = restrict(d, c0, Region.INSIDE)
    if d.z1:
        core = remove_from_bags(lower_part, d.z1)
    else:
        core = lower_part
    if core is None:
        lower_wo = _single_bag(s0)
    else:
        rebuilt = _rebuild(reverse_decomposition(core))
        lower_wo = replace(_widen(rebuilt, s0), z1=s0, z2=s0)
    upper_wo = _rebuild(restrict(d, c0, Region.OUTSIDE))
    return raw_concat(lower_wo, upper_wo, s0)


def _assemble_along_splits(a: SplitAnalysis, idx: MinSplitIndexing) -> Decomposition:
    """The main case: an earliest minimum split exists.  Rebuild a piece
    around each split's witness range and a piece for each stretch between,
    then chain them in order."""
    d = a.d
    wn = len(idx.window)
    bounds = [a.bounds(sp) for sp in idx.window]
    for i, b in enumerate(bounds):
        if not isinstance(b.lower, Cut) and i != 0:
            raise ValueError("witnesses of a later minimum split run off "
                             "the low end of the line")
        if not isinstance(b.upper, Cut) and (i != wn - 1 or idx.hi is None):
            raise ValueError("witnesses of an earlier minimum split run off "
                             "the high end of the line")

    pieces: list[Decomposition] = []
    first_lower = bounds[0].lower
    if isinstance(first_lower, Cut):
        # below the first witness all splits are strictly larger
        pieces.append(_rebuild(slice_between(d, None, first_lower)))
    elif not d.z1 <= idx.window[0].vertices:
        raise ValueError("designated left-limit vertices escape the first "
                         "minimum split; no rebuild keeps them leftmost")

    for i in range(wn):
        b = bounds[i]
        lower = b.lower if isinstance(b.lower, Cut) else None
        upper = b.upper if isinstance(b.upper, Cut) else None
        pieces.append(_around_split(d, idx.window[i].vertices, lower, upper))
        if i + 1 < wn:
            gap_lo = _require_cut(b.upper, "a minimum split")
            gap_hi = _require_cut(bounds[i + 1].lower, "the next minimum split")
            if compare_cuts(d.line, gap_lo, gap_hi) is not Ordering.LT:
                raise ValueError("witness ranges of successive minimum "
                                 "splits overlap")
            pieces.append(_rebuild(slice_between(d, gap_lo, gap_hi)))

    if idx.hi is not None:
        last_upper = bounds[-1].upper
        if isinstance(last_upper, Cut):
            pieces.append(_rebuild(slice_between(d, last_upper, None)))
    else:
        last_upper = _require_cut(bounds[-1].upper, "the last window split")
        first_tail = idx.split(wn)
        tail_lower = _require_cut(a.bounds(first_tail).lower,
                                  "the first marching split")
        if compare_cuts(d.line, last_upper, tail_lower) is not Ordering.LT:
            raise ValueError("witness ranges of successive minimum splits "
                             "overlap at the start of the marching tail")
        pieces.append(_rebuild(slice_between(d, last_upper, tail_lower)))
        pieces.append(_replicated_tail(a, idx))
    return _fold_chain(pieces)


def _replicated_tail(a: SplitAnalysis, idx: MinSplitIndexing) -> Decomposition:
    """Rebuilt pieces for the minimum splits marching off the upper end.

    One block later every piece repeats shifted by the template stride, so
    rebuilding a single block and replicating it along a fresh omega segment
    covers the whole tail.  The segment constant is what refuses to shift,
    and the designated right-limit set must sit inside every marching split
    or no well-ordered arrangement puts it at the top.
    """
    d = a.d
    tail = idx.high_tail
    wn = len(idx.window)
    fixed_all = frozenset.intersection(*(e.fixed for e in tail.entries))
    if not d.z2 <= fixed_all:
        raise ValueError("designated right-limit vertices escape the "
                         "marching minimum splits")

    count = len(tail.entries)
    reps: list[Decomposition] = []
    for u in range(count):
        here = idx.split(wn + u)
        b = a.bounds(here)
        reps.append(_around_split(d, here.vertices,
                                  _require_cut(b.lower, "a marching split"),
                                  _require_cut(b.upper, "a marching split")))
        after = idx.split(wn + u + 1)
        gap_lo = _require_cut(b.upper, "a marching split")
        gap_hi = _require_cut(a.bounds(after).lower,
                              "the next marching split")
        if compare_cuts(d.line, gap_lo, gap_hi) is not Ordering.LT:
            raise ValueError("witness ranges of successive marching splits "
                             "overlap")
        reps.append(_rebuild(slice_between(d, gap_lo, gap_hi)))

    invariant = frozenset(
        v for v in d.templates[tail.segment].constant if v.is_mobile)
    bags: list[Bag] = []
    for piece in reps:
        for seg, t in zip(piece.line.segments, piece.templates):
            if seg.kind is not SegmentKind.FIN:
                raise UnsupportedScopeError(
                    "a block of the marching tail did not rebuild to "
                    "finitely many bags; it cannot be replicated")
            for b in t.bags:
                if not invariant <= b:
                    raise UnsupportedScopeError(
                        "a rebuilt tail bag misses part of the segment "
                        "constant; the blocks are not translates")
                bags.append(b - invariant)
    template = PeriodicBags(len(bags), tuple(bags), tail.step, invariant)
    return Decomposition(Line((omega(),)), (template,),
                         idx.split(wn).vertices, d.z2)
