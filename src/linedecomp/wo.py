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

Every concatenation checks one equation per seam: the seam is the common
part of the limit sets that meet there (`raw_concat`).  Whether the glued
parts share any other vertex is left to `verify`, which decides it exactly,
periodic templates included: `concat_wo` verifies its result, and `to_wo`
verifies once at the end rather than at every rebuild node.

Bag sizes at most double: a rebuilt slice lost the split that is added back,
and the split has minimum size.  Designated left-limit vertices sharpen the
bound since they are removed up front and never reappear inside a slice.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Callable, Optional, Sequence

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
    Side,
    add_to_bags,
    limit_vertices,
    remove_from_bags,
    reverse_decomposition,
    slice_between,
    tidy,
    verify,
)
from linedecomp.splits import (
    MinSplitIndexing,
    SplitAnalysis,
    SplitBounds,
    analyze_splits,
)


# ---------------------------------------------------------------------------
# Concatenation


def raw_concat(parts: Sequence[Decomposition],
               seams: Sequence[Bag]) -> Decomposition:
    """Glue the parts in order along the interfaces seams[i] between
    parts[i] and parts[i + 1], without re-verifying.

    Each seam s must equal R & L, where R is the right-limit set of the part
    below it and L the left-limit set of the part above.  When the result
    verifies, that is exactly the condition that the two parts share the
    vertices of s and no others.  A vertex in both parts lies in every bag
    between its occurrences, so it lies in a final stretch of the lower
    part and an initial stretch of the upper part; on a periodic tail, a
    vertex in every bag of the tail is in every bag of the segment.  So it
    lies in R and in L, the shared vertices are R & L, and R & L == s is the
    condition.  Whether the result verifies is left to the caller.
    """
    if len(seams) != len(parts) - 1:
        raise ValueError("one interface between each two consecutive parts")
    for lower, upper, s in zip(parts, parts[1:], seams):
        shared = limit_vertices(lower, Side.RIGHT) & limit_vertices(upper, Side.LEFT)
        if shared != s:
            raise ValueError(
                "the parts must share exactly the interface vertices; "
                f"off by {sorted(shared ^ s)!r}")
    # finite segments meeting at a seam merge; each stays a list of bags
    # until the end, so merging never copies what was glued before
    pieces: list = []  # lists of bags and (segment, template) pairs
    for p in parts:
        own = [list(t.bags) if seg.kind is SegmentKind.FIN else (seg, t)
               for seg, t in zip(p.line.segments, p.templates)]
        if pieces and isinstance(pieces[-1], list) and isinstance(own[0], list):
            pieces[-1] += own.pop(0)
        pieces += own
    segs = tuple(fin(len(x)) if isinstance(x, list) else x[0] for x in pieces)
    ts = tuple(ExplicitBags(tuple(x)) if isinstance(x, list) else x[1] for x in pieces)
    return Decomposition(Line(segs), ts, parts[0].z1, parts[-1].z2)


def concat_wo(d1: Decomposition, d2: Decomposition, s: Bag) -> Decomposition:
    """Concatenate two well-ordered decompositions along the interface s.

    s must be the common part of d1's right-limit set and d2's left-limit
    set, and the glued result must verify; together these say the parts
    share exactly s.  The result lives on the ordinal sum of the two lines
    and its width is the larger of the two.
    """
    if not is_well_order(d1.line):
        raise ValueError("the lower part is not on a well-order")
    if not is_well_order(d2.line):
        raise ValueError("the upper part is not on a well-order")
    return _verified(raw_concat([d1, d2], [frozenset(s)]))


def _verified(d: Decomposition) -> Decomposition:
    rep = verify(d)
    if not rep.ok:
        raise ValueError(f"does not verify: {rep.counterexample}")
    return d


# ---------------------------------------------------------------------------
# Rebuilding on a well-order
#
# Each rebuild node reads a plan off the split analysis of its input: the
# pieces of the new line in order, each a call that rebuilds one stretch and
# holds only the decomposition, cuts and split vertex sets.  The analysis is
# released before the pieces run, so a nested node never keeps its parent's
# split window alive.

_Piece = Callable[[], Decomposition]


def to_wo(d: Decomposition) -> Decomposition:
    """Rebuild d on a well-ordered line.

    The output is verified, covers the same clique-completed graph, keeps
    the designated limit sets, and has width at most 2k - |z1| where k is
    the input width.  An already well-ordered input is returned itself.
    Raises ValueError when the input does not verify, and
    UnsupportedScopeError where the split analysis refuses (README, Scope)
    or when more left-limit vertices are designated than the minimum split
    size: this rebuild does not handle that case, although a rebuild may
    exist.
    """
    _verified(d)
    if is_well_order(d.line):
        return d
    out = _rebuild(d)
    if not is_well_order(out.line):
        raise ValueError("the rebuilt line is not a well-order")
    return _verified(out)


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
    plan = _plan(analyze_splits(td))
    pieces = [piece() for piece in plan]
    # each piece's designated left set is the split it was glued along
    return raw_concat(pieces, [p.z1 for p in pieces[1:]])


def _plan(a: SplitAnalysis) -> list[_Piece]:
    """The pieces of the rebuild of a.d, in line order.  a.d has a cut:
    only a one-point line has none, and that is a well-order."""
    idx = a.min_splits()
    if len(a.d.z1) > idx.m:
        raise UnsupportedScopeError(
            f"{len(a.d.z1)} left-limit vertices are designated but some "
            f"split has only {idx.m}; this rebuild does not handle more "
            f"designated vertices than the minimum split size")
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


def _rebuild_slice(d: Decomposition, lo: Optional[Cut],
                   hi: Optional[Cut]) -> Decomposition:
    return _rebuild(slice_between(d, lo, hi))


def _rebuild_components(a: SplitAnalysis) -> list[_Piece]:
    """Empty splits chop the line into vertex-disjoint stretches: one piece
    each, chained with empty interfaces."""
    bounds = [None, *a.empty_cuts(), None]
    return [partial(_rebuild_slice, a.d, lo, hi)
            for lo, hi in zip(bounds, bounds[1:])]


def _around_split(d: Decomposition, s: Bag, b: SplitBounds) -> Decomposition:
    """Rebuild the stretch between the extreme witnesses of a minimum split.

    s sits in every bag there, so removing it narrows the slice by its size;
    adding it back to the rebuilt remainder gives a piece running from s to
    s.  A bound that is not a cut means the witnesses run off that end of
    the line, in which case the slice absorbs everything below (above) and
    s is the limit set there, which holds the designated vertices.

    Removing s leaves a bag when the bounds differ.  d is tidy (`_plan`
    reads the analysis of `tidy`'s output) and s is in every bag of the
    slice, so a slice of bags equal to s has one bag, as tidy bags are
    distinct.  The slice then is not all of d, which has a cut, so that bag
    meets a bound that is a cut with split s: it lies inside the bag across
    that cut, or inside the full set of an open segment there, and tidy
    keeps no such bag.
    """
    lower = b.lower if isinstance(b.lower, Cut) else None
    upper = b.upper if isinstance(b.upper, Cut) else None
    if lower is not None and upper is not None \
            and compare_cuts(d.line, lower, upper) is Ordering.EQ:
        return _single_bag(s)
    core = remove_from_bags(slice_between(d, lower, upper), s)
    piece = add_to_bags(_rebuild(core), s)
    return replace(piece, z1=s, z2=s)


def _split_off_lower_part(a: SplitAnalysis, idx: MinSplitIndexing) -> list[_Piece]:
    """No earliest minimum split: cut at one that contains the designated
    left set and rebuild the lower part in reverse.

    Reversal is what makes the lower part tractable: seen from the cut its
    minimum splits start at the chosen one, so the recursion proceeds by
    assembly instead of arriving back here.  The low tail's splits hold the
    left-limit set, hence z1, and no constant low family has size m (L2 of
    splits._classify_deep), so no lower bound is Side.LEFT.
    """
    d = a.d
    tail = [idx.split(-1 - u) for u in range(len(idx.low_tail))]
    candidates = [sp for sp in [*idx.window, *tail] if d.z1 <= sp.vertices]
    ranked = []
    for sp in candidates:
        c = a.bounds(sp).lower
        origin = abs(c.offset) if c.position is CutPosition.AFTER_OFFSET else 0
        ranked.append(((origin, cut_key(d.line, c), tuple(sorted(sp.vertices))),
                       c, sp.vertices))
    _, c0, s0 = min(ranked, key=lambda r: r[0])
    return [partial(_reversed_lower_part, d, c0, s0),
            partial(_rebuild_slice, d, c0, None)]


def _reversed_lower_part(d: Decomposition, c0: Cut, s0: Bag) -> Decomposition:
    """The part of d up to c0, rebuilt in reverse and running from s0 to s0.

    Removing z1 leaves a bag.  d is tidy, and z1 lies in s0, the split at
    c0.  Below a greatest point, a bag inside z1 would be s0 itself and lie
    inside the bag after it; below a limit cut, the open segment there would
    have infinitely many distinct bags inside the finite z1.
    """
    core = remove_from_bags(slice_between(d, None, c0), d.z1)
    rebuilt = _rebuild(reverse_decomposition(core))
    return replace(add_to_bags(rebuilt, s0), z1=s0, z2=s0)


def _pieces_along(d: Decomposition,
                  marks: list[tuple[Bag, SplitBounds]]) -> list[_Piece]:
    """For each minimum split of marks but the last, in order: the piece
    around it and the piece for the gap up to the next one.  A cut between
    two witnesses of a minimum split has a split holding it, so one of size
    m equals it: witness ranges do not interleave, and only the first (last)
    runs off the lower (upper) end."""
    pieces: list[_Piece] = []
    for (s, b), (_, nb) in zip(marks, marks[1:]):
        pieces += [partial(_around_split, d, s, b),
                   partial(_rebuild_slice, d, b.upper, nb.lower)]
    return pieces


def _assemble_along_splits(a: SplitAnalysis, idx: MinSplitIndexing) -> list[_Piece]:
    """The main case: an earliest minimum split exists.  A piece around each
    split's witness range and a piece for each stretch between, in order."""
    d = a.d
    marks = [(sp.vertices, a.bounds(sp)) for sp in idx.window]
    pieces: list[_Piece] = []
    first_lower = marks[0][1].lower
    if isinstance(first_lower, Cut):
        # below the first witness all splits are strictly larger
        pieces.append(partial(_rebuild_slice, d, None, first_lower))

    if idx.hi is not None:
        s, last = marks[-1]
        pieces += _pieces_along(d, marks)
        pieces.append(partial(_around_split, d, s, last))
        if isinstance(last.upper, Cut):
            pieces.append(partial(_rebuild_slice, d, last.upper, None))
        return pieces
    return pieces + _replicated_tail(a, idx, marks)


def _replicated_tail(a: SplitAnalysis, idx: MinSplitIndexing,
                     marks: list[tuple[Bag, SplitBounds]]) -> list[_Piece]:
    """The pieces of the window marks, then one piece for the minimum splits
    marching off the upper end.

    One block later every piece repeats shifted by the template stride, so
    rebuilding a single block and replicating it along a fresh omega segment
    covers the whole tail.  Every marching split holds the right-limit set,
    hence z2 (L2 of splits._classify_deep).
    """
    d = a.d
    tail = idx.high_tail
    wn = len(idx.window)
    marching = [idx.split(wn + u) for u in range(len(tail) + 1)]
    marks = marks + [(sp.vertices, a.bounds(sp)) for sp in marching]
    steps = _pieces_along(d, marks)
    return steps[:2 * wn] + [partial(_replicate, d, steps[2 * wn:], tail[0].segment,
                                     tail[0].step, marching[0].vertices)]


def _replicate(d: Decomposition, block: list[_Piece], segment: int, step: int,
               first: Bag) -> Decomposition:
    """Rebuild one block of the marching tail and lay it along an omega
    segment.  The segment constant is what refuses to shift.  The pieces are
    finite slices: each rebuilds as itself or as its split, which holds C."""
    invariant = frozenset(
        v for v in d.templates[segment].constant if v.is_mobile)
    bags: list[Bag] = []
    for rebuilt in [piece() for piece in block]:
        for t in rebuilt.templates:
            bags += [b - invariant for b in t.bags]
    template = PeriodicBags(len(bags), tuple(bags), step, invariant)
    return Decomposition(Line((omega(),)), (template,), first, d.z2)
