"""Prime decompositions and factorization by substitution.

A tidy decomposition of a connected graph is prime when no split repeats:
distinct cuts always have distinct splits.  Primes are the atoms of a
substitution operation that splices one decomposition into another at a
cut, adding that cut's split to every spliced bag, so the spliced graph
hangs off the rest through the split alone.  Going the other way, the
maximal runs of points over which some split repeats are pairwise disjoint
and never touch; cutting them all out leaves a prime skeleton, and each
excised run with the repeating split removed from its bags is a tidy
decomposition of strictly smaller width.  Iterating through the (possibly
disconnected) remainders gives a factorization tree whose depth is bounded
by the width and whose leaves are prime.  On a periodic presentation the
split families of `splits` decide beyond the window whether a split
repeats.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from linedecomp.line import (
    Cut,
    CutPosition,
    Line,
    Point,
    UnsupportedScopeError,
    cut_key,
    fin,
    normalize_cut,
)
from linedecomp.decomposition import (
    Bag,
    Decomposition,
    ExplicitBags,
    boundary_split,
    slice_between,
    tidy,
    verify,
)
from linedecomp.splits import analyze_splits, empty_split_cuts, repeated_splits
from linedecomp.wo import raw_concat


# ---------------------------------------------------------------------------
# Primality


def is_prime(d: Decomposition) -> bool:
    """Tidy, connected, and no split occurs at two different cuts.  On a
    finite line the split window holds every cut and there are no infinite
    reaches; beyond the window the split families decide repeats exactly."""
    if not verify(d).ok:
        raise ValueError("primality is only defined for valid decompositions")
    if tidy(d) != d:
        return False
    sa = analyze_splits(d)
    if not all(sa.window_splits):
        return False  # an empty split: the graph is disconnected
    families = []
    for f in itertools.chain(sa.low or (), sa.high or (), sa.interior_classes()):
        if not f.mobile:
            return False  # the same split at every block of the reach
        families.append(f)
    # an interior family's block 0 may be a window cut; past it, any meeting repeats
    return (len(set(sa.window_splits)) == len(sa.window_splits)
            and all(f.cut(b) == c for f, b, c in sa.window_meetings(families))
            and not any(a.collides(b) for a, b in itertools.combinations(families, 2)))


# ---------------------------------------------------------------------------
# Substitution


@dataclass(frozen=True)
class SubstitutionPlan:
    """A skeleton decomposition plus decompositions to splice in at some of
    its cuts.  Treat the mapping as read-only; cuts are cuts of the
    skeleton's line."""

    skeleton: Decomposition
    substituends: Mapping[Cut, Decomposition] = field(default_factory=dict)

    @property
    def is_trivial(self) -> bool:
        return not self.substituends


def _flat_bags(d: Decomposition) -> list[Bag]:
    out: list[Bag] = []
    for t in d.templates:
        out.extend(t.bags)
    return out


def _point_index(line: Line, p: Point) -> int:
    head = sum(line.segments[j].length for j in range(p.segment))
    return head + p.offset


def substitute(plan: SubstitutionPlan) -> Decomposition:
    """Splice every substituend into the skeleton at its cut.

    The spliced bags all gain the split at their cut, so each substituend's
    graph meets the rest exactly in that split, made a clique.  Vertex sets
    must be pairwise disjoint.  Substitution preserves tidiness: a spliced
    bag nests in a neighbour only if its own part is empty or the skeleton
    already had nested bags.  The result lives on a single finite segment.
    """
    sk = plan.skeleton
    if any(not seg.is_finite for seg in sk.line.segments):
        raise UnsupportedScopeError(
            "substitution splices bag lists; the skeleton line must be finite")
    if not verify(sk).ok:
        raise ValueError("the skeleton does not verify")
    bags = _flat_bags(sk)
    taken: set = set().union(*bags)
    inserts: dict[int, tuple[Bag, ...]] = {}
    for cut in sorted(plan.substituends, key=lambda c: cut_key(sk.line, c)):
        sub = plan.substituends[cut]
        c = normalize_cut(sk.line, cut)
        if any(not seg.is_finite for seg in sub.line.segments):
            raise UnsupportedScopeError(
                "substitution splices bag lists; substituend lines must be finite")
        if sub.z1 or sub.z2:
            raise ValueError(
                "substituends sit between skeleton points and cannot "
                "designate limit vertices")
        if not verify(sub).ok:
            raise ValueError("a substituend does not verify")
        verts = frozenset().union(*_flat_bags(sub))
        clash = verts & taken
        if clash:
            raise ValueError(
                f"substituend vertices collide with the rest of the plan: "
                f"{sorted(clash)[:4]!r}")
        taken |= verts
        s = boundary_split(sk, c)
        # c is an offset cut, since check_cut rejects both limit cuts on a
        # finite line: the spliced bags follow the point at its offset
        inserts[_point_index(sk.line, Point(c.segment, c.offset))] = tuple(
            b | s for b in _flat_bags(sub))
    out: list[Bag] = []
    for i, b in enumerate(bags):
        out.append(b)
        out.extend(inserts.get(i, ()))
    return Decomposition(Line.of(fin(len(out))), (ExplicitBags(tuple(out)),),
                         sk.z1, sk.z2)


def factor(d: Decomposition) -> SubstitutionPlan:
    """Split d into a prime skeleton and narrower substituends.

    Wherever some split repeats, the maximal run of points between its
    witness cuts is cut out whole and keyed to the skeleton cut left at the
    gap; the boundary bags stay in the skeleton, and the run's bags minus
    the repeating split become the substituend.  Distinct maximal runs
    never touch, so the gaps are distinct cuts and the excised split is
    exactly the split at the gap.  substitute inverts this bag for bag.
    """
    if any(not seg.is_finite for seg in d.line.segments):
        raise UnsupportedScopeError(
            "factorization works bag by bag; the line must be finite")
    if not verify(d).ok:
        raise ValueError("factor needs a valid decomposition")
    if tidy(d) != d:
        raise ValueError("factor needs a tidy decomposition")
    bags = _flat_bags(d)
    n = len(bags)
    # d verifies, so the split between neighbouring bags is their overlap
    if not all(a & b for a, b in zip(bags, bags[1:])):
        raise ValueError("factor needs a connected graph; "
                         "chop at the empty splits first")
    runs: list[tuple[int, int, Bag]] = []
    covered = [False] * n
    for r in repeated_splits(d):
        if not r.maximal:
            continue
        lo = _point_index(d.line, r.interval[0])
        hi = _point_index(d.line, r.interval[1])
        assert not any(covered[lo:hi + 1]), "maximal repeat runs overlap"
        covered[lo:hi + 1] = [True] * (hi - lo + 1)
        runs.append((lo, hi, r.split.vertices))
    keep = [i for i in range(n) if not covered[i]]
    pos = {i: q for q, i in enumerate(keep)}
    skeleton = Decomposition(Line.of(fin(len(keep))),
                             (ExplicitBags(tuple(bags[i] for i in keep)),),
                             d.z1, d.z2)
    subs: dict[Cut, Decomposition] = {}
    for lo, hi, s in sorted(runs):
        assert lo - 1 in pos and hi + 1 in pos, "a repeat run touches another"
        cut = Cut(0, CutPosition.AFTER_OFFSET, pos[lo - 1])
        subs[cut] = Decomposition(
            Line.of(fin(hi - lo + 1)),
            (ExplicitBags(tuple(b - s for b in bags[lo:hi + 1])),))
    return SubstitutionPlan(skeleton, subs)


# ---------------------------------------------------------------------------
# Components


def split_components(d: Decomposition) -> list[Decomposition]:
    """Chop the decomposition at every empty split.

    Each piece's graph is a chain of overlapping cliques, hence connected,
    and the pieces' vertex sets are pairwise disjoint.  The first and last
    piece keep the designated limit sets.  Raises when the empty splits
    cannot be listed one by one.
    """
    seams = empty_split_cuts(d)
    if not seams:
        return [d]
    bounds: list[Optional[Cut]] = [None, *seams, None]
    return [slice_between(d, a, b) for a, b in zip(bounds, bounds[1:])]


def concat_components(parts: Sequence[Decomposition]) -> Decomposition:
    """Ordered sum of decompositions of pairwise disjoint graphs.

    The seams become empty splits, the width is the largest part width, and
    split_components undoes the sum.  A designated limit set strictly inside
    the sum would no longer sit at an end of the line, so interior parts
    must not designate any.  The sum is verified once: that is what decides
    that the parts share no vertex.
    """
    if not parts:
        raise ValueError("nothing to concatenate")
    for i, p in enumerate(parts):
        if i > 0 and p.z1:
            raise ValueError(
                "only the first part may designate left-limit vertices")
        if i < len(parts) - 1 and p.z2:
            raise ValueError(
                "only the last part may designate right-limit vertices")
    out = raw_concat(parts, [frozenset()] * (len(parts) - 1))
    rep = verify(out)
    if not rep.ok:
        raise ValueError("the parts must be valid and share no vertex; "
                         f"the sum does not verify: {rep.counterexample}")
    return out


# ---------------------------------------------------------------------------
# Iterated factorization


@dataclass(frozen=True)
class FactorTree:
    """A substitution plan with every substituend factored further.

    Substituends can be disconnected, so each carries one subtree per
    connected piece, in line order.  Leaves are plans without substituends,
    and every skeleton in the tree is prime.
    """

    plan: SubstitutionPlan
    children: Mapping[Cut, tuple["FactorTree", ...]]

    @property
    def depth(self) -> int:
        below = [t.depth for ts in self.children.values() for t in ts]
        return 1 + max(below, default=0)


def factor_tree(d: Decomposition) -> FactorTree:
    """Factor d and recurse through the substituends until all is prime.

    Every substituend is strictly narrower than its parent, so the depth is
    at most the width of d plus one.
    """
    plan = factor(d)
    children = {
        cut: tuple(factor_tree(p) for p in split_components(sub))
        for cut, sub in plan.substituends.items()
    }
    return FactorTree(plan, children)


def compose_tree(t: FactorTree) -> Decomposition:
    """Rebuild the decomposition a factor tree was taken from, bag for bag.
    The pieces under one cut are glued with empty seams and not checked
    there: substitute verifies each substituend, and that one check decides
    that the pieces share no vertex."""
    subs = {
        cut: compose_tree(pieces[0]) if len(pieces) == 1
        else raw_concat([compose_tree(p) for p in pieces],
                        [frozenset()] * (len(pieces) - 1))
        for cut, pieces in t.children.items()
    }
    return substitute(SubstitutionPlan(t.plan.skeleton, subs))
