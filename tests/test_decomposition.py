"""Bag templates, exact verification, tidying and slicing.

The oracles here are deliberately naive: triple loops over explicit bag
lists, set unions for splits, and direct bag evaluation to confirm every
reported counterexample.  Symbolic results must agree with them wherever
both apply.
"""

import copy
import dataclasses
import gc
import itertools
import pickle
import random
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from linedecomp import decomposition
from linedecomp.line import (
    Cut,
    CutPosition,
    Line,
    Ordering,
    Point,
    Segment,
    SegmentKind,
    UnsupportedScopeError,
    check_cut,
    compare_points,
    cut_key,
    enumerate_cuts,
    fin,
    omega,
    omega_star,
    zeta,
)
from linedecomp.decomposition import (
    Decomposition,
    ExplicitBags,
    PeriodicBags,
    Side,
    V,
    VertexId,
    _retemplate,
    add_to_bags,
    bag_at,
    bag_of,
    boundary_split,
    boundary_splits,
    common_indices,
    full_vertices,
    limit_vertices,
    remove_from_bags,
    reverse_decomposition,
    shift_set,
    slice_between,
    tidy,
    verify,
    width,
)
from linedecomp.cli import emit_document
from linedecomp.oracle import materialize, random_decomposition

from conftest import (
    CountingBags,
    CountingPeriodicBags,
    _random_mixed,
    _random_periodic,
    counting,
    oracle_split,
)


# ---------------------------------------------------------------------------
# Oracles


def brute_betweenness_ok(bags):
    n = len(bags)
    for r in range(n):
        for s in range(r, n):
            for t in range(s, n):
                if not bags[r] & bags[t] <= bags[s]:
                    return False
    return True


def brute_split(bags, k):
    """Vertices in a bag at position < k and one at position >= k."""
    lower = set().union(*bags[:k])
    upper = set().union(*bags[k:])
    return frozenset(lower & upper)


def brute_left_limit(bags):
    out = set()
    for v in set().union(*bags):
        occ = [i for i, b in enumerate(bags) if v in b]
        if occ and occ == list(range(0, occ[-1] + 1)):
            out.add(v)
    return frozenset(out)


def window_offsets(seg, w):
    if seg.kind is SegmentKind.FIN:
        return range(seg.length)
    if seg.kind is SegmentKind.OMEGA:
        return range(0, w + 1)
    if seg.kind is SegmentKind.OMEGA_STAR:
        return range(-w - 1, 0)
    return range(-w, w + 1)


def window_bags(d, w):
    out = []
    for j, seg in enumerate(d.line.segments):
        for i in window_offsets(seg, w):
            out.append(bag_at(d, Point(j, i)))
    return out


def edges_of(bags):
    es = set()
    for b in bags:
        es.update(frozenset(p) for p in itertools.combinations(sorted(b), 2))
    return es


def assert_counterexample_sound(d, report):
    assert report.counterexample is not None
    v, r, s, t = report.counterexample
    assert compare_points(d.line, r, s) is Ordering.LT
    assert compare_points(d.line, s, t) is Ordering.LT
    assert v in bag_at(d, r)
    assert v not in bag_at(d, s)
    assert v in bag_at(d, t)


def assert_window_tidy(bags):
    for a, b in itertools.combinations(bags, 2):
        assert not a <= b and not b <= a


def explicit(*bags, z1=frozenset(), z2=frozenset()):
    bs = tuple(frozenset(b) for b in bags)
    return Decomposition(Line.of(fin(len(bs))), (ExplicitBags(bs),), z1, z2)


# ---------------------------------------------------------------------------
# Template evaluation


def test_periodic_block_evaluation():
    t = PeriodicBags(2, (bag_of(("v", 0)), bag_of(("v", 0), ("v", 1))), stride=1)
    assert t.bag(3) == shift_set(t.residues[1], 1)
    assert t.bag(2) == bag_of(("v", 1))
    assert t.bag(-1) == shift_set(t.residues[1], -1)
    assert t.bag(-2) == bag_of(("v", -1))


def test_sliding_band_bags():
    t = PeriodicBags(1, (bag_of(("v", 0), ("v", 1)),), stride=1)
    for i in (-3, 0, 7):
        assert t.bag(i) == bag_of(("v", i), ("v", i + 1))


def test_pinned_constant_bags():
    t = PeriodicBags(1, (bag_of(("v", 0), ("v", 1)),), stride=1, constant=bag_of("a"))
    assert t.bag(7) == bag_of("a", ("v", 7), ("v", 8))
    d = Decomposition(Line.of(zeta()), (t,))
    assert full_vertices(d, 0) == bag_of("a")


def test_template_validation():
    with pytest.raises(ValueError):
        Decomposition(Line.of(fin(2)), (ExplicitBags((bag_of("a"),)),))
    with pytest.raises(ValueError):
        Decomposition(Line.of(fin(1)), (ExplicitBags((frozenset(),)),))
    with pytest.raises(ValueError):
        PeriodicBags(2, (bag_of("a"),), 0)
    with pytest.raises(ValueError):
        Decomposition(Line.of(omega()), (ExplicitBags((bag_of("a"),)),))


_OFFSET_POOL = [V("s"), *(V(tag, i) for tag in "ab" for i in range(-3, 4))]


@st.composite
def stride_template_st(draw, strides=(-3, -2, -1, 1, 2, 3)):
    """A periodic template with a stride drawn from strides, static and
    mobile residue vertices, and a constant that may hold mobile vertices."""
    p = draw(st.integers(1, 3))
    stride = draw(st.sampled_from(strides))
    residues = tuple(frozenset(draw(st.lists(st.sampled_from(_OFFSET_POOL),
                                             max_size=4)))
                     for _ in range(p))
    constant = frozenset(draw(st.lists(
        st.builds(V, st.sampled_from("ab"), st.integers(-9, 9)), max_size=3)))
    return PeriodicBags(p, residues, stride, constant)


@settings(max_examples=300, deadline=None)
@given(stride_template_st(), st.sampled_from("ab"), st.integers(-9, 9))
def test_offsets_of_matches_a_scan_of_blocks(t, tag, index):
    # indices differ by at most 12, so every hit lies within 12 blocks of 0
    v = V(tag, index)
    p = t.period
    scan = tuple(o for o in range(-13 * p, 14 * p)
                 if v in shift_set(t.residues[o % p], t.stride * (o // p)))
    assert t.offsets_of(v) == scan


@settings(max_examples=300, deadline=None)
@given(stride_template_st(strides=range(-3, 4)))
def test_split_formula_matches_the_meet_of_two_bags(t):
    # constant indices reach 9 and shifted residues pass them within 12
    # blocks, so collisions of the constant with the residues lie in range
    for i in range(-30, 31):
        assert t.split(i) == t.bag(i) & t.bag(i + 1)


def test_width_generic_blocks():
    # at generic blocks the band misses the pinned vertex, so the width
    # counts both; the single colliding block only makes bags smaller
    t = PeriodicBags(1, (bag_of(("v", 0)),), stride=1, constant=bag_of(("v", 3)))
    d = Decomposition(Line.of(omega()), (t,))
    assert width(d) == 1
    assert len(t.bag(3)) == 1


# ---------------------------------------------------------------------------
# Verification: finite lines against the brute oracle


def test_three_bag_bounce_rejected():
    d = explicit({V("a")}, {V("b")}, {V("a")})
    rep = verify(d)
    assert not rep.betweenness_ok
    assert rep.counterexample[0] == V("a")
    assert_counterexample_sound(d, rep)


def test_middle_subset_is_valid():
    d = explicit({V("a"), V("b")}, {V("b")}, {V("b"), V("c")})
    rep = verify(d)
    assert rep.ok
    assert rep.width == 1


@st.composite
def interval_system(draw):
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, 6))
    ivs = []
    for i in range(k):
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(a, n - 1))
        ivs.append((V("v", i), a, b))
    bags = [frozenset(v for v, a, b in ivs if a <= t <= b) for t in range(n)]
    bags = [b for b in bags if b]
    if not bags:
        bags = [frozenset([V("v", 0)])]
    return bags


@given(interval_system())
def test_interval_systems_verify(bags):
    d = explicit(*bags)
    rep = verify(d)
    assert rep.ok
    assert rep.counterexample is None
    assert rep.width == max(len(b) for b in bags) - 1


@st.composite
def arbitrary_bags(draw):
    n = draw(st.integers(1, 6))
    verts = [V("v", i) for i in range(5)]
    return [frozenset(draw(st.sets(st.sampled_from(verts), min_size=1, max_size=4)))
            for _ in range(n)]


@given(arbitrary_bags())
def test_verify_matches_brute_force(bags):
    d = explicit(*bags)
    rep = verify(d)
    assert rep.betweenness_ok == brute_betweenness_ok(bags)
    if not rep.betweenness_ok:
        assert_counterexample_sound(d, rep)


@st.composite
def finite_segments(draw):
    """Random bags over statics and mobiles, cut into 1-4 fin segments."""
    n = draw(st.integers(1, 10))
    verts = [V("u"), V("v")] + [V("v", i) for i in range(-1, 4)]
    bags = [frozenset(draw(st.sets(st.sampled_from(verts), min_size=1, max_size=4)))
            for _ in range(n)]
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=3))) if n > 1 else []
    bounds = [0] + cuts + [n]
    d = Decomposition(Line.of(*(fin(b - a) for a, b in zip(bounds, bounds[1:]))),
                      tuple(ExplicitBags(tuple(bags[a:b]))
                            for a, b in zip(bounds, bounds[1:])))
    return d, bags


@given(finite_segments())
def test_verify_names_the_least_failing_vertex_across_finite_segments(case):
    d, bags = case
    failing = set()
    for v in set().union(*bags):
        offs = [i for i, b in enumerate(bags) if v in b]
        if offs[-1] - offs[0] + 1 != len(offs):
            failing.add(v)
    rep = verify(d)
    assert rep.betweenness_ok == (not failing)
    if failing:
        assert rep.counterexample[0] == min(failing)
        assert_counterexample_sound(d, rep)


@pytest.mark.parametrize("max_bag", [2, 6])
def test_verify_reads_each_bag_a_bounded_number_of_times(max_bag):
    chain = random_decomposition(random.Random(400), bags=400, max_bag=max_bag)
    bags = CountingBags(chain.templates[0].bags)
    d = Decomposition(chain.line, (ExplicitBags(bags),))
    bags.reads = 0
    assert verify(d).ok
    # a bounded number of passes, however many vertices the bags hold
    assert bags.reads <= 4 * len(bags)


def test_verify_checks_vertices_that_a_periodic_segment_reaches():
    # u:5 is alone in its finite segment and never leaves it there, but the
    # omega's residue {u:0} with stride 1 brings it back at offset 5
    d = Decomposition(Line.of(fin(1), omega()), (
        ExplicitBags((bag_of(("u", 5)),)),
        PeriodicBags(1, (bag_of(("u", 0)),), 1)))
    assert verify(d).counterexample == (
        V("u", 5), Point(0, 0), Point(1, 4), Point(1, 5))
    # x is gap-free in each finite segment it occurs in, 0 and 2, but
    # absent from segment 1 between them
    d = Decomposition(Line.of(fin(2), fin(1), fin(2)), (
        ExplicitBags((bag_of("a", "x"), bag_of("a"))),
        ExplicitBags((bag_of("a", "b"),)),
        ExplicitBags((bag_of("b", "x"), bag_of("b")))))
    assert verify(d).counterexample == (V("x"), Point(0, 0), Point(1, 0), Point(2, 0))


def test_verify_settles_a_valid_chain_without_per_vertex_checks(monkeypatch):
    built = []
    real = decomposition._explicit_occurrences
    monkeypatch.setattr(decomposition, "_explicit_occurrences",
                        lambda d, vertices: built.append(d) or real(d, vertices))
    chain = random_decomposition(random.Random(1600), bags=1600, max_bag=5)
    assert verify(chain).ok
    assert built == []
    # the first vertex, put back into a bag well after its last one
    bags = list(chain.templates[0].bags)
    v = min(bags[0])
    last = max(i for i, b in enumerate(bags) if v in b)
    bags[last + 100] |= {v}
    d = explicit(*bags)
    failing = set()
    for w in set().union(*bags):
        offs = [i for i, b in enumerate(bags) if w in b]
        if offs[-1] - offs[0] + 1 != len(offs):
            failing.add(w)
    rep = verify(d)
    assert v in failing and rep.counterexample[0] == min(failing)
    assert_counterexample_sound(d, rep)


def test_verify_indexes_only_the_candidate_vertices(monkeypatch):
    built = []
    real = decomposition._explicit_occurrences

    def spy(d, vertices):
        built.append(real(d, vertices))
        return built[-1]

    monkeypatch.setattr(decomposition, "_explicit_occurrences", spy)
    chain = random_decomposition(random.Random(1600), bags=1600, max_bag=5)
    bags = list(chain.templates[0].bags)
    v = min(bags[0])
    bags[300] |= {v}  # v leaves within the first few bags: one gapped vertex
    assert verify(explicit(*bags)).counterexample[0] == v
    assert [set(occ[0]) for occ in built] == [{v}]


@given(arbitrary_bags())
def test_limits_match_brute_force(bags):
    d = explicit(*bags)
    if not verify(d).betweenness_ok:
        return
    assert limit_vertices(d, Side.LEFT) == brute_left_limit(bags)
    assert limit_vertices(d, Side.RIGHT) == brute_left_limit(list(reversed(bags)))


@given(arbitrary_bags())
def test_boundary_split_matches_brute_force(bags):
    d = explicit(*bags)
    if not verify(d).betweenness_ok:
        return
    for k in range(1, len(bags)):
        c = Cut(0, CutPosition.AFTER_OFFSET, k - 1)
        assert boundary_split(d, c) == brute_split(bags, k)


def test_boundary_flags():
    d = explicit({V("a"), V("b")}, {V("b"), V("c")}, z1={V("a")}, z2={V("c")})
    assert verify(d).ok
    bad = explicit({V("a"), V("b")}, {V("b"), V("c")}, z1={V("c")})
    rep = verify(bad)
    assert rep.betweenness_ok and not rep.boundary_ok
    assert rep.counterexample == (V("c"),)


# ---------------------------------------------------------------------------
# Verification: periodic templates


def band(kind_seg, k=1, stride=1, period=1, constant=frozenset()):
    """Sliding-window bags over one infinite segment."""
    res = tuple(bag_of(*((("v", j)) for j in range(k + 1))) for _ in range(period))
    t = PeriodicBags(period, res, stride, constant)
    return Decomposition(Line.of(kind_seg), (t,))


@pytest.mark.parametrize("seg", [omega(), omega_star(), zeta()])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("stride", [1, -1, 2])
def test_bands_verify(seg, k, stride):
    d = band(seg, k=k, stride=stride)
    rep = verify(d)
    assert rep.ok
    assert rep.width == k
    assert brute_betweenness_ok(window_bags(d, 12))


def test_band_with_period_two():
    res = (bag_of(("v", 0), ("v", 1)), bag_of(("v", 0), ("v", 1)))
    d = Decomposition(Line.of(zeta()), (PeriodicBags(2, res, 1),))
    rep = verify(d)
    assert rep.ok
    assert brute_betweenness_ok(window_bags(d, 12))


def test_static_in_proper_residue_subset_rejected():
    res = (bag_of("a", ("v", 0)), bag_of(("v", 0)))
    d = Decomposition(Line.of(omega()), (PeriodicBags(2, res, 0),))
    rep = verify(d)
    assert not rep.betweenness_ok
    assert rep.counterexample[0] == V("a")
    assert_counterexample_sound(d, rep)


def test_verify_names_the_least_failing_vertex_over_a_static_residue():
    # a fails in the finite segment and z on every other bag of the omega;
    # the lesser is named, not the first one found
    d = Decomposition(Line.of(fin(3), omega()), (
        ExplicitBags((bag_of("a"), bag_of("b"), bag_of("a", "b"))),
        PeriodicBags(2, (bag_of("z", "b"), bag_of("b")), 0)))
    rep = verify(d)
    assert not rep.betweenness_ok
    assert rep.counterexample[0] == V("a")
    assert_counterexample_sound(d, rep)


def test_orbit_gap_rejected():
    # v_n occurs at offsets n-2 and n: never an interval
    d = Decomposition(Line.of(zeta()),
                      (PeriodicBags(1, (bag_of(("v", 0), ("v", 2)),), 1),))
    rep = verify(d)
    assert not rep.betweenness_ok
    assert_counterexample_sound(d, rep)


def test_orbit_gap_masked_by_constant_still_rejected():
    # the pinned copy cannot save the rest of its orbit
    t = PeriodicBags(1, (bag_of(("v", 0), ("v", 2)),), 1, constant=bag_of(("v", 2)))
    d = Decomposition(Line.of(omega()), (t,))
    rep = verify(d)
    assert not rep.betweenness_ok
    assert_counterexample_sound(d, rep)


def test_apex_rays_verify():
    left = PeriodicBags(1, (bag_of(("u", 0), ("u", 1)),), 1, constant=bag_of("a"))
    right = PeriodicBags(1, (bag_of(("u", 0), ("u", 1)),), 1)
    d = Decomposition(Line.of(omega_star(), omega()), (left, right))
    rep = verify(d)
    assert rep.ok
    assert rep.width == 2
    assert brute_betweenness_ok(window_bags(d, 12))


def test_shifted_junction_overlap_rejected():
    # the right ray starts three vertices back, so u_{-1} occurs on both
    # sides without reaching the junction from the right
    left = PeriodicBags(1, (bag_of(("u", 0), ("u", 1)),), 1)
    right = PeriodicBags(1, (bag_of(("u", -3), ("u", -2)),), 1)
    d = Decomposition(Line.of(omega_star(), omega()), (left, right))
    rep = verify(d)
    assert not rep.betweenness_ok
    assert_counterexample_sound(d, rep)


def test_two_upward_rays_sharing_vertices_rejected():
    t = PeriodicBags(1, (bag_of(("u", 0), ("u", 1)),), 1)
    d = Decomposition(Line.of(omega(), omega()), (t, t))
    rep = verify(d)
    assert not rep.betweenness_ok
    assert_counterexample_sound(d, rep)


def test_static_bridge_needs_full_middle():
    # b occurs in both outer segments but misses part of the middle one
    lt = ExplicitBags((bag_of("b", ("v", 0)),))
    mid = PeriodicBags(1, (bag_of(("w", 0), ("w", 1)),), 1)
    rt = ExplicitBags((bag_of("b", ("v", 1)),))
    d = Decomposition(Line.of(fin(1), omega(), fin(1)),
                      (lt, PeriodicBags(1, mid.residues, 1), rt))
    rep = verify(d)
    assert not rep.betweenness_ok
    assert rep.counterexample[0] == V("b")
    assert_counterexample_sound(d, rep)


def test_static_bridge_over_full_middle():
    lt = ExplicitBags((bag_of("b", ("v", 0)),))
    mid = PeriodicBags(1, (bag_of(("w", 0), ("w", 1)),), 1, constant=bag_of("b"))
    rt = ExplicitBags((bag_of("b", ("v", 1)),))
    d = Decomposition(Line.of(fin(1), omega(), fin(1)), (lt, mid, rt))
    rep = verify(d)
    assert rep.ok
    assert brute_betweenness_ok(window_bags(d, 10))


def test_boundary_on_rays():
    d = band(zeta())
    assert limit_vertices(d, Side.LEFT) == frozenset()
    bad = Decomposition(d.line, d.templates, z1=bag_of(("v", 0)))
    rep = verify(bad)
    assert not rep.boundary_ok
    left = PeriodicBags(1, (bag_of(("u", 0), ("u", 1)),), 1, constant=bag_of("a"))
    da = Decomposition(Line.of(omega_star()), (left,), z1=bag_of("a"),
                       z2=bag_of("a", ("u", -1), ("u", 0)))
    assert verify(da).ok
    assert limit_vertices(da, Side.LEFT) == bag_of("a")
    assert limit_vertices(da, Side.RIGHT) == bag_of("a", ("u", -1), ("u", 0))


# ---------------------------------------------------------------------------
# Splits at cuts of infinite lines


def test_band_splits():
    d = band(zeta())
    c = Cut(0, CutPosition.AFTER_OFFSET, 4)
    assert boundary_split(d, c) == bag_of(("v", 5))


def test_limit_cut_split_empty_between_rays():
    t = PeriodicBags(1, (bag_of(("u", 0), ("u", 1)),), 1)
    s = PeriodicBags(1, (bag_of(("w", 0), ("w", 1)),), 1)
    d = Decomposition(Line.of(omega(), omega()), (t, s))
    c = Cut(0, CutPosition.AFTER_SEGMENT)
    assert boundary_split(d, c) == frozenset()


def test_apex_junction_split():
    left = PeriodicBags(1, (bag_of(("u", 0), ("u", 1)),), 1, constant=bag_of("a"))
    right = PeriodicBags(1, (bag_of(("u", 0), ("u", 1)),), 1)
    d = Decomposition(Line.of(omega_star(), omega()), (left, right))
    c = Cut(0, CutPosition.AFTER_OFFSET, -1)
    assert boundary_split(d, c) == bag_of(("u", 0))


@st.composite
def cut_lists(draw):
    """A decomposition, periodic, on several finite segments, or of
    templates whose constants collide with the shifted residues, and cuts
    of it with every segment end, limit cut and BEFORE_SEGMENT spelling: in
    line order, reversed, shuffled, or drawn with repeats."""
    source = draw(st.sampled_from(["finite", "random", "colliding"]))
    if source == "finite":
        d, _ = draw(finite_segments())
    elif source == "random":
        rng = random.Random(draw(st.integers(0, 2**32)))
        while True:
            try:
                d = _random_periodic(rng)
                break
            except ValueError:
                continue
    else:
        kinds = draw(st.lists(st.sampled_from([omega(), omega_star(), zeta()]),
                              min_size=1, max_size=2))
        temps = draw(st.lists(stride_template_st(strides=range(-3, 4)).filter(
            lambda t: all(r | t.constant for r in t.residues)),
            min_size=len(kinds), max_size=len(kinds)))
        d = Decomposition(Line(tuple(kinds)), tuple(temps))
    line = d.line
    cuts = enumerate_cuts(line, draw(st.integers(3, 30))) + [
        Cut(j, CutPosition.BEFORE_SEGMENT) for j, seg in enumerate(line.segments)
        if j > 0 and seg.kind in (SegmentKind.OMEGA_STAR, SegmentKind.ZETA)]
    cuts.sort(key=lambda c: cut_key(line, c))
    how = draw(st.sampled_from(["order", "reversed", "shuffled", "repeats"]))
    if how == "reversed":
        cuts.reverse()
    elif how == "shuffled":
        cuts = draw(st.permutations(cuts))
    elif how == "repeats" and cuts:
        cuts = draw(st.lists(st.sampled_from(cuts), max_size=20))
    return d, cuts


# two rays over one tag: at the limit cut between them the first bag of
# each ray meets the other, but only full_vertices belongs in the split
_RAYS = PeriodicBags(1, (bag_of(("u", 0), ("u", 1)),), 1)


@given(cut_lists())
@example((Decomposition(Line.of(omega(), omega()), (_RAYS, _RAYS)),
          [Cut(0, CutPosition.AFTER_SEGMENT)]))
def test_boundary_splits_match_the_per_cut_oracle(case):
    d, cuts = case
    assert boundary_splits(d, cuts) == tuple(oracle_split(d, c) for c in cuts)


@pytest.mark.parametrize("bad", [
    Cut(0, CutPosition.BEFORE_SEGMENT),  # the empty interval
    Cut(1, CutPosition.BEFORE_SEGMENT),  # below a finite segment
    Cut(1, CutPosition.AFTER_SEGMENT),  # above a finite segment
    Cut(1, CutPosition.AFTER_OFFSET, 1),  # the full line
    Cut(1, CutPosition.AFTER_OFFSET, 2),  # past the segment
    Cut(2, CutPosition.AFTER_OFFSET, 0),  # past the line
])
def test_boundary_splits_refuses_an_invalid_cut_like_boundary_split(bad):
    d = Decomposition(Line.of(zeta(), fin(2)),
                      (PeriodicBags(1, (bag_of(("v", 0), ("v", 1)),), 1),
                       ExplicitBags((bag_of("a"), bag_of("a")))))
    good = Cut(0, CutPosition.AFTER_OFFSET, 0)
    with pytest.raises(ValueError) as expected:
        check_cut(d.line, bad)
    with pytest.raises(ValueError) as one:
        boundary_split(d, bad)
    with pytest.raises(ValueError) as many:
        boundary_splits(d, [good, bad, good])
    assert str(one.value) == str(many.value) == str(expected.value)


# ---------------------------------------------------------------------------
# Tidying


def test_tidy_drops_nested_neighbours():
    d = explicit({V("a")}, {V("a"), V("b")}, {V("a")})
    td = tidy(d)
    assert window_bags(td, 0) == [bag_of("a", "b")]
    assert verify(td).ok


def test_tidy_keeps_already_tidy_object():
    d = explicit({V("a"), V("b")}, {V("b"), V("c")})
    assert tidy(d) is d
    dz = band(zeta())
    assert tidy(dz) is dz


def test_tidy_dedups_equal_run():
    d = explicit({V("a"), V("b")}, {V("a"), V("b")}, {V("b"), V("c")})
    td = tidy(d)
    assert window_bags(td, 0) == [bag_of("a", "b"), bag_of("b", "c")]


def test_tidy_collapses_constant_segment():
    t = PeriodicBags(1, (bag_of("a", "b"),), 0)
    d = Decomposition(Line.of(zeta()), (t,))
    td = tidy(d)
    assert td.line.segments == (fin(1),)
    assert window_bags(td, 0) == [bag_of("a", "b")]


def test_tidy_halves_duplicated_period():
    res = (bag_of(("v", 0), ("v", 1)), bag_of(("v", 0), ("v", 1)))
    d = Decomposition(Line.of(zeta()), (PeriodicBags(2, res, 1),))
    td = tidy(d)
    assert verify(td).ok
    assert edges_of(window_bags(td, 10)) >= edges_of(window_bags(d, 6))
    assert_window_tidy(window_bags(td, 8))
    assert tidy(td) is td


def test_tidy_periodic_nesting():
    res = (bag_of(("v", 0), ("v", 1)), bag_of(("v", 0), ("v", 1), ("v", 2)))
    d = Decomposition(Line.of(zeta()), (PeriodicBags(2, res, 1),))
    assert verify(d).ok
    td = tidy(d)
    assert verify(td).ok
    assert_window_tidy(window_bags(td, 8))
    assert edges_of(window_bags(td, 12)) >= edges_of(window_bags(d, 6))
    assert tidy(td) is td


def test_tidy_pinned_collision_exception():
    # the pinned v_3 swallows the bag at offset 3 only
    t = PeriodicBags(1, (bag_of(("v", 0)),), 1, constant=bag_of(("v", 3)))
    d = Decomposition(Line.of(omega()), (t,))
    assert verify(d).ok
    td = tidy(d)
    assert verify(td).ok
    bags = window_bags(td, 20)
    assert bag_of(("v", 3)) not in bags
    assert bag_of(("v", 2), ("v", 3)) in bags
    assert_window_tidy(bags)
    assert tidy(td) is td


def test_tidy_drops_bag_into_open_segment():
    head = ExplicitBags((bag_of("a"),))
    tail = PeriodicBags(1, (bag_of(("v", 0), ("v", 1)),), 1, constant=bag_of("a"))
    d = Decomposition(Line.of(fin(1), zeta()), (head, tail))
    assert verify(d).ok
    td = tidy(d)
    assert len(td.line.segments) == 1
    assert verify(td).ok
    assert tidy(td) is td


NESTED_PAIR = (bag_of(("v", 0)), bag_of(("v", 0), ("v", 1)))


@pytest.mark.parametrize("seg, constant, kinds", [
    # the pinned v_1 breaks the pattern near 0: the hull stays explicit and
    # both tails keep only the residue that is not nested
    (zeta(), bag_of(("v", 1)), ["OMEGA_STAR", "FIN", "OMEGA"]),
    # without it every block drops the same residue: the segment keeps
    # its shape on a one-residue template
    (omega(), frozenset(), ["OMEGA"]),
    (omega_star(), frozenset(), ["OMEGA_STAR"]),
    (zeta(), frozenset(), ["ZETA"]),
])
def test_tidy_drops_a_nested_residue(seg, constant, kinds):
    d = Decomposition(Line.of(seg), (PeriodicBags(2, NESTED_PAIR, 2, constant),))
    assert verify(d).ok
    td = tidy(d)
    assert [s.kind.name for s in td.line.segments] == kinds
    assert all(t.period == 1 for t in td.templates if isinstance(t, PeriodicBags))
    assert verify(td).ok
    assert_window_tidy(window_bags(td, 8))
    for a, b in ((d, td), (td, d)):
        _, small = materialize(a, 6)
        _, large = materialize(b, 30)
        assert small.vertices <= large.vertices and small.edges <= large.edges
    assert tidy(td) is td


def tight_runs():
    """Omega and zeta, period p = 3..5, stride 1: residues {a:0} p - 2 times,
    then {a:0, b:0}, then {a:1}, and each reversed.  Every run of {a} bags
    is p - 1 long and ends inside {a, b}; at a hull's upper edge it reaches
    p - 1 bags into the tail, so the tail's run decides the hull's last bag."""
    for seg in (omega(), zeta()):
        for p in range(3, 6):
            res = (bag_of(("a", 0)),) * (p - 2) + (bag_of(("a", 0), ("b", 0)),
                                                   bag_of(("a", 1)))
            d = Decomposition(Line.of(seg), (PeriodicBags(p, res, 1),))
            yield d
            yield reverse_decomposition(d)


@pytest.mark.parametrize("d", list(tight_runs()))
def test_tidy_follows_a_run_across_the_hull_edge(d):
    assert verify(d).ok
    td = tidy(d)
    # every {a} bag drops, so the segment keeps its shape on {a, b} alone
    assert td.line.segments == d.line.segments
    assert_window_tidy(window_bags(td, 12))


def two_tag_draw(rng):
    """1-3 segments on the mobile tags a and b: now and then a finite piece,
    else period 1-4, stride +-1 or +-2, marching residues of either tag or both,
    and mobile constants about three times in four."""
    segs, temps = [], []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.2:
            n = rng.randint(1, 3)
            segs.append(fin(n))
            temps.append(ExplicitBags(tuple(
                frozenset(V(rng.choice("ab"), rng.randint(0, 2))
                          for _ in range(rng.randint(1, 3)))
                for _ in range(n))))
            continue
        p, stride = rng.randint(1, 4), rng.choice([-2, -1, 1, 1, 2])
        size = rng.randint(1, 3)
        starts = sorted(rng.randint(0, abs(stride)) for _ in range(p))
        res = tuple(frozenset(V(tag, (s if stride > 0 else -s) + i)
                              for tag in rng.choice(["a", "b", "ab"])
                              for i in range(rng.randint(0, size)))
                    for s in starts)
        const = frozenset(V(rng.choice("ab"), rng.randint(-3, 3))
                          for _ in range(rng.choice([0, 1, 1, 2])))
        segs.append(rng.choice([omega, omega_star, zeta])())
        temps.append(PeriodicBags(p, res, stride, const))
    return Decomposition(Line(tuple(segs)), tuple(temps))


def test_tidy_on_two_tags_with_mobile_constants():
    """3,000 draws of seed 22; the 852 that verify are checked (535 of
    them change)."""
    rng = random.Random(22)
    checked = 0
    for _ in range(3000):
        try:
            d = two_tag_draw(rng)
        except ValueError:
            continue
        if not verify(d).ok:
            continue
        td = tidy(d)
        assert verify(td).ok
        # hulls end within 40 offsets of 0 (10 blocks of period 4), and six
        # output bags past one span at most 24 offsets
        for a, b in ((d, td), (td, d)):
            _, small = materialize(a, 6)
            _, large = materialize(b, 80)
            assert small.vertices <= large.vertices and small.edges <= large.edges
        assert_window_tidy(window_bags(td, 12))
        assert tidy(td) is td
        checked += 1
    assert checked == 852


def test_tidy_builds_each_hull_bag_once_and_one_past_each_tail_edge():
    # no collisions: the zeta's hull is blocks -2..1, its tails start at -3 and 2
    d = counting(band(zeta(), k=2))
    assert tidy(d) is d
    assert sorted(d.templates[0].built) == list(range(-3, 3))
    # the pinned v:3 collides in block 3: the hull runs to block 5
    t = CountingPeriodicBags(1, (bag_of(("v", 0)),), 1, bag_of(("v", 3)))
    tidy(Decomposition(Line.of(omega()), (t,)))
    assert sorted(t.built) == list(range(7))


@st.composite
def periodic_template(draw):
    p = draw(st.integers(1, 3))
    vertex = st.one_of(st.builds(V, st.sampled_from("ab")),
                       st.builds(V, st.sampled_from("uv"), st.integers(-3, 3)))
    residues = tuple(draw(st.frozensets(vertex, max_size=3)) for _ in range(p))
    return PeriodicBags(p, residues, draw(st.integers(-3, 3)),
                        draw(st.frozensets(vertex, max_size=2)))


@given(periodic_template(), st.lists(st.integers(-8, 8), min_size=1, max_size=4))
@settings(max_examples=60)
def test_retemplate_reindexes_offsets(t, offsets):
    u = _retemplate(t, offsets)
    q = len(offsets)
    assert u.period == q and u.stride == t.stride and u.constant == t.constant
    for b in range(-3, 4):
        for r, o in enumerate(offsets):
            assert u.bag(b * q + r) == t.bag(o + b * t.period)


@given(interval_system())
@settings(max_examples=60)
def test_tidy_preserves_finite_graphs(bags):
    d = explicit(*bags)
    td = tidy(d)
    new = window_bags(td, 0)
    assert edges_of(new) == edges_of(bags)
    assert set().union(*new) == set().union(*bags)
    assert_window_tidy(new)
    assert verify(td).ok
    assert width(td) <= width(d)
    assert tidy(td) is td


def test_tidy_is_idempotent(random_corpus):
    rng = random.Random(2805)
    chains = [random_decomposition(rng, bags=rng.randint(1, 40), max_bag=5,
                                   connected=rng.random() < 0.8)
              for _ in range(2000)]
    for d in random_corpus + chains:
        td = tidy(d)
        assert tidy(td) == td, d


# ---------------------------------------------------------------------------
# Slicing


def test_restrict_finite():
    bags = [bag_of("a", "b"), bag_of("b", "c"), bag_of("c", "d")]
    d = explicit(*bags, z1={V("a")}, z2={V("d")})
    c = Cut(0, CutPosition.AFTER_OFFSET, 1)
    inside = slice_between(d, None, c)
    outside = slice_between(d, c, None)
    assert window_bags(inside, 0) == bags[:2]
    assert window_bags(outside, 0) == bags[2:]
    assert inside.z1 == d.z1 and inside.z2 == bag_of("c")
    assert outside.z1 == bag_of("c") and outside.z2 == d.z2
    assert verify(inside).ok and verify(outside).ok


@pytest.mark.parametrize("offset", [-4, -1, 0, 3])
def test_restrict_zeta_band(offset):
    d = band(zeta(), k=2)
    c = Cut(0, CutPosition.AFTER_OFFSET, offset)
    inside = slice_between(d, None, c)
    outside = slice_between(d, c, None)
    assert inside.line.segments[0].kind is SegmentKind.OMEGA_STAR
    assert outside.line.segments[0].kind is SegmentKind.OMEGA
    assert bag_at(inside, Point(0, -1)) == bag_at(d, Point(0, offset))
    assert bag_at(outside, Point(0, 0)) == bag_at(d, Point(0, offset + 1))
    assert verify(inside).ok and verify(outside).ok
    assert width(inside) <= width(d) and width(outside) <= width(d)
    assert inside.z2 == outside.z1 == boundary_split(d, c)


def test_restrict_omega_inside_is_finite():
    d = band(omega())
    c = Cut(0, CutPosition.AFTER_OFFSET, 3)
    inside = slice_between(d, None, c)
    assert inside.line.segments == (fin(4),)
    assert window_bags(inside, 0) == [bag_at(d, Point(0, i)) for i in range(4)]


def test_restrict_at_segment_boundary():
    left = PeriodicBags(1, (bag_of(("u", 0), ("u", 1)),), 1, constant=bag_of("a"))
    right = PeriodicBags(1, (bag_of(("u", 0), ("u", 1)),), 1)
    d = Decomposition(Line.of(omega_star(), omega()), (left, right))
    c = Cut(0, CutPosition.AFTER_OFFSET, -1)
    inside = slice_between(d, None, c)
    outside = slice_between(d, c, None)
    assert len(inside.line.segments) == 1
    assert len(outside.line.segments) == 1
    assert inside.z2 == bag_of(("u", 0)) == outside.z1


def test_slice_between_finite():
    bags = [bag_of("a", "b"), bag_of("b", "c"), bag_of("c", "d"), bag_of("d", "e")]
    d = explicit(*bags)
    lo = Cut(0, CutPosition.AFTER_OFFSET, 0)
    hi = Cut(0, CutPosition.AFTER_OFFSET, 2)
    piece = slice_between(d, lo, hi)
    assert window_bags(piece, 0) == bags[1:3]
    assert piece.z1 == bag_of("b") and piece.z2 == bag_of("d")
    assert verify(piece).ok


def test_slice_between_band():
    d = band(zeta())
    lo = Cut(0, CutPosition.AFTER_OFFSET, -2)
    hi = Cut(0, CutPosition.AFTER_OFFSET, 4)
    piece = slice_between(d, lo, hi)
    assert window_bags(piece, 0) == [bag_at(d, Point(0, i)) for i in range(-1, 5)]
    assert piece.z1 == bag_of(("v", -1)) and piece.z2 == bag_of(("v", 5))


def test_slice_from_inside_zeta_renumbers_the_rest():
    line = Line.of(fin(3), zeta(), omega())
    d = Decomposition(line, (
        ExplicitBags((bag_of("a"),) * 3),
        PeriodicBags(1, (bag_of(("u", 0), ("u", 1)),), 1),
        PeriodicBags(1, (bag_of("b"),))))
    # offsets >= -2 of the zeta segment become an omega renumbered 0, 1, ...
    lo2 = Cut(1, CutPosition.AFTER_OFFSET, -3)
    piece = slice_between(d, lo2, Cut(1, CutPosition.AFTER_OFFSET, 5))
    assert piece.line.segments == (fin(8),)
    assert window_bags(piece, 0) == [bag_at(d, Point(1, i)) for i in range(-2, 6)]
    rest = slice_between(d, lo2, None)
    assert rest.line == Line.of(omega(), omega())
    assert [bag_at(rest, Point(0, i)) for i in range(8)] == \
        [bag_at(d, Point(1, i)) for i in range(-2, 6)]
    assert slice_between(d, lo2, Cut(1, CutPosition.AFTER_SEGMENT)).line == Line.of(omega())
    upto = slice_between(d, lo2, Cut(2, CutPosition.AFTER_OFFSET, 0))
    assert upto.line == Line.of(omega(), fin(1))
    assert upto.z1 == bag_of(("u", -2)) and upto.z2 == bag_of("b")


def in_cut(p, c):
    """Oracle: is p inside the initial interval of the canonical cut c?"""
    if p.segment != c.segment:
        return p.segment < c.segment
    return c.position is CutPosition.AFTER_SEGMENT or p.offset <= c.offset


def assert_slice_matches_points(d, lo, hi, piece, w=12):
    """The piece's bags are d's bags at the points strictly above lo and
    weakly below hi, read off a window of w offsets around each anchor
    (w well beyond the cuts): one piece segment per d segment with kept
    points, unbounded exactly where the kept points reach the window edge,
    aligned at its least point, else its greatest, else unshifted."""
    i = 0
    for j, seg in enumerate(d.line.segments):
        win = list(window_offsets(seg, w))
        kept = [o for o in win
                if (lo is None or not in_cut(Point(j, o), lo))
                and (hi is None or in_cut(Point(j, o), hi))]
        if not kept:
            continue
        below = seg.min_offset is not None or kept[0] > win[0]
        above = seg.max_offset is not None or kept[-1] < win[-1]
        kind = {(True, True): SegmentKind.FIN, (True, False): SegmentKind.OMEGA,
                (False, True): SegmentKind.OMEGA_STAR,
                (False, False): SegmentKind.ZETA}[below, above]
        got = piece.line.segments[i]
        assert got.kind is kind
        if kind is SegmentKind.FIN:
            assert got.length == len(kept)
        if below:
            at = {o: q for q, o in enumerate(kept)}
        elif above:
            at = {o: q - len(kept) for q, o in enumerate(kept)}
        else:
            at = {o: o for o in kept}
        for o in kept:
            assert bag_at(piece, Point(i, at[o])) == bag_at(d, Point(j, o))
        i += 1
    assert i == len(piece.line.segments)


@given(st.integers(0, 2**32), st.booleans())
@settings(max_examples=25, deadline=None)
def test_slice_between_matches_point_oracle(seed, finite):
    rng = random.Random(seed)
    while True:
        if finite:
            d = random_decomposition(rng, bags=rng.randint(2, 8), max_bag=4)
        else:
            try:
                d = _random_periodic(rng)
            except ValueError:
                continue
        if verify(d).ok:
            break
    cuts = enumerate_cuts(d.line, 3)
    ends = [None, *cuts, None]
    for a, lo in enumerate(ends[:-1]):
        for hi in ends[a + 1:]:
            piece = slice_between(d, lo, hi)
            assert verify(piece).ok
            assert piece.z1 == (d.z1 if lo is None else boundary_split(d, lo))
            assert piece.z2 == (d.z2 if hi is None else boundary_split(d, hi))
            assert_slice_matches_points(d, lo, hi, piece)
    for a, hi in enumerate(cuts):
        for lo in cuts[a:]:
            with pytest.raises(ValueError, match="lo to lie below hi"):
                slice_between(d, lo, hi)


def intervals_ok(bags):
    """Every vertex occupies consecutive bags: the interval check, one pass
    over the occurrences."""
    offs = {}
    for i, b in enumerate(bags):
        for v in b:
            offs.setdefault(v, []).append(i)
    return all(o[-1] - o[0] + 1 == len(o) for o in offs.values())


def test_verify_names_sound_witnesses_on_arbitrary_inputs():
    # where no template shifts, a window two periods past every end shows
    # every gap, so the interval check on it decides betweenness
    rng = random.Random(2028)
    unshifted = 0
    for _ in range(3000):
        d = _random_mixed(rng)
        rep = verify(d)
        if not rep.betweenness_ok:
            assert_counterexample_sound(d, rep)
        periodic = [t for t in d.templates if isinstance(t, PeriodicBags)]
        if all(t.stride == 0 for t in periodic):
            fd, _ = materialize(d, 2 * max((t.period for t in periodic), default=1) + 2)
            bags = [b for t in fd.templates for b in t.bags]
            assert rep.betweenness_ok == intervals_ok(bags)
            unshifted += 1
    assert unshifted > 300


def _unshifted(p, *residues):
    return PeriodicBags(p, tuple(bag_of(*r) for r in residues), 0)


_PINNED = frozenset(V("a", i) for i in [*range(10), *range(90, 100)])


@pytest.mark.parametrize("d, v", [
    # v's last occurrence is the whole omega*, which has no offset 0
    (Decomposition(Line.of(fin(1), fin(1), omega_star()), (
        ExplicitBags((bag_of("a"),)), ExplicitBags((bag_of("b"),)),
        _unshifted(1, "a"))), V("a")),
    # a misses every other bag of the periodic segment, b none of them
    (Decomposition(Line.of(zeta(), fin(1), fin(1)), (
        _unshifted(2, "b", "ab"), ExplicitBags((bag_of("b"),)),
        ExplicitBags((bag_of("a"),)))), V("a")),
    (Decomposition(Line.of(omega(), fin(1), fin(1)), (
        _unshifted(2, "b", "ab"), ExplicitBags((bag_of("b"),)),
        ExplicitBags((bag_of("a"),)))), V("a")),
    (Decomposition(Line.of(fin(1), zeta(), fin(1)), (
        ExplicitBags((bag_of("a"),)), _unshifted(2, "ab", "b"),
        ExplicitBags((bag_of("a"),)))), V("a")),
    # a_0 .. a_99 occur on both rays: a window of solutions from each end
    (Decomposition(Line.of(omega_star(), omega()), (
        PeriodicBags(1, (bag_of(("a", 100)),), 1),
        PeriodicBags(1, (bag_of(("a", 0)),), 1))), V("a", 0)),
    # as above, with a_0 .. a_9 and a_90 .. a_99 pinned by both constants:
    # they pass, so the window reaches past them to a_10
    (Decomposition(Line.of(omega_star(), omega()), (
        PeriodicBags(1, (bag_of(("a", 100)),), 1, _PINNED),
        PeriodicBags(1, (bag_of(("a", 0)),), 1, _PINNED))), V("a", 10)),
    # two zetas bound the common indices 4 + 6k on neither side: they are
    # checked upward from the first zeta's residue index 0
    (Decomposition(Line.of(zeta(), zeta()), (
        PeriodicBags(1, (bag_of(("m", 0)),), 2),
        PeriodicBags(1, (bag_of(("m", 1)),), 3))), V("m", 4)),
    (Decomposition(Line.of(zeta(), zeta()), (
        PeriodicBags(1, (bag_of(("m", 0)),), 1),
        PeriodicBags(1, (bag_of(("m", 5)),), -1))), V("m", 0)),
], ids=["omega*-end", "zeta-residue", "omega-residue", "residue-gap", "two-rays",
        "two-rays-pinned", "two-zetas", "two-zetas-opposite"])
def test_verify_names_a_sound_witness(d, v):
    rep = verify(d)
    assert rep.counterexample[0] == v
    assert_counterexample_sound(d, rep)


_RANGES = [(0, None), (None, -1), (None, None)]


def _brute_common(s1, m1, r1, s2, m2, r2, count, reach=1000):
    """common_indices by enumerating every index within reach of 0: an end
    of the common indices that runs past reach / 2 is taken to be open."""
    def member(x, s, m, r):
        b, rem = divmod(x - m, s)
        return rem == 0 and (r[0] is None or b >= r[0]) and (r[1] is None or b <= r[1])

    common = [x for x in range(-reach, reach + 1)
              if member(x, s1, m1, r1) and member(x, s2, m2, r2)]
    open_below = bool(common) and common[0] < -reach // 2
    open_above = bool(common) and common[-1] > reach // 2
    if open_below and open_above:
        return [x for x in common if x >= m1][:count]
    if open_above:
        return common[:count]
    if open_below:
        return common[-count:]
    if len(common) <= 2 * count:
        return common
    return common[:count] + common[-count:]


_STRIDES = st.sampled_from([s for s in range(-6, 7) if s])


@pytest.mark.parametrize("r1, r2", itertools.product(_RANGES, repeat=2))
@settings(max_examples=60, deadline=None)
@given(_STRIDES, st.integers(-20, 20), _STRIDES, st.integers(-20, 20),
       st.integers(1, 5))
def test_common_indices_match_enumeration(r1, r2, s1, m1, s2, m2, count):
    assert (common_indices(s1, m1, r1, s2, m2, r2, count)
            == _brute_common(s1, m1, r1, s2, m2, r2, count))


# ---------------------------------------------------------------------------
# Reversal and bag edits


def test_reverse_is_involutive():
    for d in (band(zeta(), k=2, stride=1), band(omega(), period=2),
              explicit({V("a")}, {V("a"), V("b")})):
        assert reverse_decomposition(reverse_decomposition(d)) == d


def test_reverse_mirrors_bags():
    d = band(zeta(), k=1, stride=2)
    rd = reverse_decomposition(d)
    # reversal reflects the zeta offsets through i -> -1-i
    for i in range(-9, 10):
        assert bag_at(rd, Point(0, -1 - i)) == bag_at(d, Point(0, i))
    assert verify(rd).ok


def test_reverse_swaps_boundaries():
    d = explicit({V("a"), V("b")}, {V("b"), V("c")}, z1={V("a")}, z2={V("c")})
    rd = reverse_decomposition(d)
    assert rd.z1 == bag_of("c") and rd.z2 == bag_of("a")
    assert verify(rd).ok


def test_add_then_remove_roundtrip():
    d = band(zeta())
    s = bag_of("x", "y")
    up = add_to_bags(d, s)
    assert verify(up).ok
    assert width(up) == width(d) + 2
    assert up.z1 == s and up.z2 == s
    assert limit_vertices(up, Side.LEFT) >= s
    down = remove_from_bags(up, s)
    assert down == d


def test_remove_drops_emptied_points():
    d = explicit({V("a")}, {V("a"), V("b")}, {V("b")})
    out = remove_from_bags(d, bag_of("a"))
    assert window_bags(out, 0) == [bag_of("b"), bag_of("b")]
    assert remove_from_bags(d, bag_of("a", "b")) is None


def test_remove_drops_an_emptied_periodic_segment():
    d = Decomposition(Line.of(fin(1), omega()), (
        ExplicitBags((bag_of("x", "y"),)), _unshifted(1, "x")))
    assert remove_from_bags(d, bag_of("x")) == explicit({V("y")})


def test_remove_riding_vertex_unsupported():
    d = band(zeta())
    with pytest.raises(UnsupportedScopeError):
        remove_from_bags(d, bag_of(("v", 3)))


def test_remove_whole_residue_retemplates():
    res = (bag_of("a", "b"), bag_of("a"))
    d = Decomposition(Line.of(omega()), (PeriodicBags(2, res, 0),))
    out = remove_from_bags(d, bag_of("a"))
    assert window_bags(out, 3) == [bag_of("b")] * 4


# ---------------------------------------------------------------------------
# Vertex values


def test_vertex_order_puts_statics_first_within_a_tag_then_indices():
    vs = [V("b"), V("a", 2), V("b", -1), V("a"), V("a", -3), V("a", 0)]
    assert sorted(vs) == [V("a"), V("a", -3), V("a", 0), V("a", 2),
                          V("b"), V("b", -1)]
    assert V("a") < V("a", 0) and not V("a", 0) < V("a")
    assert V("a", 5) < V("b") and V("a", 1) <= V("a", 1)


def test_vertex_equality_and_hash_agree():
    vs = [V("a"), V("a", 0), V("a", 1), V("b"), V("b", 0)]
    for u, w in itertools.product(vs, repeat=2):
        twin = VertexId(u.tag, u.index)
        assert (twin == w) == (u is w)
        assert twin != w or hash(twin) == hash(w)
    assert V("a", 1) == VertexId("a", index=1) and len({V("a"), V("a")}) == 1
    assert V("a", 1) != ("a", 1) and V("a") != "a" and V("a") != ("a",)
    assert V("a", 0) != V("a")


def test_vertex_fields_and_repr():
    v, s = V("a", 1), V("a")
    assert (v.tag, v.index, v.is_mobile, v.is_static) == ("a", 1, True, False)
    assert (s.tag, s.index, s.is_mobile, s.is_static) == ("a", None, False, True)
    assert v.shift(2) == V("a", 3) and s.shift(2) is s and v.shift(0) is v
    assert repr(v) == "V('a',1)" and repr(s) == "V('a')" and str(v) == repr(v)
    assert repr(frozenset({v})) == "frozenset({V('a',1)})"


def test_vertex_is_immutable():
    v = V("a", 1)
    with pytest.raises(AttributeError):
        v.index = 2
    with pytest.raises(AttributeError):
        v.other = 0
    with pytest.raises(TypeError):
        v[0] = "b"
    assert v == V("a", 1)


@pytest.mark.parametrize("v", [V("a"), V("a", 0), V("a", -4), V("xy", 17)])
def test_vertex_pickles_and_copies(v):
    for out in [pickle.loads(pickle.dumps(v, protocol))
                for protocol in range(pickle.HIGHEST_PROTOCOL + 1)] + [
                    copy.deepcopy(v), copy.copy(v)]:
        assert type(out) is VertexId and out == v and hash(out) == hash(v)
        assert (out.tag, out.index) == (v.tag, v.index)


# ---------------------------------------------------------------------------
# Remembered facts: verify and tidy run once per decomposition object


def _count_bodies(monkeypatch):
    """Counts of the verify and tidy bodies run: each calls its helper
    once."""
    runs = {"verify": 0, "tidy": 0}
    for name, helper in (("verify", "_betweenness_counterexample"),
                         ("tidy", "_canonical")):
        def counted(d, real=getattr(decomposition, helper), name=name):
            runs[name] += 1
            return real(d)
        monkeypatch.setattr(decomposition, helper, counted)
    return runs


def _untidy():
    return explicit({V("a")}, {V("a"), V("b")}, {V("b"), V("c")})


def test_verify_and_tidy_run_once_per_object(monkeypatch):
    runs = _count_bodies(monkeypatch)
    d = _untidy()
    rep, td = verify(d), tidy(d)
    assert verify(d) is rep and tidy(d) is td
    assert runs == {"verify": 1, "tidy": 1}
    assert tidy(td) is td and tidy(td) is td
    assert runs == {"verify": 1, "tidy": 2}
    # an equal object is a different object: its facts are its own
    e = _untidy()
    assert e == d and verify(e) == rep and tidy(e) == td
    assert runs == {"verify": 2, "tidy": 3}
    bad = explicit({V("a")}, {V("b")}, {V("a")})
    assert verify(bad) is verify(bad) and not verify(bad).ok
    assert runs["verify"] == 3


def test_remembered_facts_are_invisible():
    for make in (_untidy, lambda: band(zeta(), k=2)):
        d, fresh = make(), make()
        before = (hash(d), repr(d), emit_document(d))
        verify(d), tidy(d)
        assert (hash(d), repr(d), emit_document(d)) == before
        assert d == fresh and hash(d) == hash(fresh)


def test_replace_starts_with_no_facts(monkeypatch):
    runs = _count_bodies(monkeypatch)
    d = _untidy()
    verify(d), tidy(d)
    r = dataclasses.replace(d)
    assert r == d and r is not d
    verify(r), tidy(r)
    assert runs == {"verify": 2, "tidy": 2}
    z = dataclasses.replace(d, z1=bag_of("a"))
    assert verify(z).ok and tidy(z).z1 == bag_of("a")
    assert runs == {"verify": 3, "tidy": 3}


@pytest.mark.parametrize("make", [_untidy, lambda: band(zeta(), k=2)],
                         ids=["untidy", "tidy"])
def test_decomposition_pickles_and_copies_after_verify_and_tidy(make):
    d = make()
    rep, td = verify(d), tidy(d)
    for out in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d), copy.copy(d)):
        assert out == d and hash(out) == hash(d)
        assert verify(out) == rep and tidy(out) == td
        assert (tidy(out) is out) == (td is d)


def test_a_tidy_decomposition_holds_no_reference_to_itself():
    gc.disable()
    try:
        d = band(zeta(), k=2)
        assert tidy(d) is d and verify(d).ok
        ref = weakref.ref(d)
        del d
        assert ref() is None
    finally:
        gc.enable()
