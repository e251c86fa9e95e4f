"""Well-order machinery: concatenation and the rebuild, checked against
the vertex-universe oracle."""

import random
import weakref
from dataclasses import replace

import pytest

import linedecomp.splits
import linedecomp.wo
from linedecomp.line import (
    Line,
    OrdinalExpr,
    UnsupportedScopeError,
    all_points,
    enumerate_cuts,
    fin,
    is_well_order,
    line_ordinal,
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
    add_to_bags,
    bag_at,
    bag_of,
    limit_vertices,
    slice_between,
    verify,
    width,
)
from linedecomp.oracle import materialize, random_decomposition, witness_family
from linedecomp.splits import (
    analyze_splits,
    empty_split_cuts,
    enumerate_min_splits,
    repeated_splits,
    split_at,
)
from linedecomp.prime import concat_components
from linedecomp.wo import concat_wo, raw_concat, to_wo

from conftest import Ray, vertex_universe


def explicit(*bags, z1=(), z2=()):
    bs = tuple(frozenset(b) for b in bags)
    return Decomposition(Line.of(fin(len(bs))), (ExplicitBags(bs),),
                         frozenset(z1), frozenset(z2))


def band(segment, tag="v", size=1, stride=1, constant=(), z1=(), z2=()):
    res = (frozenset(VertexId(tag, j) for j in range(size + 1)),)
    t = PeriodicBags(1, res, stride, frozenset(constant))
    return Decomposition(Line.of(segment), (t,), frozenset(z1), frozenset(z2))


def ray_band(segment, index, stride):
    """One mobile vertex per bag, shifting by the stride each bag."""
    t = PeriodicBags(1, (frozenset({VertexId("v", index)}),), stride, frozenset())
    return Decomposition(Line.of(segment), (t,), frozenset(), frozenset())


def in_universe(u, v):
    finite, rays = u
    return v in finite or any(r.member(v) for r in rays)


# ---------------------------------------------------------------------------
# The vertex-universe oracle


def test_ray_membership_both_directions():
    up = Ray("v", 3, 2)
    assert up.member(V("v", 3)) and up.member(V("v", 9))
    assert not up.member(V("v", 4)) and not up.member(V("v", 1))
    assert not up.member(V("w", 3)) and not up.member(V("v"))
    down = Ray("v", -1, -3)
    assert down.member(V("v", -1)) and down.member(V("v", -10))
    assert not down.member(V("v", 2)) and not down.member(V("v", -3))


def test_ray_needs_step():
    with pytest.raises(ValueError):
        Ray("v", 0, 0)


def test_universe_of_finite_decomposition():
    d = explicit({V("a"), V("b")}, {V("b"), V("c")})
    finite, rays = vertex_universe(d)
    assert finite == bag_of("a", "b", "c")
    assert not rays


def test_universe_of_band_on_zeta():
    u = vertex_universe(witness_family(1))
    assert not u[0]
    assert all(in_universe(u, V("v", i)) for i in range(-25, 25))
    assert not in_universe(u, V("w", 0)) and not in_universe(u, V("v"))


def test_universe_keeps_constant_and_statics():
    d = band(omega(), size=0, constant={V("c")})
    finite, rays = vertex_universe(d)
    assert finite == bag_of("c")
    assert rays == {Ray("v", 0, 1)}


# ---------------------------------------------------------------------------
# Parts overlapping along rays: no limit set meets the other part, so the
# seam equation holds and verify alone finds the shared vertices


def test_overlap_of_opposed_rays_is_finite():
    lower, upper = ray_band(omega(), 0, 2), ray_band(omega_star(), 12, 2)
    assert vertex_universe(lower)[1] == {Ray("v", 0, 2)}
    assert vertex_universe(upper)[1] == {Ray("v", 10, -2)}
    # v0, v2, ..., v10 lie in both; v0 is the least failing vertex
    assert verify(raw_concat([lower, upper], [frozenset()])).counterexample[0] \
        == VertexId("v", 0)
    with pytest.raises(ValueError, match="share"):
        concat_components([lower, upper])


def test_overlap_of_misaligned_rays_is_empty():
    lower, upper = ray_band(omega(), 0, 2), ray_band(omega_star(), 9, 2)
    assert vertex_universe(upper)[1] == {Ray("v", 7, -2)}
    out = concat_components([lower, upper])
    assert width(out) == 0 and out.line == Line.of(omega(), omega_star())


def test_overlap_of_parallel_rays_is_infinite():
    lower, upper = ray_band(omega(), 0, 2), ray_band(omega(), 6, 4)
    with pytest.raises(ValueError, match="verify"):
        concat_wo(lower, upper, frozenset())


def test_overlap_finite_against_ray():
    lower = explicit(bag_of(("v", 4), ("v", 5), "x"))
    upper = ray_band(omega(), 0, 2)
    assert verify(raw_concat([lower, upper], [frozenset()])).counterexample[0] \
        == VertexId("v", 4)
    with pytest.raises(ValueError, match="verify"):
        concat_wo(lower, upper, frozenset())


# ---------------------------------------------------------------------------
# concat_wo


def test_concat_two_single_bags():
    d1 = explicit({V("a"), V("b")})
    d2 = explicit({V("b"), V("c")})
    j = concat_wo(d1, d2, bag_of("b"))
    assert width(j) == 1
    assert [bag_at(j, p) for p in all_points(j.line)] \
        == [bag_of("a", "b"), bag_of("b", "c")]
    assert line_ordinal(j.line) == OrdinalExpr.from_int(2)


def test_concat_omega_plus_point():
    lower = band(omega())
    upper = explicit({V("x")})
    j = concat_wo(lower, upper, frozenset())
    assert str(line_ordinal(j.line)) == "w + 1"


def test_concat_width_is_max():
    d1 = explicit({V("a"), V("b"), V("c"), V("d")})
    d2 = explicit({V("d"), V("e"), V("f")})
    j = concat_wo(d1, d2, bag_of("d"))
    assert width(j) == 3


def test_concat_keeps_designations():
    d1 = explicit({V("a"), V("b")}, z1={V("a")}, z2={V("b")})
    d2 = explicit({V("b"), V("c")}, z1={V("b")}, z2={V("c")})
    j = concat_wo(d1, d2, bag_of("b"))
    assert j.z1 == bag_of("a") and j.z2 == bag_of("c")


def test_concat_rejects_bad_interface():
    d1 = explicit({V("a"), V("b")}, {V("b"), V("c")})
    d2 = explicit({V("c"), V("d")})
    with pytest.raises(ValueError):
        concat_wo(d1, d2, bag_of("b"))  # b is not in d1's last bag? it is; not in d2
    with pytest.raises(ValueError):
        concat_wo(d2, d1, bag_of("c"))  # d1's first bag misses d2's d? shares c only


def test_concat_rejects_overlap_beyond_interface():
    d1 = explicit({V("a"), V("b")}, {V("b"), V("c")})
    d2 = explicit({V("b"), V("c"), V("d")})
    with pytest.raises(ValueError, match="exactly the interface"):
        concat_wo(d1, d2, bag_of("c"))


def test_concat_rejects_infinite_overlap():
    d1 = band(omega())
    d2 = band(omega())
    with pytest.raises(ValueError, match="does not verify"):
        concat_wo(d1, d2, frozenset())


def test_concat_rejects_unordered_input():
    with pytest.raises(ValueError, match="well-order"):
        concat_wo(band(omega_star()), explicit({V("x")}), frozenset())


def test_concat_wo_rejects_a_part_that_does_not_verify():
    gap = explicit({V("a"), V("b")}, {V("b")}, {V("a")})
    with pytest.raises(ValueError, match="verify"):
        concat_wo(gap, explicit({V("x")}), frozenset())


def test_concat_merges_finite_runs():
    d1 = explicit({V("a"), V("b")})
    d2 = explicit({V("b")})
    j = concat_wo(d1, d2, bag_of("b"))
    assert len(j.line.segments) == 1 and j.line.segments[0].length == 2


def test_split_then_concat_is_identity_on_finite():
    for seed in range(60):
        rng = random.Random(seed)
        d = random_decomposition(rng, bags=rng.randint(2, 7), max_bag=4)
        n = d.line.segments[0].length
        cut = enumerate_cuts(d.line, n)[rng.randrange(n - 1)]
        s = split_at(d, cut).vertices
        lower = slice_between(d, None, cut)
        upper = slice_between(d, cut, None)
        assert concat_wo(lower, upper, s) == d


# ---------------------------------------------------------------------------
# add_to_bags


def test_add_nothing_is_identity():
    d = explicit({V("a")})
    assert add_to_bags(d, frozenset()) is d


def test_add_bounds_width_and_sets_limits():
    d = band(omega(), size=2)
    s = bag_of("x", "y")
    out = add_to_bags(d, s)
    assert width(out) <= width(d) + len(s)
    assert s <= limit_vertices(out, Side.LEFT)
    assert s <= limit_vertices(out, Side.RIGHT)
    assert s <= out.z1 and s <= out.z2


# ---------------------------------------------------------------------------
# to_wo: short circuits


def test_to_wo_returns_finite_input_unchanged():
    d = explicit({V("a"), V("b")}, {V("b"), V("c")}, z1={V("a")})
    out = to_wo(d)
    assert out == d


def test_to_wo_returns_omega_input_unchanged():
    d = band(omega(), size=2)
    assert to_wo(d) == d


def test_to_wo_returns_well_ordered_input_itself():
    for d in (explicit({V("a"), V("b")}, z1={V("a")}), band(omega(), size=2)):
        assert to_wo(d) is d


def test_to_wo_is_a_fixed_point():
    out = to_wo(witness_family(1))
    assert to_wo(out) == out


def test_to_wo_rejects_invalid_input():
    gap = explicit({V("a"), V("b")}, {V("c")}, {V("a"), V("b")})
    with pytest.raises(ValueError, match="verify"):
        to_wo(gap)


def test_to_wo_reverses_a_star_path():
    d = band(omega_star())
    out = to_wo(d)
    assert verify(out).ok and width(out) == 1
    assert str(line_ordinal(out.line)) == "w"


def test_to_wo_reversal_respects_designations():
    # designations break the cheap reversal: c must stay a left limit
    d = band(omega_star(), size=0, constant={V("c")}, z1={V("c")})
    out = to_wo(d)
    assert verify(out).ok and is_well_order(out.line)
    assert out.z1 == bag_of("c") and width(out) == 1
    assert str(line_ordinal(out.line)) == "w"


# ---------------------------------------------------------------------------
# to_wo: the witness families


@pytest.mark.parametrize("k", range(1, 7))
def test_to_wo_band_width_doubles_exactly(k):
    d = witness_family(k)
    out = to_wo(d)
    assert verify(out).ok
    assert is_well_order(out.line)
    assert width(out) == 2 * k
    assert line_ordinal(out.line) == OrdinalExpr.omega_power(1).add(
        OrdinalExpr.omega_power(1))


@pytest.mark.parametrize("k", [1, 2])
def test_to_wo_band_preserves_edges_and_universe(k):
    d = witness_family(k)
    out = to_wo(d)
    _, g_in = materialize(d, 30)
    _, g_out = materialize(out, 120)
    lost = {e for e in g_in.edges if e <= g_out.vertices} - g_out.edges
    assert not lost
    u_in, u_out = vertex_universe(d), vertex_universe(out)
    assert all(in_universe(u_out, v) for v in g_in.vertices)
    assert all(in_universe(u_in, v) for v in g_out.vertices)


# ---------------------------------------------------------------------------
# to_wo: assembly routes


def glued_family(constant_above=()):
    """An apex over a descending ray glued to an ascending path."""
    c = V("c")
    above = frozenset({V("v", 1)} | set(constant_above))
    return Decomposition(
        Line.of(omega_star(), fin(1), omega()),
        (PeriodicBags(1, (bag_of(("a", 0)),), 1, frozenset({c})),
         ExplicitBags((frozenset({c}) | above,)),
         PeriodicBags(1, (bag_of(("v", 1), ("v", 2)),), 1,
                      frozenset(constant_above))),
        frozenset(), frozenset(constant_above))


def test_to_wo_replicates_marching_tail():
    d = glued_family()
    out = to_wo(d)
    assert verify(out).ok and is_well_order(out.line)
    assert width(out) == 1
    assert str(line_ordinal(out.line)) == "w*2"
    _, g_in = materialize(d, 30)
    _, g_out = materialize(out, 200)
    lost = {e for e in g_in.edges if e <= g_out.vertices} - g_out.edges
    assert not lost


def test_to_wo_tail_keeps_right_designation():
    d = glued_family(constant_above={V("q")})
    out = to_wo(d)
    assert verify(out).ok and out.z2 == bag_of("q")
    assert width(out) <= 2 * width(d)


def test_to_wo_apex_star_keeps_apex_leftmost():
    d = band(omega_star(), tag="a", size=0, constant={V("c")}, z1={V("c")})
    out = to_wo(d)
    assert out.z1 == bag_of("c")
    assert width(out) == 1 and str(line_ordinal(out.line)) == "w"


def test_to_wo_chains_two_infinite_components():
    d = Decomposition(
        Line.of(omega_star(), omega()),
        (PeriodicBags(1, (bag_of(("v", 0), ("v", 1)),), 1),
         PeriodicBags(1, (bag_of(("w", 0), ("w", 1)),), 1)))
    out = to_wo(d)
    assert verify(out).ok and str(line_ordinal(out.line)) == "w*2"
    assert width(out) == 1


def over_designated():
    """Two designated left-limit vertices where the minimum split has one.
    Out of scope, not impossible: fin(2).omega with bags {p,q,y}, {p,q,x},
    then {p,q,a_(-1-i)} rebuilds it at width 2 = 2k - |z1|."""
    return Decomposition(
        Line.of(omega_star(), fin(2)),
        (PeriodicBags(1, (bag_of(("a", 0)),), 1, bag_of("p", "q")),
         ExplicitBags((bag_of("p", "q", "x"), bag_of("p", "y")))),
        bag_of("p", "q"), frozenset())


def test_to_wo_rejects_more_designated_than_split():
    d = over_designated()
    assert verify(d).ok
    with pytest.raises(UnsupportedScopeError,
                       match="left-limit vertices are designated"):
        to_wo(d)


def test_to_wo_rejects_infinitely_many_components():
    singletons = band(zeta(), size=0)
    with pytest.raises(UnsupportedScopeError):
        to_wo(singletons)


def test_to_wo_rejects_zeta_apex_star():
    # an apex over a two-way infinite independent set: removing the apex
    # leaves infinitely many components, and no single uniform drift covers
    # both directions of the ray
    d = band(zeta(), tag="a", size=0, constant={V("c")})
    with pytest.raises(UnsupportedScopeError):
        to_wo(d)


# ---------------------------------------------------------------------------
# Every scope refusal of the split analysis and the rebuild, one input each


def common_split():
    """Two marching classes of omega* whose splits {v_i} coincide."""
    return Decomposition(Line.of(omega_star()), (PeriodicBags(
        2, (bag_of(("v", 1)), bag_of(("v", -1), ("v", 0), ("v", 1))), -2),))


def interior_empty_splits():
    return Decomposition(Line.of(omega(), fin(1)), (
        PeriodicBags(1, (bag_of(("v", 0)),), 1), ExplicitBags((bag_of("x"),))))


# one entry per `raise UnsupportedScopeError` in splits.py and wo.py
SCOPE_REFUSALS = [
    (enumerate_min_splits, common_split, "two marching witness families generate a common split"),
    (empty_split_cuts, lambda: band(zeta(), size=0), "empty splits repeat forever toward an end"),
    (empty_split_cuts, interior_empty_splits, "empty splits repeat forever inside the line"),
    (repeated_splits, lambda: band(omega()), "repeated splits are only computed on finite lines"),
    (to_wo, over_designated, "left-limit vertices are designated but some split has only"),
]


@pytest.mark.parametrize("fn, make, message", SCOPE_REFUSALS,
                         ids=[m for _, _, m in SCOPE_REFUSALS])
def test_every_scope_refusal_is_reached(fn, make, message):
    d = make()
    assert verify(d).ok
    with pytest.raises(UnsupportedScopeError, match=message):
        fn(d)


def test_to_wo_rebuilds_the_common_split_input():
    # tidy drops the nested bag, and with it the second marching class
    d = common_split()
    out = to_wo(d)
    assert verify(out).ok and is_well_order(out.line)
    assert width(out) <= 2 * width(d)


def test_a_disconnected_indexing_numbers_nothing():
    idx = enumerate_min_splits(band(zeta(), size=0))
    assert (idx.m, idx.note) == (0, "disconnected")
    for i in range(-3, 4):
        assert not idx.in_range(i)
        with pytest.raises(IndexError):
            idx.split(i)


# ---------------------------------------------------------------------------
# to_wo: randomized postconditions


def test_to_wo_postconditions_hold_on_random_inputs(random_corpus):
    seen_converted = 0
    for d in random_corpus:
        k = width(d)
        try:
            out = to_wo(d)
        except (UnsupportedScopeError, ValueError):
            continue
        seen_converted += 1
        assert is_well_order(out.line)
        assert verify(out).ok
        assert width(out) <= 2 * k - len(d.z1)
        assert out.z1 == d.z1 and out.z2 == d.z2
        bound = OrdinalExpr.omega_power(k + 1)
        o = line_ordinal(out.line)
        assert o < bound or o == bound
        _, g_in = materialize(d, 12)
        _, g_out = materialize(out, 60)
        lost = {e for e in g_in.edges if e <= g_out.vertices} - g_out.edges
        assert not lost, sorted(map(sorted, lost))[:4]
        u_in, u_out = vertex_universe(d), vertex_universe(out)
        assert all(in_universe(u_out, v) for v in g_in.vertices)
        assert all(in_universe(u_in, v) for v in sorted(g_out.vertices)[::4])
    assert seen_converted > 90


def _counting(calls, key, fn):
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_to_wo_builds_one_split_window_per_rebuild_node(monkeypatch, random_corpus):
    calls = {"windows": 0, "nodes": 0}
    monkeypatch.setattr(linedecomp.splits, "enumerate_cuts", _counting(
        calls, "windows", linedecomp.splits.enumerate_cuts))
    monkeypatch.setattr(linedecomp.wo, "tidy", _counting(
        calls, "nodes", linedecomp.wo.tidy))
    for d in [witness_family(k) for k in (1, 2, 3)] + random_corpus:
        try:
            to_wo(d)
        except (UnsupportedScopeError, ValueError):
            pass
    # every rebuild node tidies its input once, then analyses its splits once
    assert 0 < calls["windows"] <= calls["nodes"]


def test_to_wo_releases_each_split_analysis_before_recursing(monkeypatch, random_corpus):
    built = []  # weak references to the analyses of the current input
    live_at_node = []
    analyze, tidy = linedecomp.wo.analyze_splits, linedecomp.wo.tidy

    def tracked_analyze(d):
        a = analyze(d)
        built.append(weakref.ref(a))
        return a

    def counting_tidy(d):
        # every rebuild node tidies its input before it analyses its splits
        live_at_node.append(sum(r() is not None for r in built))
        return tidy(d)

    monkeypatch.setattr(linedecomp.wo, "analyze_splits", tracked_analyze)
    monkeypatch.setattr(linedecomp.wo, "tidy", counting_tidy)
    for d in random_corpus:
        built.clear()
        try:
            to_wo(d)
        except (UnsupportedScopeError, ValueError):
            pass
    assert built and len(live_at_node) > len(random_corpus)
    assert max(live_at_node) == 0


def _outcome(f):
    try:
        return f()
    except UnsupportedScopeError as e:
        return str(e)


def test_analysis_min_splits_match_enumerate_min_splits(random_corpus):
    for d in random_corpus:
        a = analyze_splits(d)
        idx = _outcome(a.min_splits)
        assert idx == _outcome(lambda: enumerate_min_splits(d))
        _outcome(a.empty_cuts)
        assert _outcome(a.min_splits) == idx  # asking again changes nothing
