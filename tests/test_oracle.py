"""The oracles get their own oracle: exhaustive search over orderings."""

import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from linedecomp.line import Line, Point, all_points, fin
from linedecomp.decomposition import (
    Decomposition,
    ExplicitBags,
    V,
    bag_at,
    bag_of,
    reverse_decomposition,
    tidy,
    verify,
    width,
)
from linedecomp.oracle import (
    FiniteGraph,
    ProbeReport,
    brute_splits,
    certificate_lowerbound,
    compactness_probe,
    graph_from_bags,
    graph_from_edge_list,
    graph_to_edge_list,
    materialize,
    pathwidth_exact,
    random_decomposition,
    witness_family,
)

from conftest import certificate_by_enumeration, pathwidth_push


def perm_vertex_separation(g: FiniteGraph) -> int:
    """Minimum over all vertex orderings of the largest prefix boundary."""
    verts = sorted(g.vertices)
    best = len(verts)
    for order in itertools.permutations(verts):
        placed = set()
        worst = 0
        for v in order:
            placed.add(v)
            b = sum(1 for u in placed if g.neighbors(u) - placed)
            if b > worst:
                worst = b
            if worst >= best:
                break
        if worst < best:
            best = worst
    return best


def path_graph(n):
    vs = [V("v", i) for i in range(n)]
    es = [frozenset((vs[i], vs[i + 1])) for i in range(n - 1)]
    return FiniteGraph(frozenset(vs), frozenset(es))


def cycle_graph(n):
    vs = [V("v", i) for i in range(n)]
    es = [frozenset((vs[i], vs[(i + 1) % n])) for i in range(n)]
    return FiniteGraph(frozenset(vs), frozenset(es))


def complete_graph(n):
    vs = [V("v", i) for i in range(n)]
    es = [frozenset(p) for p in itertools.combinations(vs, 2)]
    return FiniteGraph(frozenset(vs), frozenset(es))


def random_graph(rng, n, p=0.5):
    vs = [V("v", i) for i in range(n)]
    es = [frozenset(pair) for pair in itertools.combinations(vs, 2)
          if rng.random() < p]
    return FiniteGraph(frozenset(vs), frozenset(es))


# ---------------------------------------------------------------------------
# Exact path-width


def test_pathwidth_anchors():
    assert pathwidth_exact(path_graph(5))[0] == 1
    assert pathwidth_exact(complete_graph(5))[0] == 4
    assert perm_vertex_separation(cycle_graph(6)) == 2
    assert pathwidth_exact(cycle_graph(6))[0] == 2


def test_pathwidth_matches_permutation_search():
    rng = random.Random(7)
    for n in (1, 2, 3, 4, 5, 6):
        for _ in range(6):
            g = random_graph(rng, n, p=rng.choice((0.2, 0.5, 0.8)))
            pw, d = pathwidth_exact(g)
            assert pw == perm_vertex_separation(g)
            assert verify(d).ok
            assert width(d) == pw
            built = graph_from_bags(bag_at(d, p) for p in all_points(d.line))
            assert g.edges <= built.edges
            assert g.vertices == built.vertices


@st.composite
def small_graphs(draw, max_vertices=10):
    n = draw(st.integers(1, max_vertices))
    vs = [V("v", i) for i in range(n)]
    pairs = list(itertools.combinations(vs, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return FiniteGraph(frozenset(vs),
                       frozenset(frozenset(p) for p, k in zip(pairs, keep) if k))


@given(small_graphs())
@settings(max_examples=150, deadline=None)
def test_pathwidth_matches_the_push_dp(g):
    """Same value and same bags, so the tie-break and the early stop pick the
    elimination order the push DP picked; the value is exact up to 7
    vertices by permutation search."""
    pw, d = pathwidth_exact(g)
    assert (pw, d.templates[0].bags) == pathwidth_push(g)
    if len(g.vertices) <= 7:
        assert pw == perm_vertex_separation(g)


def test_pathwidth_cap_and_empty():
    with pytest.raises(ValueError):
        pathwidth_exact(path_graph(21))
    with pytest.raises(ValueError):
        pathwidth_exact(FiniteGraph(frozenset(), frozenset()))


# ---------------------------------------------------------------------------
# Brute splits


def test_brute_splits_examples():
    single = Decomposition(Line.of(fin(1)), (ExplicitBags((bag_of("a"),),),),
                           frozenset(), frozenset())
    assert brute_splits(single) == {}
    three = Decomposition(
        Line.of(fin(3)),
        (ExplicitBags((bag_of("a", "b"), bag_of("b", "c"), bag_of("c", "d"))),),
        frozenset(), frozenset())
    assert brute_splits(three) == {1: bag_of("b"), 2: bag_of("c")}


def test_brute_splits_rejects_infinite():
    with pytest.raises(ValueError):
        brute_splits(witness_family(1))


# ---------------------------------------------------------------------------
# Witness family and its certificate


def test_witness_family_shape():
    for k in (1, 2, 3):
        d = witness_family(k)
        assert width(d) == k
        assert verify(d).ok
        assert tidy(d) is d
        assert bag_at(d, Point(0, 5)) == bag_of(*((f"v", i) for i in range(5, 5 + k + 1)))
    with pytest.raises(ValueError):
        witness_family(0)


def test_certificate_lowerbound():
    for k in (1, 2, 3):
        assert certificate_lowerbound(k) is True
        # one more slot lets a set meet every matching edge
        assert certificate_lowerbound(k, max_set_size=2 * k + 1) is False
        # two more and a single set swallows two whole blocks
        assert certificate_lowerbound(k, max_set_size=2 * k + 2) is False


@pytest.mark.parametrize("k", range(1, 8))
def test_certificate_counts_as_the_enumeration_decides(k):
    for cap in range(2 * k + 4):
        assert certificate_lowerbound(k, cap) == certificate_by_enumeration(k, cap)


# ---------------------------------------------------------------------------
# Materialization


def test_materialize_witness_window():
    fd, g = materialize(witness_family(1), 2)
    assert [s.kind.value for s in fd.line.segments] == ["fin"]
    bags = [bag_at(fd, p) for p in all_points(fd.line)]
    assert len(bags) == 5
    assert bags[0] == bag_of(("v", -2), ("v", -1))
    assert bags[-1] == bag_of(("v", 2), ("v", 3))
    assert frozenset((V("v", 0), V("v", 1))) in g.edges
    assert verify(fd).ok


def test_materialize_finite_is_identity():
    d = Decomposition(Line.of(fin(2)),
                      (ExplicitBags((bag_of("a"), bag_of("a", "b"))),),
                      frozenset(), frozenset())
    fd, g = materialize(d, 3)
    assert fd is d
    assert g.edges == frozenset({frozenset((V("a"), V("b")))})


def test_materialize_contains_clique():
    _, g = materialize(witness_family(2), 3)
    tri = [V("v", 0), V("v", 1), V("v", 2)]
    for u, w in itertools.combinations(tri, 2):
        assert frozenset((u, w)) in g.edges


def test_materialize_of_reversal():
    d = witness_family(2)
    rfd, _ = materialize(reverse_decomposition(d), 3)
    bwd = [bag_at(rfd, p) for p in all_points(rfd.line)]
    # reversal reflects zeta offsets through i -> -1-i before windowing
    assert bwd == [bag_at(d, Point(0, -1 - i)) for i in range(-3, 4)]
    assert verify(rfd).ok


# ---------------------------------------------------------------------------
# Compactness probe


def test_probe_witness_band():
    r = compactness_probe(witness_family(2), 40, window=4, seed=3)
    assert r.ok and r.width == 2
    assert r.max_pathwidth == 2


def test_probe_extremes():
    edgeless = Decomposition(Line.of(fin(3)),
                             (ExplicitBags((bag_of("a"), bag_of("b"), bag_of("c"))),),
                             frozenset(), frozenset())
    assert compactness_probe(edgeless, 10, seed=1).max_pathwidth == 0
    k4 = Decomposition(Line.of(fin(1)),
                       (ExplicitBags((bag_of("a", "b", "c", "d"),),),),
                       frozenset(), frozenset())
    r = compactness_probe(k4, 10, seed=1)
    assert r.max_pathwidth == 3 and r.ok


# ---------------------------------------------------------------------------
# Random instances


def test_random_decompositions_are_valid():
    for seed in range(25):
        rng = random.Random(seed)
        d = random_decomposition(rng, bags=rng.randint(1, 8),
                                 max_bag=rng.randint(1, 5),
                                 connected=bool(seed % 2))
        assert verify(d).ok
        td = tidy(d)
        assert verify(td).ok
        if seed % 2:
            assert all(s for s in brute_splits(d).values())


# ---------------------------------------------------------------------------
# Edge-list text


@pytest.mark.parametrize("v", [V("x:1"), V("q:z"), V("a b"), V("")],
                         ids=["colon-index", "colon-word", "space", "empty"])
def test_edge_list_refuses_a_vertex_its_text_cannot_carry(v):
    # x:1 would read back as the mobile ("x", 1); the others make the reader
    # raise or drop the vertex
    g = FiniteGraph(frozenset({v, V("y", 0)}), frozenset({frozenset({v, V("y", 0)})}))
    with pytest.raises(ValueError, match=re.escape(repr(v))):
        graph_to_edge_list(g)


def test_edge_list_refusal_names_the_least_such_vertex():
    g = FiniteGraph(frozenset({V("x:1"), V("a b"), V("m", 3)}), frozenset())
    with pytest.raises(ValueError, match=re.escape(repr(V("a b")))):
        graph_to_edge_list(g)


ordinary_vertices = st.one_of(
    st.builds(V, st.text("ab_-1", min_size=1, max_size=3)),
    st.builds(V, st.text("ab_-1:", min_size=1, max_size=3), st.integers(-20, 20)))


@given(st.lists(ordinary_vertices, min_size=1, max_size=6, unique=True), st.randoms())
def test_edge_list_round_trips_ordinary_tags(vs, rng):
    es = [frozenset(p) for p in itertools.combinations(vs, 2) if rng.random() < 0.5]
    g = FiniteGraph(frozenset(vs), frozenset(es))
    assert graph_from_edge_list(graph_to_edge_list(g)) == g


def test_edge_list_roundtrip():
    g = FiniteGraph(
        frozenset({V("a"), V("v", 1), V("v", 2), V("lonely")}),
        frozenset({frozenset((V("a"), V("v", 1))),
                   frozenset((V("v", 1), V("v", 2)))}))
    again = graph_from_edge_list(graph_to_edge_list(g))
    assert again == g
    with pytest.raises(ValueError):
        graph_from_edge_list("a b c\n")
    with pytest.raises(ValueError):
        graph_from_edge_list("a a\n")
