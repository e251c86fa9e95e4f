"""End-to-end checks of the package's headline guarantees.

Each test covers one advertised behaviour, decides it in bulk (random
instances, constructed families, exhaustive small cases), and prints a single
pass/fail line with the tally it is based on.
"""

import itertools
import random
import time

import pytest
from networkx.generators.atlas import graph_atlas_g

from linedecomp.decomposition import (
    Decomposition,
    ExplicitBags,
    PeriodicBags,
    Side,
    V,
    VertexId,
    bag_at,
    bag_of,
    boundary_split,
    limit_vertices,
    shift_set,
    slice_between,
    tidy,
    verify,
    width,
)
from linedecomp.line import (
    Cut,
    CutPosition,
    Line,
    Ordering,
    OrdinalExpr,
    Point,
    Segment,
    SegmentKind,
    all_points,
    fin,
    is_well_order,
    line_ordinal,
    omega,
    omega_star,
    zeta,
)
from linedecomp.oracle import (
    FiniteGraph,
    brute_splits,
    certificate_lowerbound,
    materialize,
    pathwidth_exact,
    random_decomposition,
    witness_family,
)
from linedecomp.prime import factor, is_prime, substitute
from linedecomp.splits import Split, before, enumerate_min_splits, split_at, split_bounds
from linedecomp.wo import concat_wo, to_wo

from conftest import count_points_between, is_integral


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def cut_at(offset: int) -> Cut:
    return Cut(0, CutPosition.AFTER_OFFSET, offset)


# ---------------------------------------------------------------------------
# 1. Rebuilt witness families: well-ordered, width exactly 2k


def test_witness_tightness():
    t0 = time.perf_counter()
    for k in range(1, 7):
        w = witness_family(k)
        out = to_wo(w)
        rep = verify(out)
        assert rep.ok and is_well_order(out.line)
        assert width(out) == 2 * k, f"width {width(out)} != {2 * k}"
        # the matching lower bound, checked exhaustively on three band blocks
        assert certificate_lowerbound(k)
        # a large finite snapshot still verifies and carries the band's edges
        snap_in, g_in = materialize(w, 200)
        snap_out, g_out = materialize(out, 200)
        assert verify(snap_in).ok and verify(snap_out).ok
        missing = {e for e in g_in.edges if e <= g_out.vertices} - g_out.edges
        assert not missing, f"k={k}: {len(missing)} band edges lost"
    took = time.perf_counter() - t0
    report(
        "witness tightness",
        took < 10.0,
        f"k=1..6 rebuilt to width exactly 2k, certified, window 200, {took:.1f}s",
    )


def test_witness_tightness_at_every_width():
    t0 = time.perf_counter()
    for k in range(1, 33):
        out = to_wo(witness_family(k))  # to_wo verifies what it returns
        assert is_well_order(out.line)
        assert width(out) == 2 * k, f"width {width(out)} != {2 * k}"
    certified = (*range(1, 9), 16, 32, 64)
    for k in certified:
        assert certificate_lowerbound(k), f"k={k}: certificate fails"
    took = time.perf_counter() - t0
    report(
        "witness tightness at every width",
        took < 10.0,
        f"k=1..32 rebuilt to width exactly 2k, certified at k={certified}, "
        f"{took:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. Equal-size splits of one decomposition are totally ordered


def brute_witness_cuts(d: Decomposition) -> dict[frozenset, list[int]]:
    """Split set -> sorted bag-counts of the initial intervals witnessing it."""
    grouped: dict[frozenset, list[int]] = {}
    for k, s in brute_splits(d).items():
        grouped.setdefault(s, []).append(k)
    return grouped


def test_before_order_totality():
    rng = random.Random(20260501)
    pairs = 0
    for _ in range(1000):
        d = tidy(random_decomposition(rng, bags=rng.randint(2, 10), max_bag=5))
        grouped = brute_witness_cuts(d)
        splits = {
            s: Split(s, tuple(cut_at(k - 1) for k in ks))
            for s, ks in grouped.items()
        }
        by_size: dict[int, list[frozenset]] = {}
        for s in grouped:
            by_size.setdefault(len(s), []).append(s)
        for size, group in by_size.items():
            for s, t in itertools.combinations(group, 2):
                ks, kt = grouped[s], grouped[t]
                # brute ground truth: one family of witnessing intervals sits
                # strictly inside the other
                s_first = max(ks) < min(kt)
                t_first = max(kt) < min(ks)
                assert s_first or t_first, (d, s, t)
                got = before(d, splits[s], splits[t])
                assert got is (Ordering.LT if s_first else Ordering.GT)
                pairs += 1
            one = splits[group[0]]
            assert before(d, one, Split(one.vertices, one.witness_cuts[:1])) is Ordering.EQ
    report(
        "before-order totality",
        pairs > 500,
        f"1000 random tidy instances, {pairs} distinct equal-size pairs, "
        "all strictly comparable and matching interval containment",
    )


# ---------------------------------------------------------------------------
# 3. Minimum splits are numbered by an interval of integers


def test_minimum_split_indexing():
    for k in range(1, 7):
        w = witness_family(k)
        idx = enumerate_min_splits(w)
        assert idx.m == k
        assert idx.lo is None and idx.hi is None, "expected indexing over all of Z"
        for i in range(-15, 15):
            s = idx.split(i)
            assert boundary_split(w, s.witness_cuts[0]) == s.vertices
            assert idx.split(i + 1).vertices == shift_set(s.vertices, 1)

    rng = random.Random(77)
    checked = 0
    for _ in range(300):
        d = tidy(random_decomposition(rng, bags=rng.randint(2, 10), max_bag=5))
        idx = enumerate_min_splits(d)
        grouped = brute_witness_cuts(d)
        if not grouped:
            assert idx.m is None
            continue
        m = min(len(s) for s in grouped)
        expected = sorted(
            (s for s in grouped if len(s) == m),
            key=lambda s: min(grouped[s]),
        )
        assert idx.m == m
        assert idx.lo == 0 and idx.hi == len(expected) - 1
        got = [idx.split(i).vertices for i in range(idx.lo, idx.hi + 1)]
        assert got == expected, (d, got, expected)
        checked += 1
    report(
        "minimum-split indexing",
        checked > 200,
        "witness families indexed by Z with shift-periodic splits; "
        f"{checked} finite instances with cuts match brute force in before-order",
    )


# ---------------------------------------------------------------------------
# 4. Witness families of a minimum split: bounded by cuts or certified limits


def apex_band(k: int, *, kind=zeta) -> Decomposition:
    apexes = bag_of(*(f"apex{i}" for i in range(k)))
    t = PeriodicBags(1, (bag_of(("v", 0)),), 1, constant=apexes)
    return Decomposition(Line.of(kind()), (t,))


def test_limit_dichotomy():
    rng = random.Random(424242)
    witnessed = 0
    for _ in range(500):
        d = tidy(random_decomposition(rng, bags=rng.randint(2, 10), max_bag=5))
        grouped = brute_witness_cuts(d)
        if not grouped:
            continue
        m = min(len(s) for s in grouped)
        for s, ks in grouped.items():
            if len(s) != m:
                continue
            bounds = split_bounds(d, split_at(d, cut_at(min(ks) - 1)))
            assert bounds.lower == cut_at(min(ks) - 1)
            assert bounds.upper == cut_at(max(ks) - 1)
            witnessed += 1

    # two-way infinite apex families: every min split is the apex set, its
    # witnesses run off both ends, and the certified equality holds
    for k in (1, 2):
        d = apex_band(k)
        idx = enumerate_min_splits(d)
        b = split_bounds(d, split_at(d, cut_at(0)))
        assert idx.m == k
        assert b.lower is Side.LEFT and b.upper is Side.RIGHT
        assert split_at(d, cut_at(0)).vertices == limit_vertices(d, Side.LEFT)
        assert split_at(d, cut_at(0)).vertices == limit_vertices(d, Side.RIGHT)

    # one-way infinite apex family: a least witness exists, no greatest
    d = apex_band(1, kind=omega)
    b = split_bounds(d, split_at(d, cut_at(0)))
    assert b.lower == cut_at(0) and b.upper is Side.RIGHT

    with pytest.raises(ValueError):
        split_bounds(apex_band(1), Split(bag_of("apex0", ("v", 0)), (cut_at(0),)))

    report(
        "limit dichotomy",
        witnessed >= 500,
        f"{witnessed} minimum splits bounded by witnessed cuts on randoms; "
        "apex families certified as limit-vertex equalities",
    )


# ---------------------------------------------------------------------------
# 5. Cutting in two and concatenating reproduces the decomposition


def graph_of(d: Decomposition) -> frozenset:
    bags = [bag_at(d, p) for p in all_points(d.line)]
    return frozenset(
        frozenset(e) for b in bags for e in itertools.combinations(sorted(b), 2)
    )


def split_and_reglue(d: Decomposition, c: Cut) -> Decomposition:
    s = boundary_split(d, c)
    inside = slice_between(d, None, c)
    outside = slice_between(d, c, None)
    return concat_wo(inside, outside, s)


def test_concatenation_round_trip():
    rng = random.Random(90210)
    cases = 0
    for _ in range(500):
        d = random_decomposition(rng, bags=rng.randint(2, 10), max_bag=5)
        n = len(all_points(d.line))
        glued = split_and_reglue(d, cut_at(rng.randrange(n - 1)))
        assert verify(glued).ok
        assert width(glued) == width(d)
        assert graph_of(glued) == graph_of(d)
        assert glued == d
        cases += 1

    for k in (1, 2, 3):
        w = witness_family(k)
        trunc = slice_between(w, cut_at(-9), cut_at(8))
        assert verify(trunc).ok and len(all_points(trunc.line)) == 17
        for j in range(16):  # slices renumber their points from zero
            glued = split_and_reglue(trunc, cut_at(j))
            assert verify(glued).ok
            assert width(glued) == width(trunc) == k
            assert graph_of(glued) == graph_of(trunc)
            cases += 1
    report(
        "concatenation round trip",
        cases == 500 + 3 * 16,
        f"{cases} split-and-reglue cases reproduce the graph at unchanged width",
    )


# ---------------------------------------------------------------------------
# 6. Factoring and substituting back is the identity


def test_prime_factorization_round_trip():
    rng = random.Random(61803)
    nontrivial = 0
    for _ in range(1000):
        d = tidy(
            random_decomposition(rng, bags=rng.randint(1, 10), max_bag=5,
                                 connected=True)
        )
        plan = factor(d)
        assert substitute(plan) == d, "bag-for-bag round trip failed"
        assert is_prime(plan.skeleton)
        for sub in plan.substituends.values():
            assert width(sub) < width(d)
        if plan.substituends:
            nontrivial += 1
    report(
        "prime factorization round trip",
        nontrivial > 100,
        f"1000 random tidy connected instances, {nontrivial} with proper "
        "substituends; skeletons prime, substituends thinner",
    )


# ---------------------------------------------------------------------------
# 7. Prime inputs rebuild onto short ordinals


def omega_star_path() -> Decomposition:
    t = PeriodicBags(1, (bag_of(("v", 0), ("v", 1)),), 1)
    return Decomposition(Line.of(omega_star()), (t,))


def test_ordinal_bound_for_prime_inputs():
    families = {1: omega_star_path(), 2: witness_family(2), 3: witness_family(3)}
    results = []
    for k, d in families.items():
        assert is_prime(d)
        out = to_wo(d)
        assert verify(out).ok and is_well_order(out.line)
        o = line_ordinal(out.line)
        bound = OrdinalExpr.omega_power(k)
        assert o < bound or o == bound, f"k={k}: ordinal {o} exceeds {bound}"
        results.append(f"k={k}: {o}")
    report(
        "ordinal bound for prime inputs",
        len(results) == 3,
        "; ".join(results) + " (each at most omega^k)",
    )


# ---------------------------------------------------------------------------
# 8. Sampled band subgraphs stay within width k; the oracle itself is exact


def band_subgraph(k: int, chosen: set[int]) -> FiniteGraph:
    vs = frozenset(VertexId("v", i) for i in chosen)
    es = frozenset(
        frozenset((VertexId("v", a), VertexId("v", b)))
        for a, b in itertools.combinations(sorted(chosen), 2)
        if b - a <= k
    )
    return FiniteGraph(vs, es)


def brute_vertex_separation(adj: list[int], n: int) -> int:
    """Minimum over all orderings of the worst prefix boundary, by branch and
    bound; independent of the subset dynamic program under test."""
    best = n
    full = (1 << n) - 1

    def go(placed: int, worst: int) -> None:
        nonlocal best
        if worst >= best:
            return
        if placed == full:
            best = worst
            return
        for v in range(n):
            if placed >> v & 1:
                continue
            m2 = placed | 1 << v
            b = 0
            for u in range(n):
                if m2 >> u & 1 and adj[u] & ~m2:
                    b += 1
            go(m2, max(worst, b))

    go(0, 0)
    return best


def test_compactness_and_pathwidth_oracle():
    rng = random.Random(1729)
    for k in (1, 2, 3):
        worst, clique_seen = 0, False
        for _ in range(100):
            a = rng.randint(-30, 30)
            span = rng.randint(1, 10 + k)
            chosen = {i for i in range(a, a + span + 1) if rng.random() < 0.75}
            chosen.add(a)
            pw, dec = pathwidth_exact(band_subgraph(k, chosen))
            assert verify(dec).ok and width(dec) == pw
            assert pw <= k, f"k={k}: sampled subgraph has pathwidth {pw}"
            worst = max(worst, pw)
            clique_seen = clique_seen or any(
                all(i + j in chosen for j in range(k + 1)) for i in chosen
            )
        assert clique_seen, f"k={k}: no clique window sampled; weak sampling"
        assert worst == k, f"k={k}: max sampled pathwidth {worst}"

    def agreement(n: int, edges: list[tuple[int, int]]) -> bool:
        adj = [0] * n
        for u, w in edges:
            adj[u] |= 1 << w
            adj[w] |= 1 << u
        fg = FiniteGraph(
            frozenset(VertexId("n", i) for i in range(n)),
            frozenset(
                frozenset((VertexId("n", u), VertexId("n", w))) for u, w in edges
            ),
        )
        return pathwidth_exact(fg)[0] == brute_vertex_separation(adj, n)

    # every labeled graph on up to 5 vertices
    labeled = 0
    for n in range(1, 6):
        slots = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(slots)):
            edges = [e for i, e in enumerate(slots) if mask >> i & 1]
            assert agreement(n, edges), (n, edges)
            labeled += 1

    # every isomorphism class on 6 and 7 vertices
    classes = 0
    for g in graph_atlas_g():
        n = g.number_of_nodes()
        if n < 6:
            continue
        pos = {v: i for i, v in enumerate(sorted(g.nodes()))}
        assert agreement(n, [(pos[u], pos[w]) for u, w in g.edges()])
        classes += 1
    report(
        "compactness and pathwidth oracle",
        labeled == 1099 and classes == 1200,
        "300 band samples within width k with tight maxima; oracle agrees "
        f"with branch-and-bound search on all {labeled} labeled graphs up to "
        f"5 vertices and all {classes} isomorphism classes on 6-7 vertices",
    )


# ---------------------------------------------------------------------------
# 9. Integer-embeddable lines are exactly recognized


def segment_menu() -> dict[str, Segment]:
    return {"fin": fin(4), "omega": omega(), "omega*": omega_star(), "zeta": zeta()}


def embeddable(segments: tuple[Segment, ...]) -> bool:
    # finitely many points between any two iff no segment runs upward forever
    # before another, or downward forever after one
    upward = {SegmentKind.OMEGA, SegmentKind.ZETA}
    downward = {SegmentKind.OMEGA_STAR, SegmentKind.ZETA}
    return not (
        any(s.kind in upward for s in segments[:-1])
        or any(s.kind in downward for s in segments[1:])
    )


def sample_points(line: Line) -> list[Point]:
    pts = []
    for j, seg in enumerate(line.segments):
        pts.extend(
            Point(j, o) for o in range(-12, 13) if seg.contains_offset(o)
        )
    return pts


def check_integrality(line: Line) -> None:
    ok, phi = is_integral(line)
    pts = sample_points(line)
    if ok != embeddable(line.segments):
        raise AssertionError(f"{line}: decision {ok}")
    if ok:
        values = [phi(p) for p in pts]
        assert all(a < b for a, b in zip(values, values[1:])), (
            f"{line}: embedding not strictly monotone"
        )
    else:
        assert phi is None
        assert any(
            count_points_between(line, a, b) is None
            for a, b in itertools.combinations(pts, 2)
        ), f"{line}: rejected but every sampled interval is finite"


def test_integral_lines():
    menu = segment_menu()
    cases = [Line.of(s) for s in menu.values()]
    cases += [Line.of(a, b) for a in menu.values() for b in menu.values()]
    for line in cases:
        check_integrality(line)

    assert not is_integral(Line.of(omega(), omega()))[0]
    assert not is_integral(Line.of(omega_star(), omega_star()))[0]
    assert is_integral(Line.of(zeta()))[0]
    assert is_integral(Line.of(omega_star(), fin(3), omega()))[0]
    check_integrality(Line.of(omega_star(), fin(3), omega()))
    report(
        "integral lines",
        len(cases) == 20,
        "all single segments and two-segment sums decided correctly, "
        "with verified embeddings on acceptance and infinite intervals on rejection",
    )
