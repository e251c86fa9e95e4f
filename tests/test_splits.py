"""Split machinery against brute-force enumeration and hand-worked cases."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import linedecomp.prime
import linedecomp.wo

from linedecomp.line import (
    Cut,
    CutPosition,
    Line,
    Ordering,
    Point,
    UnsupportedScopeError,
    all_points,
    enumerate_cuts,
    fin,
    is_well_order,
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
    bag_at,
    bag_of,
    boundary_split,
    boundary_splits,
    limit_vertices,
    shift_set,
    tidy,
    verify,
)
from linedecomp.cli import emit_document
from linedecomp.oracle import brute_splits, random_decomposition, witness_family
from linedecomp.prime import is_prime
from linedecomp.splits import (
    _maximal,
    Split,
    SplitAnalysis,
    SplitFamily,
    analyze_splits,
    before,
    enumerate_min_splits,
    repeated_splits,
    split_at,
    split_bounds,
    split_budget,
)
from linedecomp.wo import to_wo

from conftest import (
    CountingBags,
    _random_periodic,
    counting,
    full_radius_analysis,
    window_meetings_by_scan,
)

AO = CutPosition.AFTER_OFFSET


def explicit(*bags, z1=(), z2=()):
    bs = tuple(frozenset(b) for b in bags)
    return Decomposition(Line.of(fin(len(bs))), (ExplicitBags(bs),),
                         frozenset(z1), frozenset(z2))


def star(segment):
    t = PeriodicBags(1, (bag_of("a", ("l", 0)),), 1)
    return Decomposition(Line.of(segment), (t,), frozenset(), frozenset())


# ---------------------------------------------------------------------------
# split_at


def test_split_at_band():
    d = witness_family(2)
    for i in (-3, 0, 4):
        s = split_at(d, Cut(0, AO, i - 1))
        assert s.vertices == bag_of(("v", i), ("v", i + 1))


def test_split_at_star():
    d = star(omega())
    assert verify(d).ok
    for off in (0, 7, 23):
        assert split_at(d, Cut(0, AO, off)).vertices == bag_of("a")


def test_split_at_disconnected_cut():
    d = explicit({V("a"), V("b")}, {V("c"), V("d")})
    assert split_at(d, Cut(0, AO, 0)).vertices == frozenset()


def test_split_at_rejects_bad_cut():
    with pytest.raises(Exception):
        split_at(explicit({V("a")}), Cut(3, AO, 0))


def test_split_at_matches_brute():
    for seed in range(20):
        rng = random.Random(seed)
        d = random_decomposition(rng, bags=rng.randint(2, 8),
                                 max_bag=rng.randint(2, 5),
                                 connected=bool(seed % 2))
        expected = brute_splits(d)
        for k, s in expected.items():
            assert split_at(d, Cut(0, AO, k - 1)).vertices == s


# ---------------------------------------------------------------------------
# before


def test_before_band():
    d = witness_family(1)
    s0 = split_at(d, Cut(0, AO, 0))
    s5 = split_at(d, Cut(0, AO, 5))
    assert before(d, s0, s5) is Ordering.LT
    assert before(d, s5, s0) is Ordering.GT
    assert before(d, s0, split_at(d, Cut(0, AO, 0))) is Ordering.EQ


def test_before_size_mismatch():
    d = witness_family(1)
    s1 = Split(bag_of(("v", 0)), (Cut(0, AO, 0),))
    s2 = Split(bag_of(("v", 0), ("v", 1)), (Cut(0, AO, 1),))
    with pytest.raises(ValueError):
        before(d, s1, s2)


def test_before_totality_on_finite():
    for seed in range(30):
        rng = random.Random(seed + 100)
        d = tidy(random_decomposition(rng, bags=rng.randint(2, 9), max_bag=4))
        groups: dict[frozenset, list[int]] = {}
        for k, s in brute_splits(d).items():
            groups.setdefault(s, []).append(k)
        items = list(groups.items())
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                s1, k1 = items[i]
                s2, k2 = items[j]
                if len(s1) != len(s2):
                    continue
                sp1 = Split(s1, (Cut(0, AO, rng.choice(k1) - 1),))
                sp2 = Split(s2, (Cut(0, AO, rng.choice(k2) - 1),))
                got = before(d, sp1, sp2)
                if max(k1) < min(k2):
                    assert got is Ordering.LT
                elif max(k2) < min(k1):
                    assert got is Ordering.GT
                else:
                    raise AssertionError("witness runs interleave")


# ---------------------------------------------------------------------------
# enumerate_min_splits


def test_enumerate_band_is_all_integers():
    d = witness_family(2)
    idx = enumerate_min_splits(d)
    assert idx.m == 2
    assert idx.lo is None and idx.hi is None
    for i in range(-4, 4):
        s, t = idx.split(i), idx.split(i + 1)
        assert len(s.vertices) == 2
        assert t.vertices == shift_set(s.vertices, 1)
        assert before(d, s, t) is Ordering.LT
    assert idx.in_range(-10**6) and idx.in_range(10**6)


def test_enumerate_star_single_split():
    idx = enumerate_min_splits(star(omega()))
    assert idx.m == 1
    assert (idx.lo, idx.hi) == (0, 0)
    assert idx.split(0).vertices == bag_of("a")
    with pytest.raises(IndexError):
        idx.split(1)
    with pytest.raises(IndexError):
        idx.split(-1)


def test_enumerate_degenerate_reports():
    single = explicit({V("a"), V("b")})
    idx = enumerate_min_splits(single)
    assert idx.m is None and idx.note == "no cuts"
    disc = explicit({V("a")}, {V("b")})
    idx2 = enumerate_min_splits(disc)
    assert idx2.m == 0 and idx2.note == "disconnected"


def test_enumerate_matches_brute_on_finite():
    for seed in range(25):
        rng = random.Random(seed + 500)
        d = tidy(random_decomposition(rng, bags=rng.randint(2, 9), max_bag=4))
        brute = brute_splits(d)
        if not brute:
            continue
        m = min(len(s) for s in brute.values())
        expected = []
        for k in sorted(brute):
            s = brute[k]
            if len(s) != m:
                continue
            if not expected or expected[-1] != s:
                expected.append(s)
        idx = enumerate_min_splits(d)
        assert idx.m == m
        if m == 0:
            continue
        assert idx.lo == 0 and idx.hi == len(idx.window) - 1
        got = [idx.split(i).vertices for i in range(len(idx.window))]
        assert got == expected


# ---------------------------------------------------------------------------
# split_bounds


def test_bounds_unique_witness():
    d = witness_family(1)
    idx = enumerate_min_splits(d)
    for i in (0, 3):
        s = idx.split(i)
        b = split_bounds(d, s)
        assert b.lower == b.upper == s.witness_cuts[0]
    deep = idx.split(-7)
    b = split_bounds(d, deep)
    assert b.lower == b.upper
    assert boundary_split(d, b.lower) == deep.vertices


def test_bounds_left_limit_star():
    d = star(omega_star())
    assert verify(d).ok
    s = split_at(d, Cut(0, AO, -5))
    b = split_bounds(d, s)
    assert b.lower is Side.LEFT
    assert b.upper == Cut(0, AO, -2)
    assert s.vertices == limit_vertices(d, Side.LEFT)


def test_bounds_both_limits_zeta_star():
    d = star(zeta())
    assert verify(d).ok
    s = split_at(d, Cut(0, AO, 3))
    b = split_bounds(d, s)
    assert b.lower is Side.LEFT and b.upper is Side.RIGHT
    assert s.vertices == limit_vertices(d, Side.RIGHT)


def test_bounds_requires_minimum_size():
    d = witness_family(1)
    with pytest.raises(ValueError):
        split_bounds(d, Split(bag_of(("v", 0), ("v", 1)), (Cut(0, AO, 0),)))


def test_bounds_match_brute_on_finite():
    for seed in range(20):
        rng = random.Random(seed + 900)
        d = tidy(random_decomposition(rng, bags=rng.randint(2, 9), max_bag=4))
        brute = brute_splits(d)
        if not brute:
            continue
        m = min(len(s) for s in brute.values())
        if m == 0:
            continue
        groups: dict[frozenset, list[int]] = {}
        for k, s in brute.items():
            if len(s) == m:
                groups.setdefault(s, []).append(k)
        for s, ks in groups.items():
            b = split_bounds(d, Split(s, (Cut(0, AO, ks[0] - 1),)))
            assert b.lower == Cut(0, AO, min(ks) - 1)
            assert b.upper == Cut(0, AO, max(ks) - 1)


# ---------------------------------------------------------------------------
# repeated_splits


def test_repeated_star_bags():
    d = explicit({V("v"), V("a")}, {V("v"), V("b")}, {V("v"), V("c")})
    reps = repeated_splits(d)
    assert len(reps) == 1
    r = reps[0]
    assert r.split.vertices == bag_of("v")
    assert r.interval == (Point(0, 1), Point(0, 1))
    assert r.maximal


def test_repeated_none_on_path():
    d = explicit({V("a"), V("b")}, {V("b"), V("c")}, {V("c"), V("d")})
    assert repeated_splits(d) == []


def test_repeated_nested_intervals():
    d = explicit({V("v"), V("a")}, {V("v"), V("w"), V("b")},
                 {V("v"), V("w"), V("x")}, {V("v"), V("w"), V("c")},
                 {V("v"), V("d")})
    reps = repeated_splits(d)
    by_set = {r.split.vertices: r for r in reps}
    outer = by_set[bag_of("v")]
    inner = by_set[bag_of("v", "w")]
    assert outer.maximal and not inner.maximal
    assert outer.interval == (Point(0, 1), Point(0, 3))
    assert inner.interval == (Point(0, 2), Point(0, 2))


def test_repeated_rejects_infinite():
    with pytest.raises(UnsupportedScopeError):
        repeated_splits(witness_family(1))


def test_repeated_invariants_random():
    for seed in range(25):
        rng = random.Random(seed + 1300)
        d = tidy(random_decomposition(rng, bags=rng.randint(2, 10), max_bag=4))
        pts = all_points(d.line)
        pos = {p: i for i, p in enumerate(pts)}
        reps = repeated_splits(d)
        for r in reps:
            lo, hi = pos[r.interval[0]], pos[r.interval[1]]
            for i in range(lo, hi + 1):
                assert r.split.vertices <= bag_at(d, pts[i])
        spans = [(pos[r.interval[0]], pos[r.interval[1]])
                 for r in reps if r.maximal]
        for i in range(len(spans)):
            for j in range(i + 1, len(spans)):
                a, b = spans[i], spans[j]
                assert a[1] < b[0] or b[1] < a[0]


def _maximal_by_pairs(spans):
    """Maximality by definition: no other span contains the span."""
    return [not any(lo2 <= lo and hi <= hi2 and (lo2, hi2) != (lo, hi)
                    for lo2, hi2 in spans) for lo, hi in spans]


def test_maximal_repeats_match_the_pairwise_definition():
    for seed in range(40):
        rng = random.Random(seed + 3800)
        d = tidy(random_decomposition(rng, bags=rng.randint(2, 60), max_bag=4))
        pos = {p: i for i, p in enumerate(all_points(d.line))}
        reps = repeated_splits(d)
        spans = [(pos[r.interval[0]], pos[r.interval[1]]) for r in reps]
        assert [r.maximal for r in reps] == _maximal_by_pairs(spans)
    # spans of distinct splits never coincide on a chain; equal ones here
    rng = random.Random(38)
    for _ in range(300):
        spans = [tuple(sorted((rng.randint(0, 8), rng.randint(0, 8))))
                 for _ in range(rng.randint(0, 9))]
        assert _maximal(spans) == _maximal_by_pairs(spans)


# ---------------------------------------------------------------------------
# split families beyond the window, against brute enumeration of their blocks


def _brute_blocks(bags):
    """Blocks enough for any first meeting or collision to show: a meeting
    needs a shift no longer than the index spread, and steps are short."""
    spread = max((abs(v.index) for b in bags for v in b if v.is_mobile), default=0)
    return 4 * spread + 16


def _first_blocks(f, blocks):
    """Each split of f among its first `blocks` blocks, with its first block."""
    out = {}
    for b in range(blocks):
        out.setdefault(f.at(b), b)
    return out


def _check_against_brute(families, bags):
    blocks = _brute_blocks([b for f in families for b in (f.fixed, f.mobile)] + bags)
    tables = [_first_blocks(f, blocks) for f in families]
    for f, table in zip(families, tables):
        # the invariant: the mobile part never lands on a fixed vertex
        assert all(len(s) == f.size for s in table)
        for s in bags:
            assert f.meets(s) == table.get(s)
    for (f, tf), (g, tg) in itertools.combinations(zip(families, tables), 2):
        assert f.collides(g) == (not tf.keys().isdisjoint(tg)), (f, g)


_FIXED_POOL = [V("p"), V("q"), V("u", 0), V("v", 2)]
_MOBILE_POOL = [V(tag, i) for tag in "uv" for i in range(-6, 7)]


@st.composite
def family_st(draw):
    step = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    mobile = draw(st.frozensets(st.sampled_from(_MOBILE_POOL), max_size=3))
    # keep the invariant: drop the fixed vertices the mobile part reaches
    reached = frozenset().union(*(shift_set(mobile, step * b) for b in range(16)))
    fixed = draw(st.frozensets(st.sampled_from(_FIXED_POOL))) - reached
    return SplitFamily(0, +1, 0, 1, step, fixed, mobile)


@settings(max_examples=400, deadline=None)
@given(st.lists(family_st(), min_size=2, max_size=3))
def test_family_questions_match_brute_enumeration(families):
    bags = [f.at(b) for f in families for b in (0, 1, 5)]
    _check_against_brute(families, bags)


def test_built_families_match_brute_enumeration(random_corpus):
    checked = 0
    for d in random_corpus:
        a = analyze_splits(d)
        families = [*(a.low or ()), *(a.high or ()), *a.interior_classes()]
        for f in families:
            for b in range(6):
                assert f.at(b) == boundary_split(d, f.cut(b))
        _check_against_brute(families, list(a.window_splits))
        checked += len(families)
    assert checked > 200


# ---------------------------------------------------------------------------
# Sizing (L1 of split_budget): every family keeps its formula from block 0


def _family_breaks(d, f, blocks=40):
    """Does f leave the split formula, or land its shifted mobile part on
    its fixed part, at some block below `blocks`?"""
    splits = boundary_splits(d, [f.cut(b) for b in range(blocks)])
    return any(f.at(b) != s or f.fixed & shift_set(f.mobile, f.step * b)
               for b, s in enumerate(splits))


def _colliding_zeta(rng):
    """A zeta template whose mobile constant shares indices with the
    residues, so shifted residues run into it near offset 0."""
    p = rng.randint(1, 3)
    stride = rng.choice([-3, -2, -1, 1, 2, 3])
    pool = [V("s"), *(V("a", i) for i in range(-2, 3))]
    residues = tuple(frozenset(rng.sample(pool, rng.randint(1, 3)))
                     for _ in range(p))
    constant = frozenset(V("a", rng.randint(-6, 6)) for _ in range(rng.randint(1, 2)))
    return Decomposition(Line.of(zeta()),
                         (PeriodicBags(p, residues, stride, constant),))


def test_families_at_the_window_edges_keep_their_formula(random_corpus):
    # the edges analyze_splits picks lie beyond every collision of a mobile
    # constant vertex; split_budget without _template_reach leaves 11 of
    # the 384 colliding families broken
    rng = random.Random(16)
    colliding = [_colliding_zeta(rng) for _ in range(100)]
    families = 0
    for d in colliding + random_corpus:
        a = analyze_splits(d)
        for f in [*(a.low or ()), *(a.high or ()), *a.interior_classes()]:
            assert not _family_breaks(d, f), (d, f)
            families += 1
    assert families > 1000


# ---------------------------------------------------------------------------
# The evaluation radius against the full window out to split_budget


def _outcome(fn):
    try:
        return fn()
    except UnsupportedScopeError as e:
        return str(e)


def _radius_corpus():
    """The 600 draws of seed 5024 that verify and are not well-ordered, and
    the witness bands k = 1..8."""
    rng = random.Random(5024)
    draws = []
    for _ in range(600):
        try:
            d = _random_periodic(rng)
        except ValueError:
            continue
        if not is_well_order(d.line) and verify(d).ok:
            draws.append(d)
    return draws + [witness_family(k) for k in range(1, 9)]


def _check_numbering(a, full):
    """Both analyses number, bound and refuse alike.  A witness cut left
    out by a is past its radius, and only a bound running off to a Side
    has its first (last) witness cut there."""
    idx, want = _outcome(a.min_splits), _outcome(full.min_splits)
    if isinstance(want, str):
        assert idx == want
        return
    assert (idx.m, idx.lo, idx.hi, idx.note) == (want.m, want.lo, want.hi, want.note)
    assert (idx.low_tail, idx.high_tail) == (want.low_tail, want.high_tail)
    window = set(a.window_cuts)
    for i in filter(want.in_range, range(-12, 90)):
        got, exp = idx.split(i), want.split(i)
        assert got.vertices == exp.vertices
        b = a.bounds(got)
        assert b == full.bounds(exp)
        assert set(got.witness_cuts) <= set(exp.witness_cuts)
        assert ([c for c in got.witness_cuts if c in window]
                == [c for c in exp.witness_cuts if c in window])
        assert got.witness_cuts[0] == exp.witness_cuts[0] or b.lower is Side.LEFT
        assert got.witness_cuts[-1] == exp.witness_cuts[-1] or b.upper is Side.RIGHT


def _rebuilt(d):
    try:
        return emit_document(to_wo(d))
    except UnsupportedScopeError as e:
        return str(e)


def test_the_evaluation_radius_decides_as_the_full_window(monkeypatch):
    corpus = _radius_corpus()
    assert len(corpus) > 330
    got = []
    for d in corpus:
        a, full = analyze_splits(d), full_radius_analysis(d)
        _check_numbering(a, full)
        assert _outcome(a.empty_cuts) == _outcome(full.empty_cuts)
        got.append((is_prime(d), _rebuilt(d)))
    # tidy reads no split analysis, so only primality and the rebuild can move
    monkeypatch.setattr(linedecomp.prime, "analyze_splits", full_radius_analysis)
    monkeypatch.setattr(linedecomp.wo, "analyze_splits", full_radius_analysis)
    assert got == [(is_prime(d), _rebuilt(d)) for d in corpus]


def _omega_star_then_fin():
    """lo = None and a finite hi: marching minimum splits {v_i} off the low
    end, and the last cuts of the line."""
    t = PeriodicBags(1, (bag_of(("v", 0), ("v", 1)),), 1)
    tail = ExplicitBags((bag_of(("v", 0), "x"), bag_of("x")))
    return Decomposition(Line.of(omega_star(), fin(2)), (t, tail))


@pytest.mark.parametrize("d, hi_bounded", [(witness_family(6), False),
                                            (_omega_star_then_fin(), True)],
                         ids=["band6", "omega_star_fin"])
def test_the_evaluated_window_is_smaller_than_the_numbering_radius(d, hi_bounded):
    assert verify(d).ok
    a = analyze_splits(d)
    assert len(a.window_cuts) < len(enumerate_cuts(d.line, split_budget(d)))
    idx = a.min_splits()
    assert idx.lo is None and (idx.hi is not None) == hi_bounded
    assert idx.hi == full_radius_analysis(d).min_splits().hi


# ---------------------------------------------------------------------------
# Bag builds: one sweep shares each point between neighbouring cuts


@pytest.mark.parametrize("k", [1, 3, 6])
def test_analyze_splits_builds_each_window_bag_once(k):
    d = counting(witness_family(k))
    sa = analyze_splits(d)
    assert sa.window_splits == analyze_splits(witness_family(k)).window_splits
    # one zeta segment has no segment end and no limit cut: every window
    # cut and every family edge takes the split formula
    assert d.templates[0].built == []


def test_analyze_splits_builds_bags_only_at_segment_ends(random_corpus):
    for d in map(counting, random_corpus):
        analyze_splits(d)
        for seg, t in zip(d.line.segments, d.templates):
            if isinstance(t, PeriodicBags):
                assert set(t.built) <= {seg.min_offset, seg.max_offset}


def test_repeated_splits_reads_each_bag_once():
    chain = tidy(random_decomposition(random.Random(400), bags=400, max_bag=5))
    bags = CountingBags(chain.templates[0].bags)
    d = Decomposition(chain.line, (ExplicitBags(bags),))
    bags.reads = 0
    repeated_splits(d)
    assert bags.reads == len(bags)


# ---------------------------------------------------------------------------
# Window meetings: one index probe per family against the pair scan


def _meeting_corpus(random_corpus):
    """The benchmark shapes, witness bands and 600 draws of seed 18."""
    rng = random.Random(18)
    draws = []
    for _ in range(600):
        try:
            draws.append(_random_periodic(rng))
        except ValueError:
            continue
    return [witness_family(k) for k in (1, 2, 3)] + random_corpus + draws


def test_window_meetings_match_the_pair_scan(random_corpus):
    met = 0
    for d in _meeting_corpus(random_corpus):
        sa = analyze_splits(d)
        families = [f for f in (*(sa.low or ()), *(sa.high or ()), *sa.interior_classes())
                    if f.mobile]
        found = set(sa.window_meetings(families))
        assert found == set(window_meetings_by_scan(sa, families))
        met += len(found)
    assert met > 500


def _decided(fn, d):
    try:
        out = fn(d)
    except ValueError as e:
        return type(e), str(e)
    if isinstance(out, bool):
        return out
    return (out.m, out.lo, out.hi, out.note, out.window, out.low_tail, out.high_tail)


def test_min_splits_and_distinctness_decide_as_the_pair_scan(random_corpus, monkeypatch):
    corpus = _meeting_corpus(random_corpus)
    tidy_valid = [d for d in corpus if verify(d).ok and tidy(d) == d]
    assert len(tidy_valid) > 100

    def decide():
        return ([_decided(enumerate_min_splits, d) for d in corpus],
                [_decided(is_prime, d) for d in tidy_valid])

    by_index = decide()
    monkeypatch.setattr(SplitAnalysis, "window_meetings", window_meetings_by_scan)
    assert decide() == by_index
    assert True in by_index[1] and False in by_index[1]


def test_a_split_between_the_blocks_of_a_family_is_no_repeat():
    # with stride 2 a family's splits are {v_i} for i of one parity only, so
    # the split one index past its block 1 is not among them
    t = PeriodicBags(1, (bag_of(("v", 0), ("v", 1), ("v", 2)),), 2)
    sa = analyze_splits(Decomposition(Line.of(zeta()), (t,)))
    f = sa.high[0]
    between = shift_set(f.at(1), 1)
    hand = dataclasses.replace(sa, window_splits=(between,) + sa.window_splits[1:])
    assert set(hand.window_meetings([f])) == set(window_meetings_by_scan(hand, [f])) == set()
    assert hand.min_splits().m == 1
