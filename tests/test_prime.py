"""Primality, substitution, factorization, and component sums."""

import random

import pytest

import linedecomp.prime
import linedecomp.wo
from linedecomp.line import (
    Cut,
    CutPosition,
    Line,
    OrdinalExpr,
    UnsupportedScopeError,
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
    bag_of,
    boundary_split,
    limit_vertices,
    tidy,
    verify,
    width,
)
from linedecomp.oracle import random_decomposition, witness_family
from linedecomp.prime import (
    FactorTree,
    SubstitutionPlan,
    compose_tree,
    concat_components,
    factor,
    factor_tree,
    is_prime,
    split_components,
    substitute,
)
from linedecomp.splits import SplitFamily
from linedecomp.wo import raw_concat, to_wo


def explicit(*bags, z1=(), z2=()):
    bs = tuple(frozenset(b) for b in bags)
    return Decomposition(Line.of(fin(len(bs))), (ExplicitBags(bs),),
                         frozenset(z1), frozenset(z2))


def band(segment, tag="v", size=1, stride=1, constant=(), z1=(), z2=()):
    res = (frozenset(VertexId(tag, j) for j in range(size + 1)),)
    t = PeriodicBags(1, res, stride, frozenset(constant))
    return Decomposition(Line.of(segment), (t,), frozenset(z1), frozenset(z2))


def star():
    return explicit({V("v"), V("a")}, {V("v"), V("b")}, {V("v"), V("c")})


def cut_at(offset):
    return Cut(0, CutPosition.AFTER_OFFSET, offset)


# ---------------------------------------------------------------------------
# Primality on finite lines


def test_path_is_prime():
    d = explicit({V("a"), V("b")}, {V("b"), V("c")}, {V("c"), V("d")})
    assert is_prime(d)


def test_star_is_not_prime():
    assert not is_prime(star())


def test_single_bag_is_prime():
    assert is_prime(explicit({V("a"), V("b")}))


def test_untidy_is_not_prime():
    d = explicit({V("a"), V("b")}, {V("a"), V("b"), V("c")})
    assert not is_prime(d)


def test_disconnected_is_not_prime():
    d = explicit({V("a"), V("b")}, {V("c"), V("d")})
    assert not is_prime(d)


def test_is_prime_rejects_invalid():
    d = explicit({V("a")}, {V("b")}, {V("a")})
    with pytest.raises(ValueError):
        is_prime(d)


# ---------------------------------------------------------------------------
# Primality on periodic lines


@pytest.mark.parametrize("k", range(1, 7))
def test_witness_family_is_prime(k):
    assert is_prime(witness_family(k))


def test_omega_band_is_prime():
    assert is_prime(band(omega()))


def test_constant_apex_is_not_prime():
    # every split equals {q}: one constant family deep down each reach
    d = band(zeta(), size=0, constant={V("q")})
    assert not is_prime(d)


def test_period_two_repeat_is_not_prime():
    # bags {v0,w0},{v0,v1},{v1,w1},{v1,v2},...: the split {v_i} shows up at
    # the cuts on both sides of each {v_i,w_i} bag
    t = PeriodicBags(2, (bag_of(("v", 0), ("w", 0)), bag_of(("v", 0), ("v", 1))), 1)
    d = Decomposition(Line.of(omega()), (t,))
    assert verify(d).ok and tidy(d) == d
    assert not is_prime(d)


def test_interior_reach_path_is_prime():
    # a path along omega, a bridge bag, and a path along a second omega; the
    # first omega's marching family starts at the window's last cut of that
    # segment, where it meets its own window split without repeating it
    d = Decomposition(
        Line.of(omega(), fin(1), omega()),
        (PeriodicBags(1, (bag_of(("u", 0), ("u", 1)),), 1, bag_of("c")),
         ExplicitBags((bag_of("c", ("v", 0)),)),
         PeriodicBags(1, (bag_of(("v", 0), ("v", 1)),), 1)))
    assert is_prime(d)


def family_of(*vs, step=1):
    """The family whose block-0 split is the given bag: statics fixed,
    indexed vertices marching by step per block."""
    b = bag_of(*vs)
    return SplitFamily(0, +1, 0, 1, step, frozenset(v for v in b if v.is_static),
                       frozenset(v for v in b if v.is_mobile))


def test_uniform_shift_helper():
    assert family_of(("v", 0), ("v", 2)).meets(bag_of(("v", 5), ("v", 7))) == 5
    assert family_of(("v", 0), ("v", 2)).meets(bag_of(("v", 5), ("v", 8))) is None
    assert family_of("s", ("v", 1)).meets(bag_of("s", ("v", 4))) == 3
    assert family_of("s", ("v", 1)).meets(bag_of("t", ("v", 4))) is None
    assert family_of("s").meets(bag_of("s")) == 0
    assert family_of("s").meets(bag_of("t")) is None
    # the shift must be a whole number of steps, taken forward
    assert family_of(("v", 1), step=3).meets(bag_of(("v", 7))) == 2
    assert family_of(("v", 1), step=2).meets(bag_of(("v", 4))) is None
    assert family_of(("v", 4)).meets(bag_of(("v", 1))) is None


def test_family_collision_rule():
    def fam(step, fixed=(), base=0):
        return SplitFamily(0, +1, 0, 1, step, bag_of(*fixed), bag_of(("v", base)))

    assert fam(3).collides(fam(6, base=3))
    assert not fam(2).collides(fam(4, base=3))  # gcd 2 misses delta 3
    assert fam(3).collides(fam(-6, base=3))  # opposite drift, v3 at blocks 1 and 0
    assert not fam(3).collides(fam(-6, base=-3))  # opposite drift, apart from the start
    assert not fam(3).collides(fam(-3, base=4))  # opposite drift, crossing between steps
    assert not fam(3, fixed=("p",)).collides(fam(3, base=1))
    assert fam(1).collides(fam(1, base=7))
    # a mobile part running into the other family's fixed part
    assert SplitFamily(0, +1, 0, 1, 1, bag_of(("v", 5)), frozenset()).collides(fam(1))
    # constant families (step 0) with equal fixed parts share their split
    def constant(fixed):
        return SplitFamily(0, +1, 0, 1, 0, bag_of(*fixed), frozenset())

    assert constant("pq").collides(constant("pq"))
    assert not constant("pq").collides(constant("pr"))


# ---------------------------------------------------------------------------
# Substitution


def test_substitute_middle_cut_gives_star():
    sk = explicit({V("v"), V("a")}, {V("v"), V("c")})
    plan = SubstitutionPlan(sk, {cut_at(0): explicit({V("b")})})
    assert substitute(plan) == star()


def test_substitute_empty_plan_is_identity():
    sk = explicit({V("a"), V("b")}, {V("b"), V("c")})
    assert substitute(SubstitutionPlan(sk)) == sk
    assert SubstitutionPlan(sk).is_trivial


def test_substitute_two_cuts_in_order():
    sk = explicit({V("a"), V("b")}, {V("b"), V("c")}, {V("c"), V("d")})
    plan = SubstitutionPlan(sk, {
        cut_at(0): explicit({V("x")}),
        cut_at(1): explicit({V("y"), V("z")}, {V("z"), V("u")}),
    })
    out = substitute(plan)
    assert verify(out).ok and tidy(out) == out
    assert [sorted(map(str, b)) for t in out.templates for b in t.bags] == [
        ["V('a')", "V('b')"],
        ["V('b')", "V('x')"],
        ["V('b')", "V('c')"],
        ["V('c')", "V('y')", "V('z')"],
        ["V('c')", "V('u')", "V('z')"],
        ["V('c')", "V('d')"],
    ]


def test_substitute_width_formula():
    rng = random.Random(91)
    for trial in range(120):
        sk = tidy(random_decomposition(rng, bags=rng.randint(2, 7),
                                       max_bag=rng.randint(2, 4)))
        pts = sum(t.bags != () and len(t.bags) or 0 for t in sk.templates)
        if pts < 2:
            continue
        subs = {}
        expect = width(sk)
        for off in sorted(rng.sample(range(pts - 1), rng.randint(1, pts - 1))):
            sub = tidy(random_decomposition(rng, bags=rng.randint(1, 4),
                                            max_bag=rng.randint(1, 3),
                                            tag=f"s{off}"))
            subs[cut_at(off)] = sub
            s = boundary_split(sk, cut_at(off))
            expect = max(expect, width(sub) + len(s))
        out = substitute(SubstitutionPlan(sk, subs))
        assert verify(out).ok
        assert width(out) == expect


def test_substitute_rejects_vertex_clash():
    sk = explicit({V("v"), V("a")}, {V("v"), V("c")})
    plan = SubstitutionPlan(sk, {cut_at(0): explicit({V("a")})})
    with pytest.raises(ValueError, match="collide"):
        substitute(plan)


def test_substitute_rejects_bad_cut():
    sk = explicit({V("v"), V("a")}, {V("v"), V("c")})
    plan = SubstitutionPlan(sk, {cut_at(5): explicit({V("b")})})
    with pytest.raises(ValueError, match="out of range"):
        substitute(plan)
    full = SubstitutionPlan(sk, {cut_at(1): explicit({V("b")})})
    with pytest.raises(ValueError, match="full line"):
        substitute(full)


def test_substitute_rejects_designated_substituend():
    sk = explicit({V("v"), V("a")}, {V("v"), V("c")})
    sub = explicit({V("b")}, z1={V("b")})
    with pytest.raises(ValueError, match="designate"):
        substitute(SubstitutionPlan(sk, {cut_at(0): sub}))


def test_substitute_rejects_periodic_skeleton():
    with pytest.raises(UnsupportedScopeError):
        substitute(SubstitutionPlan(band(omega()), {}))


# ---------------------------------------------------------------------------
# Factorization


def test_factor_star():
    plan = factor(star())
    assert plan == SubstitutionPlan(
        explicit({V("v"), V("a")}, {V("v"), V("c")}),
        {cut_at(0): explicit({V("b")})})
    assert is_prime(plan.skeleton)
    assert width(plan.substituends[cut_at(0)]) == 0 < width(star())


def test_factor_prime_is_trivial():
    d = explicit({V("a"), V("b")}, {V("b"), V("c")})
    plan = factor(d)
    assert plan.is_trivial and plan.skeleton == d


def test_factor_errors():
    with pytest.raises(ValueError, match="tidy"):
        factor(explicit({V("a"), V("b")}, {V("a"), V("b"), V("c")}))
    with pytest.raises(ValueError, match="connected"):
        factor(explicit({V("a")}, {V("b")}))
    with pytest.raises(UnsupportedScopeError):
        factor(band(omega()))
    with pytest.raises(ValueError):
        factor(explicit({V("a")}, {V("b")}, {V("a")}))


def test_factor_spine_with_disconnected_substituend():
    d = explicit({V("a"), V("b")}, {V("b"), V("c")}, {V("b"), V("d")},
                 {V("b"), V("e")})
    plan = factor(d)
    assert plan.skeleton == explicit({V("a"), V("b")}, {V("b"), V("e")})
    sub = plan.substituends[cut_at(0)]
    assert sub == explicit({V("c")}, {V("d")})
    parts = split_components(sub)
    assert parts == [explicit({V("c")}), explicit({V("d")})]
    assert substitute(plan) == d


def test_factor_tree_depth_three():
    d = explicit({V("p"), V("v")},
                 {V("v"), V("w"), V("a")},
                 {V("v"), V("w"), V("b")},
                 {V("v"), V("w"), V("c")},
                 {V("v"), V("q")})
    t = factor_tree(d)
    assert t.depth == 3
    assert compose_tree(t) == d
    assert is_prime(t.plan.skeleton)
    inner = t.children[cut_at(0)]
    assert len(inner) == 1 and is_prime(inner[0].plan.skeleton)


def test_compose_tree_sums_only_several_pieces(monkeypatch):
    # a sum of two or more pieces is glued unchecked and verified once, by
    # substitute, like a lone piece.  Here the top substituend is one
    # piece, the one below it two.
    d = explicit({V("p"), V("v")},
                 {V("v"), V("w"), V("a")},
                 {V("v"), V("w"), V("b")},
                 {V("v"), V("w"), V("c")},
                 {V("v"), V("w"), V("e")},
                 {V("v"), V("q")})
    t = factor_tree(d)
    assert [len(ps) for ps in t.children.values()] == [1]
    (inner,) = next(iter(t.children.values()))
    assert [len(ps) for ps in inner.children.values()] == [2]
    sums = [concat_components([compose_tree(p) for p in ps])
            for ps in inner.children.values()]
    checked = []

    def counting(x):
        checked.append(x)
        return verify(x)

    monkeypatch.setattr(linedecomp.prime, "verify", counting)
    assert compose_tree(t) == d
    assert [checked.count(s) for s in sums] == [1]


def test_factor_reads_connectivity_off_the_bags(monkeypatch):
    # d verifies, so neighbouring bags overlap exactly where the splits
    # are nonempty; no split needs computing
    calls = []

    def counting(d, c):
        calls.append(c)
        return boundary_split(d, c)

    monkeypatch.setattr(linedecomp.prime, "boundary_split", counting)
    d = explicit({V("a"), V("b")}, {V("b"), V("c")}, {V("b"), V("d")},
                 {V("b"), V("e")})
    assert substitute(factor(d)) == d
    assert len(calls) == 1  # substitute's split at the one spliced cut
    with pytest.raises(ValueError, match="connected"):
        factor(explicit({V("a")}, {V("b")}))
    assert len(calls) == 1


def _tree_plans(t: FactorTree):
    yield t.plan
    for pieces in t.children.values():
        for p in pieces:
            yield from _tree_plans(p)


def test_factor_roundtrip_random():
    rng = random.Random(4415)
    nontrivial = 0
    for trial in range(1000):
        d = tidy(random_decomposition(rng, bags=rng.randint(1, 12),
                                      max_bag=rng.randint(1, 5)))
        plan = factor(d)
        assert substitute(plan) == d
        assert is_prime(plan.skeleton)
        assert factor(substitute(plan)) == plan
        for sub in plan.substituends.values():
            assert verify(sub).ok and tidy(sub) == sub
            assert width(sub) < width(d)
        if not plan.is_trivial:
            nontrivial += 1
    assert nontrivial > 100


def test_factor_tree_random():
    rng = random.Random(907)
    for trial in range(300):
        d = tidy(random_decomposition(rng, bags=rng.randint(1, 10),
                                      max_bag=rng.randint(1, 5)))
        t = factor_tree(d)
        assert compose_tree(t) == d
        assert t.depth <= width(d) + 1
        assert all(is_prime(p.skeleton) for p in _tree_plans(t))


def test_factor_after_substitute_on_handmade_plans():
    rng = random.Random(3310)
    for trial in range(200):
        sk = tidy(random_decomposition(rng, bags=rng.randint(2, 6),
                                       max_bag=rng.randint(2, 4)))
        pts = sum(len(t.bags) for t in sk.templates)
        if pts < 2:
            continue
        off = rng.randrange(pts - 1)
        sub = tidy(random_decomposition(rng, bags=rng.randint(1, 4),
                                        max_bag=rng.randint(1, 3), tag="s"))
        x = substitute(SubstitutionPlan(sk, {cut_at(off): sub}))
        again = factor(x)
        assert substitute(again) == x
        assert is_prime(again.skeleton)


# ---------------------------------------------------------------------------
# Component sums


def test_concat_two_single_bags():
    a, b = explicit({V("a")}), explicit({V("b")})
    out = concat_components([a, b])
    assert out == explicit({V("a")}, {V("b")})
    assert boundary_split(out, cut_at(0)) == frozenset()
    assert split_components(out) == [a, b]


def test_concat_width_is_max():
    parts = [explicit({V("a"), V("b")}),
             explicit({V("p"), V("q"), V("r"), V("s")}),
             explicit({V("x"), V("y"), V("z")})]
    assert width(concat_components(parts)) == 3


def test_concat_ordinal_sum():
    out = concat_components([band(omega(), tag="a"), explicit({V("x")})])
    assert verify(out).ok
    assert str(line_ordinal(out.line)) == "w + 1"


def test_concat_reads_two_limit_sets_per_seam(monkeypatch):
    # one equation per seam keeps n parts linear; reading the limit sets of
    # everything glued so far would be quadratic
    parts = [explicit({V("v", i)}) for i in range(6)]
    seen = []

    def counting(d, side):
        seen.append((id(d), side))
        return limit_vertices(d, side)

    monkeypatch.setattr(linedecomp.wo, "limit_vertices", counting)
    out = raw_concat(parts, [frozenset()] * 5)
    assert len(seen) == 2 * (len(parts) - 1)
    assert seen == [x for lo, up in zip(parts, parts[1:])
                    for x in ((id(lo), Side.RIGHT), (id(up), Side.LEFT))]
    assert out == explicit(*({V("v", i)} for i in range(6)))


def test_concat_rejects_shared_vertices():
    with pytest.raises(ValueError, match="share"):
        concat_components([explicit({V("a")}), explicit({V("a"), V("b")})])
    # a is in neither limit set at the seam, so only verify sees it shared
    parts = [explicit({V("a")}, {V("b")}), explicit({V("a")})]
    raw_concat(parts, [frozenset()])
    with pytest.raises(ValueError, match="share"):
        concat_components(parts)


def test_concat_rejects_interior_designations():
    a = explicit({V("a")}, z2={V("a")})
    b = explicit({V("b")})
    with pytest.raises(ValueError, match="last part"):
        concat_components([a, b])
    c = explicit({V("c")}, z1={V("c")})
    with pytest.raises(ValueError, match="first part"):
        concat_components([b, c])
    with pytest.raises(ValueError):
        concat_components([])


def test_concat_keeps_end_designations():
    a = explicit({V("a")}, z1={V("a")})
    b = explicit({V("b")}, z2={V("b")})
    out = concat_components([a, b])
    assert out.z1 == bag_of("a") and out.z2 == bag_of("b")


def test_concat_and_split_periodic_parts():
    lowl = band(omega_star(), tag="a")
    high = band(omega(), tag="b")
    out = concat_components([lowl, high])
    assert verify(out).ok
    assert [s.kind.name for s in out.line.segments] == ["OMEGA_STAR", "OMEGA"]
    assert split_components(out) == [lowl, high]


def test_split_components_connected_is_identity():
    d = explicit({V("a"), V("b")}, {V("b"), V("c")})
    assert split_components(d) == [d]


# ---------------------------------------------------------------------------
# Prime inputs rebuild onto small ordinals


@pytest.mark.parametrize("k,d", [
    (1, None),  # filled in below: an omega*-path of width one
    (2, None),
    (3, None),
])
def test_prime_to_wo_ordinal_bound(k, d):
    if k == 1:
        d = band(omega_star())
    else:
        d = witness_family(k)
    assert is_prime(d)
    out = to_wo(d)
    assert verify(out).ok and is_well_order(out.line)
    bound = OrdinalExpr.omega_power(k)
    o = line_ordinal(out.line)
    assert o < bound or o == bound
