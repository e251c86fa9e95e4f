import itertools

import pytest
from hypothesis import given, strategies as st

from linedecomp.line import (
    Cut,
    CutPosition,
    Line,
    OrdinalExpr,
    Ordering,
    Point,
    Segment,
    SegmentKind,
    UnsupportedScopeError,
    all_points,
    check_cut,
    check_point,
    compare_cuts,
    compare_points,
    enumerate_cuts,
    fin,
    is_well_order,
    line_ordinal,
    normalize_cut,
    omega,
    omega_star,
    ordinal_line,
    reverse_line,
    zeta,
)

from conftest import (
    count_points_between,
    is_integral,
    point_just_above_cut,
    point_just_below_cut,
    segment_above_cut,
)

# ---------------------------------------------------------------------------
# oracles: membership and reversal of points and cuts, spelled out from the
# definitions.  The library needs neither; the tests below check the cut
# machinery against them.


def point_in_cut(line: Line, p: Point, c: Cut) -> bool:
    """Is point ``p`` inside the initial interval named by ``c``?"""
    check_point(line, p)
    check_cut(line, c)
    if p.segment != c.segment:
        return p.segment < c.segment
    if c.position is CutPosition.BEFORE_SEGMENT:
        return False
    if c.position is CutPosition.AFTER_SEGMENT:
        return True
    return p.offset <= c.offset


def cut_after_point(line: Line, p: Point):
    """The canonical cut whose interval is everything up to ``p`` inclusive,
    or None when ``p`` is the greatest point of the line."""
    check_point(line, p)
    seg = line.segments[p.segment]
    if p.segment == len(line.segments) - 1 and seg.max_offset == p.offset:
        return None
    return Cut(p.segment, CutPosition.AFTER_OFFSET, p.offset)


def reverse_offset(seg: Segment, i: int) -> int:
    if seg.kind is SegmentKind.FIN:
        return seg.length - 1 - i
    # omega <-> omega*, zeta -> zeta: mirror through -1/2
    return -i - 1


def reverse_point(line: Line, p: Point) -> Point:
    check_point(line, p)
    seg = line.segments[p.segment]
    return Point(len(line.segments) - 1 - p.segment, reverse_offset(seg, p.offset))


def reverse_cut(line: Line, c: Cut) -> Cut:
    """Image of a cut under reversal: the complement, read backwards."""
    check_cut(line, c)
    rev = reverse_line(line)
    above = point_just_above_cut(line, c)
    if above is not None:
        out = cut_after_point(rev, reverse_point(line, above))
        assert out is not None  # complement of a nonempty interval is proper
        return out
    j_open = segment_above_cut(line, c)
    return Cut(len(line.segments) - 1 - j_open, CutPosition.AFTER_SEGMENT)


# ---------------------------------------------------------------------------
# strategies

segment_st = st.one_of(
    st.integers(min_value=1, max_value=5).map(fin),
    st.just(omega()),
    st.just(omega_star()),
    st.just(zeta()),
)
line_st = st.lists(segment_st, min_size=1, max_size=4).map(lambda s: Line(tuple(s)))


def points_of(line, budget=3):
    """A finite sample of points of the line, in order."""
    pts = []
    for j, seg in enumerate(line.segments):
        if seg.kind is SegmentKind.FIN:
            offs = range(seg.length)
        elif seg.kind is SegmentKind.OMEGA:
            offs = range(budget + 1)
        elif seg.kind is SegmentKind.OMEGA_STAR:
            offs = range(-budget - 1, 0)
        else:
            offs = range(-budget, budget + 1)
        pts.extend(Point(j, i) for i in offs)
    return pts


# ---------------------------------------------------------------------------
# segments and points


def test_segment_validation():
    with pytest.raises(ValueError):
        Segment(SegmentKind.FIN)
    with pytest.raises(ValueError):
        Segment(SegmentKind.FIN, 0)
    with pytest.raises(ValueError):
        Segment(SegmentKind.OMEGA, 3)


def test_point_bounds():
    line = Line.of(fin(3), omega_star())
    compare_points(line, Point(0, 2), Point(1, -1))
    with pytest.raises(ValueError):
        compare_points(line, Point(0, 3), Point(0, 0))
    with pytest.raises(ValueError):
        compare_points(line, Point(1, 0), Point(1, -1))


def test_point_order_matches_sampled_positions():
    line = Line.of(omega_star(), fin(2), omega())
    pts = points_of(line)
    for a, b in itertools.combinations(pts, 2):
        assert compare_points(line, a, b) is Ordering.LT
        assert compare_points(line, b, a) is Ordering.GT
    for p in pts:
        assert compare_points(line, p, p) is Ordering.EQ


# ---------------------------------------------------------------------------
# cut validity


def test_cut_rejects_full_line():
    line = Line.of(fin(3))
    with pytest.raises(ValueError):
        check_cut(line, Cut(0, CutPosition.AFTER_OFFSET, 2))
    check_cut(line, Cut(0, CutPosition.AFTER_OFFSET, 1))


def test_cut_rejects_empty_interval():
    line = Line.of(omega_star(), fin(1))
    with pytest.raises(ValueError):
        check_cut(line, Cut(0, CutPosition.BEFORE_SEGMENT))
    check_cut(line, Cut(0, CutPosition.AFTER_OFFSET, -1))


def test_limit_cut_kind_restrictions():
    line = Line.of(omega(), zeta(), fin(2))
    check_cut(line, Cut(0, CutPosition.AFTER_SEGMENT))
    check_cut(line, Cut(1, CutPosition.BEFORE_SEGMENT))
    check_cut(line, Cut(1, CutPosition.AFTER_SEGMENT))
    with pytest.raises(ValueError):
        check_cut(line, Cut(2, CutPosition.AFTER_SEGMENT))
    with pytest.raises(ValueError):
        check_cut(line, Cut(0, CutPosition.BEFORE_SEGMENT))


def test_after_segment_needs_successor():
    line = Line.of(fin(1), omega())
    with pytest.raises(ValueError):
        check_cut(line, Cut(1, CutPosition.AFTER_SEGMENT))


# ---------------------------------------------------------------------------
# cut enumeration, checked against an oracle built on the membership predicate


def distinct_as_intervals(line, cuts, sample):
    """Check the cuts carve pairwise distinct initial intervals on a sample."""
    seen = set()
    for c in cuts:
        key = frozenset(
            (p.segment, p.offset) for p in sample if point_in_cut(line, p, c))
        assert key not in seen
        seen.add(key)


def oracle_check_enumeration(line, budget):
    cuts = enumerate_cuts(line, budget)
    # validity, canonical spelling and strict order
    for c in cuts:
        check_cut(line, c)
        assert normalize_cut(line, c) == c
    for a, b in zip(cuts, cuts[1:]):
        assert compare_cuts(line, a, b) is Ordering.LT
    # intervals are genuinely distinct and downward closed on a point sample
    sample = points_of(line, budget + 2)
    distinct_as_intervals(line, cuts, sample)
    for c in cuts:
        below = [point_in_cut(line, p, c) for p in sample]
        # downward closed: once outside, never inside again
        assert below == sorted(below, reverse=True)
        assert any(below)  # nonempty on the sample
    return cuts


def test_enumerate_cuts_fin3():
    cuts = oracle_check_enumeration(Line.of(fin(3)), 10)
    assert len(cuts) == 2  # after offsets 0 and 1


def test_enumerate_cuts_zeta_budget1():
    cuts = oracle_check_enumeration(Line.of(zeta()), 1)
    assert len(cuts) == 3  # after offsets -1, 0, 1


def test_enumerate_cuts_omega_omega_budget0():
    cuts = oracle_check_enumeration(Line.of(omega(), omega()), 0)
    assert len(cuts) == 3  # after (0,0); limit after segment 0; after (1,0)
    assert Cut(0, CutPosition.AFTER_SEGMENT) in cuts


def test_enumerate_cuts_mixed():
    line = Line.of(omega_star(), fin(4), zeta())
    cuts = oracle_check_enumeration(line, 1)
    # omega*: offsets -2, -1; fin(4): all offsets (windows i<=1, i>=2 cover it);
    # zeta: offsets -1..1, no limit cuts (below zeta = after fin's offset 3,
    # and the top limit cut would be the full line)
    assert [c for c in cuts if c.segment == 0] == [
        Cut(0, CutPosition.AFTER_OFFSET, -2),
        Cut(0, CutPosition.AFTER_OFFSET, -1),
    ]
    assert [c for c in cuts if c.segment == 1] == [
        Cut(1, CutPosition.AFTER_OFFSET, i) for i in range(4)
    ]
    assert [c for c in cuts if c.segment == 2] == [
        Cut(2, CutPosition.AFTER_OFFSET, -1),
        Cut(2, CutPosition.AFTER_OFFSET, 0),
        Cut(2, CutPosition.AFTER_OFFSET, 1),
    ]


@given(line_st, st.integers(min_value=0, max_value=3))
def test_enumerate_cuts_oracle_random(line, budget):
    oracle_check_enumeration(line, budget)


def test_finite_line_cuts_are_exhaustive():
    line = Line.of(fin(2), fin(3))
    cuts = enumerate_cuts(line, 10)
    assert len(cuts) == 4  # five points, proper nonempty initial intervals


# ---------------------------------------------------------------------------
# neighbours of a cut


def test_points_around_offset_cut():
    line = Line.of(fin(3), omega())
    c = Cut(0, CutPosition.AFTER_OFFSET, 2)
    assert point_just_below_cut(line, c) == Point(0, 2)
    assert point_just_above_cut(line, c) == Point(1, 0)


def test_points_around_limit_cuts():
    line = Line.of(omega(), omega_star())
    c_up = Cut(0, CutPosition.AFTER_SEGMENT)
    assert point_just_below_cut(line, c_up) is None
    assert point_just_above_cut(line, c_up) is None
    line2 = Line.of(fin(2), omega_star())
    c_dn = Cut(1, CutPosition.BEFORE_SEGMENT)
    assert point_just_below_cut(line2, c_dn) == Point(0, 1)
    assert point_just_above_cut(line2, c_dn) is None


def test_cut_after_point_roundtrip():
    line = Line.of(zeta(), fin(2))
    p = Point(0, 5)
    c = cut_after_point(line, p)
    assert point_just_below_cut(line, c) == p
    assert cut_after_point(line, Point(1, 1)) is None


@given(line_st)
def test_cut_neighbours_consistent(line):
    for c in enumerate_cuts(line, 2):
        below = point_just_below_cut(line, c)
        above = point_just_above_cut(line, c)
        if below is not None:
            assert point_in_cut(line, below, c)
            assert cut_after_point(line, below) == c or (
                c.position is not CutPosition.AFTER_OFFSET)
        if above is not None:
            assert not point_in_cut(line, above, c)
        if below is not None and above is not None:
            assert compare_points(line, below, above) is Ordering.LT
            assert count_points_between(line, below, above) == 1


# ---------------------------------------------------------------------------
# reversal


def test_reverse_line_examples():
    assert reverse_line(Line.of(omega(), fin(2))) == Line.of(fin(2), omega_star())
    assert reverse_line(Line.of(zeta())) == Line.of(zeta())


@given(line_st)
def test_reverse_line_involution(line):
    assert reverse_line(reverse_line(line)) == line


@given(line_st)
def test_reverse_point_antitone(line):
    pts = points_of(line, 2)
    rev = reverse_line(line)
    images = [reverse_point(line, p) for p in pts]
    for q in images:
        compare_points(rev, q, q)  # bounds check
    for a, b in zip(images, images[1:]):
        assert compare_points(rev, a, b) is Ordering.GT
    # involution through the doubly reversed line
    for p, q in zip(pts, images):
        assert reverse_point(rev, q) == p


@given(line_st)
def test_reverse_cut_involution_and_duality(line):
    rev = reverse_line(line)
    for c in enumerate_cuts(line, 2):
        rc = reverse_cut(line, c)
        check_cut(rev, rc)
        assert reverse_cut(rev, rc) == c
        # membership duality: p inside c iff its mirror is outside rc
        for p in points_of(line, 3):
            q = reverse_point(line, p)
            assert point_in_cut(line, p, c) != point_in_cut(rev, q, rc)


def test_reverse_cut_limit_example():
    # cut above the first omega of [omega, omega]; the complement is the second
    # omega, which reversed becomes the first omega* of the mirror line, an
    # interval whose greatest point is offset -1
    line = Line.of(omega(), omega())
    c = Cut(0, CutPosition.AFTER_SEGMENT)
    rc = reverse_cut(line, c)
    assert rc == Cut(0, CutPosition.AFTER_OFFSET, -1)
    assert reverse_cut(reverse_line(line), rc) == c


def test_normalize_cut_spellings():
    # below-zeta spelling collapses onto the preceding segment's top cut
    line = Line.of(fin(2), zeta())
    assert normalize_cut(line, Cut(1, CutPosition.BEFORE_SEGMENT)) == Cut(
        0, CutPosition.AFTER_OFFSET, 1)
    line2 = Line.of(omega(), omega_star())
    assert normalize_cut(line2, Cut(1, CutPosition.BEFORE_SEGMENT)) == Cut(
        0, CutPosition.AFTER_SEGMENT)
    # the two spellings compare equal
    assert compare_cuts(
        line2, Cut(1, CutPosition.BEFORE_SEGMENT),
        Cut(0, CutPosition.AFTER_SEGMENT)) is Ordering.EQ


# ---------------------------------------------------------------------------
# well-orders, counting, integrality


def test_is_well_order():
    assert is_well_order(Line.of(fin(3), omega(), omega()))
    assert not is_well_order(Line.of(omega_star()))
    assert not is_well_order(Line.of(omega(), zeta()))


def test_count_points_between():
    line = Line.of(omega_star(), fin(2), omega())
    assert count_points_between(line, Point(0, -3), Point(0, -1)) == 2
    assert count_points_between(line, Point(0, -1), Point(2, 0)) == 3
    assert count_points_between(line, Point(0, -1), Point(0, -1)) == 0
    with pytest.raises(ValueError):
        count_points_between(line, Point(2, 0), Point(0, -1))


def test_count_points_between_infinite():
    line = Line.of(omega(), fin(1))
    assert count_points_between(line, Point(0, 0), Point(1, 0)) is None
    line2 = Line.of(fin(1), zeta(), fin(1))
    assert count_points_between(line2, Point(0, 0), Point(2, 0)) is None


def interval_count_integral(line, sample):
    """Oracle: integral iff every sampled closed interval extends to a finite
    count, and in that case a monotone integer labelling exists."""
    for a, b in itertools.combinations(sample, 2):
        if count_points_between(line, a, b) is None:
            return False
    return True


ALL_SINGLE = [Line.of(s) for s in (fin(3), omega(), omega_star(), zeta())]
ALL_PAIRS = [
    Line.of(a, b)
    for a in (fin(2), omega(), omega_star(), zeta())
    for b in (fin(2), omega(), omega_star(), zeta())
]


def test_integral_classification():
    expected_integral = {
        (SegmentKind.FIN,),
        (SegmentKind.OMEGA,),
        (SegmentKind.OMEGA_STAR,),
        (SegmentKind.ZETA,),
        (SegmentKind.FIN, SegmentKind.FIN),
        (SegmentKind.FIN, SegmentKind.OMEGA),
        (SegmentKind.OMEGA_STAR, SegmentKind.FIN),
        (SegmentKind.OMEGA_STAR, SegmentKind.OMEGA),
    }
    for line in ALL_SINGLE + ALL_PAIRS:
        kinds = tuple(seg.kind for seg in line.segments)
        flag, phi = is_integral(line)
        assert flag == (kinds in expected_integral), kinds
        assert flag == interval_count_integral(line, points_of(line, 3)), kinds
        if flag:
            pts = points_of(line, 3)
            values = [phi(p) for p in pts]
            assert values == sorted(values)
            assert len(set(values)) == len(values)
            # consecutive points map to consecutive integers
            for (a, va), (b, vb) in zip(zip(pts, values), zip(pts[1:], values[1:])):
                if count_points_between(line, a, b) == 1:
                    assert vb == va + 1


def test_phi_anchor():
    flag, phi = is_integral(Line.of(omega_star(), fin(2), omega()))
    assert flag
    assert phi(Point(0, -1)) == 0
    assert phi(Point(0, -4)) == -3
    assert phi(Point(1, 0)) == 1
    assert phi(Point(2, 1)) == 4


@given(line_st)
def test_integral_agrees_with_interval_oracle(line):
    flag, _ = is_integral(line)
    sample = points_of(line, 3)
    assert flag == interval_count_integral(line, sample) or flag
    # one direction is exact on any sample; the converse needs the sample to
    # witness an infinite interval, which budget 3 does for segment pairs
    if not flag and len(line.segments) <= 2:
        assert not interval_count_integral(line, sample)


def test_all_points_finite_only():
    assert all_points(Line.of(fin(2), fin(1))) == [
        Point(0, 0), Point(0, 1), Point(1, 0)]
    with pytest.raises(UnsupportedScopeError):
        all_points(Line.of(omega()))


# ---------------------------------------------------------------------------
# ordinals


def test_ordinal_normal_form_validation():
    with pytest.raises(ValueError):
        OrdinalExpr(((1, 1), (1, 2)))
    with pytest.raises(ValueError):
        OrdinalExpr(((0, 1), (1, 1)))
    with pytest.raises(ValueError):
        OrdinalExpr(((1, 0),))


def test_ordinal_addition_absorbs():
    w = OrdinalExpr.omega_power(1)
    three = OrdinalExpr.from_int(3)
    assert three.add(w) == w
    assert w.add(three) == OrdinalExpr(((1, 1), (0, 3)))
    assert three.add(w).add(w) == OrdinalExpr(((1, 2),))
    assert str(w.add(w).add(three)) == "w*2 + 3"


def test_ordinal_comparison():
    assert OrdinalExpr.from_int(5) < OrdinalExpr.omega_power(1)
    assert OrdinalExpr.omega_power(1) < OrdinalExpr(((1, 1), (0, 1)))
    assert OrdinalExpr(((1, 2),)) < OrdinalExpr.omega_power(2)
    assert OrdinalExpr() < OrdinalExpr.from_int(1)


def test_line_ordinal():
    assert line_ordinal(Line.of(fin(3))) == OrdinalExpr.from_int(3)
    assert line_ordinal(Line.of(omega(), fin(2))) == OrdinalExpr(((1, 1), (0, 2)))
    assert line_ordinal(Line.of(fin(2), omega())) == OrdinalExpr.omega_power(1)
    assert line_ordinal(Line.of(omega(), omega())) == OrdinalExpr(((1, 2),))
    with pytest.raises(ValueError):
        line_ordinal(Line.of(zeta()))


def test_ordinal_line_roundtrip():
    for o in [OrdinalExpr.from_int(4), OrdinalExpr(((1, 2), (0, 3),))]:
        assert line_ordinal(ordinal_line(o)) == o
    with pytest.raises(UnsupportedScopeError):
        ordinal_line(OrdinalExpr.omega_power(2))
    with pytest.raises(ValueError):
        ordinal_line(OrdinalExpr())
