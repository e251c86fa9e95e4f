"""Symbolic linear orders assembled from finite and one- or two-way infinite segments.

A line is a finite, nonempty concatenation of segments.  Each segment is one of

* ``Fin(n)``  -- n points, offsets ``0 .. n-1``;
* ``Omega``   -- order type of the naturals, offsets ``0, 1, 2, ...``;
* ``OmegaStar`` -- reverse naturals, offsets ``..., -3, -2, -1`` (``-1`` is the
  greatest point, counted from the right end);
* ``Zeta``    -- order type of the integers, any integer offset.

Points are addressed by (segment index, offset).  Cuts name nonempty proper
initial intervals; every such interval has exactly one canonical cut.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Iterator, Optional


class UnsupportedScopeError(ValueError):
    """Raised when an input is valid but outside the implemented fragment."""


class SegmentKind(enum.Enum):
    FIN = "fin"
    OMEGA = "omega"
    OMEGA_STAR = "omega_star"
    ZETA = "zeta"


@dataclass(frozen=True)
class Segment:
    kind: SegmentKind
    length: Optional[int] = None

    def __post_init__(self):
        if self.kind is SegmentKind.FIN:
            if self.length is None or self.length < 1:
                raise ValueError("finite segment needs a positive length")
        elif self.length is not None:
            raise ValueError("infinite segment takes no length")

    @property
    def is_finite(self) -> bool:
        return self.kind is SegmentKind.FIN

    @property
    def min_offset(self) -> Optional[int]:
        """Least admissible offset, or None when the segment is unbounded below."""
        if self.kind in (SegmentKind.FIN, SegmentKind.OMEGA):
            return 0
        return None

    @property
    def max_offset(self) -> Optional[int]:
        if self.kind is SegmentKind.FIN:
            return self.length - 1
        if self.kind is SegmentKind.OMEGA_STAR:
            return -1
        return None

    def contains_offset(self, i: int) -> bool:
        if self.kind is SegmentKind.FIN:
            return 0 <= i < self.length
        if self.kind is SegmentKind.OMEGA:
            return i >= 0
        if self.kind is SegmentKind.OMEGA_STAR:
            return i <= -1
        return True

    def reversed(self) -> "Segment":
        if self.kind is SegmentKind.OMEGA:
            return Segment(SegmentKind.OMEGA_STAR)
        if self.kind is SegmentKind.OMEGA_STAR:
            return Segment(SegmentKind.OMEGA)
        return self


def fin(n: int) -> Segment:
    return Segment(SegmentKind.FIN, n)


def omega() -> Segment:
    return Segment(SegmentKind.OMEGA)


def omega_star() -> Segment:
    return Segment(SegmentKind.OMEGA_STAR)


def zeta() -> Segment:
    return Segment(SegmentKind.ZETA)


@dataclass(frozen=True)
class Line:
    segments: tuple[Segment, ...]

    def __post_init__(self):
        if not self.segments:
            raise ValueError("a line has at least one segment")

    @staticmethod
    def of(*segments: Segment) -> "Line":
        return Line(tuple(segments))


@dataclass(frozen=True)
class Point:
    segment: int
    offset: int


class Ordering(enum.IntEnum):
    LT = -1
    EQ = 0
    GT = 1


def check_point(line: Line, p: Point) -> None:
    if not (0 <= p.segment < len(line.segments)):
        raise ValueError("point out of range")
    if not line.segments[p.segment].contains_offset(p.offset):
        raise ValueError("point out of range")


def compare_points(line: Line, a: Point, b: Point) -> Ordering:
    check_point(line, a)
    check_point(line, b)
    ka, kb = (a.segment, a.offset), (b.segment, b.offset)
    if ka == kb:
        return Ordering.EQ
    return Ordering.LT if ka < kb else Ordering.GT


# ---------------------------------------------------------------------------
# Cuts


class CutPosition(enum.Enum):
    BEFORE_SEGMENT = "before_segment"
    AFTER_OFFSET = "after_offset"
    AFTER_SEGMENT = "after_segment"


@dataclass(frozen=True)
class Cut:
    """Name for a nonempty proper initial interval.

    ``AFTER_OFFSET(i)`` includes everything up to and including offset ``i`` of
    the named segment.  ``AFTER_SEGMENT`` is the limit cut above an ``Omega`` or
    ``Zeta`` segment, ``BEFORE_SEGMENT`` the limit cut below an ``OmegaStar`` or
    ``Zeta`` segment.  Distinct spellings can name the same interval (the cut
    below a zeta segment is the cut above whatever precedes it);
    ``normalize_cut`` picks the canonical one.
    """

    segment: int
    position: CutPosition
    offset: Optional[int] = None

    def __post_init__(self):
        if (self.position is CutPosition.AFTER_OFFSET) != (self.offset is not None):
            raise ValueError("offset goes with AFTER_OFFSET and nothing else")


def check_cut(line: Line, c: Cut) -> None:
    n = len(line.segments)
    if not (0 <= c.segment < n):
        raise ValueError("cut out of range")
    seg = line.segments[c.segment]
    if c.position is CutPosition.AFTER_OFFSET:
        if not seg.contains_offset(c.offset):
            raise ValueError("cut out of range")
        if c.segment == n - 1 and seg.max_offset == c.offset:
            raise ValueError("cut names the full line")
    elif c.position is CutPosition.BEFORE_SEGMENT:
        if seg.kind not in (SegmentKind.OMEGA_STAR, SegmentKind.ZETA):
            raise ValueError("BEFORE_SEGMENT is the limit cut below omega* or zeta")
        if c.segment == 0:
            raise ValueError("cut names the empty interval")
    else:
        if seg.kind not in (SegmentKind.OMEGA, SegmentKind.ZETA):
            raise ValueError("AFTER_SEGMENT is the limit cut above omega or zeta")
        if c.segment == n - 1:
            raise ValueError("cut names the full line")


def normalize_cut(line: Line, c: Cut) -> Cut:
    """Canonical spelling: the interval's greatest point when it has one,
    otherwise the limit cut above the interval's last (open-above) segment.
    ``BEFORE_SEGMENT`` spellings always renormalize to one of those."""
    check_cut(line, c)
    if c.position is not CutPosition.BEFORE_SEGMENT:
        return c
    below = line.segments[c.segment - 1]
    if below.max_offset is not None:
        return Cut(c.segment - 1, CutPosition.AFTER_OFFSET, below.max_offset)
    return Cut(c.segment - 1, CutPosition.AFTER_SEGMENT)


def cut_key(line: Line, c: Cut) -> tuple:
    c = normalize_cut(line, c)
    if c.position is CutPosition.AFTER_OFFSET:
        return (c.segment, 0, c.offset)
    return (c.segment, 1, 0)


def compare_cuts(line: Line, a: Cut, b: Cut) -> Ordering:
    ka, kb = cut_key(line, a), cut_key(line, b)
    if ka == kb:
        return Ordering.EQ
    return Ordering.LT if ka < kb else Ordering.GT


# ---------------------------------------------------------------------------
# Reversal


def reverse_line(line: Line) -> Line:
    return Line(tuple(seg.reversed() for seg in reversed(line.segments)))


# ---------------------------------------------------------------------------
# Enumeration


def enumerate_cuts(line: Line, budget: int) -> list[Cut]:
    """All canonical cuts whose offsets lie within ``budget`` of a segment
    anchor, plus every limit cut, in left-to-right order without duplicates.

    Anchors are the accessible ends of each segment: both ends of a finite
    segment, offset 0 of omega, offset -1 of omega*, offset 0 of zeta.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    out: list[Cut] = []
    n = len(line.segments)
    for j, seg in enumerate(line.segments):
        offsets: Iterator[int]
        if seg.kind is SegmentKind.FIN:
            offsets = (i for i in range(seg.length)
                       if i <= budget or i >= seg.length - 1 - budget)
        elif seg.kind is SegmentKind.OMEGA:
            offsets = iter(range(0, budget + 1))
        elif seg.kind is SegmentKind.OMEGA_STAR:
            offsets = iter(range(-budget - 1, 0))
        else:
            offsets = iter(range(-budget, budget + 1))
        for i in offsets:
            c = Cut(j, CutPosition.AFTER_OFFSET, i)
            if j == n - 1 and seg.max_offset == i:
                continue
            out.append(c)
        if seg.kind in (SegmentKind.OMEGA, SegmentKind.ZETA) and j < n - 1:
            out.append(Cut(j, CutPosition.AFTER_SEGMENT))
    return out


def all_points(line: Line) -> list[Point]:
    """Every point, in order.  Only for finite lines."""
    out = []
    for j, seg in enumerate(line.segments):
        if not seg.is_finite:
            raise UnsupportedScopeError("line is infinite")
        out.extend(Point(j, i) for i in range(seg.length))
    return out


# ---------------------------------------------------------------------------
# Order-theoretic predicates


def is_well_order(line: Line) -> bool:
    return all(seg.kind in (SegmentKind.FIN, SegmentKind.OMEGA)
               for seg in line.segments)


# ---------------------------------------------------------------------------
# Ordinals in Cantor normal form


@functools.total_ordering
@dataclass(frozen=True)
class OrdinalExpr:
    """An ordinal below omega^omega: sum of w^e * c terms, exponents strictly
    decreasing, coefficients positive."""

    terms: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        exps = [e for e, _ in self.terms]
        if exps != sorted(exps, reverse=True) or len(set(exps)) != len(exps):
            raise ValueError("exponents must be strictly decreasing")
        if any(c < 1 or e < 0 for e, c in self.terms):
            raise ValueError("coefficients must be positive, exponents nonnegative")

    @staticmethod
    def from_int(n: int) -> "OrdinalExpr":
        if n < 0:
            raise ValueError("ordinals are nonnegative")
        return OrdinalExpr(((0, n),) if n else ())

    @staticmethod
    def omega_power(e: int, c: int = 1) -> "OrdinalExpr":
        return OrdinalExpr(((e, c),))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: "OrdinalExpr") -> "OrdinalExpr":
        if other.is_zero:
            return self
        e = other.terms[0][0]
        kept = [t for t in self.terms if t[0] > e]
        merged = list(other.terms)
        for te, tc in self.terms:
            if te == e:
                merged[0] = (e, tc + merged[0][1])
        return OrdinalExpr(tuple(kept) + tuple(merged))

    def __lt__(self, other: "OrdinalExpr") -> bool:
        return self.terms < other.terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            if e == 0:
                parts.append(str(c))
            else:
                base = "w" if e == 1 else f"w^{e}"
                parts.append(base if c == 1 else f"{base}*{c}")
        return " + ".join(parts)


def line_ordinal(line: Line) -> OrdinalExpr:
    """Order type of a well-ordered line, in Cantor normal form."""
    if not is_well_order(line):
        raise ValueError("line is not a well-order")
    total = OrdinalExpr()
    for seg in line.segments:
        if seg.kind is SegmentKind.FIN:
            total = total.add(OrdinalExpr.from_int(seg.length))
        else:
            total = total.add(OrdinalExpr.omega_power(1))
    return total


def ordinal_line(o: OrdinalExpr) -> Line:
    """Realize an ordinal as a line.  Only exponents <= 1 fit the algebra."""
    if o.is_zero:
        raise ValueError("a line is nonempty")
    segs: list[Segment] = []
    for e, c in o.terms:
        if e > 1:
            raise UnsupportedScopeError(
                "ordinals with omega^2 or larger terms have no line form")
        if e == 1:
            segs.extend(omega() for _ in range(c))
        else:
            segs.append(fin(c))
    return Line(tuple(segs))
