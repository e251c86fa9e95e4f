"""Independent ground truth for desk-scale instances.

Everything in this module is deliberately naive: exact dynamic programming,
exhaustive enumeration, direct truncation.  The symbolic machinery elsewhere
is validated against these brutes, never the other way round.
"""

from __future__ import annotations

import itertools
import random
import re
from array import array
from dataclasses import dataclass
from typing import Iterable, Optional

from linedecomp.line import Line, Point, Segment, SegmentKind, all_points, fin, zeta
from linedecomp.decomposition import (
    Bag,
    Decomposition,
    ExplicitBags,
    PeriodicBags,
    VertexId,
    bag_at,
    bag_of,
    width,
)


# ---------------------------------------------------------------------------
# Finite graphs


@dataclass(frozen=True)
class FiniteGraph:
    """A finite simple graph.  Edges are 2-element frozensets, no loops."""

    vertices: frozenset[VertexId]
    edges: frozenset[frozenset[VertexId]]

    def __post_init__(self):
        for e in self.edges:
            if len(e) != 2:
                raise ValueError(f"not an edge: {set(e)!r}")
            if not e <= self.vertices:
                raise ValueError(f"edge endpoint outside vertex set: {set(e)!r}")

    def neighbors(self, v: VertexId) -> frozenset[VertexId]:
        return frozenset(next(iter(e - {v})) for e in self.edges if v in e)

    def induced(self, vs: Iterable[VertexId]) -> "FiniteGraph":
        keep = frozenset(vs) & self.vertices
        return FiniteGraph(keep, frozenset(e for e in self.edges if e <= keep))


def graph_from_bags(bags: Iterable[Bag]) -> FiniteGraph:
    """Clique-complete every bag and take the union."""
    vs: set[VertexId] = set()
    es: set[frozenset[VertexId]] = set()
    for b in bags:
        vs |= b
        for u, w in itertools.combinations(sorted(b), 2):
            es.add(frozenset((u, w)))
    return FiniteGraph(frozenset(vs), frozenset(es))


def vertex_text(v: VertexId) -> str:
    """tag, or tag:index for a mobile vertex; graph_from_edge_list reads it back."""
    return v.tag if v.index is None else f"{v.tag}:{v.index}"


def _vertex_parse(s: str, raw: str) -> VertexId:
    """tag, or tag:index with an ASCII -?[0-9]+ index, so a vertex has one text."""
    if ":" not in s:
        return VertexId(s)
    tag, _, idx = s.rpartition(":")
    if not re.fullmatch(r"-?[0-9]+", idx):
        raise ValueError(f"bad vertex index {idx!r} in line {raw!r}")
    return VertexId(tag, int(idx))


def graph_to_edge_list(g: FiniteGraph) -> str:
    """Plain text: one edge per line, isolated vertices on their own line.

    A tag holding whitespace, or a static tag that is empty or holds a colon,
    has no text that graph_from_edge_list reads back as the same vertex:
    ValueError names the least such vertex.
    """
    for v in sorted(g.vertices):
        s = vertex_text(v)
        if s.split() != [s] or (v.is_static and ":" in s):
            raise ValueError(f"vertex {v!r} has no edge-list text: "
                             f"{s!r} does not read back as that vertex")
    lines = []
    touched: set[VertexId] = set()
    for e in sorted(g.edges, key=lambda e: tuple(sorted(e))):
        u, w = sorted(e)
        touched |= {u, w}
        lines.append(f"{vertex_text(u)} {vertex_text(w)}")
    for v in sorted(g.vertices - touched):
        lines.append(vertex_text(v))
    return "\n".join(lines) + ("\n" if lines else "")


def graph_from_edge_list(text: str) -> FiniteGraph:
    vs: set[VertexId] = set()
    es: set[frozenset[VertexId]] = set()
    for raw in text.splitlines():
        toks = raw.split()
        if not toks:
            continue
        if len(toks) == 1:
            vs.add(_vertex_parse(toks[0], raw))
        elif len(toks) == 2:
            u, w = _vertex_parse(toks[0], raw), _vertex_parse(toks[1], raw)
            if u == w:
                raise ValueError(f"loop edge on {toks[0]}")
            vs |= {u, w}
            es.add(frozenset((u, w)))
        else:
            raise ValueError(f"bad edge list line: {raw!r}")
    return FiniteGraph(frozenset(vs), frozenset(es))


# ---------------------------------------------------------------------------
# Exact path-width
#
# Vertex separation equals path-width (Kinnersley, "The vertex separation
# number of a graph equals its path-width", IPL 42, 1992).  Vertex i is bit i
# of a mask.  The boundary of a set S is the set of vertices of S that still
# have a neighbour outside S, and dp[S] is the least, over all orderings that
# place S first, of the largest boundary of a prefix:
#
#     dp[0] = 0,    dp[S] = max(|boundary(S)|, min over v in S of dp[S - v]).
#
# Boundary table: nbr[S] is the union of the neighbourhoods of S, built one
# operation per subset as nbr[S] = nbr[S - v] | adj[v] with v the highest
# vertex of S.  Then |boundary(S)| = |S & nbr[full - S]|.
#
# Tie-break: the minimum tries v from the highest index down and keeps the
# first strict minimum.  The elimination order is read back from the full set
# by the same rule, so no parent table is kept, and the order and the bags
# depend only on the graph.
#
# Early stop: no v can make dp[S] less than |boundary(S)|, so the scan ends at
# the first v with dp[S - v] <= |boundary(S)|.
#
# Cost: O(2^n * n) time in the worst case, each subset scanning its members.
# Memory: 2^n entries of dp (a list of small ints) and of nbr (an array of
# 64-bit masks), 16 bytes a subset or 16 MiB at the cap of 20 vertices.

_PATHWIDTH_CAP = 20


def pathwidth_exact(g: FiniteGraph) -> tuple[int, Decomposition]:
    verts = sorted(g.vertices)
    n = len(verts)
    if n == 0:
        raise ValueError("path-width of the empty graph is undefined here")
    if n > _PATHWIDTH_CAP:
        raise ValueError(
            f"graph has {n} vertices, exact search capped at {_PATHWIDTH_CAP}")
    index = {v: i for i, v in enumerate(verts)}
    adj = [0] * n
    for e in g.edges:
        u, w = tuple(e)
        adj[index[u]] |= 1 << index[w]
        adj[index[w]] |= 1 << index[u]

    full = (1 << n) - 1
    nbr = array("Q", [0])
    for a in adj:
        nbr.extend(array("Q", (m | a for m in nbr)))

    dp = [0] * (full + 1)
    for mask in range(1, full + 1):
        b = (mask & nbr[full ^ mask]).bit_count()
        best = n  # above every dp value
        m = mask
        while m:
            high = 1 << (m.bit_length() - 1)
            c = dp[mask ^ high]
            if c <= b:
                best = b
                break
            if c < best:
                best = c
            m ^= high
        dp[mask] = best

    value = dp[full]
    order_rev = []
    mask = full
    while mask:
        b = (mask & nbr[full ^ mask]).bit_count()
        v = mask.bit_length() - 1
        while not (mask >> v & 1 and max(dp[mask ^ 1 << v], b) == dp[mask]):
            v -= 1
        order_rev.append(v)
        mask ^= 1 << v
    order = order_rev[::-1]

    # Bag i holds v_i plus every earlier vertex with a neighbour at or past i.
    maxnbr = [-1] * n
    pos = {v: i for i, v in enumerate(order)}
    for e in g.edges:
        u, w = tuple(e)
        a, b = pos[index[u]], pos[index[w]]
        if a > b:
            a, b = b, a
        maxnbr[a] = max(maxnbr[a], b)
    bags = []
    for i in range(n):
        bag = {verts[order[i]]}
        for j in range(i):
            if maxnbr[j] >= i:
                bag.add(verts[order[j]])
        bags.append(frozenset(bag))
    d = Decomposition(Line.of(fin(n)), (ExplicitBags(tuple(bags)),),
                      frozenset(), frozenset())
    return value, d


# ---------------------------------------------------------------------------
# Brute-force splits on finite lines


def brute_splits(d: Decomposition) -> dict[int, Bag]:
    """Split of every proper initial interval, keyed by how many bags it holds."""
    if any(s.kind is not SegmentKind.FIN for s in d.line.segments):
        raise ValueError("brute_splits needs a finite line")
    bags = [bag_at(d, p) for p in all_points(d.line)]
    n = len(bags)
    out: dict[int, Bag] = {}
    below: frozenset[VertexId] = frozenset()
    above = [frozenset()] * (n + 1)
    for k in range(n - 1, -1, -1):
        above[k] = above[k + 1] | bags[k]
    for k in range(1, n):
        below = below | bags[k - 1]
        out[k] = below & above[k]
    return out


# ---------------------------------------------------------------------------
# The shifting-band family and its lower-bound certificate


def witness_family(k: int) -> Decomposition:
    """Bags {v_i, ..., v_{i+k}} along a two-way infinite line: width k."""
    if k < 1:
        raise ValueError("k must be at least 1")
    band = bag_of(*(("v", i) for i in range(k + 1)))
    t = PeriodicBags(1, (band,), 1)
    return Decomposition(Line.of(zeta()), (t,), frozenset(), frozenset())


def certificate_lowerbound(k: int, max_set_size: Optional[int] = None) -> bool:
    """Check the finite facts that pin the well-ordered width of
    witness_family(k) above 2k - 1.

    Three consecutive blocks of the band, L = {-k-1..-1}, M = {0..k},
    R = {k+1..2k+1}, are pairwise disjoint (k+1)-cliques.  With set size
    capped at 2k (the default), (a) no allowed set contains two blocks, and
    (b) any allowed set containing L misses an edge of the k-edge matching
    between M and R, and symmetrically with R and the matching between L and
    M.  Raising the cap breaks (b) at 2k+1 and (a) at 2k+2.

    (b) is a count, not a search: the matching edges are pairwise disjoint,
    so a set holding the anchor block meets them all exactly when the edges
    that miss the block number at most the cap less |block|, one added
    vertex each.  Vertices are band indices and the band's edges are the
    pairs 0 < |i - j| <= k, so no graph is built and the cost is linear in
    k; a run of consecutive indices is a clique when its ends are adjacent.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    limit = 2 * k if max_set_size is None else max_set_size

    def edge(a: int, b: int) -> bool:
        return -k - 1 <= min(a, b) and max(a, b) <= 2 * k + 1 and 0 < abs(a - b) <= k

    blocks = {"L": range(-k - 1, 0), "M": range(0, k + 1),
              "R": range(k + 1, 2 * k + 2)}
    if any(not edge(b[0], b[-1]) for b in blocks.values()):
        return False
    for b1, b2 in itertools.combinations(blocks.values(), 2):
        if set(b1) & set(b2):
            return False
        if len(set(b1) | set(b2)) <= limit:
            return False  # (a): two blocks fit in one allowed set
    matching_mr = [(t, t + k) for t in range(1, k + 1)]
    matching_lm = [(t - k - 1, t - 1) for t in range(1, k + 1)]
    for edges in (matching_mr, matching_lm):
        ends: set[int] = set()
        for e in edges:
            if not edge(*e) or ends.intersection(e):
                return False
            ends.update(e)
    for anchor, edges in (("L", matching_mr), ("R", matching_lm)):
        base = blocks[anchor]
        missed = sum(1 for a, b in edges if a not in base and b not in base)
        if missed <= limit - len(base):
            return False  # (b): one vertex per missed edge meets them all
    return True


# ---------------------------------------------------------------------------
# Materialization


def _window_offsets(seg: Segment, window: int) -> range:
    if seg.kind is SegmentKind.FIN:
        return range(seg.length)
    if seg.kind is SegmentKind.OMEGA:
        return range(0, window + 1)
    if seg.kind is SegmentKind.OMEGA_STAR:
        return range(-window - 1, 0)
    return range(-window, window + 1)


def materialize(d: Decomposition, window: int) -> tuple[Decomposition, FiniteGraph]:
    """Truncate every infinite segment to offsets within the window and
    clique-complete the result.  Finite inputs come back unchanged."""
    if window < 1:
        raise ValueError("window must be at least 1")
    if all(s.kind is SegmentKind.FIN for s in d.line.segments):
        bags = [bag_at(d, p) for p in all_points(d.line)]
        return d, graph_from_bags(bags)
    bags = []
    for j, seg in enumerate(d.line.segments):
        for i in _window_offsets(seg, window):
            bags.append(bag_at(d, Point(j, i)))
    fd = Decomposition(Line.of(fin(len(bags))), (ExplicitBags(tuple(bags)),),
                       d.z1, d.z2)
    return fd, graph_from_bags(bags)


# ---------------------------------------------------------------------------
# Compactness probe


@dataclass(frozen=True)
class ProbeReport:
    width: int
    samples: int
    max_pathwidth: int
    ok: bool


_PROBE_VERTICES = 9  # vertices of a sampled subgraph, at most


def compactness_probe(d: Decomposition, samples: int, *, window: int = 4,
                      seed: int = 0) -> ProbeReport:
    """Sample finite subgraphs of a materialization and confirm each has
    path-width at most the decomposition's width."""
    if samples < 0:
        raise ValueError("samples must be nonnegative")
    k = width(d)
    fd, g = materialize(d, window)
    bags = [bag_at(fd, p) for p in all_points(fd.line)]
    rng = random.Random(seed)
    verts = sorted(g.vertices)
    worst = 0
    for s in range(samples):
        if s % 2 == 0 and bags:
            # contiguous run of bags, grown while the vertex budget lasts
            start = rng.randrange(len(bags))
            chosen: set[VertexId] = set()
            j = start
            while j < len(bags) and len(chosen | bags[j]) <= _PROBE_VERTICES:
                chosen |= bags[j]
                j += 1
            if not chosen:
                chosen = set(itertools.islice(sorted(bags[start]), _PROBE_VERTICES))
            sub = g.induced(chosen)
        else:
            size = rng.randint(1, min(_PROBE_VERTICES, len(verts)))
            sub = g.induced(rng.sample(verts, size))
        if not sub.vertices:
            continue
        pw, _ = pathwidth_exact(sub)
        worst = max(worst, pw)
    return ProbeReport(width=k, samples=samples, max_pathwidth=worst,
                       ok=worst <= k)


# ---------------------------------------------------------------------------
# Random valid instances
#
# A fresh-vertex chain: each bag keeps a subset of its predecessor and adds
# vertices never seen before.  Every vertex then occupies a consecutive run
# of bags, so the result is always a valid decomposition.


def random_decomposition(rng: random.Random, *, bags: int = 6, max_bag: int = 4,
                         connected: bool = True, tag: str = "v") -> Decomposition:
    if bags < 1 or max_bag < 1:
        raise ValueError("need at least one bag and a positive bag size")
    counter = itertools.count()

    def fresh(n: int) -> set[VertexId]:
        return {VertexId(tag, next(counter)) for _ in range(n)}

    cur = fresh(rng.randint(1, max_bag))
    out = [frozenset(cur)]
    for _ in range(bags - 1):
        lo = 1 if connected else 0
        keep_n = rng.randint(lo, min(len(cur), max_bag))
        kept = set(rng.sample(sorted(cur), keep_n))
        grow = rng.randint(0 if kept else 1, max_bag - len(kept))
        cur = kept | fresh(grow)
        out.append(frozenset(cur))
    return Decomposition(Line.of(fin(len(out))),
                         (ExplicitBags(tuple(out)),),
                         frozenset(), frozenset())
