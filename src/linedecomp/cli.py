"""Command line front end and the document format it speaks.

A decomposition document is JSON with four top-level keys:

    {
      "segments":    [ ... one object per line segment, in order ... ],
      "static_tags": [ "p", "q" ],
      "z1":          [ ... vertices ... ],
      "z2":          [ ... vertices ... ]
    }

A finite segment is ``{"kind": "fin", "bags": [[...], ...]}`` with one bag per
point.  An infinite segment (kind ``omega``, ``omega_star`` or ``zeta``) gives
its template: ``{"kind": ..., "period": p, "templates": [[...], ...],
"stride": s}`` plus an optional ``"constant"`` bag that joins every generated
bag without shifting.  Vertices are written ``["tag", index]``, or as a bare
string for static (index-free) vertices; every static tag in use must be
listed in ``static_tags``, which catches the common mistake of writing a
mobile vertex as a string.  ``emit_document`` produces a canonical form:
sorted vertex lists, sorted tag manifest, empty ``constant`` omitted.

Subcommands wrap the library one to one.  Exit status 0 means success (or a
property that holds), 1 means a property violation or an operation refusing
its input, 2 means the input could not be parsed at all.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from typing import Optional, Sequence

from .decomposition import (
    Bag,
    Decomposition,
    ExplicitBags,
    PeriodicBags,
    VertexId,
    bag_at,
    boundary_splits,
    tidy,
    verify,
)
from .line import (
    Cut,
    CutPosition,
    Line,
    Point,
    Segment,
    SegmentKind,
    UnsupportedScopeError,
    all_points,
    cut_key,
    enumerate_cuts,
    fin,
    is_well_order,
)
from .oracle import (
    certificate_lowerbound,
    compactness_probe,
    graph_from_edge_list,
    materialize,
    pathwidth_exact,
    vertex_text,
    witness_family,
)
from .prime import SubstitutionPlan, factor, is_prime
from .splits import enumerate_min_splits, split_budget
from .wo import to_wo

__all__ = [
    "DocumentError",
    "parse_document",
    "emit_document",
    "emit_plan",
    "render_dot",
    "main",
]


class DocumentError(ValueError):
    """A document failed to parse; the message names the offending field."""


# ---------------------------------------------------------------------------
# Parsing

_KINDS = {
    "fin": SegmentKind.FIN,
    "omega": SegmentKind.OMEGA,
    "omega_star": SegmentKind.OMEGA_STAR,
    "zeta": SegmentKind.ZETA,
}


def _fail(where: str, msg: str) -> None:
    raise DocumentError(f"{where}: {msg}")


def _expect_keys(obj: dict, where: str, required: set[str], optional: set[str]) -> None:
    missing = required - obj.keys()
    if missing:
        _fail(where, f"missing key {sorted(missing)[0]!r}")
    unknown = obj.keys() - required - optional
    if unknown:
        _fail(where, f"unknown key {sorted(unknown)[0]!r}")


def _vertex_from_json(x, statics: frozenset[str], where: str) -> VertexId:
    if isinstance(x, str):
        if x not in statics:
            _fail(where, f"static vertex {x!r} is not listed in static_tags")
        return VertexId(x)
    if (
        isinstance(x, list)
        and len(x) == 2
        and isinstance(x[0], str)
        and isinstance(x[1], int)
        and not isinstance(x[1], bool)
    ):
        return VertexId(x[0], x[1])
    _fail(where, 'a vertex is ["tag", index] or a bare string for statics')


def _bag_from_json(x, statics: frozenset[str], where: str, *,
                   allow_empty: bool = False) -> Bag:
    if not isinstance(x, list):
        _fail(where, "expected a list of vertices")
    if not x and not allow_empty:
        _fail(where, "bag must be nonempty")
    out = [_vertex_from_json(v, statics, f"{where}[{i}]") for i, v in enumerate(x)]
    if len(set(out)) != len(out):
        _fail(where, "duplicate vertex")
    return frozenset(out)


def _segment_from_json(obj, statics: frozenset[str], where: str):
    if not isinstance(obj, dict):
        _fail(where, "expected an object")
    kind_name = obj.get("kind")
    if not isinstance(kind_name, str) or kind_name not in _KINDS:
        _fail(f"{where}.kind", f"expected one of {sorted(_KINDS)}")
    kind = _KINDS[kind_name]

    if kind is SegmentKind.FIN:
        _expect_keys(obj, where, {"kind", "bags"}, set())
        bags = obj["bags"]
        if not isinstance(bags, list) or not bags:
            _fail(f"{where}.bags", "expected a nonempty list of bags")
        parsed = tuple(
            _bag_from_json(b, statics, f"{where}.bags[{i}]") for i, b in enumerate(bags)
        )
        return fin(len(parsed)), ExplicitBags(parsed)

    _expect_keys(obj, where, {"kind", "period", "templates"}, {"stride", "constant"})
    period = obj["period"]
    if not isinstance(period, int) or isinstance(period, bool) or period < 1:
        _fail(f"{where}.period", "expected a positive integer")
    templates = obj["templates"]
    if not isinstance(templates, list) or len(templates) != period:
        _fail(f"{where}.templates", "expected one template bag per residue")
    stride = obj.get("stride", 0)
    if not isinstance(stride, int) or isinstance(stride, bool):
        _fail(f"{where}.stride", "expected an integer")
    constant = _bag_from_json(
        obj.get("constant", []), statics, f"{where}.constant", allow_empty=True
    )
    residues = tuple(
        _bag_from_json(b, statics, f"{where}.templates[{i}]", allow_empty=True)
        for i, b in enumerate(templates)
    )
    if any(not (r | constant) for r in residues):
        _fail(f"{where}.templates", "bags must be nonempty")
    return Segment(kind), PeriodicBags(period, residues, stride, constant)


def parse_document(text: str) -> Decomposition:
    """Parse a decomposition document; raise DocumentError on any defect."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    except (RecursionError, ValueError) as e:  # nesting depth, integer size
        raise DocumentError(f"top level: {e}") from None
    if not isinstance(obj, dict):
        raise DocumentError("top level: expected an object")
    _expect_keys(obj, "top level", {"segments"}, {"static_tags", "z1", "z2"})

    tags = obj.get("static_tags", [])
    if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
        _fail("static_tags", "expected a list of strings")
    if len(set(tags)) != len(tags):
        _fail("static_tags", "duplicate tag")
    statics = frozenset(tags)

    seg_list = obj["segments"]
    if not isinstance(seg_list, list) or not seg_list:
        _fail("segments", "expected a nonempty list")
    segments, templates = [], []
    for i, s in enumerate(seg_list):
        seg, t = _segment_from_json(s, statics, f"segments[{i}]")
        segments.append(seg)
        templates.append(t)

    z1 = _bag_from_json(obj.get("z1", []), statics, "z1", allow_empty=True)
    z2 = _bag_from_json(obj.get("z2", []), statics, "z2", allow_empty=True)
    try:
        return Decomposition(Line.of(*segments), tuple(templates), z1, z2)
    except ValueError as e:
        raise DocumentError(str(e)) from None


# ---------------------------------------------------------------------------
# Emission


def _vertex_json(v: VertexId):
    return v.tag if v.index is None else [v.tag, v.index]


def _is_vertex_form(x) -> bool:
    return isinstance(x, str) or (
        isinstance(x, list) and len(x) == 2 and isinstance(x[0], str)
        and isinstance(x[1], int)
    )


def _fmt(x, ind: int = 0) -> str:
    """JSON with vertex lists kept on one line; plain json otherwise."""
    pad = "  " * ind
    if isinstance(x, dict):
        if not x:
            return "{}"
        rows = [f'{pad}  {json.dumps(k)}: {_fmt(v, ind + 1)}' for k, v in x.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(x, list):
        if not x or all(_is_vertex_form(v) for v in x):
            return json.dumps(x)
        rows = [f"{pad}  {_fmt(v, ind + 1)}" for v in x]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    return json.dumps(x)


def _bag_json(b: Bag) -> list:
    return [_vertex_json(v) for v in sorted(b)]


def _document_obj(d: Decomposition) -> dict:
    segs = []
    statics: set[str] = {v.tag for v in d.z1 | d.z2 if v.is_static}
    for seg, t in zip(d.line.segments, d.templates):
        if isinstance(t, ExplicitBags):
            segs.append({"kind": "fin", "bags": [_bag_json(b) for b in t.bags]})
            bags = t.bags
        else:
            entry = {
                "kind": seg.kind.value,
                "period": t.period,
                "templates": [_bag_json(b) for b in t.residues],
                "stride": t.stride,
            }
            if t.constant:
                entry["constant"] = _bag_json(t.constant)
            segs.append(entry)
            bags = (*t.residues, t.constant)
        statics |= {v.tag for b in bags for v in b if v.is_static}
    return {
        "segments": segs,
        "static_tags": sorted(statics),
        "z1": _bag_json(d.z1),
        "z2": _bag_json(d.z2),
    }


def emit_document(d: Decomposition) -> str:
    return _fmt(_document_obj(d)) + "\n"


def emit_plan(plan: SubstitutionPlan) -> str:
    """Factorization result: the skeleton plus substituends keyed by cut."""
    line = plan.skeleton.line
    subs = sorted(plan.substituends.items(), key=lambda kv: cut_key(line, kv[0]))
    obj = {
        "skeleton": _document_obj(plan.skeleton),
        "substituends": [
            {
                "cut": {"segment": c.segment, "offset": c.offset},
                "decomposition": _document_obj(sub),
            }
            for c, sub in subs
        ],
    }
    return _fmt(obj) + "\n"


# ---------------------------------------------------------------------------
# Plain-text spellings used in reports


def _bag_text(b: Bag) -> str:
    return " ".join(vertex_text(v) for v in sorted(b)) if b else "(empty)"


def _point_text(p: Point) -> str:
    return f"{p.segment}@{p.offset}"


def _cut_text(c: Cut) -> str:
    if c.position is CutPosition.AFTER_OFFSET:
        return f"cut {c.segment}@{c.offset}"
    if c.position is CutPosition.AFTER_SEGMENT:
        return f"cut {c.segment}@top"
    return f"cut {c.segment}@bottom"


# ---------------------------------------------------------------------------
# DOT rendering


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def render_dot(d: Decomposition, window: int) -> str:
    """Draw a finite snapshot: bags as clusters laid out along the line.

    Solid edges are graph edges, drawn once in the first bag covering them;
    dashed edges link occurrences of one vertex in consecutive bags.
    """
    snap, graph = materialize(d, window)
    bags = [bag_at(snap, p) for p in all_points(snap.line)]
    ids = [
        {v: f"b{i}v{j}" for j, v in enumerate(sorted(b))} for i, b in enumerate(bags)
    ]
    out = [
        "graph decomposition {",
        "  rankdir=LR;",
        "  node [shape=box];",
    ]
    drawn: set[Bag] = set()
    for i, b in enumerate(bags):
        out.append(f"  subgraph cluster_{i} {{")
        out.append(f"    label={_dot_quote(f'bag {i}')};")
        out.append(f"    anchor{i} [shape=point, style=invis];")
        for v in sorted(b):
            out.append(f"    {ids[i][v]} [label={_dot_quote(vertex_text(v))}];")
        for u, w in itertools.combinations(sorted(b), 2):
            e = frozenset((u, w))
            if e in graph.edges and e not in drawn:
                drawn.add(e)
                out.append(f"    {ids[i][u]} -- {ids[i][w]};")
        out.append("  }")
    for i in range(len(bags) - 1):
        out.append(f"  anchor{i} -- anchor{i + 1} [style=invis];")
        for v in sorted(bags[i] & bags[i + 1]):
            out.append(f"  {ids[i][v]} -- {ids[i + 1][v]} [style=dashed];")
    out.append("}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Subcommands


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as f:
        return f.read()


def _write_text(args, text: str) -> None:
    if args.out is None or args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)


def _load(args) -> Decomposition:
    return parse_document(_read_text(args.file))


def _report_violation(rep) -> int:
    if not rep.betweenness_ok:
        v, r, s, t = rep.counterexample
        print(
            f"betweenness violated: {vertex_text(v)} occurs at {_point_text(r)} "
            f"and {_point_text(t)} but not at {_point_text(s)}"
        )
    else:
        (v,) = rep.counterexample
        print(f"boundary violated: designated vertex {vertex_text(v)} is not a limit vertex")
    return 1


def _cmd_check(args) -> int:
    d = _load(args)
    rep = verify(d)
    if not rep.ok:
        return _report_violation(rep)
    parts = [f"width {rep.width}"]
    if tidy(d) == d:
        parts.append("tidy")
        if is_prime(d):
            parts.append("prime")
    if is_well_order(d.line):
        parts.append("well-order")
    print(", ".join(parts))
    return 0


def _cmd_tidy(args) -> int:
    _write_text(args, emit_document(tidy(_load(args))))
    return 0


def _cmd_to_wo(args) -> int:
    _write_text(args, emit_document(to_wo(_load(args))))
    return 0


def _cmd_splits(args) -> int:
    d = _load(args)
    rep = verify(d)
    if not rep.ok:
        return _report_violation(rep)
    cuts = enumerate_cuts(d.line, split_budget(d))
    lines = [f"{_cut_text(c)}: {_bag_text(s)}"
             for c, s in zip(cuts, boundary_splits(d, cuts))]
    idx = enumerate_min_splits(d)
    if idx.m is None:
        summary = "no cuts"
    else:
        lo = "-oo" if idx.lo is None else str(idx.lo)
        hi = "+oo" if idx.hi is None else str(idx.hi)
        summary = f"minimum split size {idx.m}, indexed {lo}..{hi}"
        if idx.note:
            summary += f" ({idx.note})"
    for text in lines:
        print(text)
    print(summary)
    return 0


def _cmd_factor(args) -> int:
    _write_text(args, emit_plan(factor(_load(args))))
    return 0


def _cmd_pathwidth(args) -> int:
    try:
        g = graph_from_edge_list(_read_text(args.graphfile))
    except ValueError as e:
        print(f"graph error: {e}", file=sys.stderr)
        return 2
    k, d = pathwidth_exact(g)
    print(f"pathwidth {k}")
    for i, p in enumerate(all_points(d.line)):
        print(f"bag {i}: {_bag_text(bag_at(d, p))}")
    return 0


def _cmd_witness(args) -> int:
    if args.k < 1:
        print("error: k must be at least 1", file=sys.stderr)
        return 2
    _write_text(args, emit_document(witness_family(args.k)))
    return 0


def _cmd_certify(args) -> int:
    if args.k < 1:
        print("error: k must be at least 1", file=sys.stderr)
        return 2
    if certificate_lowerbound(args.k):
        print(f"certified: no vertex set of size at most {2 * args.k} captures k={args.k}")
        return 0
    print(f"certificate fails for k={args.k}")
    return 1


def _cmd_render(args) -> int:
    _write_text(args, render_dot(_load(args), args.window))
    return 0


def _cmd_probe(args) -> int:
    d = _load(args)
    rep = compactness_probe(d, args.samples, window=args.window, seed=args.seed)
    print(
        f"samples {rep.samples}, width {rep.width}, "
        f"max sampled pathwidth {rep.max_pathwidth}"
    )
    if not rep.ok:
        print("violation: a sampled subgraph exceeds the decomposition width")
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="linedecomp",
        description="Inspect and transform line-decompositions of graphs.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def doc_cmd(name: str, help_: str, func, *, out: bool = False):
        q = sub.add_parser(name, help=help_)
        q.add_argument("file", help="decomposition document, or - for stdin")
        if out:
            q.add_argument("--out", default=None, help="write here instead of stdout")
        q.set_defaults(func=func)
        return q

    doc_cmd("check", "verify a document and report its properties", _cmd_check)
    doc_cmd("tidy", "remove nesting between adjacent bags", _cmd_tidy, out=True)
    doc_cmd("to-wo", "rebuild along a well-ordered line", _cmd_to_wo, out=True)

    doc_cmd("splits", "list boundary splits and the minimum-split indexing",
            _cmd_splits)

    doc_cmd("factor", "factor into a prime skeleton and substituends",
            _cmd_factor, out=True)

    q = sub.add_parser("pathwidth", help="exact pathwidth of an edge-list graph")
    q.add_argument("graphfile", help="edge list, or - for stdin")
    q.set_defaults(func=_cmd_pathwidth)

    q = sub.add_parser("witness", help="emit the standard width-k band family")
    q.add_argument("k", type=int)
    q.add_argument("--out", default=None, help="write here instead of stdout")
    q.set_defaults(func=_cmd_witness)

    q = sub.add_parser("certify", help="lower-bound certificate for the band family")
    q.add_argument("k", type=int)
    q.set_defaults(func=_cmd_certify)

    q = doc_cmd("render", "draw a finite window as DOT", _cmd_render, out=True)
    q.add_argument("--window", type=int, default=6,
                   help="offsets to materialize per infinite segment end")

    q = doc_cmd("probe", "sample finite subgraphs and compare pathwidth", _cmd_probe)
    q.add_argument("--samples", type=int, default=50)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--window", type=int, default=4)

    return p


# built once per process: constructing the ten subcommand parsers takes
# 1-2 ms, more than many commands take on small documents
_PARSER = _build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.func(args)
    except DocumentError as e:
        print(f"document error: {e}", file=sys.stderr)
        return 2
    except (UnsupportedScopeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
