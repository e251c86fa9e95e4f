"""Document format round trips, error reporting, and the subcommands."""

import copy
import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import linedecomp.cli
from linedecomp.cli import (
    DocumentError,
    emit_document,
    emit_plan,
    main,
    parse_document,
    render_dot,
)
from linedecomp.decomposition import (
    Decomposition,
    ExplicitBags,
    PeriodicBags,
    V,
    bag_of,
    tidy,
)
from linedecomp.line import (
    Line,
    Point,
    check_point,
    fin,
    omega,
    omega_star,
    zeta,
)
from linedecomp.oracle import witness_family
from linedecomp.prime import factor
from linedecomp.wo import to_wo

from test_decomposition import _count_bodies


def explicit(*bags, z1=frozenset(), z2=frozenset()):
    return Decomposition(
        Line.of(fin(len(bags))),
        (ExplicitBags(tuple(frozenset(b) for b in bags)),),
        frozenset(z1),
        frozenset(z2),
    )


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def save(tmp_path, text, name="doc.json"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


STAR_TEXT = """
{
  "segments": [
    {"kind": "fin", "bags": [
      [["v", 0], "c"], [["v", 1], "c"], [["v", 2], "c"]
    ]}
  ],
  "static_tags": ["c"],
  "z1": [],
  "z2": []
}
"""


def star():
    return explicit(
        bag_of(("v", 0), "c"), bag_of(("v", 1), "c"), bag_of(("v", 2), "c")
    )


# ---------------------------------------------------------------------------
# Parsing and emission


@pytest.mark.parametrize("k", [1, 2, 3])
def test_round_trip_witness(k):
    d = witness_family(k)
    assert parse_document(emit_document(d)) == d


def test_round_trip_rebuilt_decomposition():
    # exercises several segments, nonzero stride, and a constant part
    d = to_wo(witness_family(2))
    assert parse_document(emit_document(d)) == d


def test_round_trip_designations_and_statics():
    d = explicit(
        bag_of("apex", ("v", 0)),
        bag_of("apex", ("v", 1)),
        z1=bag_of("apex"),
        z2=bag_of("apex", ("v", 1)),
    )
    assert parse_document(emit_document(d)) == d


def test_parse_emit_parse_is_identity_on_canonical_text():
    messy = """
    {"z2": [],
     "segments": [{"kind": "fin", "bags": [[["b", 2], ["a", 1]], [["a", 1]]]}]}
    """
    canon = emit_document(parse_document(messy))
    assert emit_document(parse_document(canon)) == canon
    assert canon.index('["a", 1]') < canon.index('["b", 2]')


def test_parse_star_document():
    assert parse_document(STAR_TEXT) == star()


def test_defaults_for_optional_keys():
    d = parse_document('{"segments": [{"kind": "fin", "bags": [[["v", 0]]]}]}')
    assert d.z1 == frozenset() and d.z2 == frozenset()


def test_parse_periodic_segment_with_constant():
    text = """
    {"segments": [{"kind": "omega", "period": 2,
                   "templates": [[["v", 0]], [["v", 1], ["v", 2]]],
                   "stride": 2, "constant": ["apex"]}],
     "static_tags": ["apex"]}
    """
    d = parse_document(text)
    t = d.templates[0]
    assert isinstance(t, PeriodicBags)
    assert t.period == 2 and t.stride == 2
    assert t.constant == bag_of("apex")
    assert t.residues == (bag_of(("v", 0)), bag_of(("v", 1), ("v", 2)))


def test_emission_sorts_vertices_and_tags():
    d = Decomposition(
        Line.of(zeta()),
        (PeriodicBags(1, (bag_of(("v", 1), "b", ("v", 0), "a"),), 1),),
    )
    obj = json.loads(emit_document(d))
    assert obj["segments"][0]["templates"][0] == ["a", "b", ["v", 0], ["v", 1]]
    assert obj["static_tags"] == ["a", "b"]


def test_emission_omits_empty_constant():
    assert '"constant"' not in emit_document(witness_family(1))


@pytest.mark.parametrize(
    "text,needle",
    [
        ('{"segments": [}', "line 1, column 15"),
        ("[1, 2]", "top level"),
        ('{"segments": [{"kind": "fin", "bags": [[["v",0]]]}], "nope": 1}',
         "unknown key 'nope'"),
        ('{"z1": []}', "missing key 'segments'"),
        ('{"segments": []}', "segments"),
        ('{"segments": [7]}', "segments[0]"),
        ('{"segments": [{"kind": "line"}]}', "segments[0].kind"),
        ('{"segments": [{"kind": "fin", "bags": []}]}', "segments[0].bags"),
        ('{"segments": [{"kind": "fin", "bags": [[]]}]}', "nonempty"),
        ('{"segments": [{"kind": "fin", "bags": [[["v",0],["v",0]]]}]}',
         "duplicate vertex"),
        ('{"segments": [{"kind": "fin", "bags": [[["v",0]]], "stride": 1}]}',
         "unknown key 'stride'"),
        ('{"segments": [{"kind": "omega", "period": 0, "templates": []}]}',
         "segments[0].period"),
        ('{"segments": [{"kind": "omega", "period": 2, "templates": [[["v",0]]]}]}',
         "one template bag per residue"),
        ('{"segments": [{"kind": "omega", "period": 1, "templates": [[["v",0]]],'
         ' "stride": true}]}', "segments[0].stride"),
        ('{"segments": [{"kind": "zeta", "period": 1, "templates": [[]]}]}',
         "bags must be nonempty"),
        ('{"segments": [{"kind": "fin", "bags": [[["v"]]]}]}', "bags[0][0]"),
        ('{"segments": [{"kind": "fin", "bags": [[["v", "3"]]]}]}', "bags[0][0]"),
        ('{"segments": [{"kind": "fin", "bags": [[["v", true]]]}]}', "bags[0][0]"),
        ('{"segments": [{"kind": "fin", "bags": [[7]]}]}', "bags[0][0]"),
        ('{"segments": [{"kind": "fin", "bags": [["u"]]}]}',
         "not listed in static_tags"),
        ('{"segments": [{"kind": "fin", "bags": [[["v",0]]]}],'
         ' "static_tags": ["a", "a"]}', "duplicate tag"),
        ('{"segments": [{"kind": "fin", "bags": [[["v",0]]]}], "z1": 3}', "z1"),
    ],
)
def test_parse_errors_name_the_field(text, needle):
    with pytest.raises(DocumentError) as e:
        parse_document(text)
    assert needle in str(e.value)


# ---------------------------------------------------------------------------
# Plan emission


def test_plan_emission_star():
    obj = json.loads(emit_plan(factor(star())))
    assert set(obj) == {"skeleton", "substituends"}
    assert parse_document(json.dumps(obj["skeleton"])) == explicit(
        bag_of(("v", 0), "c"), bag_of(("v", 2), "c")
    )
    (entry,) = obj["substituends"]
    assert entry["cut"] == {"segment": 0, "offset": 0}
    assert parse_document(json.dumps(entry["decomposition"])) == explicit(
        bag_of(("v", 1))
    )


def test_plan_emission_orders_substituends_by_cut():
    d = explicit(
        bag_of("a", "s"),
        bag_of("b", "s"),
        bag_of("s", "t"),
        bag_of("d", "t"),
        bag_of("e", "t"),
    )
    obj = json.loads(emit_plan(factor(d)))
    offsets = [e["cut"]["offset"] for e in obj["substituends"]]
    assert offsets == sorted(offsets) and len(offsets) == 2


# ---------------------------------------------------------------------------
# DOT rendering


def test_render_star_clusters_and_edges():
    dot = render_dot(star(), window=3)
    assert dot.startswith("graph decomposition {")
    assert dot.count("subgraph cluster_") == 3
    # each spoke edge once, in the bag that introduces it
    assert dot.count(" -- ") == 3 + 2 + 2  # cliques + dashed "c" + anchors
    assert 'b0v0 -- b1v0 [style=dashed];' in dot
    assert dot == render_dot(star(), window=3)


def test_render_truncates_infinite_lines():
    dot = render_dot(witness_family(1), window=2)
    assert 'label="v:-2"' in dot and 'label="v:3"' in dot
    assert "v:4" not in dot


def test_render_escapes_labels():
    d = explicit(bag_of('a"b'), z1=frozenset(), z2=frozenset())
    assert 'label="a\\"b"' in render_dot(d, window=2)


# ---------------------------------------------------------------------------
# Subcommands


def test_check_witness_two(tmp_path, capsys):
    path = save(tmp_path, emit_document(witness_family(2)))
    code, out, _ = run(capsys, "check", path)
    assert code == 0
    assert out == "width 2, tidy, prime\n"


def test_witness_to_wo_check_pipeline(tmp_path, capsys):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert run(capsys, "witness", "1", "--out", a)[0] == 0
    assert run(capsys, "to-wo", a, "--out", b)[0] == 0
    code, out, _ = run(capsys, "check", b)
    assert code == 0
    assert out == "width 2, well-order\n"


def test_check_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(STAR_TEXT))
    code, out, _ = run(capsys, "check", "-")
    assert code == 0
    assert out == "width 1, tidy, well-order\n"


def test_check_betweenness_violation(tmp_path, capsys):
    text = '{"segments": [{"kind": "fin", "bags": [[["v",0]], [["w",0]], [["v",0]]]}]}'
    code, out, _ = run(capsys, "check", save(tmp_path, text))
    assert code == 1
    assert "betweenness violated" in out and "v:0" in out


def test_check_boundary_violation(tmp_path, capsys):
    text = '{"segments": [{"kind": "fin", "bags": [[["v",0]], [["w",0]]]}], "z2": [["v",0]]}'
    code, out, _ = run(capsys, "check", save(tmp_path, text))
    assert code == 1
    assert "boundary violated" in out and "v:0" in out


def test_check_malformed_document(tmp_path, capsys):
    code, _, err = run(capsys, "check", save(tmp_path, '{"segments": '))
    assert code == 2
    assert "document error" in err


@pytest.mark.parametrize("kind", ['["fin"]', "{}", "1", "null"])
@pytest.mark.parametrize("argv", [["check"], ["tidy"], ["splits"], ["to-wo"],
                                  ["factor"], ["render"], ["probe"]])
def test_non_string_kind_is_a_document_error(tmp_path, capsys, kind, argv):
    text = '{"segments": [{"kind": %s, "bags": [[["v", 0]]]}]}' % kind
    code, out, err = run(capsys, *argv, save(tmp_path, text))
    assert code == 2
    assert "segments[0].kind" in err and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("text", [
    "[" * 100_000,
    '{"segments": [{"kind": "omega", "period": %s, "templates": []}]}' % ("9" * 5000),
], ids=["deep-nesting", "huge-integer"])
def test_json_the_decoder_cannot_hold_is_a_document_error(tmp_path, capsys, text):
    code, out, err = run(capsys, "check", save(tmp_path, text))
    assert code == 2
    assert err.startswith("document error: top level") and out == ""


def test_check_reports_a_wide_band_prime(tmp_path, capsys):
    path = save(tmp_path, emit_document(witness_family(4)))
    code, out, _ = run(capsys, "check", path)
    assert code == 0
    assert out == "width 4, tidy, prime\n"


def test_check_verifies_and_tidies_once(tmp_path, capsys, monkeypatch):
    # runs of the verify and tidy bodies: a repeated call on the same
    # object is a lookup and runs neither
    runs = _count_bodies(monkeypatch)
    path = save(tmp_path, emit_document(witness_family(4)))
    code, out, _ = run(capsys, "check", path)
    assert (code, out) == (0, "width 4, tidy, prime\n")
    assert runs == {"verify": 1, "tidy": 1}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_check_reports_a_witness_and_its_rebuild(tmp_path, capsys, k):
    code, text, _ = run(capsys, "witness", str(k))
    assert code == 0
    doc = save(tmp_path, text)
    assert run(capsys, "check", doc) == (0, f"width {k}, tidy, prime\n", "")
    code, text, _ = run(capsys, "to-wo", doc)
    assert code == 0
    rebuilt = save(tmp_path, text, "rebuilt.json")
    assert run(capsys, "check", rebuilt) == (0, f"width {2 * k}, well-order\n", "")


def test_check_reports_a_tidy_chain_that_is_not_prime(tmp_path, capsys):
    d = Decomposition(Line.of(fin(3)), (ExplicitBags((
        bag_of("a", "b"), bag_of("b", "c"), bag_of("b", "d"))),))
    path = save(tmp_path, emit_document(d))
    assert run(capsys, "check", path) == (0, "width 1, tidy, well-order\n", "")


def test_check_prints_points_of_the_line(tmp_path, capsys):
    # a's last occurrence is the whole omega*, which has no offset 0
    d = Decomposition(Line.of(fin(1), fin(1), omega_star()), (
        ExplicitBags((bag_of("a"),)), ExplicitBags((bag_of("b"),)),
        PeriodicBags(1, (bag_of("a"),), 0)))
    code, out, _ = run(capsys, "check", save(tmp_path, emit_document(d)))
    assert code == 1 and out.startswith("betweenness violated: a occurs at ")
    points = [Point(int(j), int(i)) for j, i in re.findall(r"(\d+)@(-?\d+)", out)]
    assert len(points) == 3
    for p in points:
        check_point(d.line, p)


def test_tidy_command_canonicalizes(tmp_path, capsys):
    d = explicit(bag_of("a"), bag_of("a", "b"), bag_of("b", "c"))
    path = save(tmp_path, emit_document(d))
    code, out, _ = run(capsys, "tidy", path)
    assert code == 0
    assert parse_document(out) == tidy(d)


def test_to_wo_rejects_oversized_left_designation(tmp_path, capsys):
    d = Decomposition(
        Line.of(zeta()),
        (PeriodicBags(1, (bag_of(("v", 0), ("v", 1)),), 1),),
        z1=bag_of(("v", 0), ("v", 1)),
    )
    code, _, err = run(capsys, "to-wo", save(tmp_path, emit_document(d)))
    assert code == 1
    assert err.startswith("error:")


def test_splits_star(tmp_path, capsys):
    code, out, _ = run(capsys, "splits", save(tmp_path, STAR_TEXT))
    assert code == 0
    assert out == "cut 0@0: c\ncut 0@1: c\nminimum split size 1, indexed 0..0\n"


def test_splits_verifies_first(tmp_path, capsys):
    # v:2 sits in the bags at offsets 0 and 2 but not at 1
    d = Decomposition(Line.of(zeta()), (PeriodicBags(1, (bag_of(("v", 0), ("v", 2)),), 1),))
    code, out, err = run(capsys, "splits", save(tmp_path, emit_document(d)))
    assert code == 1
    assert out.startswith("betweenness violated") and out.count("\n") == 1
    assert err == ""


def test_factor_command_round_trips(tmp_path, capsys):
    code, out, _ = run(capsys, "factor", save(tmp_path, STAR_TEXT))
    assert code == 0
    obj = json.loads(out)
    assert parse_document(json.dumps(obj["skeleton"])) == explicit(
        bag_of(("v", 0), "c"), bag_of(("v", 2), "c")
    )


def test_factor_rejects_untidy(tmp_path, capsys):
    d = explicit(bag_of("a"), bag_of("a", "b"))
    code, _, err = run(capsys, "factor", save(tmp_path, emit_document(d)))
    assert code == 1
    assert "tidy" in err


def test_pathwidth_command(tmp_path, capsys):
    g = tmp_path / "g.txt"
    g.write_text("a b\nb c\nd\n")
    code, out, _ = run(capsys, "pathwidth", str(g))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "pathwidth 1"
    assert len(lines) == 5  # one bag per vertex ordering step


def test_pathwidth_rejects_loops(tmp_path, capsys):
    g = tmp_path / "g.txt"
    g.write_text("a a\n")
    code, _, err = run(capsys, "pathwidth", str(g))
    assert code == 2
    assert "loop" in err


@pytest.mark.parametrize("text", ["x:1_0 x:10\n", "x:+3 y\n", "x:\u0663 y\n"],
                         ids=["underscore", "plus", "arabic-indic-digit"])
def test_pathwidth_reads_only_ascii_decimal_indices(tmp_path, capsys, text):
    g = tmp_path / "g.txt"
    g.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "pathwidth", str(g))
    assert code == 2
    assert "bad vertex index" in err and text.strip() in err
    assert "Traceback" not in err and out == ""


_EDGE_LISTS = ["a b\nb c\nc d\n", "x:0 x:1\nx:1 x:2\ny\n", "p q\nq r\nr p\ns:3 p\n"]
_ODD_TOKENS = ["a", "x:1", "x:\u0663", "\u0663", "x:1_0", "x:+3", "x:-2", "a:b:1",
               "a:b", "x:", ":1", ":", "\u00e9:1", "x:1:"]


@st.composite
def mutated_edge_lists(draw):
    """A valid edge list with one to three tokens dropped or added (odd
    digits, colons), loops or blank lines added, and one time in five a
    byte that is not UTF-8."""
    lines = [line.split() for line in draw(st.sampled_from(_EDGE_LISTS)).splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        line = draw(st.sampled_from(lines))
        how = draw(st.sampled_from(["drop", "add", "loop", "blank"]))
        if how == "drop" and line:
            del line[draw(st.integers(0, len(line) - 1))]
        elif how == "add":
            line.insert(draw(st.integers(0, len(line))), draw(st.sampled_from(_ODD_TOKENS)))
        elif how == "loop":
            lines.append([line[0], line[0]] if line else ["a", "a"])
        elif how == "blank":
            lines.insert(draw(st.integers(0, len(lines))), [])
    data = "".join(" ".join(line) + "\n" for line in lines).encode("utf-8")
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutated_edge_lists())
def test_mutated_edge_lists_fail_without_a_traceback(tmp_path_factory, data):
    g = tmp_path_factory.getbasetemp() / "mutated-edges.txt"
    g.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["pathwidth", str(g)])
    assert code in (0, 1, 2), data
    assert "Traceback" not in err.getvalue(), data
    assert (code == 0) == out.getvalue().startswith("pathwidth "), data


def test_pathwidth_rejects_bad_line(tmp_path, capsys):
    g = tmp_path / "g.txt"
    g.write_text("a b c\n")
    assert run(capsys, "pathwidth", str(g))[0] == 2


@pytest.mark.parametrize("text, message", [
    ("".join(f"v:{i} v:{i + 1}\n" for i in range(20)), "capped at 20"),
    ("", "empty graph"),
])
def test_pathwidth_refuses_beyond_its_scope(tmp_path, capsys, text, message):
    g = tmp_path / "g.txt"
    g.write_text(text)
    code, out, err = run(capsys, "pathwidth", str(g))
    assert code == 1
    assert message in err
    assert "Traceback" not in err and out == ""


def test_witness_command_matches_library(capsys):
    code, out, _ = run(capsys, "witness", "3")
    assert code == 0
    assert out == emit_document(witness_family(3))


def test_witness_rejects_nonpositive(capsys):
    assert run(capsys, "witness", "0")[0] == 2


def test_certify_command(capsys):
    code, out, _ = run(capsys, "certify", "1")
    assert code == 0
    assert "certified" in out


def test_certify_counts_at_width_64(capsys):
    code, out, _ = run(capsys, "certify", "64")
    assert code == 0
    assert "certified" in out


def test_certify_5000_exits_in_under_a_second(capsys):
    # band edges are tested by index arithmetic, not by building the band
    start = time.perf_counter()
    code, out, _ = run(capsys, "certify", "5000")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and "k=5000" in out


def test_render_command_window(tmp_path, capsys):
    path = save(tmp_path, emit_document(witness_family(1)))
    code, out, _ = run(capsys, "render", path, "--window", "2")
    assert code == 0
    assert out == render_dot(witness_family(1), window=2)


def test_probe_command_deterministic(tmp_path, capsys):
    path = save(tmp_path, emit_document(witness_family(1)))
    first = run(capsys, "probe", path, "--samples", "6", "--seed", "11")
    second = run(capsys, "probe", path, "--samples", "6", "--seed", "11")
    assert first == second
    assert first[0] == 0
    assert "max sampled pathwidth 1" in first[1]


def test_probe_rejects_negative_samples(tmp_path, capsys):
    path = save(tmp_path, emit_document(witness_family(1)))
    code, out, err = run(capsys, "probe", path, "--samples", "-1")
    assert code == 1
    assert out == ""
    assert "samples must be nonnegative" in err


def test_check_report_does_not_depend_on_hash_seed(tmp_path):
    # every u and v of this orbit-gapped zeta fails; the report names the
    # least failing vertex whatever order the sets iterate in
    doc = {"segments": [{"kind": "zeta", "period": 2, "stride": 1, "templates": [
        [["u", 1], ["v", 3]], [["u", 0], ["v", 0]]]}]}
    path = save(tmp_path, json.dumps(doc))
    src = str(Path(linedecomp.cli.__file__).resolve().parents[1])
    script = "import sys; from linedecomp.cli import main; sys.exit(main())"
    outs = set()
    for seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script, "check", path],
                              capture_output=True, text=True, env=env, check=False)
        outs.add((proc.returncode, proc.stdout, proc.stderr))
    assert len(outs) == 1
    code, out, _ = outs.pop()
    assert code == 1
    assert "u:0 occurs at" in out


def test_usage_errors(capsys):
    assert run(capsys, "bogus")[0] == 2
    assert main([]) == 2
    capsys.readouterr()
    assert run(capsys, "--help")[0] == 0


def test_missing_file(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/x.json")
    assert code == 2
    assert "error" in err


# ---------------------------------------------------------------------------
# Mutated documents: every subcommand that reads one fails cleanly


_MUTATION_DOCS = [
    json.loads(emit_document(witness_family(2))),
    json.loads(emit_document(Decomposition(
        Line.of(omega_star(), fin(1), omega()),
        (PeriodicBags(2, (bag_of(("u", 0), "c"), bag_of(("u", 1), "c")), 2,
                      bag_of("p")),
         ExplicitBags((bag_of("p", "c", ("u", 0)),)),
         PeriodicBags(1, (bag_of(("w", 0)),), 1, bag_of("p", ("w", 2)))),
        bag_of("p"), frozenset()))),
]
_WRONG_TYPED = [None, True, 0, -3, 2.5, "v", "omega", [], {}, [["v", 0]],
                {"kind": "fin"}]
_READERS = [["check"], ["tidy"], ["splits"], ["to-wo"], ["factor"], ["render"],
            ["probe", "--samples", "3"]]


def _nodes(x, path=()):
    yield path
    if isinstance(x, dict):
        for k, v in x.items():
            yield from _nodes(v, path + (k,))
    elif isinstance(x, list):
        for i, v in enumerate(x):
            yield from _nodes(v, path + (i,))


@st.composite
def mutated_documents(draw):
    """An emitted witness or periodic document with one to three values
    replaced by one of another JSON type, dropped, or nested in a list."""
    doc = copy.deepcopy(draw(st.sampled_from(_MUTATION_DOCS)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_nodes(doc))))
        parent, key = None, None
        node = doc
        for k in path:
            parent, key, node = node, k, node[k]
        how = draw(st.sampled_from(["retype", "drop", "nest"]))
        if how == "retype":
            new = copy.deepcopy(draw(st.sampled_from(
                [v for v in _WRONG_TYPED if type(v) is not type(node)])))
        elif how == "nest":
            new = [node]
        if parent is None:
            doc = [doc] if how == "nest" else new if how == "retype" else doc
        elif how == "drop":
            del parent[key]
        else:
            parent[key] = new
    return json.dumps(doc)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(mutated_documents())
def test_mutated_documents_fail_without_a_traceback(text):
    for argv in _READERS:
        out, err = io.StringIO(), io.StringIO()
        stdin = sys.stdin
        sys.stdin = io.StringIO(text)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main([argv[0], "-", *argv[1:]])
        finally:
            sys.stdin = stdin
        assert code in (0, 1, 2), (argv, text)
        assert "Traceback" not in err.getvalue(), (argv, text)
