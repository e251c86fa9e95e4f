"""Inputs, call sequences and output checks of the benchmark's workloads.

Every workload runs in rounds.  A round is a fixed corpus of inputs built
once during set-up from CORPUS_SEED, as ROADMAP.md asks of the harness.
Round r hands the library a copy in which every vertex is renamed (a tag
suffix drawn from the run's --seed and r) and the order is shuffled by the
same generator.  Renaming is a graph isomorphism, so each round does the
same work on objects no earlier call has seen, and a cache kept across calls
cannot score a hit.  The run stops at the end of a round, so every run
measures the same mix of inputs however fast the code is.

The corpus is fixed rather than drawn from --seed because the cost of one
periodic input ranges from under 1 ms to about 1 s: resampling the 230
periodic inputs by seed predicted a spread (interquartile range over
median of ten runs) of about 0.16 in inputs_per_s at 20 s a run, from the
choice of inputs alone.

Steps refuse out-of-scope input by raising ``ValueError`` (of which
``UnsupportedScopeError`` is a subclass).  A refusal is recorded and the
remaining steps that do not need its result still run.  Checks use the
naive oracles where one exists and always run outside the timed region.

Because the corpus is fixed and renaming is an isomorphism, the refusals
and some results are known in advance.  ``expected.json`` holds what the
library returned on the un-renamed corpus when the benchmark was written:
per input, the (step, reason) refusals allowed, and for periodic inputs
the result of ``is_prime`` and the m/lo/hi/note of
``enumerate_min_splits``.  A refusal outside an input's allowed set (any
refusal on ``chain``, a reason read as ``other`` anywhere) makes the input
incorrect; an input that stops refusing is fine, and its output is checked
like any other.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import random
import shutil
from typing import Callable, Optional

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json"),
          encoding="utf-8") as _f:
    EXPECTED = json.load(_f)

# The periodic shapes are the corpus ROADMAP.md profiles: draws of the
# random periodic generator at this seed, kept when valid and not
# well-ordered (230 of 420).  The chains are drawn from the same seed.
CORPUS_SEED = 5024
SHAPE_DRAWS = 420
BAND_WIDTHS = range(1, 7)

# Chain sizes of one round.  verify is quadratic in the bag count, so the
# 1600-bag chain takes about two thirds of the round.  With 25 inputs the
# 90th percentile sits in the middle of the 400-bag chains and the median
# among the 100-bag chains, never at the edge between two sizes, where a
# small change of speed would move it a long way.
CHAIN_ROUND = (1600,) + (400,) * 5 + (100,) * 19
CHAIN_MAX_BAG = 5

# cli: chain documents for tidy -> factor, every SPLITS_STRIDE-th periodic
# shape for splits, and graphs whose exact pathwidth DP stays cheap.  With
# the six witness jobs that makes 35 jobs a round; the five heaviest (two
# 400-bag chains, witness 1-3) hold the top 14%, so the 90th percentile
# falls inside that group rather than at its edge.
CLI_CHAIN_SIZES = (100, 100, 400, 400)
SPLITS_STRIDE = 20
PATHWIDTH_GRAPHS = 13
PATHWIDTH_VERTICES = range(10, 14)

# Message fragment -> refusal reason.  Refusals carry no structured fields
# yet, so the reason is read off the message.
REFUSAL_REASONS = (
    ("do not stabilize", "no_stabilize"),
    ("empty splits repeat forever", "empty_splits"),
    ("left-limit vertices are designated", "z1_designated"),
    ("escape", "z_escape"),
    ("march in an interior segment", "interior_march"),
    ("constant split family", "constant_family"),
    ("marching witness families", "marching_families"),
    ("overlap", "witness_overlap"),
    ("marching tail", "tail_replicate"),
)


def refusal_reason(message: str) -> str:
    for fragment, reason in REFUSAL_REASONS:
        if fragment in message:
            return reason
    return "other"


@dataclasses.dataclass(frozen=True)
class Item:
    """One input of a round."""

    label: str
    payload: object
    band: Optional[int] = None


@dataclasses.dataclass
class Outcome:
    """What the timed call sequence returned for one input."""

    values: dict = dataclasses.field(default_factory=dict)
    refusals: list = dataclasses.field(default_factory=list)  # (step, message, exc)


def attempt(out: Outcome, step: str, fn: Callable, *args):
    """Run one step; record a documented refusal instead of raising."""
    try:
        value = fn(*args)
    except ValueError as e:
        out.refusals.append((step, str(e), e))
        return None
    out.values[step] = value
    return value


# ---------------------------------------------------------------------------
# Input generation


def random_periodic(ld, rng: random.Random):
    """One draw: 1-3 segments of omega, omega* or zeta with period 1-2 and
    marching residues, sometimes a short finite block between them, and a
    designated z1 about 30% of the time.  Raises ValueError for a draw that
    is not a decomposition (an empty bag)."""
    V = ld.VertexId
    kinds = [ld.omega(), ld.omega_star(), ld.zeta()]
    nseg = rng.randint(1, 3)
    segments, templates = [], []
    for j in range(nseg):
        if rng.random() < 0.3 and 0 < j < nseg - 1:
            n = rng.randint(1, 3)
            pool = [V("p"), V("q"), V("c", 0),
                    V("u", rng.randint(-2, 2)),
                    V("uvw"[nseg - 1], rng.randint(-2, 2)), V("x")]
            bags = tuple(frozenset(rng.sample(pool, rng.randint(1, 4)))
                         for _ in range(n))
            segments.append(ld.fin(n))
            templates.append(ld.ExplicitBags(bags))
            continue
        seg = rng.choice(kinds)
        period = rng.randint(1, 2)
        size = rng.randint(0, 2)
        stride = period * rng.choice([1, 1, 1, -1])
        residues = tuple(
            frozenset(V("uvw"[j], (r if stride > 0 else -r) + i)
                      for i in range(size + 1))
            for r in range(period))
        constant = set()
        if rng.random() < 0.5:
            constant.add(V("p"))
        if rng.random() < 0.25:
            constant.add(V("q"))
        segments.append(seg)
        templates.append(ld.PeriodicBags(period, residues, stride, frozenset(constant)))
    z1 = frozenset()
    if rng.random() < 0.3:
        z1 = frozenset(rng.sample([V("p"), V("q")], rng.randint(1, 2)))
    return ld.Decomposition(ld.Line(tuple(segments)), tuple(templates), z1, frozenset())


def periodic_shapes(ld) -> list:
    """The valid draws whose line is not a well-order, in draw order."""
    rng = random.Random(CORPUS_SEED)
    out = []
    for _ in range(SHAPE_DRAWS):
        try:
            d = random_periodic(ld, rng)
        except ValueError:
            continue
        if not ld.is_well_order(d.line) and ld.verify(d).ok:
            out.append(d)
    return out


def relabel(ld, d, rng: random.Random):
    """An isomorphic copy of d: every tag gets the same suffix, which keeps
    the order of vertices and, being of fixed length, the size of documents.
    Indices stay, because some searches start from them and would change
    their call counts."""
    suffix = f"_{rng.randrange(16 ** 8):08x}"

    def bag(b):
        return frozenset(ld.VertexId(v.tag + suffix, v.index) for v in b)

    templates = []
    for t in d.templates:
        if isinstance(t, ld.ExplicitBags):
            templates.append(ld.ExplicitBags(tuple(map(bag, t.bags))))
        else:
            templates.append(ld.PeriodicBags(t.period, tuple(map(bag, t.residues)),
                                             t.stride, bag(t.constant)))
    return ld.Decomposition(d.line, tuple(templates), bag(d.z1), bag(d.z2))


def presentation_size(d) -> int:
    """Explicit bags plus residues: the size of a finite presentation."""
    return sum(len(t.bags) if hasattr(t, "bags") else len(t.residues)
               for t in d.templates)


def plan_size(plan) -> int:
    return presentation_size(plan.skeleton) + sum(
        presentation_size(s) for s in plan.substituends.values())


def explicit_bags(d) -> list:
    """The bag list of a decomposition on a finite line."""
    return [b for t in d.templates for b in t.bags]


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """Set-up happens in __init__; `round` builds the renamed copies."""

    name = ""

    def __init__(self, ld, seed: int):
        self.ld = ld
        self.seed = seed
        self.base: list[Item] = []

    def round(self, r: int) -> list[Item]:
        rng = random.Random(f"{self.name}/{self.seed}/{r}")
        items = [dataclasses.replace(it, payload=relabel(self.ld, it.payload, rng))
                 for it in self.base]
        rng.shuffle(items)
        return items

    def run(self, item: Item) -> Outcome:
        raise NotImplementedError

    def refusal_problems(self, item: Item, out: Outcome) -> list[str]:
        """Refusals this input is not known to make."""
        allowed = EXPECTED["refusals"].get(self.name, {}).get(item.label, [])
        return [f"unexpected refusal by {step} ({reason}): {message}"
                for step, message, _ in out.refusals
                for reason in [refusal_reason(message)]
                if [step, reason] not in allowed]

    def check(self, item: Item, out: Outcome) -> list[str]:
        raise NotImplementedError

    def out_size(self, item: Item, out: Outcome) -> int:
        raise NotImplementedError

    def width_excess(self, item: Item, out: Outcome) -> Optional[int]:
        return None

    def account(self, item: Item, out: Outcome) -> None:
        """Record per-input totals a workload keeps for the traced run."""

    def close(self) -> None:
        pass


class Periodic(Workload):
    """Periodic decompositions through verify, tidy, is_prime,
    enumerate_min_splits and to_wo."""

    name = "periodic"

    def __init__(self, ld, seed: int):
        super().__init__(ld, seed)
        self.base = [Item(f"band k={k}", ld.witness_family(k), band=k) for k in BAND_WIDTHS]
        self.base += [Item(f"shape {i}", d) for i, d in enumerate(periodic_shapes(ld))]

    def run(self, item):
        ld, d, out = self.ld, item.payload, Outcome()
        attempt(out, "verify", ld.verify, d)
        attempt(out, "tidy", ld.tidy, d)
        attempt(out, "is_prime", ld.is_prime, d)
        attempt(out, "enumerate_min_splits", ld.enumerate_min_splits, d)
        attempt(out, "to_wo", ld.to_wo, d)
        return out

    def check(self, item, out):
        ld, d, problems = self.ld, item.payload, []
        rep = out.values.get("verify")
        if rep is not None and not rep.ok:
            problems.append("verify rejects a valid input")
        t = out.values.get("tidy")
        if t is not None and not ld.verify(t).ok:
            problems.append("tidy output does not verify")
        known = EXPECTED["periodic"].get(item.label)
        prime = out.values.get("is_prime")
        if prime is not None and known is not None and prime != known[0]:
            problems.append(f"is_prime says {prime}, expected {known[0]}")
        idx = out.values.get("enumerate_min_splits")
        if idx is not None:
            got = [idx.m, idx.lo, idx.hi, idx.note]
            if known is not None and got != known[1]:
                problems.append(f"enumerate_min_splits gives m/lo/hi/note {got}, "
                                f"expected {known[1]}")
            cuts = ld.enumerate_cuts(d.line, ld.split_budget(d))
            m = min((len(ld.boundary_split(d, c)) for c in cuts), default=None)
            if idx.m != m:
                problems.append(f"enumerate_min_splits m={idx.m}, smallest split is {m}")
        w = out.values.get("to_wo")
        if w is None:
            return problems
        k = ld.width(d)
        if not ld.verify(w).ok:
            problems.append("to_wo output does not verify")
        if not ld.is_well_order(w.line):
            problems.append("to_wo output is not on a well-order")
        if ld.width(w) > 2 * k - len(d.z1):
            problems.append(f"to_wo width {ld.width(w)} exceeds 2k - |z1| for k={k}")
        if (w.z1, w.z2) != (d.z1, d.z2):
            problems.append("to_wo changed z1 or z2")
        _, g_in = ld.materialize(d, 12)
        _, g_out = ld.materialize(w, 60)
        if {e for e in g_in.edges if e <= g_out.vertices} - g_out.edges:
            problems.append("to_wo output loses an edge of the input")
        if item.band is not None:
            if ld.width(w) != 2 * item.band:
                problems.append(f"band k={item.band}: width {ld.width(w)}, not 2k")
            if not ld.certificate_lowerbound(item.band):
                problems.append(f"band k={item.band}: certificate fails")
        return problems

    def out_size(self, item, out):
        return sum(presentation_size(out.values[s]) for s in ("tidy", "to_wo")
                   if s in out.values)

    def width_excess(self, item, out):
        w = out.values.get("to_wo")
        return None if w is None else self.ld.width(w) - self.ld.width(item.payload)


class Chain(Workload):
    """Finite chains through verify, tidy, is_prime, factor + substitute,
    factor_tree + compose_tree and repeated_splits."""

    name = "chain"

    def __init__(self, ld, seed: int):
        super().__init__(ld, seed)
        rng = random.Random(f"chain/{CORPUS_SEED}")
        self.base = [Item(f"chain {n} bags #{i}",
                          ld.random_decomposition(rng, bags=n, max_bag=CHAIN_MAX_BAG))
                     for i, n in enumerate(CHAIN_ROUND)]

    def run(self, item):
        ld, d, out = self.ld, item.payload, Outcome()
        attempt(out, "verify", ld.verify, d)
        t = attempt(out, "tidy", ld.tidy, d)
        if t is None:
            return out
        attempt(out, "is_prime", ld.is_prime, t)
        plan = attempt(out, "factor", ld.factor, t)
        if plan is not None:
            attempt(out, "substitute", ld.substitute, plan)
        tree = attempt(out, "factor_tree", ld.factor_tree, t)
        if tree is not None:
            attempt(out, "compose_tree", ld.compose_tree, tree)
        attempt(out, "repeated_splits", ld.repeated_splits, t)
        return out

    def check(self, item, out):
        ld, d, v, problems = self.ld, item.payload, out.values, []
        if "verify" in v and not v["verify"].ok:
            problems.append("verify rejects a valid chain")
        t = v.get("tidy")
        if t is None:
            return problems
        bags = explicit_bags(t)
        if any(a <= b or b <= a for a, b in zip(bags, bags[1:])):
            problems.append("tidy output has nested neighbours")
        if ld.graph_from_bags(bags) != ld.graph_from_bags(explicit_bags(d)):
            problems.append("tidy output changes the graph")
        if "substitute" in v and v["substitute"] != t:
            problems.append("substitute(factor(t)) != t")
        if "compose_tree" in v and v["compose_tree"] != t:
            problems.append("compose_tree(factor_tree(t)) != t")
        splits = ld.brute_splits(t)
        witnesses: dict = {}
        for cut_index, s in splits.items():
            witnesses.setdefault(s, []).append(cut_index)
        if "repeated_splits" in v:
            lengths = [seg.length for seg in t.line.segments]
            got = {r.split.vertices: [sum(lengths[:c.segment]) + c.offset + 1
                                      for c in r.split.witness_cuts]
                   for r in v["repeated_splits"]}
            want = {s: ks for s, ks in witnesses.items() if len(ks) >= 2}
            if got != want:
                problems.append("repeated_splits differs from brute_splits")
        if "is_prime" in v:
            prime = all(splits.values()) and all(len(ks) == 1 for ks in witnesses.values())
            if v["is_prime"] != prime:
                problems.append(f"is_prime says {v['is_prime']}, brute splits say {prime}")
        return problems

    def out_size(self, item, out):
        v = out.values
        return (presentation_size(v["tidy"]) if "tidy" in v else 0) + (
            plan_size(v["factor"]) if "factor" in v else 0)


# -- cli ---------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Job:
    """A chain of CLI commands on one document; each command needs the
    previous one to succeed."""

    kind: str
    argvs: tuple
    source: object  # the decomposition or graph the documents were made from
    files: dict     # role -> path


class Cli(Workload):
    """``linedecomp.cli.main`` in-process on documents written per round."""

    name = "cli"

    def __init__(self, ld, seed: int, workdir: str):
        super().__init__(ld, seed)
        self.workdir = workdir
        rng = random.Random(f"cli/{CORPUS_SEED}")
        shapes = periodic_shapes(ld)
        self.chains = [ld.random_decomposition(rng, bags=n, max_bag=CHAIN_MAX_BAG)
                       for n in CLI_CHAIN_SIZES]
        self.splits_docs = shapes[::SPLITS_STRIDE]
        # decompositions whose materialized window has 10-13 vertices
        self.graph_sources = []
        for d in shapes:
            for window in range(1, 6):
                n = len(ld.materialize(d, window)[1].vertices)
                if n in PATHWIDTH_VERTICES:
                    self.graph_sources.append((d, window))
                if n >= PATHWIDTH_VERTICES.stop - 1:
                    break
            if len(self.graph_sources) == PATHWIDTH_GRAPHS:
                break
        self.witness_expected: dict = {}
        self.bytes_in = 0
        self.bytes_out = 0

    def round(self, r):
        ld = self.ld
        rng = random.Random(f"cli/{self.seed}/{r}")
        where = os.path.join(self.workdir, f"round{r}")
        os.makedirs(where, exist_ok=True)

        def path(name):
            return os.path.join(where, name)

        def write(name, text):
            with open(path(name), "w", encoding="utf-8") as f:
                f.write(text)
            return path(name)

        jobs = []
        for k in BAND_WIDTHS:
            f = {"band": path(f"band{k}.json"), "wo": path(f"wo{k}.json")}
            jobs.append(Item(f"witness {k}", Job(
                "witness", (["witness", str(k), "--out", f["band"]],
                            ["to-wo", f["band"], "--out", f["wo"]],
                            ["check", f["wo"]]), None, f), band=k))
        for i, c in enumerate(self.chains):
            d = relabel(ld, c, rng)
            f = {"doc": write(f"chain{i}.json", ld.cli.emit_document(d)),
                 "tidy": path(f"tidy{i}.json"), "plan": path(f"plan{i}.json")}
            jobs.append(Item(f"chain {i}", Job(
                "chain", (["tidy", f["doc"], "--out", f["tidy"]],
                          ["factor", f["tidy"], "--out", f["plan"]]), d, f)))
        for i, s in enumerate(self.splits_docs):
            d = relabel(ld, s, rng)
            f = {"doc": write(f"periodic{i}.json", ld.cli.emit_document(d))}
            jobs.append(Item(f"splits {i}", Job("splits", (["splits", f["doc"]],), d, f)))
        for i, (s, window) in enumerate(self.graph_sources):
            g = ld.materialize(relabel(ld, s, rng), window)[1]
            f = {"edges": write(f"graph{i}.txt", ld.graph_to_edge_list(g))}
            jobs.append(Item(f"pathwidth {i}", Job("pathwidth", (["pathwidth", f["edges"]],), g, f)))
        rng.shuffle(jobs)
        return jobs

    def run(self, item):
        job, out = item.payload, Outcome()
        main = self.ld.cli.main
        out.values["stdout"] = []
        for argv in job.argvs:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = main(argv)
            out.values["stdout"].append(stdout.getvalue())
            if rc != 0:
                err = stderr.getvalue()
                if rc == 1 and err.startswith("error: "):
                    out.refusals.append((argv[0], err[len("error: "):].strip(), None))
                else:
                    out.values["failure"] = f"{argv[0]} exit {rc}: {err.strip()[:200]}"
                break
        return out

    def account(self, item, out) -> None:
        """Bytes the CLI read (input files) and wrote (files and stdout)."""
        for argv, text in zip(item.payload.argvs, out.values["stdout"]):
            target = argv[argv.index("--out") + 1] if "--out" in argv else None
            self.bytes_out += len(text.encode())
            if target is not None and os.path.exists(target):
                self.bytes_out += os.path.getsize(target)
            self.bytes_in += sum(os.path.getsize(a) for a in argv[1:]
                                 if a != target and os.path.isfile(a))

    def _witness_expected(self, k: int):
        """Library results for `witness k | to-wo | check`; the band does
        not depend on the round, so they are computed once."""
        if k not in self.witness_expected:
            ld = self.ld
            band = ld.witness_family(k)
            w = ld.to_wo(band)
            parts = [f"width {ld.verify(w).width}"]
            if ld.tidy(w) == w:
                parts.append("tidy")
                try:
                    if ld.is_prime(w):
                        parts.append("prime")
                except ld.UnsupportedScopeError:
                    pass
            if ld.is_well_order(w.line):
                parts.append("well-order")
            self.witness_expected[k] = (band, w, ", ".join(parts))
        return self.witness_expected[k]

    def _read_doc(self, p):
        with open(p, encoding="utf-8") as f:
            return self.ld.cli.parse_document(f.read())

    def _read_plan(self, p):
        """The skeleton and the substituends keyed by (segment, offset)."""
        with open(p, encoding="utf-8") as f:
            obj = json.load(f)
        parse = self.ld.cli.parse_document
        return parse(json.dumps(obj["skeleton"])), {
            (s["cut"]["segment"], s["cut"]["offset"]): parse(json.dumps(s["decomposition"]))
            for s in obj["substituends"]}

    def check(self, item, out):
        ld, job, problems = self.ld, item.payload, []
        if "failure" in out.values:
            return [out.values["failure"]]
        if out.refusals:
            return problems
        f, stdout = job.files, out.values["stdout"]
        if job.kind == "witness":
            band, w, report = self._witness_expected(item.band)
            if self._read_doc(f["band"]) != band:
                problems.append("witness output differs from witness_family")
            if self._read_doc(f["wo"]) != w:
                problems.append("to-wo output differs from to_wo")
            if stdout[2].strip() != report:
                problems.append(f"check printed {stdout[2].strip()!r}, expected {report!r}")
            if ld.width(w) != 2 * item.band:
                problems.append(f"to-wo width {ld.width(w)} on band k={item.band}, not 2k")
        elif job.kind == "chain":
            t = self._read_doc(f["tidy"])
            if t != ld.tidy(job.source):
                problems.append("tidy output differs from tidy")
            skeleton, subs = self._read_plan(f["plan"])
            plan = ld.factor(t)
            want = {(c.segment, c.offset): s for c, s in plan.substituends.items()}
            if skeleton != plan.skeleton or subs != want:
                problems.append("factor output differs from factor")
        elif job.kind == "splits":
            d = job.source
            idx = ld.enumerate_min_splits(d)
            lines = stdout[0].splitlines()
            if idx.m is None:
                summary = "no cuts"
            else:
                lo = "-oo" if idx.lo is None else str(idx.lo)
                hi = "+oo" if idx.hi is None else str(idx.hi)
                summary = f"minimum split size {idx.m}, indexed {lo}..{hi}"
                if idx.note:
                    summary += f" ({idx.note})"
            if lines[-1] != summary:
                problems.append(f"splits summary {lines[-1]!r}, expected {summary!r}")
            if len(lines) - 1 != len(ld.enumerate_cuts(d.line, ld.split_budget(d))):
                problems.append("splits lists the wrong number of cuts")
        elif job.kind == "pathwidth":
            k, _ = ld.pathwidth_exact(job.source)
            if stdout[0].splitlines()[0] != f"pathwidth {k}":
                problems.append(f"pathwidth printed {stdout[0].splitlines()[0]!r}, exact is {k}")
        return problems

    def out_size(self, item, out):
        job = item.payload
        if out.refusals or "failure" in out.values:
            return 0
        if job.kind == "witness":
            return presentation_size(self._read_doc(job.files["wo"]))
        if job.kind == "chain":
            skeleton, subs = self._read_plan(job.files["plan"])
            return sum(map(presentation_size,
                           [self._read_doc(job.files["tidy"]), skeleton, *subs.values()]))
        return 0

    def width_excess(self, item, out):
        if item.payload.kind != "witness" or out.refusals or "failure" in out.values:
            return None
        return self.ld.width(self._read_doc(item.payload.files["wo"])) - item.band

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {"periodic": Periodic, "chain": Chain, "cli": Cli}
