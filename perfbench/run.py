"""Benchmark of the linedecomp package: one workload per invocation.

    python3 perfbench/run.py --workload periodic --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
One process, one thread, a closed loop with one caller: each input starts
after the previous one has finished.  Set-up (importing the package and
building the inputs) is repeated SETUP_REPEATS times and reported as a
median.  The timed loop then runs whole rounds (see workloads.py) until the
inputs have been busy for at least --seconds, in scaled time (below), so
the number of rounds depends on the code's speed and not on the machine's.
Every output is checked after its input's timer stops.

Shared virtual machines change speed under the benchmark: on a 2-vCPU VM
with neighbours, a fixed pure-Python loop ran anywhere from 44 to 83 ms
within one minute, and whole runs of the same inputs differed by 20% in
throughput.  So before each input, outside its
timer, the benchmark times a fixed reference loop, and every reported time
of the timed loop is scaled by REFERENCE_NOMINAL_S / (median reference time
of the loop): the time the input would take on a machine where the
reference loop takes the nominal time.  Set-up time is scaled the same way
by the reference loops timed between the set-ups.  Throughput of the cli workload then varied by about 5% between runs
instead of 20%.  The raw wall-clock figures are printed above the JSON.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 the package is wrapped by tracer.py and the object
holds the per-layer metrics, each per round.  Spans go to
``.bench_out/spans-<workload>.jsonl``.  Lines before the JSON are for
people: metric table, refusal tally, and each failed input with its seed,
round and index.
"""

from __future__ import annotations

import argparse
import collections
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

import tracer as tracing
import workloads

SETUP_REPEATS = 7
OUT_DIR = ".bench_out"
REFERENCE_ITERATIONS = 20_000
REFERENCE_NOMINAL_S = 0.0015


def reference_loop() -> float:
    """Seconds for a fixed amount of pure-Python work: the machine's speed."""
    start = time.perf_counter()
    s = 0
    for i in range(REFERENCE_ITERATIONS):
        s += i * i % 7
    return time.perf_counter() - start


def package_src():
    """``src`` of the checkout in the working directory, put first on
    sys.path; None (after saying why) when there is no package there."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "linedecomp", "__init__.py")):
        print(f"error: no package at {src}/linedecomp; run from the repository root",
              file=sys.stderr)
        return None
    sys.path.insert(0, src)
    return src


def import_package(src: str):
    """Import linedecomp afresh from src, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "linedecomp" or m.startswith("linedecomp.")]:
        del sys.modules[name]
    ld = importlib.import_module("linedecomp")
    importlib.import_module("linedecomp.cli")
    if not os.path.abspath(ld.__file__).startswith(src + os.sep):
        raise ImportError(f"linedecomp was imported from {ld.__file__}, not {src}")
    return ld


def set_up(name: str, seed: int, src: str):
    """Build the workload SETUP_REPEATS times and keep the last.  Returns
    it with the median wall time of a set-up and the factor that scales it
    (from the reference loops timed between the set-ups; see the module
    docstring)."""
    times, references, wl = [], [reference_loop()], None
    for i in range(SETUP_REPEATS):
        if wl is not None:
            wl.close()
        start = time.perf_counter()
        ld = import_package(src)
        if name == "cli":
            workdir = os.path.join(OUT_DIR, f"cli-{os.getpid()}-{i}")
            wl = workloads.Cli(ld, seed, workdir)
        else:
            wl = workloads.WORKLOADS[name](ld, seed)
        times.append(time.perf_counter() - start)
        references.append(reference_loop())
    return wl, statistics.median(times), REFERENCE_NOMINAL_S / statistics.median(references)


class Tally:
    """Everything the timed loop records."""

    def __init__(self) -> None:
        self.latencies: list[float] = []  # wall seconds per input
        self.references: list[float] = []  # reference_loop() before each input
        self.rounds = 0
        self.refused = 0
        self.failed = 0
        self.incorrect = 0
        self.out_size = 0
        self.excess: list[int] = []
        self.reasons: collections.Counter = collections.Counter()
        self.layer_reasons: collections.Counter = collections.Counter()

    @property
    def time_scale(self) -> float:
        """Factor from wall seconds to seconds at the nominal machine speed."""
        return REFERENCE_NOMINAL_S / statistics.median(self.references)


def refusal_origin(tracer, exc, message: str) -> str:
    """Layer of the innermost traced call a refusal left."""
    if exc is None:  # the CLI caught it; the tracer saw it leave the library
        exc = tracer.last_refusal
        if exc is None or str(exc) != message:
            return "cli"
    origin = getattr(exc, tracing.ORIGIN, None)
    return origin.split(".")[0] if origin else "bench"


def measure(wl, seconds: float, seed: int, tracer) -> Tally:
    tally = Tally()
    while True:
        items = wl.round(tally.rounds)
        for index, item in enumerate(items):
            error = None
            tally.references.append(reference_loop())
            if tracer:
                tracer.last_refusal = None
                tracer.active = True
            start = time.perf_counter()
            try:
                out = wl.run(item)
            except Exception:  # undocumented failure: record it and go on
                out, error = None, traceback.format_exc()
            elapsed = time.perf_counter() - start
            if tracer:
                tracer.active = False
                tracer.end_input()
            tally.latencies.append(elapsed)
            problems = [error] if error else (
                wl.refusal_problems(item, out) + wl.check(item, out))
            if out is not None:
                tally.out_size += wl.out_size(item, out)
                excess = wl.width_excess(item, out)
                if excess is not None:
                    tally.excess.append(excess)
                wl.account(item, out)
                for step, message, exc in out.refusals:
                    reason = workloads.refusal_reason(message)
                    tally.reasons[reason] += 1
                    if tracer:
                        tally.layer_reasons[
                            f"{refusal_origin(tracer, exc, message)}.refused.{reason}"] += 1
            if out is not None and out.refusals:
                tally.refused += 1
            if problems:
                tally.incorrect += 1
                for p in problems:
                    print(f"FAILED seed={seed} round={tally.rounds} index={index} "
                          f"{item.label}: {p}", flush=True)
            if problems or (out is not None and out.refusals):
                tally.failed += 1
        tally.rounds += 1
        if sum(tally.latencies) * tally.time_scale >= seconds:
            return tally


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(tally: Tally, setup: tuple) -> dict:
    scale = tally.time_scale
    lat = [t * scale for t in tally.latencies]
    n = len(lat)
    return {
        "setup_s": metric(setup[0] * setup[1], "s"),
        "inputs_per_s": metric(n / sum(lat), "1/s"),
        "latency_p50_ms": metric(statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": metric(statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "accepted_share": metric((n - tally.refused) / n, "share"),
        "out_size": metric(tally.out_size / n, "bags"),
    }


# Per-layer metrics reported by name; refusal keys not listed here are
# summed into refused.other.
REFUSAL_METRICS = ("splits.refused.no_stabilize", "splits.refused.empty_splits",
                   "wo.refused.z1_designated")


def per_layer(tally: Tally, tracer, wl) -> dict:
    r = tally.rounds
    t = tracer
    scale = tally.time_scale

    def calls(name, caller=None):
        return metric(t.count(name, caller) / r, "count/round")

    def self_ms(prefix):
        return metric(t.self_seconds(prefix) * scale * 1e3 / r, "ms/round")

    prime_s = t.outermost["prime"]
    out = {
        "line.self_ms": self_ms("line"),
        "line.compare_cuts.calls": calls("line.compare_cuts"),
        "line.normalize_cut.calls": calls("line.normalize_cut"),
        "decomposition.self_ms": self_ms("decomposition"),
        "decomposition.boundary_split.calls": calls("decomposition.boundary_split"),
        "decomposition.boundary_split.distinct_ratio": metric(
            t.split_distinct / max(1, t.count("decomposition.boundary_split")), "ratio"),
        "decomposition.shift_set.calls": calls("decomposition.shift_set"),
        "decomposition.verify.self_ms": self_ms("decomposition.verify"),
        "decomposition.tidy.self_ms": self_ms("decomposition.tidy"),
        "decomposition.slice_between.calls": calls("decomposition.slice_between"),
        "decomposition.restrict.calls": calls("decomposition.restrict"),
        "decomposition.remove_from_bags.calls": calls("decomposition.remove_from_bags"),
        "splits.windows_built": calls("line.enumerate_cuts", "splits"),
        "splits.enumerate_min_splits.calls": calls("splits.enumerate_min_splits"),
        "splits.split_bounds.calls": calls("splits.split_bounds"),
        "splits.empty_split_cuts.calls": calls("splits.empty_split_cuts"),
        "splits.self_ms": self_ms("splits"),
        "wo.to_wo.calls": calls("wo.to_wo"),
        "wo.rebuild_nodes": calls("decomposition.tidy", "wo"),
        "wo.self_ms": self_ms("wo"),
        "wo.out_width_excess": metric(
            float(statistics.mean(tally.excess)) if tally.excess else 0.0, "width"),
        "prime.self_ms": self_ms("prime"),
        "prime.verify_share": metric(
            t.seconds_in("decomposition.verify", "prime") / prime_s if prime_s else 0.0,
            "ratio"),
        "prime.is_prime.calls": calls("prime.is_prime"),
        "oracle.pathwidth_exact.calls": calls("oracle.pathwidth_exact"),
        "oracle.pathwidth_exact.self_ms": self_ms("oracle.pathwidth_exact"),
        "cli.parse_document.self_ms": self_ms("cli.parse_document"),
        "cli.emit_document.self_ms": self_ms("cli.emit_document"),
        "cli.bytes_in": metric(getattr(wl, "bytes_in", 0) / r, "B/round"),
        "cli.bytes_out": metric(getattr(wl, "bytes_out", 0) / r, "B/round"),
    }
    other = sum(n for k, n in tally.layer_reasons.items() if k not in REFUSAL_METRICS)
    for key in REFUSAL_METRICS:
        out[key] = metric(tally.layer_reasons.get(key, 0) / r, "count/round")
    out["refused.other"] = metric(other / r, "count/round")
    out["trace.inputs_per_s"] = metric(
        len(tally.latencies) / (sum(tally.latencies) * scale), "1/s")
    return out


def report(name: str, seed: int, tally: Tally, metrics: dict, setup: tuple) -> None:
    lat = tally.latencies
    n = len(lat)
    print(f"workload {name}, seed {seed}: {n} inputs in {tally.rounds} round(s), "
          f"{sum(lat):.2f} s busy")
    print(f"  reference loop median {statistics.median(tally.references) * 1e3:.3f} ms "
          f"(nominal {REFERENCE_NOMINAL_S * 1e3:.3f} ms); times below are scaled by "
          f"{tally.time_scale:.4f}")
    print(f"  wall clock: setup {setup[0]:.4f} s (scaled by {setup[1]:.4f}), "
          f"{n / sum(lat):.4f} inputs/s, "
          f"p50 {statistics.median(lat) * 1e3:.4f} ms, "
          f"p90 {statistics.quantiles(lat, n=10)[8] * 1e3:.4f} ms")
    for key, m in metrics.items():
        note = f"  (n={n})" if key.startswith("latency_") else ""
        print(f"  {key:45s} {m['value']:14.4f} {m['unit']}{note}")
    print(f"  refused_share {tally.refused / n:.4f}  failed {tally.failed}  "
          f"incorrect {tally.incorrect}")
    for reason, count in sorted(tally.reasons.items()):
        print(f"  refusals {reason}: {count}")
    for key, count in sorted(tally.layer_reasons.items()):
        print(f"  {key}: {count}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = package_src()
    if src is None:
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    wl, *setup = set_up(args.workload, args.seed, src)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    try:
        tally = measure(wl, args.seconds, args.seed, tracer)
    finally:
        wl.close()
    if tracer:
        metrics = per_layer(tally, tracer, wl)
        tracer.write_spans(os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl"))
    else:
        metrics = end_to_end(tally, setup)
    report(args.workload, args.seed, tally, metrics, setup)
    print(json.dumps({
        "correct": tally.incorrect == 0,
        "attempted": len(tally.latencies),
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
