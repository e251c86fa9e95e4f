"""Layer tracing installed from outside the package.

`Tracer.install` replaces every traced function in the namespaces of the
`linedecomp` modules (and in the package's re-exports) with a wrapper.
Nothing under ``src/`` changes: because each module looks its globals up at
call time, a call from ``splits`` to ``boundary_split`` goes through the
wrapper bound in ``linedecomp.splits``.  Each wrapper knows which namespace
it was bound in, so a count can say who called, e.g. ``enumerate_cuts``
called from ``splits`` is one split window built.

Traced functions are the public functions each layer defines, plus every
function that another layer imports by name (``prime`` imports private
helpers of ``splits``; their time belongs to ``splits``).

A call becomes a span (id, name, start, end, parent id), kept in memory and
written out once at the end.  Functions in `AGGREGATED` run hundreds of
thousands of times per round; for them only the count and the time are
accumulated, and their children name the nearest recorded ancestor as
parent.  A layer's self time is the duration of its calls minus the time
their traced callees cover, computed as the calls return.
"""

from __future__ import annotations

import collections
import importlib
import inspect
import itertools
import json
import sys
import time

LAYERS = ("line", "decomposition", "splits", "wo", "prime", "oracle", "cli")

AGGREGATED = frozenset({
    "decomposition.boundary_split",
    "decomposition.shift_set",
    "decomposition.bag_at",
    "line.normalize_cut",
    "line.point_just_below_cut",
    "line.point_just_above_cut",
    "line.compare_cuts",
    "line.compare_points",
    "line.check_point",
    "line.check_cut",
    "line.cut_key",
})

# Attribute set on an exception by the innermost traced call it leaves.
ORIGIN = "_perfbench_origin"

# Namespace of the package's own re-exports: calls the benchmark makes.
CALLER_BENCH = "bench"


class Tracer:
    """Counts, times and spans of the traced calls made while `active`."""

    def __init__(self) -> None:
        self.active = False
        self.stack: list[list] = []  # per open call: [child seconds, span id]
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        # (name, caller) -> [calls, inclusive seconds, self seconds]
        self.stats: dict[tuple[str, str], list] = {}
        # layer -> seconds in recorded spans with no span of the layer above
        self.outermost: collections.defaultdict = collections.defaultdict(float)
        self.open_in_layer: collections.Counter = collections.Counter()
        # (id(decomposition), cut) -> decomposition, per input; the
        # decompositions are kept alive so that no id is reused in the input
        self.split_pairs: dict = {}
        self.split_distinct = 0
        self.last_refusal: BaseException | None = None
        self._ids = itertools.count(1)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap the traced functions of the imported `linedecomp` modules."""
        modules = {layer: importlib.import_module(f"linedecomp.{layer}") for layer in LAYERS}
        self._normalize_cut = modules["line"].normalize_cut
        traced: dict[int, tuple[object, str, str]] = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    imported = any(vars(other).get(attr) is obj
                                   for other in modules.values() if other is not mod)
                    if not attr.startswith("_") or imported:
                        traced[id(obj)] = (obj, f"{layer}.{attr}", layer)
        namespaces = dict(modules)
        namespaces[CALLER_BENCH] = sys.modules["linedecomp"]
        for caller, mod in namespaces.items():
            for attr, obj in list(vars(mod).items()):
                hit = traced.get(id(obj))
                if hit is not None:
                    fn, name, layer = hit
                    setattr(mod, attr, self._wrap(fn, name, layer, caller))

    def _wrap(self, fn, name: str, layer: str, caller: str):
        acc = self.stats.setdefault((name, caller), [0, 0.0, 0.0])
        pairs = self.split_pairs if name == "decomposition.boundary_split" else None
        stack, spans = self.stack, self.spans
        outermost, open_in_layer = self.outermost, self.open_in_layer
        ids, clock = self._ids, time.perf_counter

        def tag(e: Exception) -> None:
            if not hasattr(e, ORIGIN):
                setattr(e, ORIGIN, name)
                self.last_refusal = e

        def aggregated(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            hidden = 0.0  # bookkeeping time, charged to no layer
            if pairs is not None:
                mark = clock()
                pairs.setdefault((id(args[0]), args[1]), args[0])
                hidden = clock() - mark
            frame = [0.0, stack[-1][1] if stack else None]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as e:
                tag(e)
                raise
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur + hidden
                acc[0] += 1
                acc[1] += dur
                acc[2] += dur - frame[0]

        def recorded(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1][1] if stack else None
            frame = [0.0, next(ids)]
            stack.append(frame)
            open_in_layer[layer] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as e:
                tag(e)
                raise
            finally:
                end = clock()
                dur = end - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                acc[0] += 1
                acc[1] += dur
                acc[2] += dur - frame[0]
                open_in_layer[layer] -= 1
                if not open_in_layer[layer]:
                    outermost[layer] += dur
                spans.append((frame[1], name, start, end, parent))

        wrapper = aggregated if name in AGGREGATED else recorded
        wrapper.__wrapped__ = fn
        return wrapper

    # -- per input -----------------------------------------------------------

    def end_input(self) -> None:
        """Close the distinct-pair window of `boundary_split` for one input:
        count the (decomposition, cut) pairs that differ by value, with the
        cut in its canonical spelling.  Runs after the input's timer."""
        self.split_distinct += len({(d, self._normalize_cut(d.line, c))
                                    for (_, c), d in self.split_pairs.items()})
        self.split_pairs.clear()

    # -- queries -------------------------------------------------------------

    def _total(self, i: int, name: str, caller: str | None) -> float:
        return sum(acc[i] for (f, c), acc in self.stats.items()
                   if (f == name or f.split(".")[0] == name)
                   and caller in (None, c))

    def count(self, name: str, caller: str | None = None) -> int:
        """Calls of one function, from one caller's namespace or from all."""
        return self._total(0, name, caller)

    def seconds_in(self, name: str, caller: str) -> float:
        """Inclusive seconds of one function called from one namespace."""
        return self._total(1, name, caller)

    def self_seconds(self, name: str) -> float:
        """Self time of one function (``layer.name``) or of a whole layer."""
        return self._total(2, name, None)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
