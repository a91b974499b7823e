"""Outside-in tracing of lgk: wraps module functions, records spans and counts.

Nothing in ``lgk`` changes.  :meth:`Tracer.install` replaces every public
function of each layer module, and every alias another module imported by
name (``lgk.cli.invariant_report``, ``lgk.system.predecessor_words``, ...),
with a wrapper that times the call.  Self time is a call's duration minus
the durations of the wrapped calls made inside it.  Budget words
(``_Meter.used``) are not visible from outside and are not reported.

A wrapper's own bookkeeping lands partly in the callee's self time and
partly in the caller's.  :func:`wrapper_cost_ns` measures both parts per
call, and every key also counts the traced calls it made, so a reader can
take the tracer's cost back out of any self time (see ``breakdown.py``).
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import statistics
from time import perf_counter_ns

LAYERS = (
    "alphabet",
    "dyck",
    "labeled_graph",
    "subshift",
    "flow",
    "system",
    "analysis",
    "linalg",
    "invariants",
    "serialize",
    "cli",
)

# Private functions wrapped because a per-layer metric names them.
PRIVATE = {"invariants": ("_k0_map_surjective", "_k1_map_unimodular")}

# Called up to millions of times per job: counted and timed, but not kept as
# one span per call.
HOT = frozenset(
    {
        "alphabet.Alphabet.__post_init__",
        "system.step_down",
        "system.iota_image",
        "subshift.is_admissible",
        "subshift.spec_alphabet",
        "alphabet.bracket_alphabet",
        "dyck.all_ones",
        "linalg.mat_vec",
        "linalg.shape",
    }
)

BUILDERS = frozenset(
    {
        "system.build_cantor_horizon_dyck",
        "system.build_cantor_horizon_markov_dyck",
        "system.build_from_finite_graph",
        "system.build_lambda_synchronizing",
    }
)
SNF_ENTRY = frozenset({"linalg.smith_normal_form", "linalg.snf_diagonal"})
ANALYSIS_CHECKS = frozenset(
    {
        "analysis.check_condition_I",
        "analysis.check_iota_irreducible",
        "analysis.check_lambda_irreducible",
        "analysis.check_synchronizingly_transitive",
        "analysis.is_lambda_synchronizing_system",
    }
)


def _is_traced_function(obj, module_name: str) -> bool:
    if getattr(obj, "__module__", None) != module_name or isinstance(obj, type):
        return False
    return hasattr(obj, "__code__") or hasattr(obj, "cache_info")


class Tracer:
    """Spans and counters for one interpreter; ``job`` tags what runs now."""

    def __init__(self) -> None:
        self.job = ""
        # One frame per active call: [child ns, id of the nearest recorded
        # span, key, traced calls made to HOT keys, traced calls made to others].
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.totals: dict[str, list[int]] = {}  # key -> [calls, self ns, HOT calls made, other calls made]
        self.counters: dict[str, int] = {}

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        originals: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"lgk.{layer}")
            names = [n for n, obj in vars(module).items() if not n.startswith("_") and _is_traced_function(obj, module.__name__)]
            names += [n for n in PRIVATE.get(layer, ()) if hasattr(module, n)]
            for name in names:
                fn = getattr(module, name)
                key = f"{layer}.{name}"
                originals[id(fn)] = (fn, self._wrap(fn, key, key in HOT))
        for name, module in list(sys.modules.items()):
            if name != "lgk" and not name.startswith("lgk."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        alphabet_cls = importlib.import_module("lgk.alphabet").Alphabet
        alphabet_cls.__post_init__ = self._wrap(alphabet_cls.__post_init__, "alphabet.Alphabet.__post_init__", True)

    def _wrap(self, fn, key: str, hot: bool):
        agg = self.totals[key] = [0, 0, 0, 0]
        stack, spans = self.stack, self.spans
        if hot:

            def traced(*args, **kwargs):
                frame = [0, stack[-1][1] if stack else None, key, 0, 0]
                stack.append(frame)
                start = perf_counter_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = perf_counter_ns() - start
                    stack.pop()
                    agg[0] += 1
                    agg[1] += duration - frame[0]
                    agg[2] += frame[3]
                    agg[3] += frame[4]
                    if stack:
                        stack[-1][0] += duration
                        stack[-1][3] += 1

        else:
            observe = _OBSERVERS.get(key)

            def traced(*args, **kwargs):
                parent = stack[-1] if stack else None
                span_id = len(spans)
                spans.append(None)  # reserve the id so children can name it
                frame = [0, span_id, key, 0, 0]
                stack.append(frame)
                start = perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter_ns()
                    stack.pop()
                    duration = end - start
                    agg[0] += 1
                    agg[1] += duration - frame[0]
                    agg[2] += frame[3]
                    agg[3] += frame[4]
                    if parent is not None:
                        parent[0] += duration
                        parent[4] += 1
                    spans[span_id] = (key, start, end, parent[1] if parent else None, self.job)
                if observe is not None:
                    observe(self, args, result, parent)
                return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- output ----------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def summary(self) -> dict:
        return {
            "calls": {key: calls for key, (calls, _, _, _) in self.totals.items()},
            "self_ns": {key: ns for key, (_, ns, _, _) in self.totals.items()},
            "calls_made": {key: [hot, other] for key, (_, _, hot, other) in self.totals.items()},
            "counters": dict(self.counters),
        }

    def write_spans(self, path: str, summary: dict) -> None:
        """Spans as column names and rows (ids are row numbers), with the summary."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            rows = {"columns": ["name", "start_ns", "end_ns", "parent", "job"], "rows": self.spans}
            json.dump({**rows, "summary": summary}, fh)


# -- the tracer's own cost ------------------------------------------------


def _noop():
    return None


def _loop(fn, calls: int) -> None:
    for _ in range(calls):
        fn()


COST_CALLS = 20_000
COST_REPEATS = 7


def wrapper_cost_ns() -> dict:
    """Nanoseconds one traced call adds, by wrapper kind, medians over ``COST_REPEATS``.

    A traced loop calls a wrapped no-op ``COST_CALLS`` times.  ``callee`` is the
    no-op's self time per call: all of it is the wrapper's, save the call
    itself.  ``caller`` is how much more self time the loop gets per call
    than the same loop calling the bare no-op.
    """
    samples: dict[str, dict[str, list[float]]] = {}
    for kind, hot in (("hot", True), ("span", False)):
        for _ in range(COST_REPEATS):
            probe = Tracer()
            inner = probe._wrap(_noop, "probe.inner", hot)
            probe._wrap(_loop, "probe.outer", False)(inner, COST_CALLS)
            start = perf_counter_ns()
            _loop(_noop, COST_CALLS)
            bare = perf_counter_ns() - start
            got = samples.setdefault(kind, {"caller": [], "callee": []})
            got["caller"].append((probe.totals["probe.outer"][1] - bare) / COST_CALLS)
            got["callee"].append(probe.totals["probe.inner"][1] / COST_CALLS)
    return {kind: {part: statistics.median(v) for part, v in parts.items()} for kind, parts in samples.items()}


# -- counters derived from arguments and results -------------------------


def _inside(parent, keys: frozenset) -> bool:
    return parent is not None and parent[2] in keys


def _system_size(tracer: Tracer, args, result, parent) -> None:
    if any(frame[2] in BUILDERS for frame in tracer.stack):
        return
    tracer.count("system.vertices", sum(level.size for level in result.levels))
    tracer.count("system.edges", sum(len(layer) for layer in result.edges))


def _matrix_entries(tracer: Tracer, args, result, parent) -> None:
    sizes = result.sizes
    tracer.count("system.matrix_entries", sum(sizes[l] * sizes[l + 1] for l in range(len(sizes) - 1)))


def _snf(tracer: Tracer, args, result, parent) -> None:
    if _inside(parent, frozenset({"linalg.snf_diagonal"})):
        tracer.count("linalg.snf_fallbacks")
        return
    matrix = args[0]
    tracer.count("linalg.snf_calls")
    tracer.count("linalg.snf_input_entries", len(matrix) * (len(matrix[0]) if matrix else 0))


def _cover(tracer: Tracer, args, result, parent) -> None:
    tracer.count("labeled_graph.cover_vertices", len(args[0].vertices))


def _classes(tracer: Tracer, args, result, parent) -> None:
    tracer.count("subshift.classes", len(result))


def _verdict(tracer: Tracer, args, result, parent) -> None:
    if result.is_unknown and not _inside(parent, ANALYSIS_CHECKS):
        tracer.count("analysis.unknown_verdicts")


def _output(tracer: Tracer, args, result, parent) -> None:
    tracer.count("serialize.output_bytes", len(result.encode("utf-8")))


_OBSERVERS = {
    **{key: _system_size for key in BUILDERS},
    **{key: _snf for key in SNF_ENTRY},
    **{key: _verdict for key in ANALYSIS_CHECKS},
    "system.transition_matrices": _matrix_entries,
    "labeled_graph.past_partition": _cover,
    "subshift.synchronizing_classes": _classes,
    "serialize.dumps": _output,
}
