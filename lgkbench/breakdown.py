"""Traced per-layer breakdown of every workload, checked against predictions.json.

    python3 lgkbench/breakdown.py

Run from the repository root.  Each workload is traced twice through
``run.py --trace 1``; the counts must repeat exactly.  Writes
``breakdown.json`` and ``BREAKDOWN.md`` beside this file, listing every
prediction the measurements contradict.  Predictions are reported, not
tuned away.  The dominant layer of a workload is judged on self times with
the tracer's measured cost taken out (``layers.net_layer_self_s``).
"""

from __future__ import annotations

import gzip
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from run import WORK_DIR  # noqa: E402
import tracer  # noqa: E402
from tracer import HOT, LAYERS  # noqa: E402

WORKLOADS = ("horizon", "census", "quotient")
SHARE = 0.01  # below this share of the traced wall a time counts as negligible
BREAKDOWN_SEED = 1
TOP = 12  # functions listed by inclusive time


def traced_run(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: outputs differ from the goldens\n{done.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def load_spans(workload: str) -> dict:
    path = Path.cwd() / WORK_DIR / f"spans-{workload}-seed{BREAKDOWN_SEED}.json.gz"
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def inclusive_s(rows: list) -> list[tuple[str, float]]:
    """The ``TOP`` functions by inclusive time, from the recorded spans.

    A span nested in a span of the same function is not counted again.
    Functions kept as counts only (tracer.HOT) have no spans.
    """
    totals: dict[str, int] = {}
    for name, start, end, parent, _ in rows:
        while parent is not None and rows[parent][0] != name:
            parent = rows[parent][3]
        if parent is None:
            totals[name] = totals.get(name, 0) + end - start
    ranked = sorted(totals.items(), key=lambda kv: -kv[1])[:TOP]
    return [(name, ns / 1e9) for name, ns in ranked]


def is_time(name: str) -> bool:
    return name.endswith("_s")


def contradictions(predictions: dict, values: dict, net: dict) -> list[str]:
    found = []
    for row in predictions["rows"]:
        for name in row["layer_metrics"]:
            peak = max((values[w][name] for w in row["on"]), default=0)
            for w in row["on"]:
                v, wall = values[w][name], values[w]["trace.wall_s"]
                if v == 0 or (is_time(name) and v < SHARE * wall):
                    moves = ", ".join(f"`{m}`" for m in row["moves"])
                    found.append(f"`{name}` should move {moves} on `{w}` but is negligible there ({v:.4g})")
            for w in row["flat_on"]:
                v, wall = values[w][name], values[w]["trace.wall_s"]
                limit = SHARE * wall if is_time(name) else SHARE * peak
                if v > limit:
                    found.append(f"`{name}` should be flat on `{w}` but reads {v:.4g} there (limit {limit:.4g})")
    for w, expected in predictions["dominant_layers"].items():
        top = max(LAYERS, key=lambda layer: net[w][layer])
        if top not in expected:
            found.append(
                f"dominant layer on `{w}`, net of tracer cost, is `{top}`; "
                f"predicted one of {', '.join(f'`{x}`' for x in expected)}"
            )
    return found


def cost_lines(values: dict, summaries: dict, net: dict) -> list[str]:
    lines = ["## Tracer cost", ""]
    lines.append("Each wrapped call adds bookkeeping, split between the callee's self time and the self time")
    lines.append("of the traced function that called it. `tracer.wrapper_cost_ns` measures both parts per call")
    lines.append(
        f"in the traced pass, after its jobs (ns per call, median of {tracer.COST_REPEATS} loops of {tracer.COST_CALLS:,} calls):"
    )
    lines.append("")
    lines.append("| wrapper | workload | callee ns | caller ns |")
    lines.append("|---|---|---:|---:|")
    for kind in ("hot", "span"):
        for w in WORKLOADS:
            c = summaries[w]["wrapper_ns"][kind]
            lines.append(f"| {kind} | `{w}` | {c['callee']:.0f} | {c['caller']:.0f} |")
    lines.append("")
    lines.append("Calls of the functions kept as counts only (`tracer.HOT`):")
    lines.append("")
    lines.append("| function | " + " | ".join(WORKLOADS) + " |")
    lines.append("|---|" + "---:|" * len(WORKLOADS))
    for key in sorted(HOT):
        lines.append(f"| `{key}` | " + " | ".join(str(summaries[w]["calls"].get(key, 0)) for w in WORKLOADS) + " |")
    lines.append("")
    lines.append("Estimated tracer cost (calls times the measured cost) against the measured")
    lines.append("`trace.overhead_s` (traced minus untraced pass, which also carries run-to-run noise):")
    lines.append("")
    for w in WORKLOADS:
        lines.append(f"- `{w}`: estimated {layers.tracer_cost_s(summaries[w]):.2f} s, measured {values[w]['trace.overhead_s']:.2f} s")
    lines.append("")
    lines.append("Per-layer self seconds, as traced and net of the estimated tracer cost:")
    lines.append("")
    lines.append("| layer | " + " | ".join(f"{w} traced | {w} net" for w in WORKLOADS) + " |")
    lines.append("|---|" + "---:|" * (2 * len(WORKLOADS)))
    for layer in LAYERS:
        cells = [f"{values[w][layers.layer_self_s(layer)]:.3f} | {net[w][layer]:.3f}" for w in WORKLOADS]
        lines.append(f"| `{layer}` | " + " | ".join(cells) + " |")
    lines.append("")
    for w in WORKLOADS:
        raw = max(LAYERS, key=lambda layer: values[w][layers.layer_self_s(layer)])
        top = max(LAYERS, key=lambda layer: net[w][layer])
        lines.append(f"- `{w}`: dominant layer `{raw}` as traced, `{top}` net of tracer cost.")
    return lines


def markdown(values: dict, inclusive: dict, repeat: dict, summaries: dict, net: dict, found: list[str]) -> str:
    lines = ["# Traced breakdown", ""]
    lines.append("Generated by `python3 lgkbench/breakdown.py`; self times in seconds from one traced pass per workload.")
    lines.append("")
    lines.append("| metric | " + " | ".join(WORKLOADS) + " |")
    lines.append("|---|" + "---:|" * len(WORKLOADS))
    for name in layers.names():
        cells = [f"{values[w][name]:.4g}" if is_time(name) else str(values[w][name]) for w in WORKLOADS]
        lines.append(f"| `{name}` | " + " | ".join(cells) + " |")
    lines.append("")
    lines.append("Self times of functions that mostly call other traced functions (`connecting_map_check`,")
    lines.append("`verify_all`, the builders) are small: their cost sits in their children. Inclusive times")
    lines.append("of the spanned functions, for the same traced pass:")
    for w in WORKLOADS:
        lines.append("")
        lines.append(f"- `{w}` (traced wall {values[w]['trace.wall_s']:.2f} s): " + ", ".join(f"`{n}` {t:.2f} s" for n, t in inclusive[w]))
    lines.append("")
    lines.append("Counts repeat exactly across two traced runs: " + ", ".join(f"{w} {'yes' if ok else 'NO'}" for w, ok in repeat.items()) + ".")
    lines.append("")
    lines.extend(cost_lines(values, summaries, net))
    lines.append("")
    lines.append("## Predictions the breakdown contradicts")
    lines.append("")
    lines.extend(f"- {item}" for item in found or ["none"])
    return "\n".join(lines) + "\n"


def main() -> int:
    predictions = json.loads((HERE / "predictions.json").read_text(encoding="utf-8"))
    values, inclusive, repeat, summaries, net = {}, {}, {}, {}, {}
    for w in WORKLOADS:
        first = traced_run(w, BREAKDOWN_SEED)
        spans = load_spans(w)
        inclusive[w] = inclusive_s(spans["rows"])
        summaries[w] = spans["summary"]
        net[w] = layers.net_layer_self_s(spans["summary"])
        second = traced_run(w, BREAKDOWN_SEED)
        counts = [n for n in layers.names() if not is_time(n)]
        repeat[w] = all(first[n] == second[n] for n in counts)
        values[w] = first
        print(f"{w}: traced wall {first['trace.wall_s']:.2f} s, overhead {first['trace.overhead_s']:.2f} s", flush=True)
    found = contradictions(predictions, values, net)
    payload = {
        "seed": BREAKDOWN_SEED,
        "metrics": values,
        "net_layer_self_s": net,
        "wrapper_ns": {w: summaries[w]["wrapper_ns"] for w in WORKLOADS},
        "hot_calls": {w: {k: summaries[w]["calls"].get(k, 0) for k in sorted(HOT)} for w in WORKLOADS},
        "inclusive_s": inclusive,
        "counts_repeat": repeat,
        "contradictions": found,
    }
    (HERE / "breakdown.json").write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    (HERE / "BREAKDOWN.md").write_text(markdown(values, inclusive, repeat, summaries, net, found), encoding="utf-8")
    print("\n".join(found) or "no contradictions")
    return 0 if all(repeat.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
