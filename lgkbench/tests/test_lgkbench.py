"""Tests of the benchmark itself: python3 -m pytest lgkbench/tests -q (from the repository root)."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Job  # noqa: E402


def small_jobs(work: Path) -> list[Job]:
    root = str(ROOT)
    return workloads.quotient_job_triple("gm", str(ROOT / "specs" / "goldenmean.json"), str(work)) + [
        Job("dyck2-invariants", ("invariants", "--spec", "specs/dyck2.json", "--depth", "4", "--format", "json"), root),
        Job("dyck2-verify", ("verify", "--spec", "specs/dyck2.json", "--depth", "4"), root),
        Job("dyck2-flow", ("flowcheck", "--spec", "specs/dyck2.json", "--depth", "2", "--expand", "a1"), root),
    ]


def hashes(result: dict) -> list[tuple]:
    return [(r["id"], r["rc"], r["stdout"], r.get("out")) for r in result["jobs"]]


def test_generator_is_deterministic_per_seed(tmp_path):
    costs = workloads.load_goldens()["quotient_cost_s"]
    assert workloads.pool() == workloads.pool()
    assert workloads.draw(7, costs) == workloads.draw(7, costs)
    assert workloads.draw(7, costs) != workloads.draw(8, costs)
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    workloads.quotient_jobs(ROOT, 7, first)
    workloads.quotient_jobs(ROOT, 7, second)
    files = sorted(p.name for p in first.iterdir())
    assert len(files) == workloads.DRAWN
    assert files == sorted(p.name for p in second.iterdir())
    assert all((first / f).read_bytes() == (second / f).read_bytes() for f in files)


def test_generator_imports_no_lgk():
    code = f"import sys; sys.path.insert(0, {str(BENCH)!r}); import workloads; workloads.pool(); print(any(m == 'lgk' or m.startswith('lgk.') for m in sys.modules))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def test_strata_cover_the_pool_once():
    costs = workloads.load_goldens()["quotient_cost_s"]
    strata = workloads.strata(costs)
    assert len(strata) == workloads.DRAWN
    assert sorted(n for s in strata for n in s) == sorted(costs)


def test_golden_check_flags_a_wrong_hash():
    record = {"id": "j", "rc": 0, "stdout": "a" * 64, "wall_s": 1.0, "cpu_s": 1.0}
    golden = {"j": {"rc": 0, "stdout": "a" * 64}}
    assert run.mismatches([record], golden) == []
    assert run.mismatches([{**record, "stdout": "b" * 64}], golden) == ["j"]
    assert run.mismatches([{**record, "rc": 3}], golden) == ["j"]
    assert run.mismatches([{**record, "rc": "raised ValueError: x"}], golden) == ["j"]
    assert run.mismatches([{**record, "id": "unknown"}], golden) == ["unknown"]


def test_golden_check_flags_changed_generated_spec(tmp_path):
    goldens = workloads.load_goldens()
    workloads.quotient_jobs(ROOT, 3, tmp_path)
    assert run.check_inputs("quotient", tmp_path, goldens) == []
    victim = sorted(tmp_path.glob("p*.json"))[0]
    victim.write_text(victim.read_text(encoding="utf-8") + " ", encoding="utf-8")
    assert run.check_inputs("quotient", tmp_path, goldens) == [victim.stem]


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    work = tmp_path_factory.mktemp("work")
    jobs = small_jobs(work)
    plain = run.run_pass(ROOT, jobs, work)
    traced = [run.run_pass(ROOT, jobs, work, spans=work / f"spans{k}.json.gz") for k in range(2)]
    return plain, traced, work


def test_traced_and_untraced_outputs_are_identical(passes):
    plain, traced, _ = passes
    assert all(isinstance(r["rc"], int) for r in plain["jobs"])
    assert hashes(plain) == hashes(traced[0]) == hashes(traced[1])


def test_counts_repeat_exactly(passes):
    _, (first, second), _ = passes
    assert first["trace"]["calls"] == second["trace"]["calls"]
    assert first["trace"]["counters"] == second["trace"]["counters"]
    a, b = layers.per_layer(first["trace"]), layers.per_layer(second["trace"])
    counts = [n for n, m in a.items() if m["unit"] != "s"]
    assert counts and all(a[n] == b[n] for n in counts)


def test_trace_reports_every_layer_metric(passes):
    _, (first, _), work = passes
    metrics = layers.per_layer(first["trace"])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert all(units[n] == m["unit"] for n, m in metrics.items())
    assert sorted(metrics) == sorted(n for n in layers.names() if not n.startswith("trace."))
    assert layers.missing(first["trace"]) == []
    assert metrics["cli.self_s"]["value"] > 0
    assert metrics["alphabet.constructions"]["value"] > 0
    assert metrics["labeled_graph.cover_vertices"]["value"] > 0
    assert metrics["system.step_down_calls"]["value"] > 0


def test_net_self_times_take_out_tracer_cost(passes):
    _, (first, _), _ = passes
    summary = first["trace"]
    assert all(part > 0 for kind in summary["wrapper_ns"].values() for part in kind.values())
    assert summary["calls_made"]["cli.main"][1] > 0
    net = layers.net_layer_self_s(summary)
    raw = layers.per_layer(summary)
    assert all(net[layer] < raw[layers.layer_self_s(layer)]["value"] for layer in ("cli", "system", "linalg"))
    assert 0 < layers.tracer_cost_s(summary) < sum(raw[layers.layer_self_s(layer)]["value"] for layer in net)


def test_spans_name_their_parent_and_job(passes):
    import gzip

    _, _, work = passes
    with gzip.open(work / "spans0.json.gz", "rt", encoding="utf-8") as fh:
        spans = json.load(fh)
    rows = spans["rows"]
    assert spans["columns"] == ["name", "start_ns", "end_ns", "parent", "job"]
    assert spans["summary"]["calls"]["cli.main"] == len(small_jobs(work))
    roots = [r for r in rows if r[3] is None]
    assert {r[0] for r in roots} == {"cli.main"}
    for name, start, end, parent, job in rows:
        assert start <= end
        if parent is not None:
            p = rows[parent]
            assert p[1] <= start and end <= p[2] and p[4] == job


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
    assert [m["name"] for m in spec["per_layer"]] == layers.names()
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    predicted = {m for row in json.loads((BENCH / "predictions.json").read_text())["rows"] for m in row["layer_metrics"]}
    assert predicted <= set(layers.names())
