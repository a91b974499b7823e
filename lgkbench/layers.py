"""Per-layer metrics from a traced pass (``--trace 1``).

Times are self times in seconds: the time inside the named functions minus
the time of the traced calls they made.  Counts repeat exactly from run to
run.  A function that a later version of ``lgk`` no longer has contributes
nothing; ``missing`` lists such names so a silent zero can be told apart.
"""

from __future__ import annotations

from tracer import BUILDERS, HOT, LAYERS

SERIALIZE_OUT = (
    "dumps", "spec_dumps", "spec_to_payload", "system_dumps", "system_to_payload",
    "report_dumps", "report_to_payload", "group_payload", "verdict_payload", "export_dot",
)
SERIALIZE_IN = ("spec_loads", "spec_from_payload", "system_loads", "system_from_payload")

# metric name -> traced functions whose self times it sums
SELF_TIMES = {
    "subshift.census_s": ["subshift.synchronizing_classes"],
    "subshift.predecessor_words_s": ["subshift.predecessor_words"],
    "subshift.is_admissible_s": ["subshift.is_admissible"],
    "subshift.is_synchronizing_s": ["subshift.is_synchronizing"],
    "subshift.sft_cover_s": ["subshift.sft_cover"],
    "labeled_graph.past_partition_s": ["labeled_graph.past_partition"],
    "dyck.state_words_s": ["dyck.state_words"],
    "system.build_s": sorted(BUILDERS),
    "system.step_down_s": ["system.step_down"],
    "system.iota_image_s": ["system.iota_image"],
    "system.verify_all_s": ["system.verify_all"],
    "system.transition_matrices_s": ["system.transition_matrices"],
    "system.matrix_compat_s": ["system.matrix_compatibility_violation"],
    "analysis.iota_irreducible_s": ["analysis.check_iota_irreducible"],
    "analysis.sync_transitive_s": ["analysis.check_synchronizingly_transitive"],
    "analysis.sync_system_s": ["analysis.is_lambda_synchronizing_system"],
    "analysis.lambda_irreducible_s": ["analysis.check_lambda_irreducible"],
    "analysis.condition_I_s": ["analysis.check_condition_I"],
    "analysis.follower_equal_s": ["analysis.follower_equal"],
    "linalg.snf_s": ["linalg.smith_normal_form", "linalg.snf_diagonal", "linalg.cokernel", "linalg.kernel_group"],
    "linalg.lattice_contains_s": ["linalg.lattice_contains"],
    "linalg.mat_mul_s": ["linalg.mat_mul"],
    "linalg.mat_vec_s": ["linalg.mat_vec"],
    "linalg.kernel_solve_s": ["linalg.kernel_basis", "linalg.solve_integer", "linalg.is_unimodular", "linalg.det_int"],
    "invariants.level_groups_s": ["invariants.level_groups"],
    "invariants.connecting_map_check_s": ["invariants.connecting_map_check"],
    "invariants.stabilization_s": ["invariants._k0_map_surjective", "invariants._k1_map_unimodular"],
    "invariants.compare_reports_s": ["invariants.compare_reports"],
    "flow.expand_spec_s": ["flow.expand_spec"],
    "serialize.dumps_s": [f"serialize.{n}" for n in SERIALIZE_OUT],
    "serialize.loads_s": [f"serialize.{n}" for n in SERIALIZE_IN],
}

# metric name -> traced function whose calls it counts
CALLS = {
    "alphabet.constructions": "alphabet.Alphabet.__post_init__",
    "subshift.predecessor_words_calls": "subshift.predecessor_words",
    "subshift.is_admissible_calls": "subshift.is_admissible",
    "system.step_down_calls": "system.step_down",
    "linalg.lattice_contains_calls": "linalg.lattice_contains",
    # the rest of the HOT keys, whose wrapper cost dominates the tracer's
    "system.iota_image_calls": "system.iota_image",
    "subshift.spec_alphabet_calls": "subshift.spec_alphabet",
    "alphabet.bracket_alphabet_calls": "alphabet.bracket_alphabet",
    "dyck.all_ones_calls": "dyck.all_ones",
    "linalg.mat_vec_calls": "linalg.mat_vec",
    "linalg.shape_calls": "linalg.shape",
}

# counters the tracer derives from arguments and results
COUNTERS = (
    "subshift.classes",
    "labeled_graph.cover_vertices",
    "system.vertices",
    "system.edges",
    "system.matrix_entries",
    "analysis.unknown_verdicts",
    "linalg.snf_calls",
    "linalg.snf_fallbacks",
    "linalg.snf_input_entries",
    "serialize.output_bytes",
)
UNITS = {"serialize.output_bytes": "bytes"}


def layer_self_s(layer: str) -> str:
    return f"{layer}.self_s"


def names() -> list[str]:
    """Every per-layer metric a traced run reports, in output order."""
    totals = [layer_self_s(layer) for layer in LAYERS]
    return totals + list(SELF_TIMES) + list(CALLS) + list(COUNTERS) + ["trace.wall_s", "trace.overhead_s"]


def missing(summary: dict) -> list[str]:
    wanted = [k for keys in SELF_TIMES.values() for k in keys] + list(CALLS.values())
    return sorted(k for k in wanted if k not in summary["calls"])


def per_layer(summary: dict) -> dict:
    """Metrics of one traced pass, without the two ``trace.*`` entries."""
    self_ns, calls, counters = summary["self_ns"], summary["calls"], summary["counters"]
    out: dict[str, dict] = {}
    for layer in LAYERS:
        ns = sum(v for k, v in self_ns.items() if _layer_of(k) == layer)
        out[layer_self_s(layer)] = {"value": ns / 1e9, "unit": "s"}
    for name, keys in SELF_TIMES.items():
        out[name] = {"value": sum(self_ns.get(k, 0) for k in keys) / 1e9, "unit": "s"}
    for name, key in CALLS.items():
        out[name] = {"value": calls.get(key, 0), "unit": "count"}
    for name in COUNTERS:
        out[name] = {"value": counters.get(name, 0), "unit": UNITS.get(name, "count")}
    return out


def _layer_of(key: str) -> str:
    return key.split(".")[0]


def net_layer_self_s(summary: dict) -> dict[str, float]:
    """Per-layer self seconds with the tracer's measured cost taken out.

    Each call is charged the wrapper's ``callee`` cost in its own self time
    and the ``caller`` cost in the self time of the traced function that made
    it (``tracer.wrapper_cost_ns``).
    """
    cost = summary["wrapper_ns"]
    net = dict.fromkeys(LAYERS, 0.0)
    for key, ns in summary["self_ns"].items():
        hot, other = summary["calls_made"][key]
        kind = "hot" if key in HOT else "span"
        ns -= summary["calls"][key] * cost[kind]["callee"]
        ns -= hot * cost["hot"]["caller"] + other * cost["span"]["caller"]
        net[_layer_of(key)] += ns / 1e9
    return net


def tracer_cost_s(summary: dict) -> float:
    """Estimated seconds the wrappers added to a traced pass."""
    return sum(summary["self_ns"].values()) / 1e9 - sum(net_layer_self_s(summary).values())
