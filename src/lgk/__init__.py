"""λ-graph systems for subshifts with exact K-theoretic invariants."""

__version__ = "0.1.0"

from .alphabet import Alphabet, Word, bracket_alphabet
from .analysis import (
    check_condition_I,
    check_iota_irreducible,
    check_lambda_irreducible,
    check_synchronizingly_transitive,
    is_lambda_synchronizing_system,
    simplicity_prediction,
)
from .flow import (
    ExpansionPlan,
    expand_labeled_graph,
    expand_sft,
    expand_spec,
    expand_word,
    plan_for,
)
from .invariants import (
    InvariantReport,
    LevelGroups,
    compare_reports,
    invariant_report,
    level_groups,
)
from .labeled_graph import LabeledGraph, from_names
from .linalg import (
    AbelianGroup,
    cokernel,
    kernel_group,
)
from .subshift import (
    Budget,
    BudgetExceeded,
    DEFAULT_BUDGET,
    DyckN,
    Expanded,
    FullShift,
    MarkovDyck,
    SftForbidden,
    SoficGraph,
    SubshiftSpec,
)
from .system import (
    ConstructionError,
    LambdaGraphSystem,
    VertexLevel,
    build_cantor_horizon_dyck,
    build_cantor_horizon_markov_dyck,
    build_lambda_synchronizing,
    canonical_form,
    verify_all,
)
from .serialize import export_dot, spec_dumps, spec_loads, system_dumps, system_loads
from .verdict import Verdict
