"""Generalized Frame-Stewart numbers and verified Tower of Hanoi plans.

The number side: ``gfs_oracle``/``gfs_fast``/``gfs_prefix`` compute the
recursively defined move counts for arbitrary positive parameter pairs,
``smooth_stream`` exposes the underlying difference sequence, and
``split_indices`` the positions where the optimal split advances.

The puzzle side: planners for complete graphs, the three-peg path, and
stars, plus ``validate_plan`` and a ``bfs_optimal`` ground-truth search.
"""

from .gfs import (
    GfsTable,
    classic_params,
    constant_case_closed_form,
    gfs_diff,
    gfs_fast,
    gfs_oracle,
    gfs_prefix,
    optimal_split,
)
from .hanoi import (
    DEFAULT_STATE_BUDGET,
    BudgetError,
    Move,
    MovePlan,
    PegGraph,
    ReplayReport,
    bfs_optimal,
    plan_complete,
    plan_path3,
    plan_star,
    star_params,
    validate_plan,
)
from .planfile import ParseError, graph_by_name, parse_graph_spec, parse_plan, serialize_plan
from .smooth import (
    ParameterError,
    Params,
    SmoothTerm,
    UnsupportedRegimeError,
    constant_p_term,
    smooth_iter,
    smooth_stream,
    split_index_iter,
    split_indices,
    split_indices_up_to,
)
from .verify import run_suite

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "DEFAULT_STATE_BUDGET",
    "GfsTable",
    "Move",
    "MovePlan",
    "ParameterError",
    "Params",
    "ParseError",
    "PegGraph",
    "ReplayReport",
    "SmoothTerm",
    "UnsupportedRegimeError",
    "bfs_optimal",
    "classic_params",
    "constant_case_closed_form",
    "constant_p_term",
    "gfs_diff",
    "gfs_fast",
    "gfs_oracle",
    "gfs_prefix",
    "graph_by_name",
    "optimal_split",
    "parse_graph_spec",
    "parse_plan",
    "plan_complete",
    "plan_path3",
    "plan_star",
    "run_suite",
    "serialize_plan",
    "smooth_iter",
    "smooth_stream",
    "split_index_iter",
    "split_indices",
    "split_indices_up_to",
    "star_params",
    "validate_plan",
    "__version__",
]
