"""Generalized Frame-Stewart numbers and verified Tower of Hanoi plans.

The number side: ``gfs_oracle``/``gfs_fast``/``gfs_prefix`` compute the
recursively defined move counts for arbitrary positive parameter pairs,
``smooth_stream`` exposes the underlying difference sequence, and
``split_indices`` the positions where the optimal split advances.

The puzzle side: planners for complete graphs, the three-peg path, and
stars, plus ``validate_plan`` and a ``bfs_optimal`` ground-truth search.
"""

# Each submodule and the public names it owns.  A name loads its module on
# first use, so importing the package (and every CLI child) loads none.
_EXPORTS = {
    "gfs": ("GfsTable", "classic_params", "constant_case_closed_form", "gfs_diff",
            "gfs_fast", "gfs_oracle", "gfs_prefix", "optimal_split"),
    "hanoi": ("Move", "MovePlan", "PegGraph", "ReplayReport", "bfs_optimal", "plan_complete",
              "plan_path3", "plan_star", "star_params", "validate_plan"),
    "planfile": ("graph_by_name", "parse_graph_spec", "parse_plan", "serialize_plan"),
    "smooth": ("DEFAULT_STATE_BUDGET", "BudgetError", "ParameterError", "ParseError", "Params",
               "SmoothTerm", "UnsupportedRegimeError", "constant_p_term", "smooth_iter",
               "smooth_stream", "split_index_iter", "split_indices", "split_indices_up_to"),
    "verify": ("run_suite",),
}

__version__ = "0.1.0"

__all__ = sorted(name for names in _EXPORTS.values() for name in names) + ["__version__"]


def __getattr__(name: str):
    for module, names in _EXPORTS.items():
        if name == module or name in names:
            __import__(f"{__name__}.{module}")  # binds the submodule in globals()
            if name != module:  # cached, so later reads skip this hook
                globals()[name] = getattr(globals()[module], name)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    # dir() and help() list every export, loaded or not.
    return sorted({*globals(), *__all__})
