"""Jaynes-Cummings nonclassicality toolkit.

Simulates the resonant Jaynes-Cummings model on truncated Fock spaces and
quantifies atom-field correlation (negativity), single-mode nonclassicality
(entanglement potential at a balanced beam splitter), and the residual
nonclassicality depleted by cascaded beam-splitter layers.
"""

from .hilbert import (
    DensityOperator,
    ModeLayout,
    StateVector,
    hermitian_eigenvalues,
    l1_coherence,
    negativity,
    partial_trace,
    partial_transpose,
    tensor,
)
from .engine import (
    ScenarioCase,
    evolve,
    initial_state,
    reduced_states,
    truncated_coherent,
    truncated_thermal,
)
from .nonclassicality import (
    CascadeReport,
    cascade,
    depletion_ratios,
    extrapolate_total,
    total_nonclassicality,
)

__all__ = [
    "DensityOperator",
    "ModeLayout",
    "StateVector",
    "hermitian_eigenvalues",
    "l1_coherence",
    "negativity",
    "partial_trace",
    "partial_transpose",
    "tensor",
    "ScenarioCase",
    "evolve",
    "initial_state",
    "reduced_states",
    "truncated_coherent",
    "truncated_thermal",
    "CascadeReport",
    "cascade",
    "depletion_ratios",
    "extrapolate_total",
    "total_nonclassicality",
    "ScenarioConfig",
    "compare_with_oracle",
    "parse_config",
    "run_scenario",
    "write_outputs",
]

__version__ = "0.1.0"

# The runner is loaded on first use, not here: `python -m jcnc.cli` imports
# this package before it runs jcnc.cli as __main__, and a jcnc.cli already
# in sys.modules by then makes runpy warn.
_CLI_NAMES = frozenset(
    {"ScenarioConfig", "compare_with_oracle", "parse_config", "run_scenario", "write_outputs"}
)


def __getattr__(name):
    if name in _CLI_NAMES:
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
