"""Beam-splitter nonclassicality machinery.

A balanced beam splitter mixes a single-mode state with a vacuum ancilla of
the same dimension; the negativity of the two-mode output quantifies the
input's nonclassicality (its entanglement potential). Reduced single-mode
outputs retain residual nonclassicality, which further beam-splitter layers
deplete; the cascade sums per-layer potentials into running totals. Every
function acts on state stacks, so a cascade layer is one stack over time
points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hilbert import (
    DensityOperator,
    DimensionError,
    ModeLayout,
    dagger,
    negativity,
    partial_trace,
)

MAX_CASCADE_LAYERS = 6

# Fraction of a layer's potential left in the next layer, behind N_tot_inf:
# two branches times the observed ~1/5 per-branch depletion.
DEPLETION_RATIO = 2.0 / 5.0


@lru_cache(maxsize=None)
def beam_splitter_columns(d: int) -> np.ndarray:
    """Vacuum-ancilla columns of exp(-i (pi/4) (a^dag b + a b^dag)) on
    mode (x) ancilla, both dim d: the d^2 x d matrix whose column n is the
    image of |n, 0>, from its closed form

        |n, 0> -> sum_k sqrt(C(n, k) / 2^n) (-i)^(n-k) |k, n-k>.

    Photon number is conserved, so a vacuum ancilla never overflows the
    truncation, and each column is exactly zero outside its photon number.
    Sign convention: |1,0> -> (|1,0> - i|0,1>)/sqrt(2), vacuum fixed.
    """
    if d < 2:
        raise DimensionError(f"beam splitter needs dim >= 2, got {d}")
    phase = (1, -1j, -1, 1j)   # (-i)^m by m mod 4, exactly
    u0 = np.zeros((d, d, d), dtype=complex)   # (mode k, ancilla n-k, input n)
    for n in range(d):
        for k in range(n + 1):
            u0[k, n - k, n] = math.sqrt(math.comb(n, k) / 2**n) * phase[(n - k) % 4]
    u0 = u0.reshape(d * d, d)
    u0.setflags(write=False)
    return u0


def bs_output(rho_mode: DensityOperator) -> DensityOperator:
    """Mix a single-mode state stack with a same-dimension vacuum ancilla."""
    if len(rho_mode.layout.subsystems) != 1:
        raise DimensionError("bs_output expects a single-mode state")
    label, d = rho_mode.layout.subsystems[0]
    # the ancilla is vacuum, so only the unitary's columns |n, 0> act
    u0 = beam_splitter_columns(d)
    out = u0 @ rho_mode.matrix @ dagger(u0)
    out = 0.5 * (out + dagger(out))
    layout = ModeLayout(((label, d), (label + "0", d)))
    return DensityOperator(layout, out)


def entanglement_potential(rho_mode: DensityOperator):
    """Negativity across the beam-splitter output bipartition."""
    out = bs_output(rho_mode)
    return negativity(out, out.layout.labels[1])


@dataclass(frozen=True)
class CascadeReport:
    """Per-layer potentials for one subsystem's cascade.

    `potentials[n]` is the potential that each of layer n+1's 2^n branches
    carries, and `layer_sums[n]` their sum; both have the batch shape of the
    input stack.
    """

    subsystem: str
    potentials: tuple[np.ndarray, ...]
    layer_sums: tuple[np.ndarray, ...]


def cascade(rho_mode: DensityOperator, layers: int) -> CascadeReport:
    """Beam-splitter cascade on a single-mode state stack.

    Layer l has 2^(l-1) branches, and all of them carry one potential. Both
    reduced outputs of a balanced splitter with a vacuum ancilla are the
    same pure-loss channel at transmissivity 1/2, the ancilla's up to the
    local phase rotation exp(-i pi n/2), which leaves the potential
    unchanged. So each layer is one beam-splitter output, of the state
    thinned by every layer before it, and its sum is 2^(l-1) times the
    output's potential.
    """
    if layers < 1:
        raise ValueError(f"need at least one layer, got {layers}")
    if layers > MAX_CASCADE_LAYERS:
        raise ValueError(f"{layers} layers exceeds the {MAX_CASCADE_LAYERS}-layer guard")
    state = rho_mode
    potentials = []
    for depth in range(1, layers + 1):
        out = bs_output(state)
        potentials.append(negativity(out, out.layout.labels[1]))
        if depth < layers:
            state = partial_trace(out, {out.layout.labels[0]})
    sums = tuple(2 ** n * p for n, p in enumerate(potentials))
    return CascadeReport(rho_mode.layout.labels[0], tuple(potentials), sums)


def total_nonclassicality(
    N_c: float, field_report: CascadeReport, atom_report: CascadeReport, layer: int
) -> float:
    """Correlation negativity plus every layer sum through `layer`."""
    if layer < 1:
        raise ValueError(f"layer must be >= 1, got {layer}")
    for report in (field_report, atom_report):
        if len(report.layer_sums) < layer:
            raise ValueError(
                f"cascade for {report.subsystem!r} has {len(report.layer_sums)} "
                f"layers, need {layer}"
            )
    return N_c + sum(
        field_report.layer_sums[n] + atom_report.layer_sums[n] for n in range(layer)
    )


def extrapolate_total(N_c: float, N_f: float, N_a: float) -> float:
    """Geometric-series limit of the cascade totals at DEPLETION_RATIO."""
    return N_c + (N_f + N_a) / (1.0 - DEPLETION_RATIO)


def depletion_ratios(report: CascadeReport, floor: float = 1e-3) -> list[float]:
    """Child/parent potential ratio of each layer pair whose parent exceeds
    floor, for the report of a single state; every branch shares it."""
    if len(report.potentials) < 2:
        raise ValueError("depletion ratios need at least two layers")
    if np.ndim(report.potentials[0]) != 0:
        raise ValueError("depletion ratios need the report of a single state")
    pairs = zip(report.potentials, report.potentials[1:])
    return [child / parent for parent, child in pairs if parent > floor]
