"""Beam-splitter nonclassicality machinery.

A balanced beam splitter mixes a single-mode state with a vacuum ancilla of
the same dimension; the negativity of the two-mode output quantifies the
input's nonclassicality (its entanglement potential). Reduced single-mode
outputs retain residual nonclassicality, which further beam-splitter layers
deplete; the cascade tracks every branch independently and sums per-layer
potentials into running totals. Every function acts on state stacks, so a
cascade layer is one stack over (time points, branches).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hilbert import (
    DensityOperator,
    DimensionError,
    ModeLayout,
    annihilation,
    dagger,
    negativity,
    partial_trace,
)

MAX_CASCADE_LAYERS = 6

# Fraction of a layer's potential left in the next layer, behind N_tot_inf:
# two branches times the observed ~1/5 per-branch depletion.
DEPLETION_RATIO = 2.0 / 5.0


@lru_cache(maxsize=None)
def beam_splitter_unitary(d: int) -> np.ndarray:
    """exp(-i (pi/4) (a^dag b + a b^dag)) on mode (x) ancilla, both dim d.

    The generator commutes with total photon number, so vacuum-ancilla
    inputs never overflow the truncation. Sign convention:
    |1,0> -> (|1,0> - i|0,1>)/sqrt(2), vacuum fixed.
    """
    if d < 2:
        raise DimensionError(f"beam splitter needs dim >= 2, got {d}")
    a = annihilation(d)
    gen = np.kron(a.conj().T, a) + np.kron(a, a.conj().T)
    w, v = np.linalg.eigh(gen)
    u = (v * np.exp(-1j * (np.pi / 4) * w)) @ v.conj().T
    u.setflags(write=False)
    return u


def bs_output(rho_mode: DensityOperator) -> DensityOperator:
    """Mix a single-mode state stack with a same-dimension vacuum ancilla."""
    if len(rho_mode.layout.subsystems) != 1:
        raise DimensionError("bs_output expects a single-mode state")
    label, d = rho_mode.layout.subsystems[0]
    # the ancilla is vacuum, so only the unitary's columns |n, 0> act
    u0 = beam_splitter_unitary(d)[:, ::d]
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
    """Per-layer branch potentials for one subsystem's cascade.

    Layer n holds 2^(n-1) branch potentials along its last axis, after the
    batch axes of the input stack; the children of branch i in layer n sit
    at positions 2i and 2i+1 of layer n+1. Layer sums have the batch shape.
    """

    subsystem: str
    layers: tuple[np.ndarray, ...]
    layer_sums: tuple[np.ndarray, ...]

    def __post_init__(self):
        for n, layer in enumerate(self.layers):
            width = np.shape(layer)[-1]
            if width != 2**n:
                raise ValueError(f"layer {n + 1} has {width} entries, expected {2**n}")


def cascade(rho_mode: DensityOperator, layers: int) -> CascadeReport:
    """Beam-splitter cascade on a single-mode state stack.

    Each layer is one stack: one beam-splitter output per branch gives the
    layer's potentials, and its two reduced states are the branch's
    children in the next layer. Branches are computed independently, never
    assumed symmetric.
    """
    if layers < 1:
        raise ValueError(f"need at least one layer, got {layers}")
    if layers > MAX_CASCADE_LAYERS:
        raise ValueError(
            f"{layers} layers exceeds the {MAX_CASCADE_LAYERS}-layer guard "
            f"(2^layers eigenproblems of size dim^2)"
        )
    batch = rho_mode.matrix.shape[:-2]
    states = rho_mode
    all_layers = []
    for depth in range(1, layers + 1):
        out = bs_output(states)
        all_layers.append(negativity(out, out.layout.labels[1]).reshape(batch + (-1,)))
        if depth == layers:
            break
        # Each layer adds one branch axis of size 2 (mode kept, ancilla
        # kept), so row-major branch order puts branch i's children at 2i
        # and 2i+1.
        states = DensityOperator.stack([partial_trace(out, {kept}) for kept in out.layout.labels])
    # Python's sum adds the branches in order, elementwise over the batch
    sums = tuple(sum(np.moveaxis(layer, -1, 0)) for layer in all_layers)
    return CascadeReport(rho_mode.layout.labels[0], tuple(all_layers), sums)


def total_nonclassicality(
    N_c: float, field_report: CascadeReport, atom_report: CascadeReport, layer: int
) -> float:
    """Correlation negativity plus every branch potential through `layer`."""
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
    """Per-branch child/parent potential ratios where the parent exceeds floor,
    for the report of a single state."""
    if len(report.layers) < 2:
        raise ValueError("depletion ratios need at least two layers")
    if np.ndim(report.layers[0]) != 1:
        raise ValueError("depletion ratios need the report of a single state")
    ratios = []
    for n in range(len(report.layers) - 1):
        parents = report.layers[n]
        children = report.layers[n + 1]
        for i, parent in enumerate(parents):
            if parent > floor:
                ratios.append(children[2 * i] / parent)
                ratios.append(children[2 * i + 1] / parent)
    return ratios
