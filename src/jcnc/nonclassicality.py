"""Beam-splitter nonclassicality machinery.

A balanced beam splitter mixes a single-mode state with a vacuum ancilla of
the same dimension; the negativity of the two-mode output quantifies the
input's nonclassicality (its entanglement potential). Reduced single-mode
outputs retain residual nonclassicality, which further beam-splitter layers
deplete; the cascade sums per-layer potentials into running totals. Every
function acts on state stacks, so a cascade layer is one stack over time
points.

A layer takes one of two paths, chosen per stack. A stack with no nonzero
off-diagonal entry in any matrix (exactly Fock-diagonal, as the reduced
states of cases A, B and C are) takes the photon-number path: its
potential comes from the blocks of the output's partial transpose, one per
photon difference and at most `d` wide, built from the Fock weights, and
its thinned state is the binomial thinning of those weights, so no
two-mode output is formed. Any other stack takes the dense path: the
`d^2`-wide splitter output, its partial-transpose spectrum and its partial
trace.
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
    _block_eigvalsh,
    _negative_sum,
    dagger,
    hermitian_eigenvalues,
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


@lru_cache(maxsize=None)
def _photon_difference_tables(d: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """For each photon difference delta = 0..d-1, the (weight index,
    coefficient) arrays of shape (d - delta, d - delta) that build the block
    M_delta from Fock weights p as p[index] * coefficient. An entry whose
    photon number n reaches d is zero: its coefficient is 0, and its index
    is clipped to d - 1."""
    tables = []
    for delta in range(d):
        k = np.arange(delta, d)   # mode photons; the ancilla holds k - delta
        n = k[:, None] + k[None, :] - delta
        coef = np.zeros(n.shape)
        for (i, j), m in np.ndenumerate(n):
            if m < d:
                coef[i, j] = math.sqrt(math.comb(m, k[i]) * math.comb(m, k[j])) / 2**m
        index = np.minimum(n, d - 1)
        for a in (index, coef):
            a.setflags(write=False)
        tables.append((index, coef))
    return tuple(tables)


def photon_difference_blocks(weights: np.ndarray) -> tuple[np.ndarray, ...]:
    """The partial transpose, over the ancilla, of the splitter output of
    the Fock-diagonal state with weights p (shape (..., d)), as its blocks
    M_delta for delta = n_mode - n_ancilla = 0..d-1.

    The output conserves photon number, so its partial transpose conserves
    the difference delta. In block delta, between |k, k-delta> and
    |k', k'-delta>, the entry is p_n sqrt(C(n, k) C(n, k')) / 2^n times the
    phase i^(k-k'), with n = k + k' - delta, and zero for n >= d. The
    diagonal similarity i^k removes that phase, which leaves the spectrum
    alone, so M_delta is that real symmetric matrix, of width d - delta.
    Swapping the two modes maps block -delta onto block delta, so
    M_-delta = M_delta.
    """
    p = np.asarray(weights, dtype=float)
    return tuple(p[..., index] * coef for index, coef in _photon_difference_tables(p.shape[-1]))


@lru_cache(maxsize=None)
def _thinning_matrix(d: int) -> np.ndarray:
    """B[n, k] = C(n, k) / 2^n: the probability that k of n photons stay in
    the mode."""
    b = np.array([[math.comb(n, k) / 2**n for k in range(d)] for n in range(d)])
    b.setflags(write=False)
    return b


def binomial_thinning(weights: np.ndarray) -> np.ndarray:
    """Fock weights p B (shape (..., d)) of either reduced output of the
    splitter, for the Fock-diagonal input with weights p."""
    p = np.asarray(weights, dtype=float)
    return p @ _thinning_matrix(p.shape[-1])


def _fock_weights(rho_mode: DensityOperator) -> np.ndarray | None:
    """The Fock weights of a stack with no nonzero off-diagonal entry in
    any matrix, else None; the test has no tolerance, as in the block
    solver."""
    m = rho_mode.matrix
    if np.any(m[..., ~np.eye(m.shape[-1], dtype=bool)]):
        return None
    return np.diagonal(m, axis1=-2, axis2=-1).real


def _layer(rho_mode: DensityOperator, thin: bool):
    """One beam-splitter layer: the potential of each matrix of the stack,
    and, when `thin`, the thinned state the next layer starts from (else
    None)."""
    if len(rho_mode.layout.subsystems) != 1:
        raise DimensionError("a beam-splitter layer expects a single-mode state")
    p = _fock_weights(rho_mode)
    if p is None:
        out = bs_output(rho_mode)
        potential = negativity(out, out.layout.labels[1])
        child = partial_trace(out, {out.layout.labels[0]}) if thin else None
        return potential, child
    # blocks of size 1 and 2 take their closed forms directly; larger ones
    # pass the hermiticity check of hermitian_eigenvalues on the way
    negative = [
        _negative_sum(_block_eigvalsh(b) if b.shape[-1] <= 2 else hermitian_eigenvalues(b))
        for b in photon_difference_blocks(p)
    ]
    # each block delta > 0 stands for itself and for block -delta
    potential = (negative[0] + 2 * sum(negative[1:]))[()]
    child = None
    if thin:
        thinned = binomial_thinning(p)
        child = DensityOperator(rho_mode.layout, thinned[..., None] * np.eye(p.shape[-1]))
    return potential, child


def entanglement_potential(rho_mode: DensityOperator):
    """Negativity across the beam-splitter output bipartition, on the
    photon-number path for an exactly Fock-diagonal stack."""
    return _layer(rho_mode, thin=False)[0]


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
        potential, state = _layer(state, thin=depth < layers)
        potentials.append(potential)
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
