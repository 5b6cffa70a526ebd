"""Beam-splitter nonclassicality machinery.

A balanced beam splitter mixes a single-mode state with a vacuum ancilla of
the same dimension; the negativity of the two-mode output quantifies the
input's nonclassicality (its entanglement potential). Reduced single-mode
outputs retain residual nonclassicality, which further beam-splitter layers
deplete; the cascade sums per-layer potentials into running totals. Every
function acts on state stacks, so a cascade layer is one stack over time
points.

The splitter enters only through one table, `B[n, k] = C(n, k) / 2^n`,
whose square roots are its amplitudes, and the output is never formed: a
layer gathers the output's partial transpose and its reduced state
straight from the input's entries. A stack with no nonzero off-diagonal
entry in any matrix (exactly Fock-diagonal, as the reduced states of
cases A, B and C are) gathers only the photon-difference blocks of that
partial transpose, at most `d` wide, and thins its weights p to p B, the
reduced state's diagonal. Any other stack gathers the whole `d^2`-wide
partial transpose and the whole reduced state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hilbert import (
    DensityOperator,
    DimensionError,
    _block_eigvalsh,
    _negative_sum,
    hermitian_eigenvalues,
)

MAX_CASCADE_LAYERS = 6

# Fraction of a layer's potential left in the next layer, behind N_tot_inf:
# two branches times the observed ~1/5 per-branch depletion.
DEPLETION_RATIO = 2.0 / 5.0


@lru_cache(maxsize=None)
def splitting_probabilities(d: int) -> np.ndarray:
    """The d x d table B[n, k] = C(n, k) / 2^n, zero for k > n: the
    probability that k of n photons stay in the mode. Its square roots are
    the splitter's amplitudes: exp(-i (pi/4) (a^dag b + a b^dag)) on
    mode (x) ancilla maps |n, 0> to sum_k sqrt(B[n, k]) (-i)^(n-k) |k, n-k>.
    Photon number is conserved, so a vacuum ancilla never overflows the
    truncation.
    """
    if d < 2:
        raise DimensionError(f"beam splitter needs dim >= 2, got {d}")
    b = np.array([[math.comb(n, k) / 2**n for k in range(d)] for n in range(d)])
    b.setflags(write=False)
    return b


def _gather(d: int, r, s, a, b) -> tuple[np.ndarray, np.ndarray]:
    """(index, coefficient) arrays, of the broadcast shape of r, s, a and b,
    that read rho[r, s] sqrt(B[r, a] B[s, b]) from a flattened d x d matrix
    as rho.ravel()[index] * coefficient; the coefficient is 0 wherever r or
    s reaches d. The product of two amplitudes is taken under one square
    root, so it is exact where the amplitudes are not, as at B = 1/2."""
    r, s, a, b = np.broadcast_arrays(r, s, a, b)
    inside = (r < d) & (s < d)
    r, s = np.minimum(r, d - 1), np.minimum(s, d - 1)
    prob = splitting_probabilities(d)
    tables = (r * d + s, np.where(inside, np.sqrt(prob[r, a] * prob[s, b]), 0.0))
    for t in tables:
        t.setflags(write=False)
    return tables


@lru_cache(maxsize=None)
def _transpose_blocks(d: int, diagonal: bool) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Gather tables of the blocks of the output's partial transpose over
    the ancilla, for a dense or an exactly Fock-diagonal input of dim d.

    With c = sqrt(B), the output's entry between |k, j> and |k', j'> is
    rho[k+j, k'+j'] c[k+j, k] c[k'+j', k'] times the phase (-i)^j i^j'. In
    the partial transpose that phase is i^j (-i)^j', the diagonal
    similarity i^j, which leaves the spectrum alone and is dropped; a dense
    input gives one d^2-wide block.

    A Fock-diagonal input's partial transpose links only states of one
    photon difference delta = k - j. Swapping the two modes maps block
    -delta onto block delta, so only delta = 0..d-1 are built, d - delta
    wide.
    """
    if not diagonal:
        k, j = np.divmod(np.arange(d * d), d)   # rows |k, j> of mode (x) ancilla
        return (_gather(d, k[:, None] + j, j[:, None] + k, k[:, None], k),)
    blocks = []
    for delta in range(d):
        k = np.arange(delta, d)   # the mode's photons; the ancilla holds k - delta
        n = k[:, None] + k - delta   # k + j' = k' + j
        blocks.append(_gather(d, n, n, k[:, None], k))
    return tuple(blocks)


@lru_cache(maxsize=None)
def _kraus_table(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather table, axes (j, k, l), of the output's reduced state
    rho'[k, l] = sum_j rho[k+j, l+j] c[k+j, k] c[l+j, l]: tracing out the
    ancilla sets j = j' and cancels the phase. On a Fock-diagonal input
    its diagonal is the binomial thinning p B."""
    k = np.arange(d)
    j = k[:, None, None]   # the ancilla's photons
    return _gather(d, k[:, None] + j, k + j, k[:, None], k)


def _layer(rho_mode: DensityOperator, thin: bool):
    """One beam-splitter layer: the potential of each matrix of the stack,
    and, when `thin`, the thinned state the next layer starts from (else
    None)."""
    if len(rho_mode.layout.subsystems) != 1:
        raise DimensionError("a beam-splitter layer expects a single-mode state")
    m = rho_mode.matrix
    d = m.shape[-1]
    # no tolerance, as in the block solver
    diagonal = not np.any(m[..., ~np.eye(d, dtype=bool)])
    flat = (m.real if diagonal else m).reshape(m.shape[:-2] + (d * d,))
    # blocks of size 1 and 2 take their closed forms directly; larger ones
    # pass the hermiticity check of hermitian_eigenvalues on the way
    negative = [
        _negative_sum(_block_eigvalsh(b) if b.shape[-1] <= 2 else hermitian_eigenvalues(b))
        for b in (flat[..., index] * coef for index, coef in _transpose_blocks(d, diagonal))
    ]
    # each block delta > 0 stands for itself and for block -delta
    potential = (negative[0] + 2 * sum(negative[1:]))[()]
    if not thin:
        return potential, None
    if diagonal:
        # the diagonal of the Kraus sum, from the weights on the diagonal of rho
        child = (flat[..., :: d + 1] @ splitting_probabilities(d))[..., None] * np.eye(d)
    else:
        index, coef = _kraus_table(d)
        child = np.sum(flat[..., index] * coef, axis=-3)
    return potential, DensityOperator(rho_mode.layout, child)


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
    unchanged. So each layer is one beam splitter, on the state thinned by
    every layer before it, and its sum is 2^(l-1) times that splitter's
    potential. The single-layer entanglement potential, the negativity
    across one splitter's output, is `cascade(rho_mode, 1).layer_sums[0]`.
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
    N_c: np.ndarray | float, field_report: CascadeReport, atom_report: CascadeReport, layer: int
) -> np.ndarray | float:
    """Correlation negativity plus every layer sum through `layer`, per
    matrix of the stacks the reports were made from."""
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


def extrapolate_total(
    N_c: np.ndarray | float, N_f: np.ndarray | float, N_a: np.ndarray | float
) -> np.ndarray | float:
    """Geometric-series limit of the cascade totals at DEPLETION_RATIO, per
    matrix of a stack."""
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
