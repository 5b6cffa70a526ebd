"""Resonant Jaynes-Cummings dynamics on a truncated field (x) atom space.

Works in the interaction picture with the coupling set to one, so time is
the dimensionless T = lambda*t. Evolution is exact via the spectral
decomposition of the interaction Hamiltonian, which couples the excitation
doublets {|n-1, excited>, |n, ground>} at Rabi rate sqrt(n).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hilbert import (
    DensityOperator,
    DimensionError,
    ModeLayout,
    ShapeError,
    StateValidationError,
    StateVector,
    annihilation,
    dagger,
    fock,
    partial_trace,
    single_mode,
    tensor,
)

FIELD = "f"
ATOM = "a"

SIGMA_PLUS = np.array([[0, 0], [1, 0]], dtype=complex)   # |1><0| (ground=index 0)
SIGMA_MINUS = SIGMA_PLUS.conj().T
EXCITED_PROJECTOR = np.diag([0.0, 1.0]).astype(complex)

COHERENT_TAIL_TOL = 1e-3


@dataclass(frozen=True)
class ScenarioCase:
    """One of the four initial-state cases.

    A: vacuum field, excited atom.
    B: Fock field |2>, ground atom.
    C: thermal field (mean_photon), excited atom.
    D: coherent field (alpha), excited atom.
    """

    case: str
    mean_photon: float | None = None
    alpha: complex | None = None

    def __post_init__(self):
        if self.case not in ("A", "B", "C", "D"):
            raise ValueError(f"unknown case {self.case!r}")
        if self.case == "C" and (self.mean_photon is None or self.mean_photon <= 0):
            raise ValueError("case C requires mean_photon > 0")
        if self.case == "D" and self.alpha is None:
            raise ValueError("case D requires alpha")
        if self.case in ("A", "B") and (self.mean_photon is not None or self.alpha is not None):
            raise ValueError(f"case {self.case} takes no extra parameters")


def jc_layout(d: int) -> ModeLayout:
    return ModeLayout(((FIELD, d), (ATOM, 2)))


def interaction_hamiltonian(d: int) -> np.ndarray:
    """sigma_+ a + sigma_- a^dag on field (x) atom, in units of the coupling."""
    a = annihilation(d)
    return np.kron(a, SIGMA_PLUS) + np.kron(a.conj().T, SIGMA_MINUS)


def total_excitation(d: int) -> np.ndarray:
    a = annihilation(d)
    return np.kron(a.conj().T @ a, np.eye(2)) + np.kron(np.eye(d), EXCITED_PROJECTOR)


@lru_cache(maxsize=None)
def _hamiltonian_eig(d: int):
    w, v = np.linalg.eigh(interaction_hamiltonian(d))
    return w, v


def propagator(d: int, T) -> np.ndarray:
    """exp(-i T H) via the cached spectral decomposition of H.

    T is a time or an array of times; the result is one matrix per time.
    """
    w, v = _hamiltonian_eig(d)
    phases = np.exp(-1j * np.multiply.outer(T, w))
    return (v * phases[..., None, :]) @ dagger(v)


def evolve(rho0: DensityOperator, T) -> DensityOperator:
    """Unitary evolution of a field (x) atom state for dimensionless time T.

    An array of times gives the stack of evolved states, one per time.
    """
    labels = rho0.layout.labels
    if labels != (FIELD, ATOM):
        raise ShapeError(f"expected layout labels ('f', 'a'), got {labels}")
    d = rho0.layout.dims[0]
    u = propagator(d, T)
    m = u @ rho0.matrix @ dagger(u)
    m = 0.5 * (m + dagger(m))
    return DensityOperator(rho0.layout, m)


def sector_evolution(n: int, T: float, field_dim: int | None = None) -> tuple[complex, complex]:
    """Closed-form doublet rotation at Rabi rate sqrt(n).

    Returns the amplitudes (on |n-1, excited>, on |n, ground>) of the
    evolved excited-atom doublet member. Independent oracle for evolve.
    """
    if n < 1 or (field_dim is not None and n > field_dim - 1):
        raise DimensionError(f"excitation number {n} outside the truncated space")
    r = math.sqrt(n) * T
    return (complex(math.cos(r)), -1j * math.sin(r))


def truncated_thermal(mean_photon: float, d: int) -> DensityOperator:
    """Thermal mixture truncated with the top Fock level kept but unpopulated."""
    if mean_photon <= 0:
        raise ValueError(f"mean_photon must be > 0, got {mean_photon}")
    # the weights r^n with r = mean_photon / (mean_photon + 1) < 1 stay finite
    p = (mean_photon / (mean_photon + 1.0)) ** np.arange(d, dtype=float)
    p[d - 1] = 0.0
    p /= p.sum()
    return DensityOperator(single_mode(FIELD, d), np.diag(p).astype(complex))


def truncated_coherent(alpha: complex, d: int) -> StateVector:
    """Coherent amplitudes truncated with the top level zeroed, renormalized.

    Built by the recurrence c[n] = c[n-1] * alpha / sqrt(n), which never
    forms alpha^n or n! and so stays finite at any dimension.
    """
    c = np.zeros(d, dtype=complex)
    # e^{-|alpha|^2/2} is exactly 0.0 beyond |alpha| = 40, where |alpha|^2 may overflow
    c[0] = np.exp(-abs(alpha) ** 2 / 2) if abs(alpha) < 40 else 0.0
    for n in range(1, d - 1):
        c[n] = c[n - 1] * alpha / math.sqrt(n)
    norm = np.linalg.norm(c)
    if not norm > 0:
        raise StateValidationError(f"coherent state alpha={alpha} has no weight in dim {d}")
    tail = 1.0 - norm**2
    if tail > COHERENT_TAIL_TOL:
        warnings.warn(
            f"coherent-state truncation drops {tail:.3e} of the norm "
            f"(alpha={alpha}, dim={d})",
            stacklevel=2,
        )
    return StateVector(single_mode(FIELD, d), c / norm)


def initial_state(case: ScenarioCase, d: int) -> DensityOperator:
    """Composite field (x) atom initial state for one of the four cases."""
    layout = jc_layout(d)
    if case.case == "A":
        vec = tensor([fock(0, d), fock(1, 2)])
        return StateVector(layout, vec).density()
    if d < 3:
        raise DimensionError(f"case {case.case} needs field_dim >= 3, got {d}")
    if case.case == "B":
        vec = tensor([fock(2, d), fock(0, 2)])
        return StateVector(layout, vec).density()
    if case.case == "C":
        field = truncated_thermal(case.mean_photon, d)
        return DensityOperator(layout, tensor([field.matrix, EXCITED_PROJECTOR]))
    field = truncated_coherent(case.alpha, d)
    vec = tensor([field.amplitudes, fock(1, 2)])
    return StateVector(layout, vec).density()


def reduced_states(rho: DensityOperator) -> tuple[DensityOperator, DensityOperator]:
    """(field, atom) reduced density operator stacks."""
    labels = rho.layout.labels
    if labels != (FIELD, ATOM):
        raise ShapeError(f"expected layout labels ('f', 'a'), got {labels}")
    return partial_trace(rho, {FIELD}), partial_trace(rho, {ATOM})
