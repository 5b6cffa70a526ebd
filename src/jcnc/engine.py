"""Resonant Jaynes-Cummings dynamics on a truncated field (x) atom space.

Works in the interaction picture with the coupling set to one, so time is
the dimensionless T = lambda*t. The interaction Hamiltonian
sigma_+ a + sigma_- a^dag couples each excitation doublet
{|n-1, excited>, |n, ground>} at Rabi rate sqrt(n), and evolution is exact:
the propagator is built from the closed-form doublet rotations.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .hilbert import (
    DensityOperator,
    DimensionError,
    ModeLayout,
    ShapeError,
    StateValidationError,
    StateVector,
    dagger,
    fock,
    partial_trace,
    single_mode,
    tensor,
)

FIELD = "f"
ATOM = "a"

EXCITED_PROJECTOR = np.diag([0.0, 1.0]).astype(complex)

COHERENT_TAIL_TOL = 1e-3


@dataclass(frozen=True)
class ScenarioCase:
    """One of the four initial-state cases, and the one rule for their
    parameters: C requires mean_photon > 0 and D alpha, every case refuses
    a parameter it does not take, and each refusal names the field.

    A: vacuum field, excited atom.
    B: Fock field |2>, ground atom.
    C: thermal field (mean_photon), excited atom.
    D: coherent field (alpha), excited atom.
    """

    CASES: ClassVar[tuple[str, ...]] = ("A", "B", "C", "D")

    case: str
    mean_photon: float | None = None
    alpha: complex | None = None

    def __post_init__(self):
        if self.case not in self.CASES:
            raise ValueError(f"field 'case': must be one of {self.CASES}, got {self.case!r}")
        takes = {"C": "mean_photon", "D": "alpha"}.get(self.case)
        for name in ("mean_photon", "alpha"):
            given = getattr(self, name) is not None
            if name == takes and not given:
                raise ValueError(f"field {name!r}: required for case {self.case}")
            if name != takes and given:
                raise ValueError(f"field {name!r}: not valid for case {self.case}")
        if self.case == "C" and not self.mean_photon > 0:
            raise ValueError(f"field 'mean_photon': must be > 0, got {self.mean_photon}")

    @property
    def min_field_dim(self) -> int:
        """Smallest field dimension of the case: 2 for the vacuum, 3 for the
        others, whose field reaches |2> or keeps the top level empty."""
        return 2 if self.case == "A" else 3

    @property
    def fock_diagonal(self) -> bool:
        """Whether the initial state has no coherence between excitation
        sectors at any parameter value: true for the vacuum (A), Fock |2>
        (B) and thermal (C) fields, false for a coherent field (D).
        Excitation conservation then keeps every reduced state, and every
        state a cascade thins from it, exactly Fock-diagonal, so each
        cascade layer takes the photon-number path."""
        return self.case != "D"


def jc_layout(d: int) -> ModeLayout:
    return ModeLayout(((FIELD, d), (ATOM, 2)))


def propagator(d: int, T) -> np.ndarray:
    """exp(-i T H) on field (x) atom, from its closed form.

    |0, ground> and the truncated |d-1, excited> are fixed; doublet n sits
    at flat indices (2n-1, 2n) and rotates as cos(sqrt(n) T) on the
    diagonal, -i sin(sqrt(n) T) off it. So the result is exactly zero
    between excitation sectors and exactly the identity at T = 0. T is a
    time or an array of times; the result is one matrix per time.
    """
    T = np.asarray(T, dtype=float)
    n = np.arange(1, d)
    r = np.multiply.outer(T, np.sqrt(n))
    excited, ground = 2 * n - 1, 2 * n
    u = np.zeros(T.shape + (2 * d, 2 * d), dtype=complex)
    u[..., 0, 0] = u[..., 2 * d - 1, 2 * d - 1] = 1.0
    u[..., excited, excited] = u[..., ground, ground] = np.cos(r)
    u[..., excited, ground] = u[..., ground, excited] = -1j * np.sin(r)
    return u


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
    if d < case.min_field_dim:
        raise DimensionError(f"case {case.case} needs field_dim >= {case.min_field_dim}, got {d}")
    layout = jc_layout(d)
    if case.case == "A":
        vec = tensor([fock(0, d), fock(1, 2)])
        return StateVector(layout, vec).density()
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
