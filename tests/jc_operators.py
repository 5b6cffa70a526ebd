"""Dense operator references for the closed-form unitaries.

The program builds the Jaynes-Cummings propagator and the beam splitter's
vacuum-ancilla columns from their closed forms. This module keeps the dense
operators those forms come from: the truncated annihilation operator, the
interaction Hamiltonian, the doublet rotation, and both unitaries as matrix
exponentials by numpy `eigh`, so the tests can check the closed forms
against them.
"""

import math

import numpy as np

from jcnc.engine import EXCITED_PROJECTOR
from jcnc.hilbert import DimensionError

SIGMA_PLUS = np.array([[0, 0], [1, 0]], dtype=complex)   # |1><0| (ground=index 0)
SIGMA_MINUS = SIGMA_PLUS.conj().T


def annihilation(d: int) -> np.ndarray:
    """Truncated bosonic annihilation operator: (n-1, n) entry sqrt(n)."""
    if d < 2:
        raise DimensionError(f"annihilation needs dim >= 2, got {d}")
    return np.diag(np.sqrt(np.arange(1, d)), 1).astype(complex)


def interaction_hamiltonian(d: int) -> np.ndarray:
    """sigma_+ a + sigma_- a^dag on field (x) atom, in units of the coupling."""
    a = annihilation(d)
    return np.kron(a, SIGMA_PLUS) + np.kron(a.conj().T, SIGMA_MINUS)


def sector_evolution(n: int, T: float, field_dim: int | None = None) -> tuple[complex, complex]:
    """Closed-form doublet rotation at Rabi rate sqrt(n).

    Returns the amplitudes (on |n-1, excited>, on |n, ground>) of the
    evolved excited-atom doublet member. Independent oracle for evolve.
    """
    if n < 1 or (field_dim is not None and n > field_dim - 1):
        raise DimensionError(f"excitation number {n} outside the truncated space")
    r = math.sqrt(n) * T
    return (complex(math.cos(r)), -1j * math.sin(r))


def total_excitation(d: int) -> np.ndarray:
    """a^dag a + |excited><excited| on field (x) atom."""
    a = annihilation(d)
    return np.kron(a.conj().T @ a, np.eye(2)) + np.kron(np.eye(d), EXCITED_PROJECTOR)


def photon_number(d: int) -> np.ndarray:
    """Total photon number a^dag a + b^dag b on mode (x) ancilla, both dim d."""
    a = annihilation(d)
    return np.kron(a.conj().T @ a, np.eye(d)) + np.kron(np.eye(d), a.conj().T @ a)


def _expm_hermitian(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t h) of one Hermitian matrix, from its dense eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * t * w)) @ v.conj().T


def dense_propagator(d: int, T: float) -> np.ndarray:
    """exp(-i T H) of the interaction Hamiltonian."""
    return _expm_hermitian(interaction_hamiltonian(d), T)


def dense_beam_splitter(d: int) -> np.ndarray:
    """exp(-i (pi/4) (a^dag b + a b^dag)) on mode (x) ancilla, both dim d."""
    a = annihilation(d)
    return _expm_hermitian(np.kron(a.conj().T, a) + np.kron(a, a.conj().T), np.pi / 4)
