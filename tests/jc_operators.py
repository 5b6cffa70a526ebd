"""Dense operator references for the closed-form unitaries.

The program builds the Jaynes-Cummings propagator from its closed form and
never forms the beam splitter's output. This module keeps the dense
operators those come from: the truncated annihilation operator, the
interaction Hamiltonian, the doublet rotation, both unitaries as matrix
exponentials by numpy `eigh`, the splitter's vacuum-ancilla columns from
their closed form, and the d^2-wide splitter output they give, so the tests
can check the program against them.
"""

import math
from functools import lru_cache

import numpy as np

from jcnc.engine import EXCITED_PROJECTOR
from jcnc.hilbert import DensityOperator, DimensionError, ModeLayout, dagger

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
