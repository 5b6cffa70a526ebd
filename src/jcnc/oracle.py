"""Closed-form ground truth for the four initial-state cases.

Transcriptions of the analytic negativities and reduced density matrices,
kept faithful to their published form (including the as-printed sqrt(3)
Fock-case frequency, selectable via `omega_b`) so that engine-vs-formula
comparisons surface discrepancies instead of hiding them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nonclassicality import DEPLETION_RATIO

CASE_B_RATE_ENGINE = math.sqrt(2.0)   # doublet rate of the truncated dynamics
CASE_B_RATE_PRINTED = math.sqrt(3.0)  # as printed in the source formulas


@dataclass(frozen=True)
class OracleRecord:
    """All closed-form case-A quantities at a time, or over an array of times."""

    N_c: float
    N_f: float
    N_a: float
    N_f1: float
    N_a1: float
    N_tot1: float
    N_tot2: float
    N_totInf: float


@dataclass(frozen=True)
class CaseBRecord:
    """Fock-case correlation and atom negativity, at a time or over an array of times."""

    N_c: float
    N_a: float


def chi(T):
    """chi(T) = (1/4) sqrt(3 + cos 4T), at a time or an array of times."""
    return 0.25 * np.sqrt(3.0 + np.cos(4.0 * T))


def xi(T):
    """xi(T) = sqrt(11 + 4 cos 2T + cos 4T), at a time or an array of times."""
    return np.sqrt(11.0 + 4.0 * np.cos(2.0 * T) + np.cos(4.0 * T))


def _n_c(T):
    return 0.5 * np.abs(np.sin(2.0 * T))


def _n_f(T):
    return chi(T) - 0.25 * (1.0 + np.cos(2.0 * T))


def _n_f1(T):
    return -0.125 * (3.0 + np.cos(2.0 * T) - xi(T))


def case_a(T) -> OracleRecord:
    """Closed-form negativities, residuals, and totals for the vacuum case.

    T is a time or an array of times; each field then holds one value per time.
    """
    N_c = _n_c(T)
    N_f = _n_f(T)
    N_a = _n_f(T + math.pi / 2.0)
    N_f1 = _n_f1(T)
    N_a1 = _n_f1(T + math.pi / 2.0)
    N_tot1 = N_c + N_f + N_a
    N_tot2 = N_tot1 + 2.0 * N_f1 + 2.0 * N_a1
    N_totInf = N_c + (N_f + N_a) / (1.0 - DEPLETION_RATIO)
    return OracleRecord(N_c, N_f, N_a, N_f1, N_a1, N_tot1, N_tot2, N_totInf)


def case_b(T, omega_b: float = CASE_B_RATE_ENGINE) -> CaseBRecord:
    """Fock-case correlation and atom negativity at doublet rate omega_b.

    The case-A correlation and field negativity, evaluated at omega_b * T.
    The published formulas print sqrt(3); pass CASE_B_RATE_PRINTED to
    reproduce them as written, or the default sqrt(2) for the rate the
    truncated dynamics (and the companion reduced-state formulas) use.
    T is a time or an array of times.
    """
    if omega_b <= 0:
        raise ValueError(f"omega_b must be > 0, got {omega_b}")
    return CaseBRecord(_n_c(omega_b * T), _n_f(omega_b * T))


def _diagonal(*entries) -> np.ndarray:
    """Stack of diagonal matrices with the given (broadcast) diagonal entries."""
    entries = np.broadcast_arrays(*entries)
    n = len(entries)
    out = np.zeros(entries[0].shape + (n, n), dtype=complex)
    out[..., range(n), range(n)] = np.stack(entries, axis=-1)
    return out


def case_c_reduced(T, p0: float, p1: float) -> tuple[np.ndarray, np.ndarray]:
    """(atom 2x2, field 3x3) reduced matrices for the thermal case.

    T is a time or an array of times; the result is one matrix per time.
    """
    if p0 < 0 or p1 < 0 or abs(p0 + p1 - 1.0) > 1e-6:
        raise ValueError(f"weights must be nonnegative and sum to 1, got {p0}, {p1}")
    T = np.asarray(T, dtype=float)
    s1, c1 = np.sin(T) ** 2, np.cos(T) ** 2
    r = math.sqrt(2.0) * T
    s2, c2 = np.sin(r) ** 2, np.cos(r) ** 2
    atom = _diagonal(p0 * s1 + p1 * s2, p0 * c1 + p1 * c2)
    field = _diagonal(p0 * c1, p0 * s1 + p1 * c2, p1 * s2)
    return atom, field


def case_d_reduced(T, c0: float, c1: float) -> tuple[np.ndarray, np.ndarray]:
    """(atom 2x2, field 3x3) reduced matrices for the coherent case.

    T is a time or an array of times; the result is one matrix per time.
    Amplitudes are expected normalized; a small deviation is tolerated so
    the published unnormalized values (c0 = e^{-1/200}, c1 = c0/10) can be
    evaluated as printed.
    """
    if abs(c0**2 + c1**2 - 1.0) > 1e-3:
        raise ValueError(f"amplitudes too far from normalized: {c0}, {c1}")
    T = np.asarray(T, dtype=float)
    sT, cT = np.sin(T), np.cos(T)
    r = math.sqrt(2.0) * T
    sR, cR = np.sin(r), np.cos(r)
    atom = np.empty(T.shape + (2, 2), dtype=complex)
    atom[..., 0, 0] = c0**2 * sT**2 + c1**2 * sR**2
    atom[..., 0, 1] = -1j * c0 * c1 * cR * sT
    atom[..., 1, 0] = 1j * c0 * c1 * cR * sT
    atom[..., 1, 1] = c0**2 * cT**2 + c1**2 * cR**2
    off01 = c0 * c1 * cT * cR
    off12 = c0 * c1 * sT * sR
    field = np.zeros(T.shape + (3, 3), dtype=complex)
    field[..., 0, 0] = c0**2 * cT**2
    field[..., 0, 1] = field[..., 1, 0] = off01
    field[..., 1, 1] = c0**2 * sT**2 + c1**2 * cR**2
    field[..., 1, 2] = field[..., 2, 1] = off12
    field[..., 2, 2] = c1**2 * sR**2
    return atom, field
