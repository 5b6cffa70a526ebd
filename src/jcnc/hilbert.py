"""Finite-dimensional composite Hilbert-space kernel.

Dense operators on tensor products of small mode spaces: truncated bosonic
operators, Kronecker composition, partial trace / partial transpose,
Hermitian spectra, negativity, and l1-coherence. Everything is a pure
function of immutable inputs. Matrices stay small (total dimension <~ 64)
but come in stacks: operator arrays have shape (..., D, D), leading axes
are batch axes (time points), and every function maps each matrix of a
stack independently, with one numpy call per stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

# Validation tolerances for density operators.
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10

# Eigenvalues of a partial transpose above this floor count as zero, so
# floating-point noise never registers as entanglement.
NEGATIVITY_EIG_FLOOR = -1e-12

# Hermiticity deviation allowed before an eigensolve is refused.
EIGH_HERMITICITY_TOL = 1e-10


class DimensionError(ValueError):
    """A mode dimension is too small or inconsistent."""


class LabelError(KeyError):
    """A subsystem label is unknown or duplicated."""


class ShapeError(ValueError):
    """A matrix or vector has the wrong shape or symmetry."""


class StateValidationError(ValueError):
    """A density operator or state vector violates its invariants."""


@dataclass(frozen=True)
class ModeLayout:
    """Ordered subsystems of a tensor-product space.

    Basis order is row-major over the listed order: the leftmost label
    varies slowest. Labels are unique and every dimension is >= 2.
    """

    subsystems: tuple[tuple[str, int], ...]

    def __post_init__(self):
        subs = tuple((str(lbl), int(d)) for lbl, d in self.subsystems)
        object.__setattr__(self, "subsystems", subs)
        labels = [lbl for lbl, _ in subs]
        if len(set(labels)) != len(labels):
            raise LabelError(f"duplicate subsystem labels in {labels}")
        for lbl, d in subs:
            if d < 2:
                raise DimensionError(f"subsystem {lbl!r} has dim {d} < 2")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lbl for lbl, _ in self.subsystems)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.subsystems)

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise LabelError(f"unknown subsystem label {label!r}") from None


def single_mode(label: str, dim: int) -> ModeLayout:
    return ModeLayout(((label, dim),))


@dataclass(frozen=True, eq=False)
class StateVector:
    """Unit-norm complex amplitude vector over a ModeLayout."""

    layout: ModeLayout
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size != self.layout.dim:
            raise ShapeError(
                f"amplitude length {amps.size} != layout dim {self.layout.dim}"
            )
        if not abs(np.linalg.norm(amps) - 1.0) <= 1e-12:
            raise StateValidationError(
                f"state norm {np.linalg.norm(amps)} deviates from 1 beyond 1e-12"
            )
        object.__setattr__(self, "amplitudes", amps)

    def density(self) -> "DensityOperator":
        return DensityOperator(self.layout, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Stack (..., D, D) of Hermitian, unit-trace, positive-semidefinite
    matrices over one ModeLayout; a single state is a (D, D) stack.

    Every matrix of the stack is validated at construction, by one batched
    eigensolve.
    """

    layout: ModeLayout
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        d = self.layout.dim
        if m.shape[-2:] != (d, d):
            raise ShapeError(f"matrix shape {m.shape} != (..., {d}, {d})")
        diag = density_diagnostics(m, PSD_TOL)
        if not diag.hermiticity_deviation <= HERMITICITY_TOL:
            raise StateValidationError(
                f"hermiticity deviation {diag.hermiticity_deviation:.3e} > {HERMITICITY_TOL}"
            )
        if not diag.trace_deviation <= TRACE_TOL:
            raise StateValidationError(
                f"trace deviation {diag.trace_deviation:.3e} > {TRACE_TOL}"
            )
        if not diag.min_eigenvalue >= -PSD_TOL:
            raise StateValidationError(
                f"most negative eigenvalue {diag.min_eigenvalue:.3e} < -{PSD_TOL}"
            )
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class DensityDiagnostics:
    """Report of the three density-operator invariants against a tolerance,
    at the worst matrix of a stack for each."""

    hermiticity_deviation: float
    trace_deviation: float
    min_eigenvalue: float
    tol: float
    ok: bool


def annihilation(d: int) -> np.ndarray:
    """Truncated bosonic annihilation operator: (n-1, n) entry sqrt(n)."""
    if d < 2:
        raise DimensionError(f"annihilation needs dim >= 2, got {d}")
    return np.diag(np.sqrt(np.arange(1, d)), 1).astype(complex)


def fock(n: int, d: int) -> np.ndarray:
    """Fock basis vector |n> in dimension d."""
    if not 0 <= n < d:
        raise DimensionError(f"Fock index {n} outside [0, {d})")
    v = np.zeros(d, dtype=complex)
    v[n] = 1.0
    return v


def tensor(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of square matrices or of vectors, in the given order."""
    if len(factors) == 0:
        raise ValueError("tensor needs at least one factor")
    arrays = [np.asarray(f, dtype=complex) for f in factors]
    ndims = {a.ndim for a in arrays}
    if ndims == {2}:
        for a in arrays:
            if a.shape[0] != a.shape[1]:
                raise ShapeError(f"non-square matrix factor of shape {a.shape}")
    elif ndims != {1}:
        raise TypeError("tensor factors must be all matrices or all vectors")
    return reduce(np.kron, arrays)


def dagger(matrix: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix in a (..., n, n) stack."""
    return np.conj(np.swapaxes(matrix, -1, -2))


def _as_tensor(matrix: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    return matrix.reshape(matrix.shape[:-2] + dims + dims)


def partial_trace(rho: DensityOperator, keep: Iterable[str]) -> DensityOperator:
    """Reduced operator stack over the kept labels, in their original order."""
    keep = set(keep)
    if not keep:
        raise LabelError("keep set must be nonempty")
    for lbl in keep:
        if lbl not in rho.layout.labels:
            raise LabelError(f"unknown subsystem label {lbl!r}")
    dims = rho.layout.dims
    n = len(dims)
    keep_idx = [i for i, lbl in enumerate(rho.layout.labels) if lbl in keep]
    t = _as_tensor(rho.matrix, dims)
    row = list(range(n))
    col = [i + n if i in keep_idx else i for i in range(n)]
    out_axes = keep_idx + [i + n for i in keep_idx]
    reduced = np.einsum(t, [Ellipsis] + row + col, [Ellipsis] + out_axes)
    d_keep = int(np.prod([dims[i] for i in keep_idx]))
    sub = ModeLayout(tuple(rho.layout.subsystems[i] for i in keep_idx))
    mat = reduced.reshape(rho.matrix.shape[:-2] + (d_keep, d_keep))
    # exact diagonal-block sum; symmetrize only to scrub representation noise
    mat = 0.5 * (mat + dagger(mat))
    return DensityOperator(sub, mat)


def partial_transpose(rho: DensityOperator, subsystem: str) -> np.ndarray:
    """Transpose applied to the indices of one subsystem only."""
    i = rho.layout.index(subsystem)
    n = len(rho.layout.dims)
    t = np.swapaxes(_as_tensor(rho.matrix, rho.layout.dims), i - 2 * n, i - n)
    return t.reshape(rho.matrix.shape)


def hermitian_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Ascending real spectra of a (..., n, n) stack of Hermitian matrices."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ShapeError(f"expected a stack of square matrices, got shape {m.shape}")
    dev = float(np.max(np.abs(m - dagger(m)))) if m.size else 0.0
    if not dev <= EIGH_HERMITICITY_TOL:
        raise ShapeError(f"hermiticity deviation {dev:.3e} > {EIGH_HERMITICITY_TOL}")
    return np.linalg.eigvalsh(m)


def negativity(rho: DensityOperator, subsystem: str):
    """Summed magnitudes of negative partial-transpose eigenvalues.

    One value per matrix of the stack: a float for a single state, an
    array of the stack's batch shape otherwise.
    """
    ev = hermitian_eigenvalues(partial_transpose(rho, subsystem))
    # + 0.0 turns the -0.0 of an all-zero sum into 0.0, which prints as 0
    return (-np.sum(np.where(ev < NEGATIVITY_EIG_FLOOR, ev, 0.0), axis=-1) + 0.0)[()]


def l1_coherence(rho: DensityOperator):
    """Sum of absolute off-diagonal entries in the computational basis, per
    matrix of the stack."""
    m = np.abs(rho.matrix)
    return (np.sum(m, axis=(-2, -1)) - np.trace(m, axis1=-2, axis2=-1))[()]


def density_diagnostics(rho, tol: float = PSD_TOL) -> DensityDiagnostics:
    """Invariant check of a DensityOperator or a raw (..., n, n) stack of
    square matrices; never raises."""
    m = np.asarray(rho.matrix if isinstance(rho, DensityOperator) else rho, dtype=complex)
    herm = float(np.max(np.abs(m - dagger(m))))
    trace_dev = float(np.max(np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0)))
    # eigenvalues of the Hermitian part; meaningful once herm is small, and
    # skipped when herm is not finite, as eigvalsh may not converge on NaN
    h = 0.5 * (m + dagger(m))
    min_eig = float(np.min(np.linalg.eigvalsh(h))) if np.isfinite(herm) else np.nan
    ok = herm <= tol and trace_dev <= tol and min_eig >= -tol
    return DensityDiagnostics(herm, trace_dev, min_eig, tol, ok)
