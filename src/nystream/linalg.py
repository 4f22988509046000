"""Dense symmetric/PSD primitives: regularized solves, eigendecomposition,
PSD ordering tests, spectral norm.

The public entry points symmetrize their input as (A + A^T)/2 when the
asymmetry is below ``SYMMETRY_TOL`` (relative) and reject it otherwise, so
floating-point drift accumulated while assembling approximations is absorbed
here; callers do not symmetrize first.  Every Cholesky factor of a whole
matrix comes from :func:`shifted_cholesky`, which checks nothing: the solves
pass it their symmetrized input, and the carried sketch its exactly
symmetric blocks, with :func:`_inverse` for the inverse.  The one exception
is ``pipeline.ExactOracle``, which factors the kernel a block of rows at a
time with its own ``dpotrf`` calls.  Every PSD verdict is
:func:`_psd_within`'s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import cho_solve
from scipy.linalg.lapack import dpotrf, dpotri

from .errors import InputError, NumericalError, positive

SYMMETRY_TOL = 1e-10
DEFAULT_PSD_TOL = 1e-8


def symmetrize(A: np.ndarray) -> np.ndarray:
    """Return (A + A^T)/2, rejecting matrices that are not nearly symmetric
    or hold a non-finite entry.  An exactly symmetric ``A`` comes back
    itself, unsummed and uncopied, so callers must not write into the result."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InputError(f"expected a square matrix, got shape {A.shape}")
    if A.size == 0:
        return A
    top, bottom = _finite_bounds(A)
    scale = max(1.0, top, -bottom)
    with np.errstate(over="ignore"):
        work = np.subtract(A, A.T)
        asymmetry = float(np.abs(work, out=work).max())
    if asymmetry == 0.0:
        return A
    if asymmetry > SYMMETRY_TOL * scale:
        raise InputError("matrix is not symmetric within tolerance")
    np.add(A, A.T, out=work)
    work /= 2.0
    return work


def _finite_bounds(A: np.ndarray) -> tuple[float, float]:
    """The largest and smallest entry of a non-empty ``A``; a NaN or
    infinite entry raises :class:`InputError`."""
    top, bottom = float(A.max()), float(A.min())
    if not (np.isfinite(top) and np.isfinite(bottom)):
        raise InputError("matrix has a non-finite entry")
    return top, bottom


@dataclass(frozen=True)
class EigPair:
    """Symmetric eigendecomposition with eigenvalues sorted descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eig_pairs(A: np.ndarray) -> EigPair:
    """Eigendecomposition of a symmetric matrix, descending order."""
    lam, U = np.linalg.eigh(symmetrize(A))
    order = np.argsort(lam)[::-1]
    return EigPair(eigenvalues=lam[order], eigenvectors=np.take(U, order, axis=1))


def regularized_solve(A: np.ndarray, ridge: float, B: np.ndarray) -> np.ndarray:
    """Solve (A + ridge*I) x = B for symmetric PSD ``A`` and finite ``ridge > 0``.

    Uses :func:`shifted_cholesky` (the shift makes the matrix positive
    definite).  The result has the same shape as ``B``.
    """
    positive("ridge", ridge)
    A = symmetrize(A)
    B = np.asarray(B, dtype=np.float64)
    expected = A.shape[0]
    if B.shape[0] != expected:
        raise InputError(f"B has {B.shape[0]} rows, expected {expected}")
    if expected == 0:
        return B.copy()
    return cho_solve((shifted_cholesky(A, ridge), True), B, check_finite=False)


def shifted_cholesky(A: np.ndarray, shift: float) -> np.ndarray:
    """Cholesky factor ``L`` of ``A + shift*I``, with ``A`` exactly symmetric.

    Only the lower triangle of the returned array is ``L``; the strict upper
    triangle keeps entries of the shifted matrix.  ``A`` is neither
    symmetrized nor checked, and only one of its triangles is read.  Raises :class:`NumericalError` when the
    shifted matrix is not positive definite.
    """
    # One copy of A takes the shift on its diagonal.  The shifted matrix is
    # symmetric, so its transpose is the same matrix in the column-major
    # layout LAPACK factors in place, without another copy.
    shifted = np.array(A, dtype=np.float64, order="C")
    shifted.ravel()[:: shifted.shape[0] + 1] += shift
    factor, info = dpotrf(shifted.T, lower=1, clean=0, overwrite_a=1)
    if info:
        raise NumericalError(f"shifted matrix is not positive definite (leading minor {info})")
    return factor


def _inverse(L: np.ndarray) -> np.ndarray:
    """``(L L^T)^-1``, exactly symmetric, from the lower triangle ``L`` of a
    :func:`shifted_cholesky` factor; the factor's array may be overwritten."""
    if L.shape[0] == 0:
        return np.zeros((0, 0))  # LAPACK rejects an empty matrix
    lower, _ = dpotri(L, lower=1, overwrite_c=1)
    # dpotri fills one triangle; mirror it into the other.
    return np.where(np.tri(lower.shape[0], dtype=bool), lower, lower.T)


def solve_shifted_indefinite(A: np.ndarray, shift: float, B: np.ndarray) -> np.ndarray:
    """Solve (A + shift*I) x = B for symmetric but possibly indefinite ``A``.

    No estimator calls it; it stays as a reference solve.  Tries the (much
    faster) Cholesky route first and falls back to a symmetric-indefinite
    solve.
    """
    A = symmetrize(A)
    B = np.asarray(B, dtype=np.float64)
    if A.shape[0] == 0:
        return B.copy()
    try:
        return cho_solve((shifted_cholesky(A, shift), True), B, check_finite=False)
    except NumericalError:
        pass
    try:
        return scipy.linalg.solve(A + shift * np.eye(A.shape[0]), B, assume_a="sym", check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(f"shifted solve failed: {exc}")


def spectral_norm(A: np.ndarray) -> float:
    """Largest absolute eigenvalue of a symmetric matrix."""
    A = symmetrize(A)
    if A.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvalsh(A))))


def _psd_within(eigenvalues: np.ndarray, tol: float) -> bool:
    """The PSD rule: ``lambda_min >= -tol * max(1, max |lambda|)``, for the
    non-empty eigenvalues of a symmetric matrix in any order."""
    low, high = float(eigenvalues.min()), float(eigenvalues.max())
    return low >= -tol * max(1.0, -low, high)


def psd_order_check(A: np.ndarray, B: np.ndarray, tol: float = DEFAULT_PSD_TOL) -> bool:
    """True iff A <= B in the PSD order: ``B - A`` passes :func:`_psd_within`
    at ``tol``."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.shape != B.shape:
        raise InputError(f"shape mismatch: {A.shape} vs {B.shape}")
    diff = symmetrize(B - A)
    if diff.size == 0:
        return True
    return _psd_within(np.linalg.eigvalsh(diff), tol)


def min_eigenvalue(A: np.ndarray) -> float:
    A = symmetrize(A)
    if A.size == 0:
        return 0.0
    return float(np.linalg.eigvalsh(A)[0])


def validate_psd(A: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Symmetrize and require :func:`_psd_within` at ``DEFAULT_PSD_TOL``."""
    A = symmetrize(A)
    if A.size == 0:
        return A
    lam = np.linalg.eigvalsh(A)
    if not _psd_within(lam, DEFAULT_PSD_TOL):
        raise InputError(f"{what} is not PSD (min eigenvalue {lam[0]:.3e})")
    return A
