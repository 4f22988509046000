"""Dense symmetric/PSD primitives: regularized solves, eigendecomposition,
PSD ordering tests, spectral norm.

All entry points but :func:`shifted_cholesky` symmetrize their input as
(A + A^T)/2 when the asymmetry is below ``SYMMETRY_TOL`` (relative) and reject
it otherwise, so floating-point drift accumulated while assembling
approximations is absorbed here.  Callers pass matrices as they build them
and do not symmetrize them first.  :func:`shifted_cholesky` is the streaming
step's primitive: it takes matrices built exactly symmetric and checks
nothing, so one factor per shift serves every solve at that shift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpotrf

from .errors import InputError, NumericalError

SYMMETRY_TOL = 1e-10
DEFAULT_PSD_TOL = 1e-8


def symmetrize(A: np.ndarray) -> np.ndarray:
    """Return (A + A^T)/2, rejecting matrices that are not nearly symmetric."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InputError(f"expected a square matrix, got shape {A.shape}")
    if A.size == 0:
        return A
    scale = max(1.0, float(np.max(np.abs(A))))
    if float(np.max(np.abs(A - A.T))) > SYMMETRY_TOL * scale:
        raise InputError("matrix is not symmetric within tolerance")
    return (A + A.T) / 2.0


@dataclass(frozen=True)
class EigPair:
    """Symmetric eigendecomposition with eigenvalues sorted descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        U, lam = self.eigenvectors, self.eigenvalues
        return (U * lam[None, :]) @ U.T


def eig_pairs(A: np.ndarray) -> EigPair:
    """Eigendecomposition of a symmetric matrix, descending order."""
    A = symmetrize(A)
    lam, U = np.linalg.eigh(A)
    order = np.argsort(lam)[::-1]
    return EigPair(eigenvalues=lam[order], eigenvectors=np.ascontiguousarray(U[:, order]))


def regularized_solve(A: np.ndarray, ridge: float, B: np.ndarray) -> np.ndarray:
    """Solve (A + ridge*I) x = B for symmetric PSD ``A`` and ``ridge > 0``.

    Uses a Cholesky factorization of the shifted matrix (the shift makes it
    positive definite).  The result has the same shape as ``B``.
    """
    if not ridge > 0:
        raise InputError("ridge must be positive")
    A = symmetrize(A)
    B = np.asarray(B, dtype=np.float64)
    expected = A.shape[0]
    if B.shape[0] != expected:
        raise InputError(f"B has {B.shape[0]} rows, expected {expected}")
    if expected == 0:
        return B.copy()
    shifted = A + ridge * np.eye(expected)
    try:
        factor = scipy.linalg.cho_factor(shifted, lower=True, check_finite=False)
        return scipy.linalg.cho_solve(factor, B, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(f"shifted matrix is not positive definite: {exc}")


def shifted_cholesky(A: np.ndarray, shift: float) -> np.ndarray:
    """Cholesky factor ``L`` of ``A + shift*I``, with ``A`` exactly symmetric.

    Only the lower triangle of the returned array is ``L``; the strict upper
    triangle keeps entries of the shifted matrix.  ``A`` is neither
    symmetrized nor checked, and only one of its triangles is read.  Raises :class:`NumericalError` when the
    shifted matrix is not positive definite.
    """
    # The shifted matrix is symmetric, so its transpose is the same matrix in
    # the column-major layout LAPACK factors in place, without a copy.
    factor, info = dpotrf((A + shift * np.eye(A.shape[0])).T, lower=1, clean=0, overwrite_a=1)
    if info:
        raise NumericalError(f"shifted matrix is not positive definite (leading minor {info})")
    return factor


def solve_shifted_indefinite(A: np.ndarray, shift: float, B: np.ndarray) -> np.ndarray:
    """Solve (A + shift*I) x = B for symmetric but possibly indefinite ``A``.

    Needed by estimators whose bordered matrices are only guaranteed PSD when
    upstream approximation conditions hold.  Tries the (much faster) Cholesky
    route first and falls back to a symmetric-indefinite solve, which keeps
    the pipeline running (and diagnosable) outside the guaranteed regime.
    """
    A = symmetrize(A)
    B = np.asarray(B, dtype=np.float64)
    if A.shape[0] == 0:
        return B.copy()
    shifted = A + shift * np.eye(A.shape[0])
    try:
        factor = scipy.linalg.cho_factor(shifted, lower=True, check_finite=False)
        return scipy.linalg.cho_solve(factor, B, check_finite=False)
    except scipy.linalg.LinAlgError:
        pass
    try:
        return scipy.linalg.solve(shifted, B, assume_a="sym", check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(f"shifted solve failed: {exc}")


def spectral_norm(A: np.ndarray) -> float:
    """Largest absolute eigenvalue of a symmetric matrix."""
    A = symmetrize(A)
    if A.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvalsh(A))))


def psd_order_check(A: np.ndarray, B: np.ndarray, tol: float = DEFAULT_PSD_TOL) -> bool:
    """True iff A <= B in the PSD order, within a relative tolerance.

    The check is ``lambda_min(B - A) >= -tol * max(1, ||B - A||_2)``.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.shape != B.shape:
        raise InputError(f"shape mismatch: {A.shape} vs {B.shape}")
    diff = symmetrize(B - A)
    if diff.size == 0:
        return True
    lam = np.linalg.eigvalsh(diff)
    scale = max(1.0, float(np.max(np.abs(lam))))
    return bool(lam[0] >= -tol * scale)


def min_eigenvalue(A: np.ndarray) -> float:
    A = symmetrize(A)
    if A.size == 0:
        return 0.0
    return float(np.linalg.eigvalsh(A)[0])


def validate_psd(A: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Symmetrize and require eigenvalues >= -DEFAULT_PSD_TOL * max(1, lambda_max)."""
    A = symmetrize(A)
    if A.size == 0:
        return A
    lam = np.linalg.eigvalsh(A)
    scale = max(1.0, float(np.max(np.abs(lam))))
    if lam[0] < -DEFAULT_PSD_TOL * scale:
        raise InputError(f"{what} is not PSD (min eigenvalue {lam[0]:.3e})")
    return A
