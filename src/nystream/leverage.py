"""Ridge leverage scores and effective dimension: exact formulas and the
incremental estimators that drive the streaming sketch.

The exact routines are ground truth for the test harness.  The estimators
need only a sketch of the kernel matrix plus the exact entries of the new
column, and carry multiplicative guarantees (a factor ``alpha`` below truth
for leverage scores, a spectrum-dependent factor ``beta`` above truth for the
effective dimension) whenever the sketch satisfies the reconstruction
condition checked by :mod:`nystream.evaluation`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from .errors import InputError, InvariantViolation, NumericalError, half_open_unit, non_negative, positive
from .linalg import (
    regularized_solve,
    shifted_cholesky,
    symmetrize,
    validate_psd,
)

# Tolerance below which a negative estimated increment is treated as roundoff.
_NEGATIVE_INCREMENT_TOL = 1e-10


def alpha_factor(epsilon: float) -> float:
    """Leverage-score approximation factor (2 - eps) / (1 - eps)."""
    half_open_unit("epsilon", epsilon)
    return (2.0 - epsilon) / (1.0 - epsilon)


def beta_factor(epsilon: float, rho: float) -> float:
    """Effective-dimension approximation factor alpha^2 * (1 + rho).

    ``rho`` is the ratio of the largest kernel eigenvalue to the sketch
    regularizer.  At runtime only the sketch spectrum is visible, so callers
    report a lower-bound proxy; the factor never enters the algorithm itself.
    """
    non_negative("rho", rho)
    a = alpha_factor(epsilon)
    return a * a * (1.0 + rho)


def curvature_coefficient(epsilon: float) -> float:
    """Weight of the squared-inverse term in the increment estimator.

    The printed estimator uses (1 - eps)^2 / 4 while intermediate steps of
    its derivation suggest other powers; :func:`estimate_deff_increment`
    always uses this value.
    """
    return (1.0 - epsilon) ** 2 / 4.0


@dataclass
class Diagnostics:
    """Counters for the clamps applied during a run."""

    rls_clamped_low: int = 0
    rls_clamped_high: int = 0
    increment_clamped: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class LeverageProfile:
    """Exact ridge leverage scores, their sum, and the induced distribution."""

    tau: np.ndarray
    deff: float
    probabilities: np.ndarray


@dataclass(frozen=True)
class EstimatedProfile:
    """One step's estimates, aligned with the queried columns: the
    dictionary's ``indices`` in order, then the new column.

    ``p_tilde`` holds the post-clamp sampling probabilities.
    """

    indices: np.ndarray
    tau_tilde: np.ndarray
    deff_tilde: float
    p_tilde: np.ndarray


def exact_rls(K: np.ndarray, gamma: float) -> LeverageProfile:
    """Exact ridge leverage scores of a PSD kernel matrix.

    ``tau_i`` is the i-th diagonal entry of ``K (K + gamma I)^{-1}``; their
    sum is the effective dimension, and dividing by it gives the sampling
    distribution.  Computed through a regularized solve so the spectral-form
    identity stays available as an independent check.
    """
    positive("gamma", gamma)
    K = validate_psd(K, what="kernel matrix")
    t = K.shape[0]
    if t == 0:
        return LeverageProfile(tau=np.empty(0), deff=0.0, probabilities=np.empty(0))
    X = regularized_solve(K, gamma, K)
    tau = np.clip(np.diag(X).copy(), 0.0, 1.0)
    deff = float(tau.sum())
    probabilities = tau / deff if deff > 0 else np.full(t, np.nan)
    return LeverageProfile(tau=tau, deff=deff, probabilities=probabilities)


def estimate_rls_batch(
    K_bar: np.ndarray,
    columns: np.ndarray,
    diagonal: np.ndarray,
    gamma: float,
    epsilon: float,
    *,
    diagnostics: Diagnostics | None = None,
) -> np.ndarray:
    """Leverage-score estimates for several columns sharing one bordered sketch.

    ``K_bar`` is the current sketch bordered with the exact new column;
    ``columns[:, j]`` is the exact kernel column for the j-th queried index,
    restricted to the same coordinates as ``K_bar``; ``diagonal[j]`` is that
    index's self evaluation.  Returns one estimate per column, clamped to
    [0, 1] (clamps are counted in ``diagnostics``; they can only trigger when
    the sketch has drifted out of its guaranteed regime).  Raises
    :class:`NumericalError` when ``K_bar + alpha*gamma*I`` is not positive
    definite, as the carried sketch does.
    """
    positive("gamma", gamma)
    alpha = alpha_factor(epsilon)
    columns = np.asarray(columns, dtype=np.float64)
    if columns.ndim == 1:
        columns = columns[:, None]
    diagonal = np.atleast_1d(np.asarray(diagonal, dtype=np.float64))
    if columns.shape[1] != diagonal.shape[0]:
        raise InputError("one diagonal entry is needed per column")
    K_bar, shift = symmetrize(K_bar), alpha * gamma
    factor = shifted_cholesky(K_bar, shift)
    # columns_j^T (L L^T)^{-1} columns_j is the squared norm of L^{-1} columns_j.
    half = solve_triangular(factor, columns, lower=True, check_finite=False)
    quad = np.einsum("ij,ij->j", half, half)
    return _clamped_scores(diagonal, quad, shift, diagnostics)


def _clamped_scores(diagonal, quad, shift: float, diagnostics: Diagnostics | None) -> np.ndarray:
    raw = (diagonal - quad) / shift
    scores = np.minimum(np.maximum(raw, 0.0), 1.0)
    # Counted only when the clamp changed something (NaN never equals itself).
    if diagnostics is not None and not np.logical_and.reduce(scores == raw):
        diagnostics.rls_clamped_low += np.count_nonzero(raw < 0.0)
        diagnostics.rls_clamped_high += np.count_nonzero(raw > 1.0)
    return scores


def deff_increment_exact(
    K_t: np.ndarray,
    k_bar: np.ndarray,
    k_self: float,
    gamma: float,
) -> tuple[float, float]:
    """Exact effective-dimension increment from bordering a kernel matrix.

    Returns ``(delta, xi)`` where ``xi`` is the regularized Schur complement
    of the bordered matrix; a valid PSD bordering keeps ``xi >= gamma``, and
    the effective dimension of the bordered matrix equals the old one plus
    ``delta``.
    """
    positive("gamma", gamma)
    K_t = validate_psd(K_t, what="kernel matrix")
    k_bar = np.asarray(k_bar, dtype=np.float64).reshape(-1)
    if k_bar.shape[0] != K_t.shape[0]:
        raise InputError("cross vector length must match the matrix size")
    u = regularized_solve(K_t, gamma, k_bar)  # empty for an empty K_t: both forms are 0.0
    quad1, quad2 = float(k_bar @ u), float(u @ u)
    xi = k_self + gamma - quad1
    if xi < gamma - 1e-8:
        raise InputError(
            f"Schur complement {xi:.6e} fell below gamma={gamma:.6e}: "
            "bordered matrix is not PSD"
        )
    delta = (k_self - quad1 - gamma * quad2) / xi
    return delta, xi


def estimate_deff_increment(
    K_tilde: np.ndarray,
    k_bar: np.ndarray,
    k_self: float,
    gamma: float,
    epsilon: float,
) -> float:
    """Estimated effective-dimension increment computed from the sketch.

    Uses two regularized quadratic forms of the sketch against the exact new
    column: one at shift ``alpha * gamma`` and a squared-inverse one at shift
    ``gamma``, the latter damped by the curvature coefficient.  A sketch that
    is indefinite beyond either shift raises :class:`NumericalError`.
    """
    positive("gamma", gamma)
    K_tilde = symmetrize(K_tilde)
    k_bar = np.asarray(k_bar, dtype=np.float64).reshape(-1)
    if k_bar.shape[0] != K_tilde.shape[0]:
        raise InputError("cross vector length must match the sketch size")
    shift = alpha_factor(epsilon) * gamma
    if k_bar.shape[0] == 0:
        quad_alpha = 0.0
        quad_sq = 0.0
    else:
        half = solve_triangular(shifted_cholesky(K_tilde, shift), k_bar, lower=True, check_finite=False)
        quad_alpha = float(half @ half)
        u = cho_solve((shifted_cholesky(K_tilde, gamma), True), k_bar, check_finite=False)
        quad_sq = float(u @ u)
    return _increment_from_forms(k_self, gamma, curvature_coefficient(epsilon), quad_alpha, quad_sq)


def _increment_from_forms(
    k_self: float, gamma: float, curvature: float, quad_alpha: float, quad_sq: float
) -> float:
    """The increment from its two quadratic forms of the new column ``c``:
    ``c^T (K~ + alpha gamma I)^-1 c`` and ``|(K~ + gamma I)^-1 c|^2``, the
    latter weighted by ``curvature = curvature_coefficient(epsilon)``, which
    the estimate oracle holds, so a step computes no coefficient."""
    denominator = k_self + gamma - quad_alpha
    if denominator <= 0:
        raise NumericalError(
            f"increment denominator {denominator:.6e} is not positive; "
            "the sketch violates its approximation precondition"
        )
    numerator = k_self - quad_alpha - curvature * gamma * quad_sq
    return numerator / denominator


def update_deff(
    deff_tilde: float,
    delta_tilde: float,
    epsilon: float,
    *,
    diagnostics: Diagnostics | None = None,
) -> float:
    """Fold an estimated increment into the running effective-dimension
    estimate, scaling by ``alpha`` so the result stays above the exact value.

    The estimate is 0 only while every self term so far was 0.  Tiny
    negative increments (roundoff) are clamped to zero to preserve
    monotonicity; anything below ``-1e-10`` is a genuine invariant breach.
    """
    return _fold_increment(deff_tilde, delta_tilde, alpha_factor(epsilon), diagnostics)


def _fold_increment(
    deff_tilde: float, delta_tilde: float, alpha: float, diagnostics: Diagnostics | None
) -> float:
    """:func:`update_deff` with ``alpha = alpha_factor(epsilon)`` given, as
    the estimate oracle holds it, so a step computes no factor."""
    non_negative("running estimate deff_tilde", deff_tilde)
    if delta_tilde < -_NEGATIVE_INCREMENT_TOL:
        raise InvariantViolation(
            f"estimated increment {delta_tilde:.6e} is negative beyond tolerance"
        )
    if delta_tilde < 0.0:
        if diagnostics is not None:
            diagnostics.increment_clamped += 1
        delta_tilde = 0.0
    return deff_tilde + alpha * delta_tilde


def clamp_probabilities(new: np.ndarray, old: np.ndarray) -> np.ndarray:
    """Element-wise minimum of ``new`` and ``old`` at ``old``'s positions.

    ``new`` is aligned with ``old`` and may run longer: entries past ``old``
    (a brand-new index has no previous value) pass through unclamped.  An
    ``old`` longer than ``new`` is an :class:`InputError`.
    """
    out = np.array(new, dtype=np.float64)
    if len(old) > len(out):
        raise InputError(f"{len(old)} previous probabilities cannot clamp {len(out)} new ones")
    np.minimum(out[: len(old)], old, out=out[: len(old)])
    return out
