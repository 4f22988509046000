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

from .errors import InputError, InvariantViolation, NumericalError
from .linalg import (
    regularized_solve,
    shifted_cholesky,
    solve_shifted_indefinite,
    symmetrize,
    validate_psd,
)

# Tolerance below which a negative estimated increment is treated as roundoff.
_NEGATIVE_INCREMENT_TOL = 1e-10


def alpha_factor(epsilon: float) -> float:
    """Leverage-score approximation factor (2 - eps) / (1 - eps)."""
    if not 0.0 <= epsilon < 1.0:
        raise InputError("epsilon must lie in [0, 1)")
    return (2.0 - epsilon) / (1.0 - epsilon)


def beta_factor(epsilon: float, rho: float) -> float:
    """Effective-dimension approximation factor alpha^2 * (1 + rho).

    ``rho`` is the ratio of the largest kernel eigenvalue to the sketch
    regularizer.  At runtime only the sketch spectrum is visible, so callers
    report a lower-bound proxy; the factor never enters the algorithm itself.
    """
    if rho < 0:
        raise InputError("rho must be nonnegative")
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
    """Counters for the clamps and floors applied during a run."""

    rls_clamped_low: int = 0
    rls_clamped_high: int = 0
    increment_clamped: int = 0
    sqrt_eig_floored: int = 0

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
    if not gamma > 0:
        raise InputError("gamma must be positive")
    K = validate_psd(K, what="kernel matrix")
    t = K.shape[0]
    if t == 0:
        return LeverageProfile(tau=np.empty(0), deff=0.0, probabilities=np.empty(0))
    X = regularized_solve(K, gamma, K)
    tau = np.clip(np.diag(X).copy(), 0.0, 1.0)
    deff = float(tau.sum())
    with np.errstate(invalid="ignore", divide="ignore"):
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
    the sketch has drifted out of its guaranteed regime).
    """
    if not gamma > 0:
        raise InputError("gamma must be positive")
    alpha = alpha_factor(epsilon)
    columns = np.asarray(columns, dtype=np.float64)
    if columns.ndim == 1:
        columns = columns[:, None]
    diagonal = np.atleast_1d(np.asarray(diagonal, dtype=np.float64))
    if columns.shape[1] != diagonal.shape[0]:
        raise InputError("one diagonal entry is needed per column")
    K_bar, shift = symmetrize(K_bar), alpha * gamma
    try:
        factor = shifted_cholesky(K_bar, shift)
    except NumericalError:
        quad = np.einsum("ij,ij->j", columns, solve_shifted_indefinite(K_bar, shift, columns))
    else:
        # columns_j^T (L L^T)^{-1} columns_j is the squared norm of L^{-1} columns_j.
        half = solve_triangular(factor, columns, lower=True, check_finite=False)
        quad = np.einsum("ij,ij->j", half, half)
    return _clamped_scores(diagonal, quad, shift, diagnostics)


def _clamped_scores(diagonal, quad, shift: float, diagnostics: Diagnostics | None) -> np.ndarray:
    raw = (diagonal - quad) / shift
    if diagnostics is not None:
        diagnostics.rls_clamped_low += int(np.sum(raw < 0.0))
        diagnostics.rls_clamped_high += int(np.sum(raw > 1.0))
    return np.clip(raw, 0.0, 1.0)


def estimate_rls(
    K_bar: np.ndarray,
    column: np.ndarray,
    diag_entry: float,
    gamma: float,
    epsilon: float,
    *,
    diagnostics: Diagnostics | None = None,
) -> float:
    """Single-column form of :func:`estimate_rls_batch`."""
    out = estimate_rls_batch(
        K_bar,
        np.asarray(column, dtype=np.float64).reshape(-1, 1),
        np.asarray([diag_entry]),
        gamma,
        epsilon,
        diagnostics=diagnostics,
    )
    return float(out[0])


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
    if not gamma > 0:
        raise InputError("gamma must be positive")
    K_t = validate_psd(K_t, what="kernel matrix")
    k_bar = np.asarray(k_bar, dtype=np.float64).reshape(-1)
    if k_bar.shape[0] != K_t.shape[0]:
        raise InputError("cross vector length must match the matrix size")
    if K_t.shape[0] == 0:
        quad1 = 0.0
        quad2 = 0.0
    else:
        u = regularized_solve(K_t, gamma, k_bar)
        quad1 = float(k_bar @ u)
        quad2 = float(u @ u)
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
    if not gamma > 0:
        raise InputError("gamma must be positive")
    K_tilde = symmetrize(K_tilde)
    k_bar = np.asarray(k_bar, dtype=np.float64).reshape(-1)
    if k_bar.shape[0] != K_tilde.shape[0]:
        raise InputError("cross vector length must match the sketch size")
    return _increment(K_tilde, k_bar, k_self, gamma, epsilon, None)


def _increment(
    K_tilde: np.ndarray,
    k_bar: np.ndarray,
    k_self: float,
    gamma: float,
    epsilon: float,
    whitened: np.ndarray | None,
) -> float:
    """The increment of :func:`estimate_deff_increment` for an exactly
    symmetric ``K_tilde``; ``whitened`` is ``L^{-1} k_bar`` for
    ``K_tilde + alpha gamma I = L L^T`` when the caller already holds it."""
    alpha = alpha_factor(epsilon)
    if k_bar.shape[0] == 0:
        quad_alpha = 0.0
        quad_sq = 0.0
    else:
        if whitened is None:
            factor = shifted_cholesky(K_tilde, alpha * gamma)
            whitened = solve_triangular(factor, k_bar, lower=True, check_finite=False)
        quad_alpha = float(whitened @ whitened)
        u = cho_solve((shifted_cholesky(K_tilde, gamma), True), k_bar, check_finite=False)
        quad_sq = float(u @ u)
    denominator = k_self + gamma - quad_alpha
    if denominator <= 0:
        raise NumericalError(
            f"increment denominator {denominator:.6e} is not positive; "
            "the sketch violates its approximation precondition"
        )
    numerator = k_self - quad_alpha - curvature_coefficient(epsilon) * gamma * quad_sq
    return numerator / denominator


def estimate_step(
    K_bar: np.ndarray,
    columns: np.ndarray,
    diagonal: np.ndarray,
    gamma: float,
    epsilon: float,
    *,
    diagnostics: Diagnostics | None = None,
) -> tuple[np.ndarray, float]:
    """One streaming step's estimates from one factor of the bordered sketch.

    ``K_bar`` is the sketch ``K~_D`` bordered with the exact new column
    ``c`` and self term ``k`` as its last row and column, built exactly
    symmetric (it is not symmetrized or checked).  Returns
    ``estimate_rls_batch(K_bar, columns, diagonal, gamma, epsilon)`` and
    ``estimate_deff_increment(K_bar[:-1, :-1], K_bar[:-1, -1], K_bar[-1, -1],
    gamma, epsilon)``: the last row of the Cholesky factor of
    ``K_bar + alpha gamma I`` is the whitened new column that the
    increment's ``alpha gamma`` form needs, so the step factors three
    matrices instead of four.  When that factor fails, the increment's
    denominator (the bordered Schur complement less ``(alpha - 1) gamma``)
    cannot be positive, so the step raises :class:`NumericalError` at once.
    """
    if not gamma > 0:
        raise InputError("gamma must be positive")
    shift = alpha_factor(epsilon) * gamma
    try:
        factor = shifted_cholesky(K_bar, shift)
    except NumericalError as exc:
        raise NumericalError(
            "K~_D + alpha*gamma*I or its bordered Schur complement k + alpha*gamma - c^T "
            f"(K~_D + alpha*gamma*I)^-1 c is not positive: bordered {exc}"
        ) from None
    half = solve_triangular(factor, columns, lower=True, check_finite=False)
    tau = _clamped_scores(diagonal, np.einsum("ij,ij->j", half, half), shift, diagnostics)
    delta = _increment(K_bar[:-1, :-1], K_bar[:-1, -1], float(K_bar[-1, -1]), gamma, epsilon, factor[-1, :-1])
    return tau, delta


def update_deff(
    deff_tilde: float,
    delta_tilde: float,
    epsilon: float,
    *,
    diagnostics: Diagnostics | None = None,
) -> float:
    """Fold an estimated increment into the running effective-dimension
    estimate, scaling by ``alpha`` so the result stays above the exact value.

    Tiny negative increments (roundoff) are clamped to zero to preserve
    monotonicity; anything below ``-1e-10`` is a genuine invariant breach.
    """
    if not deff_tilde > 0:
        raise InputError("running effective-dimension estimate must be positive")
    if delta_tilde < -_NEGATIVE_INCREMENT_TOL:
        raise InvariantViolation(
            f"estimated increment {delta_tilde:.6e} is negative beyond tolerance"
        )
    if delta_tilde < 0.0:
        if diagnostics is not None:
            diagnostics.increment_clamped += 1
        delta_tilde = 0.0
    return deff_tilde + alpha_factor(epsilon) * delta_tilde


def clamp_probabilities(new: np.ndarray, old: np.ndarray) -> np.ndarray:
    """Element-wise minimum of ``new`` and ``old`` at ``old``'s positions.

    ``new`` is aligned with ``old`` and may run longer: entries past ``old``
    (a brand-new index has no previous value) pass through unclamped.
    """
    out = np.array(new, dtype=np.float64)
    np.minimum(out[: len(old)], old, out=out[: len(old)])
    return out
