"""Regularized Nystrom approximation in factored form, plus exact and
approximate kernel ridge regression solvers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np
from scipy.linalg import solve_triangular

from .errors import InputError
from .kernels import DESK_SCALE_CAP
from .leverage import Diagnostics
from .linalg import eig_pairs, regularized_solve, shifted_cholesky, symmetrize


@dataclass(frozen=True)
class Selection:
    """A weighted column selection: (index, weight) pairs over ``t`` columns.

    Pairs may repeat an index (with-replacement batch sampling); streaming
    dictionaries contribute each index once.  Readers gather the selected
    columns through :meth:`arrays`; no dense t x Q operator is built.
    """

    pairs: tuple[tuple[int, float], ...]
    t: int

    def __post_init__(self) -> None:
        for i, w in self.pairs:
            if not 0 <= i < self.t:
                raise InputError(f"selection index {i} out of range for t={self.t}")
            if not w > 0:
                raise InputError(f"selection weight for index {i} must be positive")

    @property
    def size(self) -> int:
        return len(self.pairs)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.pairs)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Indices and weights as aligned arrays, one entry per pair."""
        idx, w = zip(*self.pairs) if self.pairs else ((), ())
        return np.array(idx, dtype=np.intp), np.array(w, dtype=np.float64)


def build_selection(
    indices: Iterable[int], weights: Mapping[int, float], t: int
) -> Selection:
    """Selection operator from drawn indices and a per-index weight map."""
    pairs = tuple((int(i), float(weights[int(i)])) for i in indices)
    return Selection(pairs=pairs, t=int(t))


@dataclass(frozen=True)
class NystromFactor:
    """Factored approximation ``cross (sampled + gamma I)^{-1} cross^T``.

    ``cross`` holds rows of the weighted selected columns: all t rows at desk
    scale, or just the dictionary rows in streaming mode (the evaluation
    harness re-streams the data to assemble the full block).  ``sampled``
    must be exactly symmetric, as :func:`nystrom_approx` and the streaming
    loop build it: it is factored as given.  Immutable once built.
    """

    cross: np.ndarray
    sampled: np.ndarray
    gamma: float

    def __post_init__(self) -> None:
        if not self.gamma > 0:
            raise InputError("gamma must be positive")
        q = self.sampled.shape[0]
        if self.sampled.shape != (q, q):
            raise InputError("sampled block must be square")
        if self.cross.ndim != 2 or self.cross.shape[1] != q:
            raise InputError("cross block width must match the sampled block")

    @property
    def size(self) -> int:
        return self.sampled.shape[0]

    def whitened(self) -> np.ndarray:
        """The rows x Q factor ``F = cross L^{-T}`` of the approximation
        ``F F^T``, where ``sampled + gamma I = L L^T``.

        Raises :class:`NumericalError` when ``sampled + gamma I`` is not
        positive definite.
        """
        if self.size == 0:
            return np.zeros((self.cross.shape[0], 0))
        L = shifted_cholesky(self.sampled, self.gamma)
        return solve_triangular(L, self.cross.T, lower=True, check_finite=False).T

    def materialize(self, cap: int = DESK_SCALE_CAP) -> np.ndarray:
        """Dense approximation over the rows present in ``cross``; exactly
        symmetric, because ``F @ F.T`` is computed as one triangle and
        mirrored."""
        n = self.cross.shape[0]
        if n > cap:
            raise InputError(f"dense materialization capped at {cap} rows")
        F = self.whitened()
        return F @ F.T


def nystrom_approx(K: np.ndarray, selection: Selection, gamma: float) -> NystromFactor:
    """Build the factored approximation of a dense kernel matrix."""
    K = symmetrize(K)
    if K.shape[0] != selection.t:
        raise InputError("selection row count must match the kernel matrix")
    idx, w = selection.arrays()
    cross = K[:, idx] * w
    # w_i * w_j is exact in either order, so the block is exactly symmetric.
    sampled = K[np.ix_(idx, idx)] * np.outer(w, w)
    return NystromFactor(cross=cross, sampled=sampled, gamma=float(gamma))


def krr_exact(K: np.ndarray, mu: float, y: np.ndarray) -> np.ndarray:
    """Exact kernel ridge regression weights ``(K + mu I)^{-1} y``."""
    y = np.asarray(y, dtype=np.float64)
    return regularized_solve(K, mu, y)


def krr_approx(
    factor: NystromFactor,
    mu: float,
    y: np.ndarray,
    *,
    diagnostics: Diagnostics | None = None,
) -> np.ndarray:
    """Approximate ridge weights through the factored form.

    Uses the inversion shortcut ``(C C^T + mu I)^{-1} y =
    (y - C (C^T C + mu I)^{-1} C^T y) / mu`` with ``C`` the whitened cross
    block, so only a Q x Q system is ever solved.  ``factor.cross`` must hold
    all t rows.  An empty selection returns ``y / mu`` exactly.
    """
    if not mu > 0:
        raise InputError("mu must be positive")
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if factor.cross.shape[0] != y.shape[0]:
        raise InputError("factor rows must match the response length")
    if factor.size == 0:
        return y / mu
    pair = eig_pairs(factor.sampled)
    lam = pair.eigenvalues.copy()
    floored = int(np.sum(lam < 0.0))
    if floored and diagnostics is not None:
        diagnostics.sqrt_eig_floored += floored
    np.clip(lam, 0.0, None, out=lam)
    # Symmetric square root of (sampled + gamma I)^{-1}.
    root = (pair.eigenvectors / np.sqrt(lam + factor.gamma)[None, :]) @ pair.eigenvectors.T
    C = factor.cross @ root
    inner = regularized_solve(C.T @ C, mu, C.T @ y)
    return (y - C @ inner) / mu
