"""Regularized Nystrom approximation in factored form, plus exact and
approximate kernel ridge regression solvers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np
from scipy.linalg import solve_triangular

from .errors import InputError, positive
from .kernels import DESK_SCALE_CAP
from .linalg import regularized_solve, shifted_cholesky, symmetrize


@dataclass(frozen=True, eq=False)
class Selection:
    """A weighted column selection over ``t`` columns: aligned arrays of
    column ``indices`` (intp) and their positive ``weights`` (float64).

    Indices may repeat (with-replacement batch sampling); streaming
    dictionaries contribute each index once.  Readers gather the selected
    columns through the arrays; no dense t x Q operator is built.  Array
    fields make ``==`` ambiguous, so selections compare by identity.
    """

    indices: np.ndarray
    weights: np.ndarray
    t: int

    def __post_init__(self) -> None:
        indices = np.asarray(self.indices, dtype=np.intp)
        weights = np.asarray(self.weights, dtype=np.float64)
        if indices.ndim != 1 or indices.shape != weights.shape:
            raise InputError(f"selection needs aligned 1-D indices and weights, "
                             f"got shapes {indices.shape} and {weights.shape}")
        outside = np.flatnonzero((indices < 0) | (indices >= self.t))
        if outside.size:
            raise InputError(f"selection index {indices[outside[0]]} out of range for t={self.t}")
        bad = np.flatnonzero(~(weights > 0))
        if bad.size:
            raise InputError(f"selection weight for index {indices[bad[0]]} must be positive")
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "weights", weights)

    @property
    def size(self) -> int:
        return self.indices.shape[0]


def build_selection(
    indices: Iterable[int], weights: Mapping[int, float], t: int
) -> Selection:
    """Selection operator from drawn indices and a per-index weight map."""
    idx = [int(i) for i in indices]
    return Selection(np.array(idx, dtype=np.intp), np.array([weights[i] for i in idx], dtype=np.float64), int(t))


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
        positive("gamma", self.gamma)
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

    def materialize(self) -> np.ndarray:
        """Dense approximation over the rows present in ``cross``; exactly
        symmetric, because ``F @ F.T`` is computed as one triangle and
        mirrored."""
        if self.cross.shape[0] > DESK_SCALE_CAP:
            raise InputError(f"dense materialization capped at {DESK_SCALE_CAP} rows")
        F = self.whitened()
        return F @ F.T


def nystrom_approx(K: np.ndarray, selection: Selection, gamma: float) -> NystromFactor:
    """Build the factored approximation of a dense kernel matrix."""
    return _gathered(symmetrize(K), selection, gamma)


def _gathered(K: np.ndarray, selection: Selection, gamma: float) -> NystromFactor:
    """:func:`nystrom_approx` of a ``K`` that is already exactly symmetric
    and finite, as gram builds it and symmetrize returns it: the blocks are
    gathered from ``K`` as it is."""
    if K.shape[0] != selection.t:
        raise InputError("selection row count must match the kernel matrix")
    idx, w = selection.indices, selection.weights
    cross = K[:, idx] * w
    # w_i * w_j is exact in either order, so the block is exactly symmetric.
    sampled = K[np.ix_(idx, idx)] * np.outer(w, w)
    return NystromFactor(cross=cross, sampled=sampled, gamma=float(gamma))


def krr_approx(factor: NystromFactor, mu: float, y: np.ndarray) -> np.ndarray:
    """Approximate ridge weights through the factored form.

    Uses the inversion shortcut ``(F F^T + mu I)^{-1} y =
    (y - F (F^T F + mu I)^{-1} F^T y) / mu`` with ``F`` the whitened factor
    (:meth:`NystromFactor.whitened`), so only a Q x Q system is ever solved.
    ``factor.cross`` must hold all t rows.  An empty selection returns
    ``y / mu`` exactly.  Raises :class:`NumericalError` when ``sampled +
    gamma I`` is not positive definite.
    """
    positive("mu", mu)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if factor.cross.shape[0] != y.shape[0]:
        raise InputError("factor rows must match the response length")
    F = factor.whitened()
    inner = regularized_solve(F.T @ F, mu, F.T @ y)
    return (y - F @ inner) / mu
