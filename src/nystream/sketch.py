"""The dictionary sketch ``ink-estimate`` reads at each step, and the
inverses it carries from one step to the next.

For a dictionary with kernel block ``D`` (Q x Q) and integer weights ``b``,
the weighted Nystrom approximation restricted to dictionary rows is

    K~ = D N D,   N = (D + Gamma)^-1,   Gamma = gamma * diag(1 / b),

so ``K~ = D - Gamma + Gamma N Gamma``.  A step needs ``(K~ + shift I)^-1``
at two shifts (``alpha * gamma`` for the leverage scores, ``gamma`` for the
increment's squared-inverse form) and the Q quadratic forms
``diag(D (K~ + alpha gamma I)^-1 D)``.  Between two steps only a column or
two of the dictionary changes, so :class:`CarriedSketch` keeps ``D`` itself,
``N``, both inverses and the quadratic forms, and moves them to the next
dictionary in O(k Q^2) for k changed columns (``D`` is restricted to the
surviving columns and bordered with the admitted one):

* a weight change ``b -> b'`` adds ``gamma (1/b' - 1/b)`` to one diagonal
  entry of ``D + Gamma``: a rank-one change of ``N`` and of ``K~``; an
  eviction is its ``b' -> 0`` limit followed by deleting the coordinate.
  All of a step's reweights and evictions go through one Woodbury update;
* an admission borders ``D`` with the new column ``(c, k)`` and ``D + Gamma``
  with ``(c, k + gamma / b)``, which is a rank-one change of ``K~`` on the old
  coordinates followed by a bordering.

:meth:`CarriedSketch.rebuild` computes the same quantities from scratch,
with one :func:`shifted_cholesky` of ``D + Gamma`` (scaled as
:class:`NystromFactor` holds it) and one of ``K~`` at each shift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .linalg import _inverse, shifted_cholesky
from .nystrom import Selection, nystrom_approx


def _border(M: np.ndarray, v: np.ndarray, corner: float) -> np.ndarray:
    t = M.shape[0]
    out = np.empty((t + 1, t + 1))
    out[:t, :t] = M
    out[:t, t] = v
    out[t, :t] = v
    out[t, t] = corner
    return out


@dataclass(frozen=True)
class CarriedSketch:
    """The kernel block ``gram`` (``D``), ``N``, ``(K~ + shift I)^-1``,
    ``(K~ + gamma I)^-1`` and ``diag(D (K~ + shift I)^-1 D)`` for one
    dictionary, aligned with its ``indices`` and ``counts``.  No array is
    written after construction."""

    indices: np.ndarray
    counts: np.ndarray
    gram: np.ndarray
    inv_m: np.ndarray
    inv_shift: np.ndarray
    inv_gamma: np.ndarray
    quad: np.ndarray
    gamma: float
    shift: float

    @classmethod
    def rebuild(cls, indices, counts, gram, gamma: float, shift: float) -> CarriedSketch:
        """The carried quantities from scratch.

        Raises :class:`NumericalError` when ``D + Gamma`` is not positive
        definite.
        """
        # The dictionary-row restriction of the weighted selection applied to
        # the kernel matrix: cross = D B^{1/2}, sampled = B^{1/2} D B^{1/2}.
        q = counts.shape[0]
        sqrt_b = np.sqrt(counts)
        factor = nystrom_approx(gram, Selection(np.arange(q), sqrt_b, q), gamma)
        # K~ as NystromFactor.materialize computes it, keeping the factor of
        # sampled + gamma I for N = B^{1/2} (sampled + gamma I)^-1 B^{1/2}.
        L_m = shifted_cholesky(factor.sampled, gamma)
        F = solve_triangular(L_m, factor.cross.T, lower=True, check_finite=False).T
        tilde = F @ F.T
        inv_m = _inverse(L_m) * np.outer(sqrt_b, sqrt_b)
        L = shifted_cholesky(tilde, shift)
        half = solve_triangular(L, gram, lower=True, check_finite=False)
        return cls(
            indices, counts, gram, inv_m, _inverse(L), _inverse(shifted_cholesky(tilde, gamma)),
            np.einsum("ij,ij->j", half, half), gamma, shift,
        )

    def moved_block(self, indices, new_index: int, cross: np.ndarray, self_term: float):
        """``(pos, gram)`` for the dictionary ``indices`` that one step made
        from this one: the positions here of the columns it kept, and this
        block restricted to them (shared if all are kept) and bordered with
        ``new_index``'s column ``(cross, self_term)`` if it was admitted.
        None when ``indices`` is not such a successor."""
        q0, q1 = self.indices.shape[0], indices.shape[0]
        admitted = q1 > 0 and indices[-1] == new_index
        m = q1 - admitted
        pos = np.searchsorted(self.indices, indices[:m])
        if m == 0 or pos[-1] >= q0 or not np.array_equal(self.indices[pos], indices[:m]):
            return None
        gram = self.gram if m == q0 else self.gram[np.ix_(pos, pos)]
        if admitted:
            gram = _border(gram, cross[pos], self_term)
        return pos, gram

    def advance(self, indices, counts, pos, gram) -> CarriedSketch | None:
        """The carried quantities for the successor dictionary ``(indices,
        counts)`` on the block ``(pos, gram)`` that :meth:`moved_block` gives
        for it; None when a Schur complement of the update is not positive
        (only a rebuild can tell why)."""
        q0, m = self.indices.shape[0], pos.shape[0]
        b_new = np.zeros(q0, dtype=np.int64)
        b_new[pos] = counts[:m]
        changed = np.flatnonzero(b_new != self.counts)
        out = (self.inv_m, self.inv_shift, self.inv_gamma, self.quad)
        if changed.size:
            out = self._reweighted(changed, b_new[changed], pos if m < q0 else None)
        if m < indices.shape[0]:
            out = self._admitted(*out, counts, gram)
            if out is None:
                return None
        return CarriedSketch(indices, counts, gram, *out, self.gamma, self.shift)

    def _reweighted(self, changed, b1, pos):
        """One Woodbury update for every weight change and eviction (new
        weight 0), restricted to the retained positions ``pos`` (None when
        nothing is evicted)."""
        b0 = self.counts[changed].astype(np.float64)
        # (D + Gamma + E_S diag(delta) E_S^T)^-1 = N - N_S T^-1 N_S^T with
        # T = diag(1/delta) + N_SS and delta = gamma (1/b1 - 1/b0); an
        # eviction (b1 = 0) has 1/delta = 0.
        n_s = self.inv_m[:, changed]
        T = n_s[changed] + np.diag(b0 * b1 / (self.gamma * (b0 - b1)))
        # K~ changes by -H T^-1 H^T with H = D N_S = E_S - Gamma N_S.  Deleting
        # a coordinate is the limit of adding t e_j e_j^T to K~ + shift I as
        # t -> infinity, so each evicted coordinate joins H as a unit column
        # whose block of the capacitance inverse is 0.
        k = changed.shape[0]
        gone = changed[b1 == 0]
        H = np.zeros((n_s.shape[0], k + gone.shape[0]))
        H[:, :k] = n_s * (-self.gamma / self.counts)[:, None]
        H[changed, np.arange(k)] += 1.0
        H[gone, k + np.arange(gone.shape[0])] = 1.0
        middle = np.zeros((H.shape[1], H.shape[1]))
        middle[:k, :k] = -T
        rows = slice(None) if pos is None else pos
        inv_m = _plus_low_rank(_kept(self.inv_m, pos), n_s[rows], -np.linalg.inv(T))
        updated = []
        for P in (self.inv_shift, self.inv_gamma):
            V = P @ H
            C = -np.linalg.inv(middle + H.T @ V)
            updated.append((_plus_low_rank(_kept(P, pos), V[rows], C), V, C))
        (inv_shift, V, C), (inv_gamma, *_) = updated
        Y = self.gram @ V
        quad = self.quad + np.einsum("ij,ij->i", Y @ C, Y)
        return inv_m, inv_shift, inv_gamma, quad[rows]

    def _admitted(self, inv_m, inv_shift, inv_gamma, quad, counts, gram):
        """Border every carried quantity with the newest column, the last
        one of ``gram``."""
        m = inv_m.shape[0]
        c, k = gram[:m, m], float(gram[m, m])
        gamma_new = self.gamma / float(counts[m])
        v = inv_m @ c
        sigma = k + gamma_new - float(c @ v)
        if not sigma > 0:
            return None
        # (D + Gamma)^-1 bordered: N + (v; -1)(v; -1)^T / sigma.  K~ gains
        # (Gamma v)(Gamma v)^T / sigma on the old coordinates and the border
        # column a with corner kappa.
        inv_m = _plus_low_rank(_border(inv_m, 0.0, 0.0), np.append(v, -1.0)[:, None], np.array([[1.0 / sigma]]))
        h = (self.gamma / counts[:m]) * v
        a = c - (gamma_new / sigma) * h
        kappa = k - gamma_new + gamma_new * gamma_new / sigma
        bordered = []
        for P, shift in ((inv_shift, self.shift), (inv_gamma, self.gamma)):
            # (P^-1 + h h^T / sigma)^-1 = P - z z^T / rho, then bordered with
            # (a, kappa + shift): + (u; -1)(u; -1)^T / s.
            Z = P @ np.stack((h, a, c), axis=1)
            z = Z[:, 0]
            rho = sigma + float(h @ z)
            u = Z[:, 1] - z * (float(z @ a) / rho)
            s = kappa + shift - float(a @ u)
            if not s > 0:
                return None
            W = np.zeros((m + 1, 2))
            W[:m, 0], W[:m, 1], W[m, 1] = z, u, -1.0
            bordered.append((_plus_low_rank(_border(P, 0.0, 0.0), W, np.diag([-1.0 / rho, 1.0 / s])), Z, rho, u, s))
        (inv_shift, Z, rho, u, s), (inv_gamma, *_) = bordered
        # With x = (D_i, c_i): x^T P' x = D_i^T P D_i - (D_i^T z)^2 / rho
        # + (D_i^T u - c_i)^2 / s.
        z = Z[:, 0]
        DZ = gram[:m, :m] @ Z[:, :2]
        dz = DZ[:, 0]
        du = DZ[:, 1] - dz * (float(z @ a) / rho)
        pc = Z[:, 2] - z * (float(z @ c) / rho)
        quad_new = float(c @ pc) + (float(u @ c) - k) ** 2 / s
        quad = np.append(quad - dz * dz / rho + (du - c) ** 2 / s, quad_new)
        return inv_m, inv_shift, inv_gamma, quad

    def query(self, cross: np.ndarray, self_term: float) -> tuple[np.ndarray, float, float, float]:
        """Forms of the sketch bordered with the new column ``(c, k)``:
        ``x_j^T (K_bar + shift I)^-1 x_j`` for each column ``x_j`` of ``D``
        bordered with ``(c, k)``, the new one last; ``c^T (K~ + shift I)^-1
        c``; ``|(K~ + gamma I)^-1 c|^2``; and the bordered Schur complement
        ``s = k + shift - c^T (K~ + shift I)^-1 c``.  The forms are only
        meaningful when ``s > 0``."""
        u = self.inv_shift @ cross
        quad_c = float(cross @ u)
        s = self_term + self.shift - quad_c
        w = self.inv_gamma @ cross
        forms = np.append(self.quad + (self.gram @ u - cross) ** 2 / s, quad_c + (quad_c - self_term) ** 2 / s)
        return forms, quad_c, float(w @ w), s


def _kept(P: np.ndarray, pos) -> np.ndarray:
    """``P`` restricted to the retained positions ``pos`` (None: all)."""
    return P if pos is None else P[np.ix_(pos, pos)]


def _plus_low_rank(P: np.ndarray, W: np.ndarray, C: np.ndarray) -> np.ndarray:
    """``P + W C W^T``."""
    return P + W @ C @ W.T
