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
  All of a step's reweights and evictions go through one Woodbury update,
  which for a single reweight and no eviction is that rank-one update;
* an admission borders ``D`` with the new column ``(c, k)`` and ``D + Gamma``
  with ``(c, k + gamma / b)``, which is a rank-one change of ``K~`` on the old
  coordinates followed by a bordering.

:meth:`CarriedSketch.rebuild` computes the same quantities from scratch,
with one :func:`shifted_cholesky` of ``D + Gamma`` (scaled as
:class:`NystromFactor` holds it) and one of ``K~`` at each shift.

Each carried Q x Q array is allocated by the step that produces it and
filled once: the surviving block is copied into it run by run (one block
copy per pair of runs of consecutive kept positions), and the step's
low-rank terms are added in place by BLAS ``dgemm``.  No array is written
after its sketch is built, so a step that only reweights shares its
predecessor's kernel block, and a step that changes nothing keeps its
predecessor's sketch itself: the streaming step passes such a dictionary on
as the same object, and the oracle queries the sketch built for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.blas import dgemm

from .errors import InvariantViolation
from .linalg import _inverse, shifted_cholesky
from .nystrom import Selection, nystrom_approx
from .sampling import selection_weights


@dataclass(frozen=True)
class CarriedSketch:
    """The kernel block ``gram`` (``D``), ``N``, ``(K~ + shift I)^-1``,
    ``(K~ + gamma I)^-1`` and ``diag(D (K~ + shift I)^-1 D)`` for one
    dictionary, aligned with its ``indices`` and ``counts``.  Each array is
    allocated by the step (or rebuild) that made this sketch, filled there
    once and not written afterwards; a successor never writes it."""

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
        sqrt_b = selection_weights(counts)
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
        block restricted to them (shared if all are kept and none admitted)
        and bordered with ``new_index``'s column ``(cross, self_term)`` if it
        was admitted.  None when ``indices`` is not such a successor."""
        q0, q1 = self.indices.shape[0], indices.shape[0]
        admitted = q1 > 0 and indices[-1] == new_index
        m = q1 - admitted
        pos = np.searchsorted(self.indices, indices[:m])
        if m == 0 or pos[-1] >= q0 or not (self.indices[pos] == indices[:m]).all():
            return None
        if m == q0 and not admitted:
            return pos, self.gram
        gram = _kept_block(self.gram, _runs(pos), q1)
        if admitted:
            border = cross[pos]
            gram[:m, m] = border
            gram[m, :m] = border
            gram[m, m] = self_term
        return pos, gram

    def advance(self, indices, counts, pos, gram) -> CarriedSketch | None:
        """The carried quantities for the successor dictionary ``(indices,
        counts)`` on the block ``(pos, gram)`` that :meth:`moved_block` gives
        for it; None when a Schur complement of the update is not positive
        (only a rebuild can tell why)."""
        q0, m, q1 = self.indices.shape[0], pos.shape[0], indices.shape[0]
        b_new = np.zeros(q0, dtype=np.int64)
        b_new[pos] = counts[:m]
        changed = np.flatnonzero(b_new != self.counts)
        runs = _runs(pos)
        carried = tuple(_kept_block(P, runs, q1) for P in (self.inv_m, self.inv_shift, self.inv_gamma))
        quad = self._reweight(changed, b_new[changed], pos, *carried) if changed.size else self.quad
        if m < q1:
            quad = self._admit(*carried, quad, counts, gram)
            if quad is None:
                return None
        return CarriedSketch(indices, counts, gram, *carried, quad, self.gamma, self.shift)

    def _reweight(self, changed, b1, pos, inv_m, inv_shift, inv_gamma):
        """One Woodbury update for every weight change and eviction (new
        weight 0), added in place to the kept blocks ``inv_m``, ``inv_shift``
        and ``inv_gamma``; returns the forms restricted to the retained
        positions ``pos``.  A step that changes one weight and evicts nothing
        makes it a rank-one update on 1-column arrays, whose 1 x 1
        capacitance matrices are inverted as scalars
        (:func:`_capacitance_inverse`)."""
        # (D + Gamma + E_S diag(delta) E_S^T)^-1 = N - N_S T^-1 N_S^T with
        # T = diag(1/delta) + N_SS and delta = gamma (1/b1 - 1/b0); an
        # eviction (b1 = 0) has 1/delta = 0.
        n_s = self.inv_m[:, changed]
        # K~ changes by -H T^-1 H^T with H = D N_S = E_S - Gamma N_S.
        H = n_s * (-self.gamma / self.counts)[:, None]
        if changed.shape[0] == 1 and b1[0]:
            b0, b = float(self.counts[changed[0]]), float(b1[0])
            T = n_s[changed] + b0 * b / (self.gamma * (b0 - b))
            H[changed[0], 0] += 1.0
            middle = -T
        else:
            b0 = self.counts[changed].astype(np.float64)
            T = n_s[changed] + np.diag(b0 * b1 / (self.gamma * (b0 - b1)))
            # Deleting a coordinate is the limit of adding t e_j e_j^T to
            # K~ + shift I as t -> infinity, so each evicted coordinate joins H
            # as a unit column whose block of the capacitance inverse is 0.
            k = changed.shape[0]
            gone = changed[b1 == 0]
            wide = np.zeros((H.shape[0], k + gone.shape[0]))
            wide[:, :k] = H
            H = wide
            H[changed, np.arange(k)] += 1.0
            H[gone, k + np.arange(gone.shape[0])] = 1.0
            middle = np.zeros((H.shape[1], H.shape[1]))
            middle[:k, :k] = -T
        q1 = inv_m.shape[0]
        _add_low_rank(inv_m, _padded(n_s[pos], q1), -_capacitance_inverse(T))
        updated = []
        for P, out in ((self.inv_shift, inv_shift), (self.inv_gamma, inv_gamma)):
            V = P @ H
            C = -_capacitance_inverse(middle + H.T @ V)
            _add_low_rank(out, _padded(V[pos], q1), C)
            updated.append((V, C))
        V, C = updated[0]
        Y = self.gram @ V
        quad = self.quad + np.einsum("ij,ij->i", Y @ C, Y)
        return quad[pos]

    def _admit(self, inv_m, inv_shift, inv_gamma, quad, counts, gram):
        """Border the carried quantities with the newest column, the last
        one of ``gram``: in place on ``inv_m``, ``inv_shift`` and
        ``inv_gamma``, whose top-left blocks hold the predecessor's
        quantities after this step's reweights and whose last row and column
        are zero.  Returns the bordered forms, or None when a Schur
        complement is not positive."""
        m = quad.shape[0]
        c, k = gram[:m, m], float(gram[m, m])
        gamma_new = self.gamma / float(counts[m])
        v = inv_m[:m, :m] @ c
        sigma = k + gamma_new - float(c @ v)
        if not sigma > 0:
            return None
        # (D + Gamma)^-1 bordered: N + (v; -1)(v; -1)^T / sigma.  K~ gains
        # (Gamma v)(Gamma v)^T / sigma on the old coordinates and the border
        # column a with corner kappa.
        _add_low_rank(inv_m, np.append(v, -1.0)[:, None], np.array([[1.0 / sigma]]))
        h = (self.gamma / counts[:m]) * v
        a = c - (gamma_new / sigma) * h
        kappa = k - gamma_new + gamma_new * gamma_new / sigma
        bordered = []
        for P, shift in ((inv_shift, self.shift), (inv_gamma, self.gamma)):
            # (P^-1 + h h^T / sigma)^-1 = P - z z^T / rho, then bordered with
            # (a, kappa + shift): + (u; -1)(u; -1)^T / s.
            Z = P[:m, :m] @ np.stack((h, a, c), axis=1)
            z = Z[:, 0]
            rho = sigma + float(h @ z)
            u = Z[:, 1] - z * (float(z @ a) / rho)
            s = kappa + shift - float(a @ u)
            if not s > 0:
                return None
            W = np.zeros((m + 1, 2))
            W[:m, 0], W[:m, 1], W[m, 1] = z, u, -1.0
            _add_low_rank(P, W, np.diag([-1.0 / rho, 1.0 / s]))
            bordered.append((Z, rho, u, s))
        Z, rho, u, s = bordered[0]
        # With x = (D_i, c_i): x^T P' x = D_i^T P D_i - (D_i^T z)^2 / rho
        # + (D_i^T u - c_i)^2 / s.
        z = Z[:, 0]
        DZ = gram[:m, :m] @ Z[:, :2]
        dz = DZ[:, 0]
        du = DZ[:, 1] - dz * (float(z @ a) / rho)
        pc = Z[:, 2] - z * (float(z @ c) / rho)
        quad_new = float(c @ pc) + (float(u @ c) - k) ** 2 / s
        return np.append(quad - dz * dz / rho + (du - c) ** 2 / s, quad_new)

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
        forms = np.empty(self.quad.shape[0] + 1)
        np.add(self.quad, (self.gram @ u - cross) ** 2 / s, out=forms[:-1])
        forms[-1] = quad_c + (quad_c - self_term) ** 2 / s
        return forms, quad_c, float(w @ w), s


def _capacitance_inverse(T: np.ndarray) -> np.ndarray:
    """``T^-1``; for a 1 x 1 ``T`` the reciprocal ``1 / T``, which is the
    bit-identical value LAPACK's LU solve gives, without the call."""
    return 1.0 / T if T.shape[0] == 1 else np.linalg.inv(T)


def _runs(pos: np.ndarray) -> list[tuple[int, int, int]]:
    """The non-empty ascending positions ``pos`` as runs of consecutive
    positions: ``(start, stop, first)`` for ``pos[start:stop] == first +
    arange(stop - start)``."""
    m = pos.shape[0]
    if pos[-1] - pos[0] == m - 1:  # one run, the common case, without the scan
        return [(0, m, int(pos[0]))]
    stops = (np.flatnonzero(pos[1:] - pos[:-1] != 1) + 1).tolist()
    starts = [0, *stops]
    return [(start, stop, int(pos[start])) for start, stop in zip(starts, [*stops, m])]


def _kept_block(P: np.ndarray, runs: list[tuple[int, int, int]], size: int) -> np.ndarray:
    """A fresh ``size x size`` array holding ``P``'s rows and columns at the
    positions ``pos`` that :func:`_runs` split into ``runs`` in its top-left
    corner, and zeros in the rows and columns after it: one block copy per
    pair of runs, (g + 1)^2 copies for g gaps in ``pos``."""
    m = runs[-1][1]
    out = np.empty((size, size))
    for start, stop, first in runs:
        rows = P[first : first + stop - start]
        for col_start, col_stop, col_first in runs:
            out[start:stop, col_start:col_stop] = rows[:, col_first : col_first + col_stop - col_start]
    if size > m:
        out[m:] = 0.0
        out[:m, m:] = 0.0
    return out


def _padded(W: np.ndarray, size: int) -> np.ndarray:
    """``W`` with zero rows appended up to ``size`` rows (``W`` itself when
    it has that many)."""
    if W.shape[0] == size:
        return W
    out = np.zeros((size, W.shape[1]))
    out[: W.shape[0]] = W
    return out


def _add_low_rank(out: np.ndarray, W: np.ndarray, C: np.ndarray) -> None:
    """``out += W C W^T`` in place, as one BLAS ``dgemm`` on ``out^T``: that
    is ``out`` in the column-major layout BLAS writes, so no copy is made."""
    # W^T and (W C)^T are F-contiguous views too, so no argument is copied.
    # f2py would copy a c that is not F-contiguous and return the copy; then
    # the update would never reach ``out``.
    target = out.T
    if dgemm(1.0, W.T, (W @ C).T, beta=1.0, c=target, trans_a=1, overwrite_c=1) is not target:
        raise InvariantViolation("dgemm returned a copy of the carried matrix instead of updating it")
