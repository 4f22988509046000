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

The sketch owns one buffer per carried matrix (``D``, ``N`` and the two
inverses), each a C-contiguous array with ``_SLACK`` = 8 rows and columns to
spare when it is allocated; the matrix is its leading Q x Q block, and the
rest of the buffer is zero.  A step updates the buffers where they lie: a
step's reweights and evictions add their Woodbury term to each buffer by one
BLAS call (``dger`` for a rank-one term, ``dgemm`` otherwise) on the layout
before the step, and an eviction then compacts the kept rows and columns
inside each buffer; an admission writes the new kernel column into ``D``'s
zero border and borders the other three on theirs.  A buffer is reallocated
only when Q outgrows it, and a rebuild refills the same buffers.  So moving
the sketch consumes it: the oracle that holds it is its only reader.  The
streaming step tells the oracle what moved by the dictionary it passes on:
the same object when nothing changed (the oracle queries the sketch as it
is), a new one on the same ``indices`` array when only weights changed
(:meth:`CarriedSketch.reweight` moves the sketch on the positions it has,
leaving ``D`` untouched), and new arrays when the step admitted or evicted
(:meth:`CarriedSketch.successor` matches the positions, and
:meth:`CarriedSketch.advance` moves the sketch along them).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.blas import dgemm, dger

from .errors import InvariantViolation
from .linalg import _inverse, shifted_cholesky
from .nystrom import Selection, nystrom_approx
from .sampling import selection_weights

# Rows and columns a buffer holds past Q when it is (re)allocated, so that
# admissions border the matrices in place until Q outgrows them.
_SLACK = 8


class CarriedSketch:
    """The kernel block ``gram`` (``D``), ``N``, ``inv_shift`` = ``(K~ +
    shift I)^-1``, ``inv_gamma`` = ``(K~ + gamma I)^-1`` and ``quad`` =
    ``diag(D (K~ + shift I)^-1 D)`` for one dictionary, aligned with its
    ``indices`` and ``counts``.

    The four Q x Q matrices are views of the leading blocks of four
    C-contiguous buffers of ``Q + _SLACK`` rows and columns (as of their last
    allocation), whose entries past the leading block are zero; ``diagonal``
    views ``D``'s diagonal through the whole buffer.  :meth:`reweight`,
    :meth:`advance` and :meth:`rebuild` write the buffers in place, so a
    sketch stands for one dictionary at a time: moving it to a successor
    consumes it.  The factors of an update are formed in one scratch array
    the sketch keeps beside the buffers.
    """

    def __init__(self, gamma: float, shift: float):
        """The sketch of the empty dictionary."""
        self.gamma, self.shift = gamma, shift
        self.indices = self.counts = np.zeros(0, dtype=np.int64)
        self.quad = np.zeros(0)
        self._buffers = np.zeros((4, 0, 0))
        self.diagonal = self._buffers[0].reshape(-1)
        self._spare = np.empty(0)
        self._sized(0)

    def _sized(self, q: int) -> None:
        """Point ``gram``, ``inv_m``, ``inv_shift`` and ``inv_gamma`` at the
        buffers' leading q x q blocks."""
        self.size = q
        self.gram, self.inv_m, self.inv_shift, self.inv_gamma = self._buffers[:, :q, :q]

    def _reserve(self, q: int) -> None:
        """Buffers with room for a q x q block: reallocated, with the current
        blocks copied in, only when q outgrows them."""
        if q > self._buffers.shape[1]:
            size, cap = self.size, q + _SLACK
            buffers = np.zeros((4, cap, cap))
            buffers[:, :size, :size] = self._buffers[:, :size, :size]
            self._buffers = buffers
            self.diagonal = buffers[0].reshape(-1)[:: cap + 1]
            self._sized(size)

    def rebuild(self, indices, counts, gram: np.ndarray | None = None) -> None:
        """The carried quantities from scratch, for the dictionary ``(indices,
        counts)`` on its kernel block ``gram``, or on the block ``D`` holds
        already when ``gram`` is None.

        Raises :class:`NumericalError` when ``D + Gamma`` is not positive
        definite; the buffers are then as they were.
        """
        # The dictionary-row restriction of the weighted selection applied to
        # the kernel matrix: cross = D B^{1/2}, sampled = B^{1/2} D B^{1/2}.
        q = counts.shape[0]
        block = self.gram if gram is None else gram
        sqrt_b = selection_weights(counts)
        factor = nystrom_approx(block, Selection(np.arange(q), sqrt_b, q), self.gamma)
        # K~ as NystromFactor.materialize computes it, keeping the factor of
        # sampled + gamma I for N = B^{1/2} (sampled + gamma I)^-1 B^{1/2}.
        L_m = shifted_cholesky(factor.sampled, self.gamma)
        F = solve_triangular(L_m, factor.cross.T, lower=True, check_finite=False).T
        tilde = F @ F.T
        inv_m = _inverse(L_m) * np.outer(sqrt_b, sqrt_b)
        L = shifted_cholesky(tilde, self.shift)
        half = solve_triangular(L, block, lower=True, check_finite=False)
        inv_shift = _inverse(L)
        inv_gamma = _inverse(shifted_cholesky(tilde, self.gamma))
        if gram is not None:
            self._reserve(q)
            size = self.size
            self._buffers[:, q:size] = 0.0
            self._buffers[:, :q, q:size] = 0.0
            self._sized(q)
            self.gram[...] = gram
        self.inv_m[...] = inv_m
        self.inv_shift[...] = inv_shift
        self.inv_gamma[...] = inv_gamma
        self.indices, self.counts = indices, counts
        self.quad = np.einsum("ij,ij->j", half, half)

    def successor(self, indices, new_index: int) -> np.ndarray | None:
        """The positions here of the columns that the dictionary ``indices``
        kept, when one step made it from this sketch's dictionary (keeping
        at least one column and admitting at most ``new_index``, last); None
        otherwise."""
        q1 = indices.shape[0]
        m = q1 - (q1 > 0 and indices[-1] == new_index)
        if m == 0:
            return None
        kept = indices[:m]
        pos = self.indices.searchsorted(kept)
        if pos[-1] < self.size and np.logical_and.reduce(self.indices[pos] == kept):
            return pos
        return None

    def reweight(self, counts) -> None:
        """Move the sketch in place to the weights ``counts`` on the positions
        it has, where 0 marks a column that :meth:`advance` deletes next: one
        Woodbury update for every weight change and eviction, added to ``N``,
        ``inv_shift`` and ``inv_gamma`` where they lie, with the forms
        updated to match; ``D`` is untouched.  The successor of a step that
        admitted and evicted nothing keeps this sketch's ``indices`` array
        and moves by this call alone: no position match and no gathers.

        The three factors are formed in the sketch's scratch array, padded
        with zero rows to the buffers' height; the two shifted inverses'
        products, capacitance matrices and inverses are formed together on
        the stacked buffers.  A step that changes one weight and evicts
        nothing makes it a rank-one update on vectors and scalars."""
        # (D + Gamma + E_S diag(delta) E_S^T)^-1 = N - N_S T^-1 N_S^T with
        # T = diag(1/delta) + N_SS and delta = gamma (1/b1 - 1/b0); an
        # eviction (b1 = 0) has 1/delta = 0.  K~ changes by -H T^-1 H^T with
        # H = D N_S = E_S - Gamma N_S, so (K~ + s I)^-1 gains V (T - H^T V)^-1
        # V^T with V = (K~ + s I)^-1 H.  Rows of the buffers past Q are zero,
        # so N's columns and the products over whole buffer rows are padded
        # already.
        q, gamma, b_old = self.size, self.gamma, self.counts
        changed = (counts != b_old).nonzero()[0]
        self.counts = counts
        if not changed.shape[0]:
            return
        b1 = counts[changed]
        N, cap = self._buffers[1], self._buffers.shape[1]
        shifted = self._buffers[2:, :, :q]
        if changed.shape[0] == 1 and b1[0]:
            j = int(changed[0])
            b0, b = float(b_old[j]), float(b1[0])
            W = self._workspace(3, cap)
            W[0] = N[:, j]
            h = W[0, :q] * (-gamma / b_old)
            h[j] += 1.0
            np.matmul(shifted, h, out=W[1:])
            T = float(W[0, j]) + b0 * b / (gamma * (b0 - b))
            c_shift, c_gamma = (-1.0 / (W[1:, :q] @ h - T)).tolist()
            C = (-1.0 / T, c_shift, c_gamma)
            Y = self.gram @ W[1, :q]
            quad = self.quad + Y * c_shift * Y
        else:
            # Deleting a coordinate is the limit of adding t e_j e_j^T to
            # K~ + shift I as t -> infinity, so each evicted coordinate joins H
            # as a unit column whose block of T is 0.  N's factor is zero in
            # those columns, and an identity block keeps its capacitance
            # matrix invertible.
            k, gone = changed.shape[0], changed[b1 == 0]
            r = k + gone.shape[0]
            cols = np.arange(r)
            W = self._workspace(3, cap, r)
            W[0, :, :k] = N[:, changed]
            W[0, :, k:] = 0.0
            b0 = b_old[changed].astype(np.float64)
            T = W[0, changed, :k]
            T[cols[:k], cols[:k]] += b0 * b1 / (gamma * (b0 - b1))
            H = W[0, :q] * (-gamma / b_old)[:, None]
            H[changed, cols[:k]] += 1.0
            H[gone, cols[k:]] = 1.0
            np.matmul(shifted, H, out=W[1:])
            C = np.zeros((3, r, r))
            C[0, :k, :k] = T
            C[0, cols[k:], cols[k:]] = 1.0
            np.matmul(H.T, W[1:, :q], out=C[1:])
            C[1:, :k, :k] -= T
            C = -np.linalg.inv(C)
            Y = self.gram @ W[1, :q]
            quad = self.quad + np.add.reduce(Y @ C[1] * Y, axis=1)
        for P, w, c in zip(self._buffers[1:], W, C):
            _add_low_rank(P, w, c, q)
        self.quad = quad

    def advance(self, indices, counts, pos, cross, self_term: float, update: bool = True) -> bool:
        """Move the sketch in place to the successor dictionary ``(indices,
        counts)`` for which :meth:`successor` gave ``pos``, bordering ``D``
        with the column ``(cross, self_term)`` of the step's new index if the
        step admitted it.  True when the carried quantities are the
        successor's; False when ``update`` is False or a Schur complement of
        the update is not positive.  ``D`` is the successor's block either
        way, and :meth:`rebuild` on it makes the rest (and tells why an
        update failed)."""
        q0, m, q1 = self.size, pos.shape[0], indices.shape[0]
        self._reserve(q1)
        b_new = np.zeros(q0, dtype=np.int64)
        b_new[pos] = counts[:m]
        if update:
            # The step's reweights and evictions (weight 0) on the layout
            # before it; compacting then deletes the evicted coordinates.
            self.reweight(b_new)
        quad = self.quad
        if m < q0:
            gone = (b_new == 0).nonzero()[0].tolist()
            for P in self._buffers:
                _compact(P, gone, q0)
            quad = quad[pos]
        if m < q1:
            D, border = self._buffers[0], cross[pos]
            D[:m, m] = border
            D[m, :m] = border
            D[m, m] = self_term
        self.indices, self.counts = indices, counts
        self._sized(q1)
        if not update:
            return False
        if m < q1:
            quad = self._admit(quad, counts, m)
            if quad is None:
                return False
        self.quad = quad
        return True

    def _workspace(self, *shape) -> np.ndarray:
        """A C-contiguous scratch array of ``shape``, a view of one buffer the
        sketch keeps for its update factors (grown, never shrunk), whose
        entries the caller writes before reading."""
        size = math.prod(shape)
        if self._spare.shape[0] < size:
            self._spare = np.empty(size)
        return self._spare[:size].reshape(shape)

    def _admit(self, quad, counts, m: int):
        """Border ``N``, ``inv_shift`` and ``inv_gamma`` in place with the
        newest column, which ``D``'s row and column ``m`` hold: their leading
        m x m blocks hold the predecessor's quantities after this step's
        reweights, and their row and column ``m`` are zero.  Returns the
        bordered forms, or None when a Schur complement is not positive."""
        D, N = self._buffers[0], self._buffers[1]
        cap = D.shape[0]
        c, k = D[:m, m], float(D[m, m])
        gamma_new = self.gamma / float(counts[m])
        v = N[:m, :m] @ c
        sigma = k + gamma_new - float(c @ v)
        if not sigma > 0:
            return None
        # (D + Gamma)^-1 bordered: N + (v; -1)(v; -1)^T / sigma.  K~ gains
        # (Gamma v)(Gamma v)^T / sigma on the old coordinates and the border
        # column a with corner kappa.
        W = np.zeros((cap, 1))
        W[:m, 0], W[m, 0] = v, -1.0
        _add_low_rank(N, W, np.array([[1.0 / sigma]]), m + 1)
        h = (self.gamma / counts[:m]) * v
        a = c - (gamma_new / sigma) * h
        kappa = k - gamma_new + gamma_new * gamma_new / sigma
        bordered = []
        for P, shift in ((self._buffers[2], self.shift), (self._buffers[3], self.gamma)):
            # (P^-1 + h h^T / sigma)^-1 = P - z z^T / rho, then bordered with
            # (a, kappa + shift): + (u; -1)(u; -1)^T / s.
            Z = P[:m, :m] @ np.stack((h, a, c), axis=1)
            z = Z[:, 0]
            rho = sigma + float(h @ z)
            u = Z[:, 1] - z * (float(z @ a) / rho)
            s = kappa + shift - float(a @ u)
            if not s > 0:
                return None
            W = np.zeros((cap, 2))
            W[:m, 0], W[:m, 1], W[m, 1] = z, u, -1.0
            _add_low_rank(P, W, np.diag([-1.0 / rho, 1.0 / s]), m + 1)
            bordered.append((Z, rho, u, s))
        Z, rho, u, s = bordered[0]
        # With x = (D_i, c_i): x^T P' x = D_i^T P D_i - (D_i^T z)^2 / rho
        # + (D_i^T u - c_i)^2 / s.
        z = Z[:, 0]
        DZ = D[:m, :m] @ Z[:, :2]
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


def _compact(P: np.ndarray, gone: list[int], size: int) -> None:
    """Delete the rows and columns at the ascending positions ``gone`` from
    the leading ``size x size`` block of the C-contiguous buffer ``P``, in
    place, and zero what the kept block leaves behind.  The kept rows move
    up as whole rows, each run of them one forward shift of ``P``'s flat
    memory (a 1-D move that numpy makes without a temporary); then the kept
    columns move left a run at a time."""
    cap = P.shape[1]
    flat = P.reshape(-1)
    bounds = [*gone, size]
    # The run after the j-th gone position moves up (then left) by j.
    for j in range(1, len(bounds)):
        lo, hi = bounds[j - 1] + 1, bounds[j]
        flat[(lo - j) * cap : (hi - j) * cap] = flat[lo * cap : hi * cap]
    m = size - len(gone)
    for j in range(1, len(bounds)):
        lo, hi = bounds[j - 1] + 1, bounds[j]
        P[:m, lo - j : hi - j] = P[:m, lo:hi]
    P[m:size] = 0.0
    P[:m, m:size] = 0.0


def _add_low_rank(P: np.ndarray, W: np.ndarray, C, n: int) -> None:
    """Add ``W C W^T`` to the leading ``n x n`` block of the C-contiguous
    buffer ``P``, in place, where ``W`` has a row per row of ``P`` and its
    rows past ``n`` are zero: one BLAS call on ``P[:n]^T``, which is ``P``'s
    first n rows in the column-major layout BLAS writes, so no copy is made.
    A vector ``W`` with a scalar ``C`` is a rank-one ``dger``; a matrix ``W``
    with a matrix ``C`` one ``dgemm``.  The columns of those rows past ``n``
    gain zero."""
    # W^T and (W[:n] C)^T are F-contiguous views too, so no argument is
    # copied.  f2py would copy an a or c that is not F-contiguous and return
    # the copy; then the update would never reach P.
    target = P[:n].T
    if W.ndim == 1:
        out = dger(C, W, W[:n], a=target, overwrite_a=1)
    else:
        out = dgemm(1.0, W.T, (W[:n] @ C).T, beta=1.0, c=target, trans_a=1, overwrite_c=1)
    if out is not target:
        raise InvariantViolation("BLAS returned a copy of the carried matrix instead of updating it")
