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

A step makes one call, :meth:`CarriedSketch.query`, with the state's
dictionary and the step's new column; the sketch follows the dictionary and
then scores the column, or declines.  The streaming step tells it what
moved by the dictionary it passes on: the sketch's own (the same
``indices`` and ``counts`` arrays) when the step changed nothing, which is
queried as it is; one on the same ``indices`` array when only weights
changed, which the sketch reweights on the positions it has, leaving ``D``
untouched; and new arrays when the step admitted or evicted, which the
sketch matches to its positions (keeping at least one column, and admitting
at most the column of its last query, last), restricts to the kept columns
and borders with that column.  The query declines, answering None, for a
dictionary that is not one step's successor (the sketch is then as it
was), for an admission that meets a Schur complement that is not positive,
and for a new column whose bordered Schur complement is not positive; its
holder then rebuilds the sketch from the dictionary's points and asks once
more.

:meth:`CarriedSketch.rebuild` computes the same quantities from scratch,
with one :func:`shifted_cholesky` of ``D + Gamma`` (scaled as
:class:`NystromFactor` holds it), whose inverse ``N`` gives ``K~ = D -
Gamma + Gamma N Gamma``, one of ``K~`` at each shift, and one product
``(K~ + alpha gamma I)^-1 D`` for the forms.  There is no periodic rebuild:
each update adds rounding drift, and ``tests/test_sketch.py``'s
``test_drift_stays_within_the_condition_bound`` pins it on the benchmark's
streams to the number of updates, the condition number and the unit
roundoff.

The sketch owns one buffer per carried matrix (``D``, ``N`` and the two
inverses), each a C-contiguous array with ``max(_SLACK, Q // 4)`` rows and
columns to spare when it is allocated (``_SLACK`` = 8); the matrix is its
leading Q x Q block, and the rest of the buffer is zero.  A step updates the
buffers where they lie: a step's reweights and evictions add their Woodbury
term to each buffer by one BLAS call (``dger`` for a rank-one term,
``dgemm`` otherwise) on the layout before the step, and an eviction then
compacts the kept rows and columns inside each buffer; an admission writes
the new kernel column into ``D``'s zero border and borders the other three
on theirs (``dger`` for ``N``, one ``dgemm`` for each shifted inverse).  The
update's factors, a few columns as tall as the buffers, are formed in a new
array each time.  A buffer is reallocated only when Q outgrows it, and a
rebuild refills the same buffers.  So moving the sketch consumes it: the
oracle that holds it is its only reader.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import dgemm, dger

from .errors import InvariantViolation
from .linalg import _inverse, shifted_cholesky
from .sampling import selection_weights

# Rows and columns a buffer holds past Q when it is (re)allocated, at least
# _SLACK and a quarter of Q, so that admissions border the matrices in place
# until Q outgrows them, and a dictionary that grows reallocates a number of
# times logarithmic in its size.
_SLACK = 8


class CarriedSketch:
    """The kernel block ``gram`` (``D``), ``N``, ``inv_shift`` = ``(K~ +
    shift I)^-1``, ``inv_gamma`` = ``(K~ + gamma I)^-1`` and ``quad`` =
    ``diag(D (K~ + shift I)^-1 D)`` for one dictionary, aligned with its
    ``indices`` and ``counts``.

    The four Q x Q matrices are views of the leading blocks of four
    C-contiguous buffers of ``Q + max(_SLACK, Q // 4)`` rows and columns (as
    of their last allocation), whose entries past the leading block are
    zero.  :meth:`query` and :meth:`rebuild` write the buffers in place, so
    a sketch stands for one dictionary at a time: moving it to a successor
    consumes it, and a query that declines may leave it half moved, for a
    rebuild to refill.
    """

    def __init__(self, gamma: float, shift: float):
        """The sketch of the empty dictionary."""
        self.gamma, self.shift = gamma, shift
        self.indices = self.counts = np.zeros(0, dtype=np.int64)
        self.quad = np.zeros(0)
        self._buffers = np.zeros((4, 0, 0))
        # The (index, cross terms, self term) of the last column scored since
        # the last rebuild, which the next step may have admitted.
        self._column = None
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
            size, cap = self.size, q + max(_SLACK, q // 4)
            buffers = np.zeros((4, cap, cap))
            buffers[:, :size, :size] = self._buffers[:, :size, :size]
            self._buffers = buffers
            self._sized(size)

    def rebuild(self, indices, counts, gram: np.ndarray) -> None:
        """The carried quantities from scratch, for the dictionary ``(indices,
        counts)`` on its kernel block ``gram``; the sketch then holds no
        queried column.

        Raises :class:`NumericalError` when ``D + Gamma`` is not positive
        definite; the buffers are then as they were.
        """
        q = counts.shape[0]
        # N = (D + Gamma)^-1 = B^{1/2} (B^{1/2} D B^{1/2} + gamma I)^-1 B^{1/2},
        # factored at the scale NystromFactor holds its sampled block in.
        sqrt_b = selection_weights(counts)
        scale = np.outer(sqrt_b, sqrt_b)
        inv_m = _inverse(shifted_cholesky(gram * scale, self.gamma)) * scale
        # K~ = D - Gamma + Gamma N Gamma, exactly symmetric as D and N are.
        g = self.gamma / counts
        tilde = gram + inv_m * np.outer(g, g)
        tilde.reshape(-1)[:: q + 1] -= g
        inv_shift = _inverse(shifted_cholesky(tilde, self.shift))
        inv_gamma = _inverse(shifted_cholesky(tilde, self.gamma))
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
        self.quad = np.einsum("ij,ij->j", inv_shift @ gram, gram)
        self._column = None

    def _successor(self, indices) -> np.ndarray | None:
        """The positions here of the columns that the dictionary ``indices``
        kept, when one step made it from this sketch's dictionary (keeping
        at least one column and admitting at most the last queried column's
        index, last); None otherwise."""
        q1, column = indices.shape[0], self._column
        m = q1 - (q1 > 0 and column is not None and indices[-1] == column[0])
        if m == 0:
            return None
        kept = indices[:m]
        pos = self.indices.searchsorted(kept)
        if pos[-1] < self.size and np.logical_and.reduce(self.indices[pos] == kept):
            return pos
        return None

    def _reweight(self, counts) -> None:
        """Move the sketch in place to the weights ``counts`` on the positions
        it has, where 0 marks a column that :meth:`_advance` deletes next: one
        Woodbury update for every weight change and eviction, added to ``N``,
        ``inv_shift`` and ``inv_gamma`` where they lie, with the forms
        updated to match; ``D`` is untouched.  The successor of a step that
        admitted and evicted nothing keeps this sketch's ``indices`` array
        and moves by this call alone: no position match and no gathers.

        The three factors are formed in one new array, padded with zero
        rows to the buffers' height; the two shifted inverses' products,
        capacitance matrices and inverses are formed together on the
        stacked buffers.  A step that changes one weight and evicts
        nothing makes it a rank-one update on vectors and scalars.

        Both forks pay on the benchmark's ``ink-estimate`` streams (problem
        and chain seeds 1-5).  The rank-one route serves 9321 of the 14478
        changing reweights on estimate-q30-long and 995 of 2930 on
        estimate-q200; through the general path instead, estimate-q30-long
        read about 10% fewer steps/s (median 14526 against 16217 over 10
        alternating in-process rounds, a shared 2-core Xeon with one BLAS
        thread: indicative), estimate-q200 moved within its spread, and
        ``test_step_call_budget`` counted 15490 calls instead of 15278.
        The same-``indices`` route takes 13283 of the 49995 queries on
        estimate-q30-long and 865 of 5115 on estimate-q200; through the
        position match instead, the count was 15934."""
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
            W = np.empty((3, cap))
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
            W = np.empty((3, cap, r))
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

    def _advance(self, indices, counts, pos) -> bool:
        """Move the sketch in place to the successor dictionary ``(indices,
        counts)`` for which :meth:`_successor` gave ``pos``, bordering ``D``
        with the last queried column if the step admitted it.  True when the
        carried quantities are the successor's; False when a Schur complement
        of the admission is not positive, with the sketch half moved."""
        q0, m, q1 = self.size, pos.shape[0], indices.shape[0]
        self._reserve(q1)
        b_new = np.zeros(q0, dtype=np.int64)
        b_new[pos] = counts[:m]
        # The step's reweights and evictions (weight 0) on the layout before
        # it; compacting then deletes the evicted coordinates.
        self._reweight(b_new)
        quad = self.quad
        if m < q0:
            gone = (b_new == 0).nonzero()[0].tolist()
            for P in self._buffers:
                _compact(P, gone, q0)
            quad = quad[pos]
        self.indices, self.counts = indices, counts
        self._sized(q1)
        if m < q1:
            _, cross, self_term = self._column
            D = self._buffers[0]
            D[:m, m] = D[m, :m] = cross[pos]
            D[m, m] = self_term
            quad = self._admit(quad, counts, m)
            if quad is None:
                return False
        self.quad = quad
        return True

    def _admit(self, quad, counts, m: int):
        """Border ``N``, ``inv_shift`` and ``inv_gamma`` in place with the
        newest column, which ``D``'s row and column ``m`` hold: their leading
        m x m blocks hold the predecessor's quantities after this step's
        reweights, and their row and column ``m`` are zero.  Returns the
        bordered forms, or None when a Schur complement is not positive.

        The factors are formed in one new array, padded with zero rows to
        the buffers' height; the two shifted inverses' products with ``h``
        and ``c`` are one stacked product, and their factors are those
        products, turned in place into the bordering's columns."""
        D, N = self._buffers[0], self._buffers[1]
        cap, gamma = D.shape[0], self.gamma
        c, k = D[m, :m], float(D[m, m])
        gamma_new = gamma / float(counts[m])
        W = np.empty((7, cap))
        w = W[0]
        np.matmul(N[:, :m], c, out=w)
        v = w[:m]
        sigma = k + gamma_new - float(c @ v)
        if not sigma > 0:
            return None
        # (D + Gamma)^-1 bordered: N + (v; -1)(v; -1)^T / sigma.  K~ gains
        # h h^T / sigma with h = Gamma v on the old coordinates and the border
        # column a with corner kappa.
        w[m] = -1.0
        _add_low_rank(N, w, 1.0 / sigma, m + 1)
        X = W[1:3, :m]
        h = np.multiply(gamma / counts[:m], v, out=X[0])
        X[1] = c
        a = c - (gamma_new / sigma) * h
        kappa = k - gamma_new + gamma_new * gamma_new / sigma
        # For P = (K~ + shift I)^-1 at each shift: (P^-1 + h h^T / sigma)^-1 =
        # P - z z^T / rho with z = P h, then bordered with (a, kappa + shift):
        # + (u; -1)(u; -1)^T / s, where u = (P - z z^T / rho) a, which is
        # P c - z (gamma_new / sigma + z^T a / rho).  Z's columns go from
        # (P h, P c) to (z, u).
        Z = W[3:].reshape(2, cap, 2)
        np.matmul(self._buffers[2:, :, :m], X.T, out=Z)
        zs = Z[:, :m, 0]
        rho = sigma + zs @ h
        quad_c = float(c @ Z[0, :m, 1])
        Z[:, :, 1] -= Z[:, :, 0] * (gamma_new / sigma + (zs @ a) / rho)[:, None]
        s = kappa - Z[:, :m, 1] @ a
        s += (self.shift, gamma)
        if not (s[0] > 0 and s[1] > 0):
            return None
        Z[:, m, 1] = -1.0
        C = np.zeros((2, 2, 2))
        C[:, 0, 0] = -1.0 / rho
        C[:, 1, 1] = 1.0 / s
        for P, f, c_p in zip(self._buffers[2:], Z, C):
            _add_low_rank(P, f, c_p, m + 1)
        # D's rows 0..m are the bordered columns x_i = (D_i, c_i) and x = (c, k);
        # x^T P' x = x^T P x - (x^T (z; 0))^2 / rho + (x^T (u; -1))^2 / s.
        DF = D[: m + 1] @ Z[0]
        forms = np.empty(m + 1)
        forms[:m] = quad
        forms[m] = quad_c
        forms += DF[:, 1] * DF[:, 1] / s[0] - DF[:, 0] * DF[:, 0] / rho[0]
        return forms

    def query(self, indices, counts, new_index, cross, self_term) -> tuple[np.ndarray, float, float] | None:
        """Move the sketch to the dictionary ``(indices, counts)``, as the
        module docstring sets out, and score the column ``(c, k)`` = ``(cross,
        self_term)`` of ``new_index`` against it: the forms ``x_j^T (K_bar +
        shift I)^-1 x_j`` for each column ``x_j`` of ``D`` bordered with ``(c,
        k)``, the new one last; ``c^T (K~ + shift I)^-1 c``; and ``|(K~ +
        gamma I)^-1 c|^2``.  The bordered Schur complement ``s = k + shift -
        c^T (K~ + shift I)^-1 c`` of an answer is positive.  None when the
        query declines (see the module docstring); otherwise the sketch
        remembers the column for the next step."""
        if indices is not self.indices:
            pos = self._successor(indices)
            if pos is None or not self._advance(indices, counts, pos):
                return None
        elif counts is not self.counts:
            self._reweight(counts)
        u = self.inv_shift @ cross
        quad_c = float(cross @ u)
        s = self_term + self.shift - quad_c
        if not s > 0:
            return None
        self._column = (new_index, cross, self_term)
        w = self.inv_gamma @ cross
        forms = np.empty(self.quad.shape[0] + 1)
        np.add(self.quad, (self.gram @ u - cross) ** 2 / s, out=forms[:-1])
        forms[-1] = quad_c + (quad_c - self_term) ** 2 / s
        return forms, quad_c, float(w @ w)


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
