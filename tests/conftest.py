import os

# Single-threaded BLAS: the suite works on many small matrices, where thread
# pool wake-ups dominate the actual factorization cost.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np
import pytest

from nystream import Dataset, KernelSpec, RngHandle, ink_step, initial_state, pipeline


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_dataset(rng, n, d=3, spread=1.5):
    return Dataset(points=rng.normal(0.0, spread, size=(n, d)))


def random_kernel(rng):
    """A random kernel spec; gaussian is weighted up since it is the
    workhorse family."""
    pick = rng.integers(0, 4)
    if pick <= 1:
        return KernelSpec.gaussian_kernel(bandwidth=float(rng.uniform(0.5, 2.0)))
    if pick == 2:
        return KernelSpec.linear_kernel()
    return KernelSpec.polynomial_kernel(degree=2, offset=float(rng.uniform(0.0, 1.0)))


def random_psd(rng, n, rank=None):
    """Random PSD matrix from a factor product (rank-controllable)."""
    r = n if rank is None else rank
    W = rng.normal(size=(n, r))
    return W @ W.T


def random_gram(rng, n, d=3):
    """Random kernel matrix: PSD by construction, kernel-shaped spectra."""
    ds = random_dataset(rng, n, d)
    spec = random_kernel(rng)
    from nystream import gram

    return gram(ds, spec)


class RecordingOracle:
    """Scores every column 1 with effective dimension 1, so a dictionary
    with room keeps every column at weight one, and records the
    ``(dictionary indices, cross, self_term)`` each step hands over."""

    def __init__(self):
        self.columns = []

    def begin_step(self, state, new_index, cross, self_term):
        self.columns.append((state.dictionary.indices, cross, self_term))
        return np.ones(state.dictionary.size + 1), 1.0


def streamed_columns(points, kernel):
    """The ``(dictionary indices, cross, self_term)`` that ``ink_step`` hands
    its oracle at each step of streaming ``points``, keeping every column."""
    points = np.asarray(points, dtype=np.float64)
    oracle = RecordingOracle()
    state = initial_state(len(points), RngHandle(0), kernel, points.shape[1])
    for t, point in enumerate(points):
        state, _ = ink_step(state, t, point, oracle)
    return oracle.columns


def border(M, v, corner):
    """``M`` bordered with ``v`` as its last row and column and ``corner``
    on the diagonal."""
    t = M.shape[0]
    out = np.empty((t + 1, t + 1))
    out[:t, :t] = M
    out[:t, t] = out[t, :t] = v
    out[t, t] = corner
    return out


class KernelReads:
    """Records every kernel evaluation a streaming run makes through
    ``nystream.pipeline`` (``column``, ``pairwise`` and
    ``_symmetric_pairwise``): the index
    of the step it ran in, which is the last point ``audit`` saw, and the
    dataset indices of its row and column points.  The dataset's points must
    be distinct."""

    def __init__(self, monkeypatch, points, audit):
        self._where = {p.tobytes(): i for i, p in enumerate(np.asarray(points, dtype=np.float64))}
        self._audit = audit
        self.calls = []
        for name in ("column", "pairwise", "_symmetric_pairwise"):
            monkeypatch.setattr(pipeline, name, self._recorded(getattr(pipeline, name)))

    def _indices(self, points):
        return [self._where[p.tobytes()] for p in np.atleast_2d(np.asarray(points, dtype=np.float64))]

    def _recorded(self, fn):
        def recorded(kernel, *points):
            # The symmetric form takes one point set, read as rows and columns.
            rows, cols = self._indices(points[0]), self._indices(points[-1])
            self.calls.append((self._audit.points_consumed[-1], rows, cols))
            return fn(kernel, *points)

        return recorded

    def non_live_pairs(self, live) -> int:
        """Evaluated pairs that read a point other than the step's own point
        ``i`` and the dictionary ``live[i]`` the step started from."""
        bad = 0
        for i, rows, cols in self.calls:
            allowed = live[i] | {i}
            ok_rows = sum(r in allowed for r in rows)
            ok_cols = sum(c in allowed for c in cols)
            bad += len(rows) * len(cols) - ok_rows * ok_cols
        return bad
