import os

# Single-threaded BLAS: the suite works on many small matrices, where thread
# pool wake-ups dominate the actual factorization cost.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np
import pytest

from nystream import Dataset, KernelSpec


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


def border(M, v, corner):
    """``M`` bordered with ``v`` as its last row and column and ``corner``
    on the diagonal."""
    t = M.shape[0]
    out = np.empty((t + 1, t + 1))
    out[:t, :t] = M
    out[:t, t] = out[t, :t] = v
    out[t, t] = corner
    return out
