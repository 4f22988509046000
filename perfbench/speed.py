"""Machine-speed probe: fixed reference snippets timed next to the measured work.

The benchmark runs on shared two-core machines whose speed drifts by tens of
percent over seconds to minutes, because other tenants compete for the same
cores, caches and memory.  Every timing the benchmark gates on is therefore
scaled by ``REFERENCE_S / t_probe``, where ``t_probe`` is what a fixed snippet
took at that moment: each timing reads as it would on a machine where the
snippet takes ``REFERENCE_S``.  Raw timings are kept in the result file.

Two snippets stand for the two kinds of work that bound nystream:
``interpreter`` makes many calls on tiny arrays (the ink-estimate step at
small Q), and ``memory`` streams arrays larger than the caches (the
ink-estimate step at Q~200 and the ExactOracle step).  The snippets never
change, so a change to nystream cannot move them.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg

REFERENCE_S = 1e-3
KINDS = ("interpreter", "memory")
# Running-median width over consecutive probes: one probe jitters by ~10%,
# while the machine's speed changes over seconds.
SMOOTHING = 5


class SpeedProbe:
    def __init__(self, kind: str):
        if kind not in KINDS:
            raise ValueError(f"unknown probe kind {kind!r}")
        self.kind = kind
        rng = np.random.default_rng(0)
        self._points = rng.normal(size=(30, 3))
        self._gram = self._points @ self._points.T + 30.0 * np.eye(30)
        self._big = rng.normal(size=(800, 800))
        self._vec = rng.normal(size=800)

    def _interpreter(self) -> None:
        for i in range(10):
            x = self._points[i]
            k = np.exp(-np.sum((x[None, :] - self._points) ** 2, axis=-1) / 8.0)
            factor = scipy.linalg.cho_factor(self._gram, lower=True, check_finite=False)
            solved = scipy.linalg.cho_solve(factor, k, check_finite=False)
            {j: float(v) for j, v in enumerate(solved)}
            np.random.Generator(np.random.Philox(key=i)).random()

    def _memory(self) -> None:
        self._big @ self._vec
        self._big + 1.0

    def seconds(self) -> float:
        """Wall time of one run of the snippet."""
        start = time.perf_counter()
        self._interpreter() if self.kind == "interpreter" else self._memory()
        return time.perf_counter() - start


def smoothed_scales(probe_seconds) -> np.ndarray:
    """Scale factor per probe, from a centred running median of the probes."""
    t = np.asarray(probe_seconds, dtype=np.float64)
    half = SMOOTHING // 2
    med = np.array([np.median(t[max(0, i - half): i + half + 1]) for i in range(t.size)])
    return REFERENCE_S / med
