"""Workloads, timed replays and output checks.

Every workload streams clustered synthetic problems made by
``generate_synthetic`` from seeds derived from the run's seed (``d=3``, four clusters,
``cluster_std=0.5``) through a gaussian kernel of bandwidth 2 with
``epsilon=0.5``.  The load model is a closed loop: one process replays one
stream, and each point is handed over as soon as the previous step returns.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass

import numpy as np

import nystream as ns
from perfbench.speed import SpeedProbe, smoothed_scales

EPSILON = 0.5
BANDWIDTH = 2.0
# Relative slack for comparisons that hold exactly in exact arithmetic.
ROUNDOFF = 1e-9
# A reported tail percentile needs at least this many samples above it,
# so the p99 needs at least 1000 samples.
MIN_TAIL_SAMPLES = 10
P99_MIN_SAMPLES = 1000
PROBE_EVERY_S = 0.1
# Checkpoint cadence of every stream (the library default); every
# checkpoint is checked, only those in ``Workload.verify_at`` are verified.
CHECKPOINT_EVERY = 50

ERRORS = (ns.InputError, ns.InvariantViolation, ns.NumericalError)


@dataclass(frozen=True)
class Workload:
    name: str
    algorithm: str  # "ink-estimate" or "ink-oracle"
    n: int
    gamma: float
    q_bar: int
    # Checkpoints handed to verify_checkpoints; all must be <= DESK_SCALE_CAP.
    verify_at: tuple[int, ...]
    # Speed probe that tracks what bounds a step (see perfbench/speed.py):
    # "interpreter" where small-array calls dominate (Q~30), "memory" where
    # dense Q x Q solves (Q~210) or ExactOracle's t x t passes do.
    bound_by: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload("estimate-q200", "ink-estimate", n=1024, gamma=0.01, q_bar=2000,
                 verify_at=(400, 800, 1024), bound_by="memory"),
        Workload("estimate-q30-long", "ink-estimate", n=10000, gamma=0.1, q_bar=200,
                 verify_at=(250, 500, 750, 1000), bound_by="interpreter"),
        Workload("oracle-exact", "ink-oracle", n=1200, gamma=0.1, q_bar=200,
                 verify_at=(400, 800, 1200), bound_by="memory"),
    )
}


def make_problem(workload: Workload, seed: int):
    """The workload's data and kernel; the same seed gives the same inputs."""
    spec = ns.SyntheticSpec(n=workload.n, d=3, n_clusters=4, cluster_std=0.5)
    return ns.generate_synthetic(spec, seed), ns.KernelSpec.gaussian_kernel(BANDWIDTH)


def make_oracle(workload: Workload, problem, kernel):
    """The score oracle the run call builds for itself; built here only to
    time set-up."""
    if workload.algorithm == "ink-estimate":
        return ns.EstimateOracle(workload.gamma, EPSILON)
    return ns.ExactOracle(problem.dataset, kernel, workload.gamma)


class StepClock(ns.AccessAudit):
    """Audit hook that times every step from outside the program and ignores
    kernel pairs.  With a speed probe it also times the probe's snippet at
    most every ``PROBE_EVERY_S``, between two steps, outside both."""

    def __init__(self, on_step=None, probe: SpeedProbe | None = None):
        super().__init__()
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.probes: list[tuple[int, float]] = []  # (first step after it, seconds)
        self._on_step = on_step
        self._probe = probe
        self._next_probe = 0.0

    def record_point(self, index: int) -> None:
        now = time.perf_counter()
        self.ends.append(now)
        if self._on_step is not None:
            self._on_step(index)
        if self._probe is not None and now >= self._next_probe:
            self.probes.append((len(self.starts), self._probe.seconds()))
            self._next_probe = time.perf_counter() + PROBE_EVERY_S
        self.starts.append(time.perf_counter())

    def record_pairs(self, new_index, partners) -> None:
        pass

    def latencies_ms(self) -> np.ndarray:
        """Start of each step to the start of the next; the last step's would
        include the run's epilogue, so n - 1 samples."""
        return (np.asarray(self.ends[1:]) - np.asarray(self.starts[:-1])) * 1e3

    def scales(self) -> np.ndarray:
        """Speed scale factor for each latency sample."""
        count = max(len(self.starts) - 1, 0)
        if not self.probes:
            return np.ones(count)
        first_step, seconds = zip(*self.probes)
        window = np.searchsorted(first_step, np.arange(count), side="right") - 1
        return smoothed_scales(seconds)[window]


@dataclass
class Replay:
    """One run call: its wall time, output and the per-step latencies, raw
    and with the speed scale factor of each sample."""

    n: int
    rng: int
    problem: ns.FixedDesignProblem
    kernel: ns.KernelSpec
    seconds: float
    steps_done: int
    result: ns.RunResult | None
    latencies_ms: np.ndarray
    scales: np.ndarray
    error: str | None = None

    @property
    def scaled_ms(self) -> np.ndarray:
        return self.latencies_ms * self.scales


def run_stream(workload: Workload, problem, kernel, rng: int, audit=None) -> ns.RunResult:
    w = workload
    if w.algorithm == "ink-estimate":
        return ns.ink_estimate_run(
            problem.dataset, kernel, w.gamma, w.q_bar, EPSILON,
            checkpoint_every=CHECKPOINT_EVERY, rng=rng, audit=audit,
        )
    return ns.ink_oracle_run(
        problem.dataset, kernel, w.gamma, w.q_bar,
        checkpoint_every=CHECKPOINT_EVERY, rng=rng, audit=audit,
    )


def replay(workload: Workload, problem, kernel, rng: int, *, probe=None, on_step=None) -> Replay:
    """Stream ``problem`` once with chain seed ``rng``, timing each step."""
    clock = StepClock(on_step, probe)
    started = time.perf_counter()
    try:
        result = run_stream(workload, problem, kernel, rng, audit=clock)
        error = None
    except ERRORS as exc:
        result, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - started
    done = workload.n if result is not None else max(len(clock.starts) - 1, 0)
    return Replay(workload.n, rng, problem, kernel, seconds, done, result,
                  clock.latencies_ms(), clock.scales(), error)


def tail_percentile(samples, q: float) -> float:
    """Nearest-rank ``q``-th percentile, refused unless at least
    ``MIN_TAIL_SAMPLES`` samples lie strictly above the reported rank."""
    values = np.sort(np.asarray(samples, dtype=np.float64))
    count = values.shape[0]
    rank = max(math.ceil(q / 100.0 * count), 1)
    above = count - rank
    if above < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {count} samples has {above} above it; {MIN_TAIL_SAMPLES} are needed"
        )
    return float(values[rank - 1])


def digest(checkpoint: ns.RunCheckpoint) -> str:
    """Fingerprint of the parts of a checkpoint fixed by config and seed."""
    text = repr((checkpoint.step, checkpoint.indices, checkpoint.weights, checkpoint.deff_tilde))
    return hashlib.sha256(text.encode()).hexdigest()


def checkpoint_faults(checkpoints, q_bar: int) -> list[str]:
    """Structural checks on every stream checkpoint; one message per failing
    checkpoint."""
    faults = []
    prev_deff = -math.inf
    for cp in checkpoints:
        idx, why = cp.indices, []
        if any(a >= b for a, b in zip(idx, idx[1:])):
            why.append("indices not unique and ascending")
        if idx and (idx[0] < 0 or idx[-1] >= cp.step):
            why.append("index outside [0, t)")
        if any(b < 1 for b in cp.weights):
            why.append("weight below 1")
        if cp.dict_size != len(idx) or len(idx) != len(cp.weights):
            why.append("dict_size disagrees with indices/weights")
        if cp.dict_size > 8 * q_bar:
            why.append(f"Q_t={cp.dict_size} > 8*q_bar")
        if not math.isfinite(cp.deff_tilde):
            why.append("deff_tilde not finite")
        elif cp.deff_tilde < prev_deff - ROUNDOFF * max(1.0, abs(prev_deff)):
            why.append("deff_tilde decreased")
        else:
            prev_deff = cp.deff_tilde
        if why:
            faults.append(f"t={cp.step}: " + "; ".join(why))
    return faults


def record_faults(record: ns.CheckpointRecord, algorithm: str) -> list[str]:
    """Checks on one verified checkpoint.  The upper PSD condition and the
    estimator's overshoot are accuracy data, not failures."""
    why = []
    if not record.lower_ok:
        why.append("lower PSD condition failed")
    ratio = record.deff_tilde / record.deff_exact
    if algorithm == "ink-oracle" and abs(ratio - 1.0) > ROUNDOFF:
        why.append(f"exact oracle deff_ratio {ratio!r} != 1")
    if algorithm == "ink-estimate" and ratio < 1.0 - ROUNDOFF:
        why.append(f"deff_tilde below exact deff (ratio {ratio!r})")
    return [f"verified t={record.step}: " + "; ".join(why)] if why else []


class Checks:
    """Operations attempted and failed: stream steps and verified checkpoints.

    Every replay is compared, checkpoint by checkpoint, with the first
    replay that reached the same step with the same chain seed, since a
    fixed config and seed must give the same dictionaries and estimates.
    """

    def __init__(self, workload: Workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.faults: list[str] = []
        self._reference: dict[tuple[int, int], str] = {}

    def add(self, attempted: int, faults: list[str], failed: int | None = None) -> None:
        self.attempted += attempted
        self.failed += len(faults) if failed is None else failed
        self.faults.extend(faults)

    def replay(self, rep: Replay) -> None:
        if rep.result is None:
            self.add(rep.n, [rep.error], failed=rep.n - rep.steps_done)
            return
        cps = rep.result.checkpoints
        faults = checkpoint_faults(cps, self.workload.q_bar)
        for cp in cps:
            ref = self._reference.setdefault((rep.rng, cp.step), digest(cp))
            if digest(cp) != ref:
                faults.append(f"t={cp.step}: digest differs from an earlier replay with this seed")
        self.add(rep.n, faults)

    def record(self, record: ns.CheckpointRecord) -> None:
        self.add(1, record_faults(record, self.workload.algorithm))
