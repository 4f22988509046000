"""Top-level algorithms.

Three entry points build a weighted column selection and its factored
kernel approximation:

* :func:`batch_exact` computes exact leverage scores on the full matrix and
  draws columns by multinomial sampling (desk scale; the reference method).
* :func:`ink_oracle_run` streams the data once, maintaining the dictionary
  with shrink/expand chains fed by a pluggable score oracle.
* :func:`ink_estimate_run` fills the oracle slot with the incremental
  estimators, so the whole run touches each sample exactly once and stores
  only dictionary-sized state.

The streaming loop keeps position-aligned arrays (the dictionary's ascending
indices, integer weights and clamped sampling probabilities, the kernel block
among dictionary points, Q x Q, and the raw points, Q x d) plus the running
effective-dimension estimate.  The factored approximation restricted to
dictionary rows is derived from them where it is needed, not carried.
Nothing sized with the stream length is ever stored.

Each step makes one oracle call, which returns the leverage scores of the
dictionary plus the new column and the effective dimension of the grown
matrix; the step turns them into sampling probabilities and resamples.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Protocol

import numpy as np

from .errors import InputError, InvariantViolation
from .kernels import Dataset, KernelColumn, KernelSpec, _symmetric_pairwise, evaluate, gram, pairwise
from .leverage import (
    Diagnostics,
    EstimatedProfile,
    alpha_factor,
    beta_factor,
    clamp_probabilities,
    estimate_step,
    exact_rls,
    update_deff,
)
from .linalg import regularized_solve, spectral_norm
from .nystrom import NystromFactor, Selection, build_selection, nystrom_approx
from .sampling import _KEY_SPAN, Dictionary, RngHandle, direct_sample, selection_weights, shrink_expand


class ScoreOracle(Protocol):
    """Per-step source of leverage-score and effective-dimension values.

    ``begin_step`` is called once per arriving column, with the state before
    the step and the new column's cross terms (aligned with the dictionary)
    and self evaluation.  It returns ``(tau, deff)``: a float64 array of
    scores for the dictionary columns in the order of
    ``state.dictionary.indices``, then for ``new_index``, and the effective
    dimension of the grown matrix.
    """

    def begin_step(
        self,
        state: "SketchState",
        new_index: int,
        cross: np.ndarray,
        self_term: float,
    ) -> tuple[np.ndarray, float]: ...


@dataclass
class AccessAudit:
    """Records every dataset access and kernel evaluation of a streaming run."""

    points_consumed: list[int] = field(default_factory=list)
    kernel_pairs: list[tuple[int, int]] = field(default_factory=list)

    def record_point(self, index: int) -> None:
        self.points_consumed.append(index)

    def record_pairs(self, new_index: int, partners) -> None:
        self.kernel_pairs.extend((new_index, int(j)) for j in partners)


@dataclass(frozen=True)
class RunCheckpoint:
    """Snapshot emitted during a run; enough to rebuild the approximation."""

    step: int
    dict_size: int
    deff_tilde: float
    indices: tuple[int, ...]
    weights: tuple[float, ...]
    elapsed_seconds: float


@dataclass(frozen=True)
class RunResult:
    algorithm: str
    n_steps: int
    gamma: float
    budget: int
    epsilon: float | None
    seed: int | None
    checkpoints: tuple[RunCheckpoint, ...]
    selection: Selection
    factor: NystromFactor
    deff_tilde: float
    diagnostics: dict


@dataclass(frozen=True)
class SketchState:
    """Everything the streaming loop carries between steps; ``p_tilde``,
    ``dict_gram`` and ``dict_points`` are aligned with the dictionary's
    positions."""

    step: int
    dictionary: Dictionary
    p_tilde: np.ndarray
    deff_tilde: float
    dict_gram: np.ndarray
    dict_points: np.ndarray
    rng: RngHandle


def initial_state(q_bar: int, rng: RngHandle, dim: int) -> SketchState:
    return SketchState(
        step=0,
        dictionary=Dictionary.from_weights({}, q_bar),
        p_tilde=np.empty(0),
        deff_tilde=0.0,
        dict_gram=np.zeros((0, 0)),
        dict_points=np.zeros((0, dim)),
        rng=rng,
    )


def _border(M: np.ndarray, v: np.ndarray, corner: float) -> np.ndarray:
    t = M.shape[0]
    out = np.empty((t + 1, t + 1))
    out[:t, :t] = M
    out[:t, t] = v
    out[t, :t] = v
    out[t, t] = corner
    return out


def _restricted_factor(dict_gram: np.ndarray, counts: np.ndarray, gamma: float) -> NystromFactor:
    # cross = D B^{1/2}, sampled = B^{1/2} D B^{1/2}: the dictionary-row
    # restriction of the weighted selection applied to the kernel matrix.
    sqrt_b = np.sqrt(counts)
    cross = dict_gram * sqrt_b[None, :]
    # sqrt_b_i * sqrt_b_j is exact in either order, so the block is exactly symmetric.
    sampled = dict_gram * np.outer(sqrt_b, sqrt_b)
    return NystromFactor(cross=cross, sampled=sampled, gamma=gamma)


class ExactOracle:
    """Exact score oracle (approximation factors both 1); a desk-scale
    testing device for the streaming loop.

    Holds the inverse of the regularized t x t kernel prefix and borders it
    with each new column, evaluated against every earlier point (``cross``
    covers only the dictionary and is not read), so a step costs O(t^2) time
    and the oracle holds O(t^2) memory.  Every ``_REFRESH_EVERY`` steps the
    inverse is recomputed from a freshly evaluated prefix.  Leverage scores
    fall out of the identity ``tau_i = 1 - gamma * [inv]_ii``.
    """

    alpha = 1.0
    beta = 1.0
    _REFRESH_EVERY = 64

    def __init__(self, dataset: Dataset, kernel: KernelSpec, gamma: float):
        if not gamma > 0:
            raise InputError("gamma must be positive")
        self._points = dataset.points
        self._kernel = kernel
        self._gamma = float(gamma)
        self._inv = np.zeros((0, 0))

    def begin_step(self, state, new_index, cross, self_term) -> tuple[np.ndarray, float]:
        t = self._inv.shape[0]
        if new_index != t:
            raise InputError("exact oracle must observe the stream in order")
        if (t + 1) % self._REFRESH_EVERY == 0:
            prefix = _symmetric_pairwise(self._kernel, self._points[: t + 1])
            self._inv = regularized_solve(prefix, self._gamma, np.eye(t + 1))
        elif t:
            k_bar = pairwise(self._kernel, self._points[t], self._points[:t])[0]
            u = self._inv @ k_bar
            xi = self_term + self._gamma - float(k_bar @ u)
            top = self._inv + np.outer(u, u) / xi
            self._inv = _border(top, -u / xi, 1.0 / xi)
        else:
            self._inv = np.array([[1.0 / (self_term + self._gamma)]])
        tau = 1.0 - self._gamma * np.diag(self._inv)[np.append(state.dictionary.indices, new_index)]
        return tau, float(t + 1 - self._gamma * np.trace(self._inv))


class EstimateOracle:
    """Score oracle backed by the incremental estimators.

    Queries touch only the bordered sketch restricted to dictionary
    coordinates and the exact entries of the new column, so the oracle works
    inside the streaming memory contract.  The effective-dimension estimate
    is seeded exactly from the first self term and grown by scaled increment
    estimates afterwards.
    """

    def __init__(
        self,
        gamma: float,
        epsilon: float,
        *,
        diagnostics: Diagnostics | None = None,
    ):
        if not gamma > 0:
            raise InputError("gamma must be positive")
        self.alpha = alpha_factor(epsilon)
        self._gamma = float(gamma)
        self._epsilon = float(epsilon)
        self._diagnostics = diagnostics

    def begin_step(self, state, new_index, cross, self_term) -> tuple[np.ndarray, float]:
        gamma, eps = self._gamma, self._epsilon
        if state.step == 0:
            tau_new = self_term / (self_term + self.alpha * gamma) if self_term > 0 else 0.0
            # The very first effective dimension is available exactly.
            deff = self_term / (self_term + gamma) if self_term > 0 else 0.0
            return np.array([tau_new]), deff
        sketch_block = _restricted_factor(state.dict_gram, state.dictionary.counts, gamma).materialize()
        gram_block = _border(state.dict_gram, cross, self_term)
        bordered = _border(sketch_block, cross, self_term)
        tau, delta = estimate_step(
            bordered, gram_block, np.diag(gram_block), gamma, eps, diagnostics=self._diagnostics
        )
        if state.deff_tilde > 0:
            deff = update_deff(state.deff_tilde, delta, eps, diagnostics=self._diagnostics)
        else:
            deff = state.deff_tilde + self.alpha * max(delta, 0.0)
        return tau, deff


def ink_step(
    state: SketchState,
    new_index: int,
    point: np.ndarray,
    column: KernelColumn,
    oracle: ScoreOracle,
) -> tuple[SketchState, EstimatedProfile]:
    """Advance the sketch by one column.

    Asks the oracle once for scores on the dictionary plus the new index,
    clamps the induced probabilities against the previous step, runs the
    shrink/expand chains, and keeps the kernel block and points of the
    surviving columns.  ``column.cross`` must be aligned with the current
    dictionary order, and ``new_index`` must exceed every dictionary index.
    """
    d = state.dictionary
    if column.cross.shape[0] != d.size:
        raise InputError("column restriction does not match the dictionary")
    step = state.step + 1
    tau, deff_new = oracle.begin_step(state, new_index, column.cross, column.self_term)
    tau = np.asarray(tau, dtype=np.float64)
    if tau.shape != (d.size + 1,):
        raise InputError(f"score oracle returned scores of shape {tau.shape} for {d.size + 1} columns")
    raw_p = tau / deff_new if deff_new > 0 else np.zeros_like(tau)
    p_new = clamp_probabilities(raw_p, state.p_tilde)
    weights = shrink_expand(d, p_new, new_index, state.rng, step)
    keep = np.flatnonzero(weights)
    cap = 8 * d.q_bar
    if keep.shape[0] > cap:
        raise InvariantViolation(
            f"dictionary grew to {keep.shape[0]} columns at step {step}, "
            f"beyond the hard cap {cap}"
        )

    queried = np.append(d.indices, new_index)
    admitted = weights[-1] != 0
    old = keep[:-1] if admitted else keep
    gram_block = state.dict_gram[np.ix_(old, old)]
    points_block = state.dict_points[old]
    if admitted:
        gram_block = _border(gram_block, column.cross[old], column.self_term)
        points_block = np.vstack([points_block, point[None, :]])

    next_state = replace(
        state,
        step=step,
        dictionary=Dictionary(queried[keep], weights[keep], d.q_bar),
        p_tilde=p_new[keep],
        deff_tilde=deff_new,
        dict_gram=gram_block,
        dict_points=points_block,
    )
    return next_state, EstimatedProfile(queried, tau, deff_new, p_new)


def _as_handle(rng: RngHandle | int) -> RngHandle:
    return rng if isinstance(rng, RngHandle) else RngHandle(seed=int(rng))


def _checkpoint(state: SketchState, started: float) -> RunCheckpoint:
    return RunCheckpoint(
        step=state.step,
        dict_size=state.dictionary.size,
        deff_tilde=state.deff_tilde,
        indices=tuple(state.dictionary.indices.tolist()),
        weights=tuple(state.dictionary.counts.astype(np.float64).tolist()),
        elapsed_seconds=time.perf_counter() - started,
    )


def _stream_run(
    dataset: Dataset,
    kernel: KernelSpec,
    gamma: float,
    q_bar: int,
    oracle: ScoreOracle,
    algorithm: str,
    epsilon: float | None,
    checkpoint_every: int,
    rng: RngHandle,
    audit: AccessAudit | None,
    diagnostics: Diagnostics | None = None,
) -> RunResult:
    if not gamma > 0:
        raise InputError("gamma must be positive")
    if checkpoint_every < 0:
        raise InputError("checkpoint_every must be non-negative (0 keeps only the final checkpoint)")
    n = len(dataset)
    if n >= _KEY_SPAN:
        # Chain substreams are keyed by step, which must stay below 2**28.
        raise InputError(f"stream of {n} points is too long: the limit is 2**28 - 1 = {_KEY_SPAN - 1}")
    state = initial_state(q_bar, rng, dataset.dim)
    started = time.perf_counter()
    checkpoints: list[RunCheckpoint] = []
    for idx in range(n):
        point = dataset.points[idx]
        if audit is not None:
            audit.record_point(idx)
        if state.dictionary.size:
            cross = pairwise(kernel, point, state.dict_points)[0]
        else:
            cross = np.empty(0)
        self_term = evaluate(kernel, point, point)
        if audit is not None:
            audit.record_pairs(idx, state.dictionary.indices)
            audit.record_pairs(idx, (idx,))
        state, _ = ink_step(state, idx, point, KernelColumn(cross, self_term), oracle)
        if checkpoint_every and state.step % checkpoint_every == 0 and state.step != n:
            checkpoints.append(_checkpoint(state, started))
    checkpoints.append(_checkpoint(state, started))

    factor = _restricted_factor(state.dict_gram, state.dictionary.counts, float(gamma))
    diag = (diagnostics if diagnostics is not None else Diagnostics()).as_dict()
    if epsilon is not None and state.dictionary.size:
        # lambda_max of the sketch is only a lower-bound stand-in for the
        # full spectrum, so the derived factor is a report value, not a
        # guarantee.
        rho_proxy = spectral_norm(factor.materialize()) / gamma
        diag["rho_lower_bound_proxy"] = rho_proxy
        diag["beta_from_sketch_proxy"] = beta_factor(epsilon, rho_proxy)
    selection = build_selection(state.dictionary.indices.tolist(), selection_weights(state.dictionary), n)
    return RunResult(
        algorithm=algorithm,
        n_steps=n,
        gamma=gamma,
        budget=q_bar,
        epsilon=epsilon,
        seed=rng.seed,
        checkpoints=tuple(checkpoints),
        selection=selection,
        factor=factor,
        deff_tilde=state.deff_tilde,
        diagnostics=diag,
    )


def ink_oracle_run(
    dataset: Dataset,
    kernel: KernelSpec,
    gamma: float,
    q_bar: int,
    oracle: ScoreOracle | None = None,
    *,
    checkpoint_every: int = 50,
    rng: RngHandle | int = 0,
    audit: AccessAudit | None = None,
) -> RunResult:
    """Stream the dataset through the dictionary sampler with a score oracle.

    With the default (exact) oracle this is the reference sequential
    algorithm; any object satisfying :class:`ScoreOracle` can be plugged in.
    """
    if q_bar < 1:
        raise InputError("q_bar must be at least 1")
    handle = _as_handle(rng)
    if oracle is None:
        oracle = ExactOracle(dataset, kernel, gamma)
    return _stream_run(
        dataset, kernel, gamma, q_bar, oracle, "ink-oracle", None,
        checkpoint_every, handle, audit,
    )


def ink_estimate_run(
    dataset: Dataset,
    kernel: KernelSpec,
    gamma: float,
    q_bar: int,
    epsilon: float,
    *,
    checkpoint_every: int = 50,
    rng: RngHandle | int = 0,
    audit: AccessAudit | None = None,
) -> RunResult:
    """Single-pass run: the oracle slot is filled by the incremental
    estimators, so no state beyond the dictionary is kept."""
    if q_bar < 1:
        raise InputError("q_bar must be at least 1")
    if not 0.0 < epsilon < 1.0:
        raise InputError("epsilon must lie in (0, 1)")
    handle = _as_handle(rng)
    diagnostics = Diagnostics()
    oracle = EstimateOracle(gamma, epsilon, diagnostics=diagnostics)
    return _stream_run(
        dataset, kernel, gamma, q_bar, oracle, "ink-estimate", epsilon,
        checkpoint_every, handle, audit, diagnostics,
    )


def batch_exact(
    dataset: Dataset,
    kernel: KernelSpec,
    gamma: float,
    m: int,
    rng: RngHandle | int | np.random.Generator = 0,
    *,
    profile=None,
) -> tuple[NystromFactor, Selection]:
    """Reference batch method: exact scores, multinomial column sampling.

    Each drawn index enters the selection with weight ``1/sqrt(m p_i)``.
    Needs the dense kernel matrix, so it is desk scale by construction.
    A precomputed exact leverage profile may be passed to skip recomputing it.
    """
    if m < 1:
        raise InputError("sampling budget m must be at least 1")
    K = gram(dataset, kernel)
    if profile is None:
        profile = exact_rls(K, gamma)
    if isinstance(rng, np.random.Generator):
        gen = rng
    else:
        gen = _as_handle(rng).batch_stream()
    draws = direct_sample(profile.probabilities, m, gen)
    weights = {
        int(i): 1.0 / math.sqrt(m * profile.probabilities[int(i)])
        for i in np.unique(draws)
    }
    selection = build_selection(draws.tolist(), weights, len(dataset))
    factor = nystrom_approx(K, selection, gamma)
    return factor, selection


def suggest_batch_m(deff: float, epsilon: float, delta: float, n: int) -> int:
    """Multinomial sampling budget sufficient for the reconstruction bound."""
    _validate_budget_args(deff, epsilon, delta, n)
    return math.ceil((2.0 * deff / epsilon**2) * math.log(n / delta))


def suggest_q_bar(
    deff: float,
    epsilon: float,
    delta: float,
    n: int,
    alpha: float = 1.0,
    beta: float = 1.0,
) -> int:
    """Streaming space budget sufficient for the any-time reconstruction bound.

    ``alpha`` and ``beta`` are the oracle approximation factors: both 1 for
    the exact oracle, and derivable from ``epsilon`` and a spectrum ratio for
    the estimator oracle (see :func:`nystream.leverage.beta_factor`).
    """
    _validate_budget_args(deff, epsilon, delta, n)
    if alpha < 1.0 or beta < 1.0:
        raise InputError("approximation factors must be at least 1")
    return math.ceil((28.0 * alpha * beta * deff / epsilon**2) * math.log(4.0 * n / delta))


def _validate_budget_args(deff: float, epsilon: float, delta: float, n: int) -> None:
    if not deff > 0:
        raise InputError("deff must be positive")
    if not 0.0 < epsilon < 1.0:
        raise InputError("epsilon must lie in (0, 1)")
    if not 0.0 < delta < 1.0:
        raise InputError("delta must lie in (0, 1)")
    if n < 1:
        raise InputError("n must be at least 1")
