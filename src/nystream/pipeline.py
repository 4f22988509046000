"""Top-level algorithms.

Three entry points build a weighted column selection, from which the
factored kernel approximation is derived:

* :func:`batch_exact` computes exact leverage scores on the full matrix and
  draws columns by multinomial sampling (desk scale; the reference method).
  It returns the selection and the exact effective dimension, not a factor.
* :func:`ink_oracle_run` streams the data once, maintaining the dictionary
  with shrink/expand chains fed by a pluggable score oracle.
* :func:`ink_estimate_run` is :func:`ink_oracle_run` with the incremental
  estimators (:class:`EstimateOracle`) in the oracle slot, so the whole run
  touches each sample exactly once and stores only dictionary-sized state.

The streaming loop keeps position-aligned arrays (the dictionary's ascending
indices, integer weights and clamped sampling probabilities, and the raw
points, Q x d), the kernel and the running effective-dimension estimate.
The kernel block among dictionary points (Q x Q; :class:`EstimateOracle`
carries its own) and the factored approximation are derived from them where
they are needed.  Nothing sized with the stream length is ever stored.

Each step makes one oracle call, which returns the leverage scores of the
dictionary plus the new column and the effective dimension of the grown
matrix; the step turns them into sampling probabilities and resamples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np
from scipy.linalg.blas import dtpsv

from .errors import InputError, InvariantViolation, NumericalError, open_unit, positive, positive_int
from .kernels import Dataset, KernelSpec, _symmetric_pairwise, column, gram
from .leverage import (
    Diagnostics,
    EstimatedProfile,
    _clamped_scores,
    _fold_increment,
    _increment_from_forms,
    alpha_factor,
    beta_factor,
    clamp_probabilities,
    curvature_coefficient,
    exact_rls,
)
from .linalg import spectral_norm
from .nystrom import NystromFactor, Selection, nystrom_approx
from .sampling import Dictionary, RngHandle, direct_sample, selection_weights, shrink_expand
from .sketch import CarriedSketch

# The three entry points, by the name a run's outputs and verify know them by.
ALGORITHMS = ("batch-exact", "ink-oracle", "ink-estimate")


class ScoreOracle(Protocol):
    """Per-step source of leverage-score and effective-dimension values.

    ``begin_step`` is called once per arriving column, with the state before
    the step and the new column's cross terms (aligned with the dictionary)
    and self evaluation.  It returns ``(tau, deff)``: a float64 array of
    scores for the dictionary columns in the order of
    ``state.dictionary.indices``, then for ``new_index``, and the effective
    dimension of the grown matrix.

    An oracle that counts clamps holds them in an optional ``diagnostics``
    attribute (a :class:`Diagnostics`), which the run reports; a run with an
    oracle that has none reports zero counts.
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
    """Records every dataset access of a streaming run, once per step and
    before it."""

    points_consumed: list[int] = field(default_factory=list)

    def record_point(self, index: int) -> None:
        self.points_consumed.append(index)


@dataclass(frozen=True)
class RunCheckpoint:
    """Snapshot emitted during a run; enough to rebuild the approximation."""

    step: int
    deff_tilde: float
    indices: tuple[int, ...]
    weights: tuple[float, ...]

    @property
    def dict_size(self) -> int:
        """Q_t: the number of distinct indices (a batch draw may repeat one)."""
        return len(set(self.indices))


@dataclass(frozen=True)
class RunResult:
    """A run's output: its checkpoints, the final dictionary with its points
    (Q x d), the kernel, gamma and the clamp counters.  The final selection,
    ``deff_tilde`` and :attr:`factor` are derived from them on access."""

    checkpoints: tuple[RunCheckpoint, ...]
    dictionary: Dictionary
    dict_points: np.ndarray
    kernel: KernelSpec
    gamma: float
    diagnostics: dict

    @property
    def deff_tilde(self) -> float:
        return self.checkpoints[-1].deff_tilde

    @property
    def selection(self) -> Selection:
        d = self.dictionary
        return Selection(d.indices, selection_weights(d.counts), self.checkpoints[-1].step)

    @property
    def factor(self) -> NystromFactor:
        """The final selection's factored approximation restricted to the
        dictionary rows; the kernel block is re-evaluated on each access."""
        q = self.dictionary.size
        block = Selection(np.arange(q), selection_weights(self.dictionary.counts), q)
        return nystrom_approx(_symmetric_pairwise(self.kernel, self.dict_points), block, self.gamma)


@dataclass(frozen=True)
class SketchState:
    """Everything the streaming loop carries between steps, O(Q d) numbers;
    ``p_tilde`` and ``dict_points`` are aligned with the dictionary's
    positions."""

    step: int
    dictionary: Dictionary
    p_tilde: np.ndarray
    deff_tilde: float
    kernel: KernelSpec
    dict_points: np.ndarray
    rng: RngHandle


def initial_state(q_bar: int, rng: RngHandle, kernel: KernelSpec, dim: int) -> SketchState:
    return SketchState(
        step=0,
        dictionary=Dictionary.from_weights({}, q_bar),
        p_tilde=np.empty(0),
        deff_tilde=0.0,
        kernel=kernel,
        dict_points=np.zeros((0, dim)),
        rng=rng,
    )


class ExactOracle:
    """Exact score oracle (approximation factors both 1); a desk-scale
    testing device for the streaming loop.

    Holds the lower Cholesky factor ``L`` of the regularized t x t kernel
    prefix ``K_t + gamma I`` and the diagonal ``d`` of its inverse, and
    borders both with each new column, evaluated against every earlier point
    (``cross`` covers only the dictionary and is not read).  ``L`` is stored
    row by row in one flat buffer, row i at offset i (i + 1) / 2: the packed
    upper column-major layout of ``L^T``, so bordering appends a row and the
    BLAS packed triangular solve ``dtpsv`` reads the prefix in place.  A step
    makes two triangular solves against ``L`` and a rank-one update of
    ``d``, O(t^2) time and no t x t temporary, and the oracle holds about
    t^2 / 2 floats, grown by doubling.  Leverage scores fall out of the
    identity ``tau_i = 1 - gamma * d_i``.
    """

    def __init__(self, dataset: Dataset, kernel: KernelSpec, gamma: float):
        positive("gamma", gamma)
        self._points = dataset.points
        self._kernel = kernel
        self._gamma = float(gamma)
        self._t = 0
        self._packed = np.empty(0)
        self._diag = np.empty(0)

    def begin_step(self, state, new_index, cross, self_term) -> tuple[np.ndarray, float]:
        t, gamma = self._t, self._gamma
        if new_index != t:
            raise InputError("exact oracle must observe the stream in order")
        if t >= len(self._points):
            raise InputError(f"index {t} is past the oracle's dataset of {len(self._points)} points")
        start = t * (t + 1) // 2
        if start + t + 1 > self._packed.shape[0]:
            self._packed = _grown(self._packed, start, start + t + 1)
        if t + 1 > self._diag.shape[0]:
            self._diag = _grown(self._diag, t, t + 1)
        if t:
            k_bar, _ = column(self._kernel, self._points[t], self._points[:t])
            y = dtpsv(t, self._packed, k_bar, trans=1)  # L^-1 k_bar
            u = dtpsv(t, self._packed, y)  # (K_t + gamma I)^-1 k_bar
        else:
            y = u = np.empty(0)  # BLAS rejects empty vectors
        xi = self_term + gamma - float(y @ y)
        if not xi > 0:
            raise NumericalError(
                f"regularized kernel prefix is not positive definite (leading minor {t + 1}): "
                f"Schur complement {xi:.3e}"
            )
        self._packed[start : start + t] = y
        self._packed[start + t] = math.sqrt(xi)
        self._diag[:t] += u * u / xi
        self._diag[t] = 1.0 / xi
        self._t = t + 1
        d = self._diag[: t + 1]
        tau = 1.0 - gamma * d[np.append(state.dictionary.indices, new_index)]
        return tau, float(t + 1 - gamma * d.sum())


def _grown(buffer: np.ndarray, used: int, needed: int) -> np.ndarray:
    """A buffer of at least ``needed`` and twice ``buffer``'s entries that
    starts with ``buffer[:used]``."""
    out = np.empty(max(needed, 2 * buffer.shape[0]))
    out[:used] = buffer[:used]
    return out


class EstimateOracle:
    """Score oracle backed by the incremental estimators.

    Queries touch only the bordered sketch restricted to dictionary
    coordinates and the exact entries of the new column, so the oracle works
    inside the streaming memory contract.  The effective-dimension estimate
    is seeded exactly from the first self term and grown by scaled increment
    estimates afterwards.  The oracle counts its clamps in ``diagnostics``.

    The oracle holds one :class:`CarriedSketch`.  For a state at the step
    after the one it answered last, of the same run (same random handle),
    it asks the sketch to follow the state's dictionary and score the new
    column in one :meth:`CarriedSketch.query`, which moves the sketch in
    place along the 1-2 dictionary columns a step changes, in O(k Q^2).  The
    sketch rebuilds itself on its carried block only after a failure: when
    an admission's Schur complement is not positive, and once when the new
    column's bordered Schur complement is not positive on a carried sketch.
    ``tests/test_sketch.py``'s ``test_drift_stays_within_the_condition_bound``
    pins its drift between rebuilds.  For any other state, and for a
    dictionary the sketch cannot follow, the oracle rebuilds the sketch on
    the block evaluated from the state's points.
    """

    def __init__(self, gamma: float, epsilon: float):
        open_unit("epsilon", epsilon)
        positive("gamma", gamma)
        self.alpha = alpha_factor(epsilon)
        self.curvature = curvature_coefficient(epsilon)
        self.diagnostics = Diagnostics()
        self._gamma = float(gamma)
        self._sketch = CarriedSketch(self._gamma, self.alpha * self._gamma)
        # The step and random handle of the successor state the sketch can
        # move to next.
        self._expects: tuple[int, RngHandle] | None = None

    def begin_step(self, state, new_index, cross, self_term) -> tuple[np.ndarray, float]:
        gamma, sketch = self._gamma, self._sketch
        shift = sketch.shift
        expects, self._expects = self._expects, None
        if state.step == 0:
            # The first score and effective dimension are exact (0.0 for a self term of 0).
            return np.array([self_term / (self_term + shift)]), self_term / (self_term + gamma)
        d = state.dictionary
        follows = expects is not None and state.step == expects[0] and state.rng is expects[1]
        query = sketch.query(d.indices, d.counts, new_index, cross, self_term) if follows else None
        if query is None:
            sketch.rebuild(d.indices, d.counts, _symmetric_pairwise(state.kernel, state.dict_points))
            query = sketch.query(d.indices, d.counts, new_index, cross, self_term)
        forms, quad_alpha, quad_sq, schur = query
        if not schur > 0:
            raise NumericalError(
                "K~_D + alpha*gamma*I or its bordered Schur complement k + alpha*gamma - c^T "
                "(K~_D + alpha*gamma*I)^-1 c is not positive: bordered shifted matrix is not "
                f"positive definite (leading minor {d.size + 1})"
            )
        q = cross.shape[0]
        diagonal = np.empty(q + 1)
        diagonal[:q] = sketch.diagonal[:q]
        diagonal[q] = self_term
        tau = _clamped_scores(diagonal, forms, shift, self.diagnostics)
        delta = _increment_from_forms(self_term, gamma, self.curvature, quad_alpha, quad_sq)
        deff = _fold_increment(state.deff_tilde, delta, self.alpha, self.diagnostics)
        self._expects = (state.step + 1, state.rng)
        return tau, deff


def ink_step(
    state: SketchState,
    new_index: int,
    point: np.ndarray,
    oracle: ScoreOracle,
) -> tuple[SketchState, EstimatedProfile]:
    """Advance the sketch by one point: evaluate its kernel column against
    the dictionary's points and itself, ask the oracle once for scores on the
    dictionary plus ``new_index`` (which must exceed every dictionary index),
    clamp the induced probabilities against the previous step, run the
    shrink/expand chains, and keep the points of the surviving columns; a
    step whose chains change nothing passes the dictionary and its points on
    as they are, and one that only changes weights builds the next
    dictionary on the same ``indices`` array.  Raises :class:`InputError`,
    before any kernel work, when the state's points or ``p_tilde`` do not
    match its dictionary, and before the oracle call when a kernel value of
    the point is not finite; and :class:`NumericalError` when a retained
    column's probability is not positive (its score estimate was clamped
    to 0)."""
    d, points = state.dictionary, state.dict_points
    q = d.size
    if point.shape != points.shape[1:] or points.shape[0] != q or state.p_tilde.shape != (q,):
        raise InputError(f"a step takes a point of shape {points.shape[1:]} and one point and one probability "
                         f"per dictionary column; got shape {point.shape}, {points.shape[0]} points for {q} "
                         f"columns and p_tilde of shape {state.p_tilde.shape}")
    cross, self_term = column(state.kernel, point, points)
    step = state.step + 1
    # The step's reductions are ufunc reductions and C methods, not numpy's
    # Python-level wrappers (ndarray.all/min, flatnonzero): they run every step.
    if not (math.isfinite(self_term) and np.logical_and.reduce(np.isfinite(cross))):
        raise InputError(f"step {step}: point {new_index} has a non-finite kernel value (self term "
                         f"{self_term}): the kernel's arithmetic overflows on this input")
    tau, deff_new = oracle.begin_step(state, new_index, cross, self_term)
    tau = np.asarray(tau, dtype=np.float64)
    if tau.shape != (q + 1,):
        raise InputError(f"score oracle returned scores of shape {tau.shape} for {q + 1} columns")
    raw_p = tau / deff_new if deff_new > 0 else np.zeros_like(tau)
    p_new = clamp_probabilities(raw_p, state.p_tilde)
    if not np.minimum.reduce(p_new[:-1], initial=1.0) > 0:  # a kept column's chain needs a positive probability (NaN fails)
        pos = int(np.argmin(p_new[:-1] > 0))
        raise NumericalError(f"step {step}: retained index {d.indices[pos]} got leverage score {tau[pos]} (clamped "
                             f"at 0), so sampling probability {p_new[pos]}; a kept column needs a positive one")
    weights = shrink_expand(d, p_new, new_index, state.rng, step)
    keep = weights.nonzero()[0]
    cap = 8 * d.q_bar
    if keep.shape[0] > cap:
        raise InvariantViolation(
            f"dictionary grew to {keep.shape[0]} columns at step {step}, "
            f"beyond the hard cap {cap}"
        )

    queried = np.empty(q + 1, dtype=np.int64)
    queried[:-1] = d.indices
    queried[-1] = new_index
    admitted = weights[-1] != 0
    old = keep[:-1] if admitted else keep
    # A step that drops no retained column passes the points on.  One that
    # also admits nothing keeps the indices array, which tells a carried
    # sketch that no position moved, and the whole dictionary when no weight
    # changed either.
    points_block = points if old.shape[0] == q else points[old]
    if admitted:
        points_block = np.concatenate((points_block, point[None, :]))
    if admitted or old.shape[0] < q:
        dictionary = Dictionary(queried[keep], weights[keep], d.q_bar)
    elif weights[:-1].tolist() == d.counts.tolist():
        dictionary = d
    else:
        dictionary = Dictionary(d.indices, weights[:-1], d.q_bar)

    next_state = SketchState(
        step=step,
        dictionary=dictionary,
        p_tilde=p_new[keep],
        deff_tilde=deff_new,
        kernel=state.kernel,
        dict_points=points_block,
        rng=state.rng,
    )
    return next_state, EstimatedProfile(queried, tau, deff_new, p_new)


def _checkpoint(state: SketchState) -> RunCheckpoint:
    return RunCheckpoint(
        step=state.step,
        deff_tilde=state.deff_tilde,
        indices=tuple(state.dictionary.indices.tolist()),
        weights=tuple(state.dictionary.counts.astype(np.float64).tolist()),
    )


def ink_oracle_run(
    dataset: Dataset,
    kernel: KernelSpec,
    gamma: float,
    q_bar: int,
    oracle: ScoreOracle | None = None,
    *,
    checkpoint_every: int = 50,
    rng: int = 0,
    audit: AccessAudit | None = None,
) -> RunResult:
    """Stream the dataset through the dictionary sampler with a score oracle:
    a fold of :func:`ink_step` over the points, on the chain substreams of
    the seed ``rng``.

    With the default (exact) oracle this is the reference sequential
    algorithm; any object satisfying :class:`ScoreOracle` can be plugged in.
    """
    if oracle is None:
        oracle = ExactOracle(dataset, kernel, gamma)
    positive("gamma", gamma)
    positive_int("checkpoint_every", checkpoint_every)
    n = len(dataset)
    state = initial_state(q_bar, RngHandle(seed=int(rng)), kernel, dataset.dim)
    checkpoints: list[RunCheckpoint] = []
    for idx in range(n):
        if audit is not None:
            audit.record_point(idx)
        state, _ = ink_step(state, idx, dataset.points[idx], oracle)
        if state.step % checkpoint_every == 0 and state.step != n:
            checkpoints.append(_checkpoint(state))
    checkpoints.append(_checkpoint(state))
    return RunResult(
        checkpoints=tuple(checkpoints),
        dictionary=state.dictionary,
        dict_points=state.dict_points,
        kernel=kernel,
        gamma=gamma,
        diagnostics=getattr(oracle, "diagnostics", Diagnostics()).as_dict(),
    )


def ink_estimate_run(
    dataset: Dataset,
    kernel: KernelSpec,
    gamma: float,
    q_bar: int,
    epsilon: float,
    *,
    checkpoint_every: int = 50,
    rng: int = 0,
    audit: AccessAudit | None = None,
) -> RunResult:
    """Single-pass run: :func:`ink_oracle_run` with an
    :class:`EstimateOracle`, so no state beyond the dictionary is kept."""
    result = ink_oracle_run(
        dataset, kernel, gamma, q_bar, EstimateOracle(gamma, epsilon),
        checkpoint_every=checkpoint_every, rng=rng, audit=audit,
    )
    # lambda_max of the sketch (0 for Q = 0) is only a lower-bound stand-in for
    # the full spectrum, so the derived factor is a report value, not a guarantee.
    rho_proxy = spectral_norm(result.factor.materialize()) / gamma
    result.diagnostics["rho_lower_bound_proxy"] = rho_proxy
    result.diagnostics["beta_from_sketch_proxy"] = beta_factor(epsilon, rho_proxy)
    return result


def batch_exact(
    dataset: Dataset,
    kernel: KernelSpec,
    gamma: float,
    m: int,
    rng: int = 0,
) -> tuple[Selection, float]:
    """Reference batch method: exact scores, multinomial column sampling.

    Returns the selection of ``m`` draws on the seed's batch substream, each
    drawn index weighted ``1/sqrt(m p_i)``, and the exact effective
    dimension.  Builds no factor: :func:`nystream.evaluation.rebuild_factor`
    assembles it from the selection.  Needs the dense kernel matrix, so it
    is desk scale by construction.  A kernel matrix of effective dimension
    0 (no kernel mass) has nothing to sample and raises :class:`InputError`.
    """
    positive("gamma", gamma)
    positive_int("m", m)
    handle = RngHandle(seed=int(rng))
    profile = exact_rls(gram(dataset, kernel), gamma)
    if not profile.deff > 0:
        raise InputError("the kernel matrix has effective dimension 0 (no kernel mass): nothing to sample")
    p = profile.probabilities
    draws = direct_sample(p, m, handle.batch_stream())
    return Selection(draws, 1.0 / np.sqrt(m * p[draws]), p.shape[0]), profile.deff


def suggest_batch_m(deff: float, epsilon: float, delta: float, n: int) -> int:
    """Multinomial sampling budget sufficient for the reconstruction bound."""
    positive("deff", deff)
    open_unit("epsilon", epsilon)
    open_unit("delta", delta)
    positive_int("n", n)
    return _ceil_budget("m", lambda: (2.0 * deff / epsilon**2) * math.log(n / delta))


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
    positive("deff", deff)
    open_unit("epsilon", epsilon)
    open_unit("delta", delta)
    positive_int("n", n)
    if not (1.0 <= alpha < math.inf and 1.0 <= beta < math.inf):
        raise InputError(f"approximation factors must be finite and at least 1, got alpha={alpha}, beta={beta}")
    return _ceil_budget("q_bar", lambda: (28.0 * alpha * beta * deff / epsilon**2) * math.log(4.0 * n / delta))


def _ceil_budget(name: str, formula) -> int:
    """``ceil(formula())``; an InputError naming the budget if it overflows."""
    try:
        return math.ceil(formula())
    except (OverflowError, ZeroDivisionError):
        raise InputError(f"the {name} budget overflows a float for these inputs") from None

