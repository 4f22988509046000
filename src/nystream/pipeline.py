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
from scipy.linalg.blas import dgemm, dtrmm, dtrsm
from scipy.linalg.lapack import dpotrf, dtrtri

from .errors import InputError, InvariantViolation, NumericalError, open_unit, positive, positive_int
from .kernels import Dataset, KernelSpec, _symmetric_pairwise, column, gram, pairwise
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
from .nystrom import NystromFactor, Selection, _gathered
from .sampling import Dictionary, RngHandle, direct_sample, selection_weights, shrink_expand
from .sketch import CarriedSketch

# The three entry points, by the name a run's outputs and verify know them by.
ALGORITHMS = ("batch-exact", "ink-oracle", "ink-estimate")

# Rows of ExactOracle's inverse factor made at once; block edges sit at its
# multiples whatever the dataset's length.
_BLOCK = 128


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
    oracle that has none reports zero counts.  An oracle that scores at a
    fixed ridge holds it in an optional ``gamma`` attribute, which must be
    the run's.
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
        dictionary rows; the kernel block is re-evaluated on each access.
        It is exactly symmetric, and its values are the ones the steps
        checked finite."""
        q = self.dictionary.size
        block = Selection(np.arange(q), selection_weights(self.dictionary.counts), q)
        return _gathered(_symmetric_pairwise(self.kernel, self.dict_points), block, self.gamma)


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
    """Exact score oracle (approximation factors both 1) at the ridge
    ``gamma``; a desk-scale testing device for the streaming loop.

    Holds the rows of the lower Cholesky factor ``L`` of ``K_n + gamma I``
    over the whole dataset that the stream has reached, the rows of
    ``W = L^-1`` of the current block, and the diagonal ``d`` of the
    inverse of the regularized t x t prefix, which is the column sums of
    squares of W's leading t x t block.  A step adds the squares of W's row
    t to ``d``, O(t) time, and leverage scores fall out of the identity
    ``tau_i = 1 - gamma * d_i`` (``cross`` and ``self_term`` are not read).

    The rows come a block of ``_BLOCK`` at a time, when the stream reaches
    the block's first row: one ``pairwise`` call for the block's kernel rows
    against every point up to the block's end, then, by blocked triangular
    solves against the earlier rows of L, ``L21 = K21 L11^-T``, the
    Cholesky factor ``L22`` of ``S = K22 + gamma I - L21 L21^T`` and its
    inverse ``W22``, and ``W21 = -W22 L21 L11^-1``; about 2 B t^2 flops at
    level-3 speed every B steps.  Solves, not products with an explicit
    inverse, keep the factor backward stable when gamma is tiny.  Block j of
    L is one (B, (j + 1) B) array, so the oracle holds about
    t^2 / 2 + t B floats and never copies them.

    A block reads up to ``B - 1`` points past the step that starts it.  Its
    edges sit at multiples of B.  A block that runs past the dataset, or
    past a row with a non-finite kernel value, takes identity rows in their
    place before it is factored, and the first row whose pivot is not
    positive, and every row after it, become identity rows once it is
    factored.  Every BLAS call has the same shapes and every row the same
    inputs as on a longer dataset, and a row of L depends only on the rows
    before it, so the answer at step t is a function of the first t + 1
    points, bit for bit, and a failing row raises at its own step.
    """

    def __init__(self, dataset: Dataset, kernel: KernelSpec, gamma: float):
        positive("gamma", gamma)
        self._points = dataset.points
        self._kernel = kernel
        self.gamma = float(gamma)
        self._t = 0
        self._factor: list[np.ndarray] = []
        self._inverse = np.empty((_BLOCK, 0))
        self._diag = np.zeros(len(dataset))
        # The first row known not to be positive definite and its Schur complement.
        self._failure: tuple[int, float] | None = None

    def begin_step(self, state, new_index, cross, self_term) -> tuple[np.ndarray, float]:
        t, gamma = self._t, self.gamma
        if new_index != t:
            raise InputError("exact oracle must observe the stream in order")
        if t >= len(self._points):
            raise InputError(f"index {t} is past the oracle's dataset of {len(self._points)} points")
        if t % _BLOCK == 0:
            self._block(t)
        if self._failure is not None and self._failure[0] == t:
            raise NumericalError(
                f"regularized kernel prefix is not positive definite (leading minor {t + 1}): "
                f"Schur complement {self._failure[1]:.3e}"
            )
        row = self._inverse[t % _BLOCK, : t + 1]
        d = self._diag[: t + 1]
        d += row * row
        self._t = t + 1
        tau = 1.0 - gamma * d[np.append(state.dictionary.indices, new_index)]
        return tau, float(t + 1 - gamma * d.sum())

    def _block(self, b: int) -> None:
        """Make L's and W's rows ``[b, b + B)`` on columns ``[0, b + B)``,
        and record the block's first row that is not positive definite, if
        any."""
        B, points = _BLOCK, self._points
        stop = min(b + B, len(points))
        # A non-finite value is reported at its own row's step, not here.
        with np.errstate(over="ignore", invalid="ignore"):
            K = pairwise(self._kernel, points[b:stop], points[:stop])
        # Each row's values against itself and every earlier point.
        rows = _leading_true(np.isfinite(K[:, :b]).all(axis=1) & np.isfinite(np.tril(K[:, b:])).all(axis=1))
        # Column-major, so that each BLAS call below updates a slice in
        # place (overwrite_b, overwrite_c).
        factor = np.zeros((B, b + B), order="F")
        L21, L22 = factor[:, :b], factor[:, b:]
        L21[:rows] = K[:rows, :b]
        for j, Lj in enumerate(self._factor):  # L21 L11^T = K21, block column j at a time
            done, cols = j * B, slice(j * B, (j + 1) * B)
            if done:
                dgemm(-1.0, L21[:, :done], Lj[:, :done], beta=1.0, c=L21[:, cols], trans_b=1, overwrite_c=1)
            dtrsm(1.0, Lj[:, cols], L21[:, cols], side=1, lower=1, trans_a=1, overwrite_b=1)
        L22[:rows, :rows] = K[:rows, b : b + rows]
        diagonal = np.arange(B)
        L22[diagonal, diagonal] += np.where(diagonal < rows, self.gamma, 1.0)
        L22 -= L21 @ L21.T
        _, info = dpotrf(L22, lower=1, clean=1, overwrite_a=1)
        # dpotrf stops at row info - 1 when its pivot is not positive, but
        # OpenBLAS's passes a NaN pivot with info 0, which fails here.
        bad = _leading_true(L22.diagonal()[: info - 1 if info else rows] > 0)
        if bad < stop - b:
            self._failure = (b + bad, float(L22[bad, bad]) if bad < rows else math.nan)
            # A row of L depends only on the rows before it, so with identity
            # rows from the failed one on, the rows before it are those of a
            # stream that ends there.
            factor[bad:] = 0.0
            L22[diagonal[bad:], diagonal[bad:]] = 1.0
        W22, _ = dtrtri(L22, lower=1)
        inverse = np.empty((B, b + B))
        inverse[:, b:] = W22
        if b:
            W21 = dtrmm(-1.0, W22, L21, lower=1)
            for j in reversed(range(len(self._factor))):  # W21 L11 = -W22 L21, block column j at a time
                Lj, done, cols = self._factor[j], j * B, slice(j * B, (j + 1) * B)
                dtrsm(1.0, Lj[:, cols], W21[:, cols], side=1, lower=1, overwrite_b=1)
                if done:
                    dgemm(-1.0, W21[:, cols], Lj[:, :done], beta=1.0, c=W21[:, :done], overwrite_c=1)
            inverse[:, :b] = W21
        self._factor.append(factor)
        self._inverse = inverse


def _leading_true(mask: np.ndarray) -> int:
    """The number of True entries before ``mask``'s first False."""
    return mask.shape[0] if mask.all() else int(mask.argmin())


class EstimateOracle:
    """Score oracle backed by the incremental estimators, at the ridge
    ``gamma``.

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
        self.gamma = float(gamma)
        self._sketch = CarriedSketch(self.gamma, self.alpha * self.gamma)
        # The step and random handle of the successor state the sketch can
        # move to next.
        self._expects: tuple[int, RngHandle] | None = None

    def begin_step(self, state, new_index, cross, self_term) -> tuple[np.ndarray, float]:
        gamma, sketch = self.gamma, self._sketch
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
        diagonal[:q] = sketch.gram.diagonal()
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


def _checkpoint(state: SketchState, ints: dict, floats: dict) -> RunCheckpoint:
    """The state's checkpoint, whose numbers are the run's objects in
    ``ints`` and ``floats``: an index or weight kept across checkpoints is
    stored once."""
    indices = state.dictionary.indices.tolist()
    weights = state.dictionary.counts.astype(np.float64).tolist()
    return RunCheckpoint(
        step=state.step,
        deff_tilde=state.deff_tilde,
        indices=tuple(map(ints.setdefault, indices, indices)),
        weights=tuple(map(floats.setdefault, weights, weights)),
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
    Raises :class:`InputError` when the oracle has a ``gamma`` other than
    the run's.
    """
    if oracle is None:
        oracle = ExactOracle(dataset, kernel, gamma)
    positive("gamma", gamma)
    oracle_gamma = getattr(oracle, "gamma", gamma)
    if oracle_gamma != gamma:
        raise InputError(f"the run's gamma {gamma} differs from its oracle's gamma {oracle_gamma}: "
                         "the scores and deff_tilde would be at the oracle's ridge, the factor at the run's")
    positive_int("checkpoint_every", checkpoint_every)
    n = len(dataset)
    state = initial_state(q_bar, RngHandle(seed=int(rng)), kernel, dataset.dim)
    checkpoints: list[RunCheckpoint] = []
    ints: dict[int, int] = {}
    floats: dict[float, float] = {}
    for idx in range(n):
        if audit is not None:
            audit.record_point(idx)
        state, _ = ink_step(state, idx, dataset.points[idx], oracle)
        if state.step % checkpoint_every == 0 and state.step != n:
            checkpoints.append(_checkpoint(state, ints, floats))
    checkpoints.append(_checkpoint(state, ints, floats))
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

