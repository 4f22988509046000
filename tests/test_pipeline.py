import dataclasses
import gc
import math
import os
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from nystream import (
    AccessAudit,
    Dataset,
    Diagnostics,
    Dictionary,
    EstimateOracle,
    ExactOracle,
    InputError,
    InvariantViolation,
    KernelSpec,
    NumericalError,
    RngHandle,
    RunCheckpoint,
    alpha_factor,
    batch_exact,
    build_selection,
    estimate_deff_increment,
    exact_rls,
    gram,
    ink_estimate_run,
    ink_oracle_run,
    ink_step,
    initial_state,
    nystrom_approx,
    psd_order_check,
    suggest_batch_m,
    suggest_q_bar,
    update_deff,
)
from nystream import pipeline
from nystream.evaluation import SyntheticSpec, checkpoint_selection, generate_synthetic
from nystream.kernels import _symmetric_pairwise, evaluate, pairwise
from nystream.leverage import estimate_rls_batch
from nystream.sketch import CarriedSketch

from conftest import KernelReads, RecordingOracle, border
from perfbench.workloads import EPSILON, WORKLOADS, digest, make_problem


def orthogonal_dataset(n):
    """Standard basis vectors: the linear-kernel matrix is the identity."""
    return Dataset(points=np.eye(n))


def duplicate_dataset(n):
    return Dataset(points=np.ones((n, 1)))


def clustered(n, seed=0, d=2, clusters=3, std=0.4):
    return generate_synthetic(
        SyntheticSpec(n=n, d=d, n_clusters=clusters, cluster_std=std), rng=seed
    ).dataset


@pytest.fixture
def rebuilds(monkeypatch):
    """The sketch of each :meth:`CarriedSketch.rebuild` call, in call
    order."""
    carried = []
    rebuild = CarriedSketch.rebuild

    def counted(sketch, *args):
        carried.append(sketch)
        return rebuild(sketch, *args)

    monkeypatch.setattr(CarriedSketch, "rebuild", counted)
    return carried


class StubOracle:
    """Constant answers; exercises the plumbing without any math."""

    def __init__(self, tau=1.0, deff=1.0):
        self._tau, self._deff = tau, deff

    def begin_step(self, state, new_index, cross, self_term):
        return np.full(state.dictionary.size + 1, self._tau), self._deff


def prefix_state(t, dim):
    """State before step ``t + 1`` whose dictionary holds every earlier
    index, so an oracle's scores cover the whole prefix ``0..t``.  Its
    kernel and points are placeholders, which ExactOracle does not read."""
    state = initial_state(10, RngHandle(0), KernelSpec.linear_kernel(), dim)
    return replace(state, step=t, dictionary=Dictionary.from_weights({i: 1 for i in range(t)}, q_bar=10))


def self_term(ds, kern, t):
    return evaluate(kern, ds.points[t], ds.points[t])


def arrays(value):
    """Every numpy array in ``value``, through dataclass fields, tuples,
    lists and dict values."""
    if isinstance(value, np.ndarray):
        yield value
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from arrays(getattr(value, f.name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from arrays(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from arrays(item)


class TestExactOracle:
    def test_matches_exact_profile_along_stream(self, rng):
        # 140 points, each prefix checked against a from-scratch profile.
        ds = clustered(140, seed=1)
        kern = KernelSpec.gaussian_kernel(1.0)
        gamma = 0.8
        oracle = ExactOracle(ds, kern, gamma)
        K = gram(ds, kern)
        for t in range(140):
            tau, deff = oracle.begin_step(prefix_state(t, ds.dim), t, None, self_term(ds, kern, t))
            prof = exact_rls(K[: t + 1, : t + 1], gamma)
            np.testing.assert_allclose(tau, prof.tau, atol=1e-9)
            assert deff == pytest.approx(prof.deff, abs=1e-9)

    def test_orthogonal_closed_form(self):
        ds = orthogonal_dataset(12)
        kern = KernelSpec.linear_kernel()
        oracle = ExactOracle(ds, kern, 1.0)
        for t in range(12):
            tau, deff = oracle.begin_step(prefix_state(t, ds.dim), t, None, self_term(ds, kern, t))
            assert tau[0] == pytest.approx(0.5, abs=1e-12)
            assert deff == pytest.approx((t + 1) / 2, abs=1e-12)

    def test_duplicate_closed_form(self):
        ds = duplicate_dataset(10)
        kern = KernelSpec.linear_kernel()
        oracle = ExactOracle(ds, kern, 1.0)
        for t in range(10):
            tau, deff = oracle.begin_step(prefix_state(t, ds.dim), t, None, self_term(ds, kern, t))
            assert tau[0] == pytest.approx(1.0 / (t + 2), abs=1e-10)
            assert deff == pytest.approx((t + 1) / (t + 2), abs=1e-10)

    def test_out_of_order_rejected(self):
        ds = orthogonal_dataset(3)
        oracle = ExactOracle(ds, KernelSpec.linear_kernel(), 1.0)
        with pytest.raises(InputError):
            oracle.begin_step(prefix_state(2, ds.dim), 2, None, 1.0)

    def test_index_past_dataset_rejected(self):
        ds = orthogonal_dataset(3)
        oracle = ExactOracle(ds, KernelSpec.linear_kernel(), 1.0)
        for t in range(3):
            oracle.begin_step(prefix_state(t, ds.dim), t, None, 1.0)
        with pytest.raises(InputError, match="past the oracle's dataset of 3 points"):
            oracle.begin_step(prefix_state(3, ds.dim), 3, None, 1.0)

    def test_long_stream_matches_exact_profile(self):
        """600 steps, over five of the oracle's 128-row blocks, the last
        padded past the data: the scores and deff match the exact profile
        of every prefix.  The diagonal of prefix t's
        (K_t + gamma I)^-1 is the column sums of squares of the leading
        t x t block of M = L^-1, for L the Cholesky factor of the whole
        K + gamma I, so one factorization gives every prefix's reference;
        exact_rls pins that reference every 100 prefixes."""
        n, gamma = 600, 0.8
        ds = clustered(n, seed=4)
        kern = KernelSpec.gaussian_kernel(1.0)
        K = gram(ds, kern)
        M = scipy.linalg.solve_triangular(np.linalg.cholesky(K + gamma * np.eye(n)), np.eye(n), lower=True)
        prefix_diag = np.cumsum(M * M, axis=0)  # row t - 1: the diagonal for prefix t
        oracle = ExactOracle(ds, kern, gamma)
        for t in range(n):
            tau, deff = oracle.begin_step(prefix_state(t, ds.dim), t, None, self_term(ds, kern, t))
            want_tau = 1.0 - gamma * prefix_diag[t, : t + 1]
            np.testing.assert_allclose(tau, want_tau, atol=1e-9)
            assert deff == pytest.approx(float(np.sum(want_tau)), abs=1e-9)
            if (t + 1) % 100 == 0:
                prof = exact_rls(K[: t + 1, : t + 1], gamma)
                np.testing.assert_allclose(want_tau, prof.tau, atol=1e-9)
                assert deff == pytest.approx(prof.deff, abs=1e-9)

    @pytest.mark.parametrize("gamma", [1e-8, 1e-10])
    def test_tiny_ridge_keeps_the_accuracy_of_a_cholesky_solve(self, gamma):
        """At a tiny ridge ``W = L^-1`` has entries near gamma^-1/2, and a
        factor built by products with it (``L21 = K21 W11^T``) lost about
        100x the accuracy of a Cholesky solve at gamma = 1e-8 and reported a
        non-positive pivot at gamma = 1e-10.  Built by triangular solves, the
        scores along a 400-point stream stay within n u / (4 gamma) of
        ``cho_solve`` on each prefix (measured: 1.3e-7 and 1.7e-5)."""
        n = 400
        ds = generate_synthetic(SyntheticSpec(n=n, d=3, n_clusters=4, cluster_std=0.5), rng=1).dataset
        kern = KernelSpec.gaussian_kernel(2.0)
        K = gram(ds, kern)
        oracle = ExactOracle(ds, kern, gamma)
        for t in range(n):
            tau, _ = oracle.begin_step(prefix_state(t, ds.dim), t, None, K[t, t])
            if t % 50 == 49:
                factor = scipy.linalg.cho_factor(K[: t + 1, : t + 1] + gamma * np.eye(t + 1), lower=True)
                want = 1.0 - gamma * np.diag(scipy.linalg.cho_solve(factor, np.eye(t + 1)))
                np.testing.assert_allclose(tau, want, rtol=0, atol=n * np.finfo(float).eps / (4 * gamma))

    def test_steps_allocate_no_square(self):
        """A step that starts no block allocates O(t) memory: no t x t (or
        t^2 / 2) temporary.  Exactly ceil(n / B) steps factor a block, the
        ones at multiples of B."""
        ds = clustered(400, seed=3)
        kern = KernelSpec.gaussian_kernel(1.0)
        oracle = ExactOracle(ds, kern, 0.5)
        factoring = []
        tracemalloc.start()
        try:
            for t in range(len(ds)):
                state, k = prefix_state(t, ds.dim), self_term(ds, kern, t)
                blocks = len(oracle._factor)
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                oracle.begin_step(state, t, None, k)
                peak = tracemalloc.get_traced_memory()[1] - before
                if len(oracle._factor) != blocks:
                    factoring.append(t)
                elif t >= 100:
                    assert peak < 16 * 8 * t, f"step {t} allocated {peak} bytes"
        finally:
            tracemalloc.stop()
        assert factoring == list(range(0, len(ds), pipeline._BLOCK))
        assert len(factoring) == math.ceil(len(ds) / pipeline._BLOCK)

    @pytest.mark.parametrize("bad", [128, 130, 255], ids=["first-row", "inner-row", "last-row"])
    def test_non_positive_pivot_inside_a_block_raises_at_its_step(self, bad):
        """Point ``bad`` repeats the point before it among orthogonal
        points, at gamma = 1e-18: its pivot, in the first, an inner or the
        last row of the block factored at step 128, rounds to zero.  Every
        earlier step is answered as on the stream that ends before point
        ``bad``, bit for bit, and step ``bad`` raises, with no
        floating-point warning."""
        points = np.eye(300)
        points[bad] = points[bad - 1]
        ds, kern = Dataset(points=points), KernelSpec.linear_kernel()
        minor = rf"leading minor {bad + 1}\)"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            oracle = ExactOracle(ds, kern, 1e-18)
            short = ExactOracle(Dataset(points=points[:bad]), kern, 1e-18)
            for t in range(bad):
                state = prefix_state(t, ds.dim)
                tau, deff = oracle.begin_step(state, t, None, 1.0)
                want_tau, want_deff = short.begin_step(state, t, None, 1.0)
                assert tau.tobytes() == want_tau.tobytes() and deff == want_deff
            with pytest.raises(NumericalError, match=rf"not positive definite \({minor}: Schur complement"):
                oracle.begin_step(prefix_state(bad, ds.dim), bad, None, 1.0)
            audit = AccessAudit()
            with pytest.raises(NumericalError, match=minor):
                ink_oracle_run(ds, kern, 1e-18, 20, audit=audit)
        assert audit.points_consumed == list(range(bad + 1))

    def test_a_non_finite_read_ahead_row_raises_nothing_before_its_step(self):
        """Point 135's self term overflows (linear kernel), and the block
        factored at step 128 reads it.  Steps 0-134 are answered, with no
        warning, as on the stream that ends before point 135; the oracle
        raises at step 135, and a run stops there with ink_step's
        InputError."""
        points = np.eye(200)
        points[135] *= 1e200
        ds, kern = Dataset(points=points), KernelSpec.linear_kernel()
        oracle = ExactOracle(ds, kern, 1.0)
        short = ExactOracle(Dataset(points=points[:135]), kern, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in range(135):
                state = prefix_state(t, ds.dim)
                tau, deff = oracle.begin_step(state, t, None, 1.0)
                want_tau, want_deff = short.begin_step(state, t, None, 1.0)
                assert tau.tobytes() == want_tau.tobytes() and deff == want_deff
            with pytest.raises(NumericalError, match=r"leading minor 136\): Schur complement nan"):
                oracle.begin_step(prefix_state(135, ds.dim), 135, None, 1.0)
        audit = AccessAudit()
        with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(
            InputError, match=r"^step 136: point 135 has a non-finite kernel value"
        ):
            ink_oracle_run(ds, kern, 1.0, 20, audit=audit)
        assert audit.points_consumed == list(range(136))

    def test_non_positive_pivot_names_the_leading_minor(self):
        """Six repeated points at gamma = 1e-18: the second pivot rounds to
        zero, which is reported at that step, with no floating-point warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=r"leading minor 2\)"):
                ink_oracle_run(duplicate_dataset(6), KernelSpec.linear_kernel(), 1e-18, 3, rng=0)

    def test_near_singular_repeats_complete(self):
        """At gamma = 1e-12 the pivots of six repeated points are tiny but
        positive (each about 2 gamma, with a relative rounding error of about
        1e-16 / gamma), and the run ends with the one effective dimension
        they span."""
        res = ink_oracle_run(duplicate_dataset(6), KernelSpec.linear_kernel(), 1e-12, 3, rng=0)
        assert res.deff_tilde == pytest.approx(1.0, rel=1e-2)


class TestInkStep:
    def test_trivial_growth_under_stub_oracle(self):
        """Probabilities pinned at one never cross the threshold: the
        dictionary keeps everything at weight one."""
        ds = orthogonal_dataset(6)
        kern = KernelSpec.linear_kernel()
        state = initial_state(4, RngHandle(3), kern, ds.dim)
        oracle = StubOracle(tau=1.0, deff=1.0)
        for t in range(6):
            state, profile = ink_step(state, t, ds.points[t], oracle)
            assert profile.p_tilde[-1] == 1.0
        assert state.dictionary.weights == {i: 1 for i in range(6)}

    def test_misaligned_column_rejected(self):
        """The step evaluates its column against the state's points, so a
        state whose points do not match its dictionary is rejected before
        any kernel work."""
        ds = orthogonal_dataset(3)
        state = initial_state(4, RngHandle(0), KernelSpec.linear_kernel(), ds.dim)
        state, _ = ink_step(state, 0, ds.points[0], StubOracle())
        bad = replace(state, dict_points=ds.points[:2])
        with pytest.raises(InputError, match="2 points for 1 columns"):
            ink_step(bad, 1, ds.points[1], StubOracle())

    @pytest.mark.parametrize("extra", [1, -1, 2])
    def test_misaligned_probabilities_rejected(self, extra):
        """A state whose ``p_tilde`` runs one entry long, one short or two
        long is rejected before any kernel work.  Was: the new column's
        probability clamped to the stray entry, the last retained column left
        unclamped, and a bare numpy error."""
        ds = orthogonal_dataset(6)
        state = initial_state(4, RngHandle(0), KernelSpec.linear_kernel(), ds.dim)
        for t in range(5):
            state, _ = ink_step(state, t, ds.points[t], StubOracle())
        p = state.p_tilde
        bad = replace(state, p_tilde=np.append(p, np.full(extra, 1e-9)) if extra > 0 else p[:extra])
        oracle = RecordingOracle()
        with pytest.raises(InputError, match=rf"5 points for 5 columns and p_tilde of shape \({5 + extra},\)"):
            ink_step(bad, 5, ds.points[5], oracle)
        assert oracle.columns == []

    @pytest.mark.parametrize("steps", [0, 2])
    def test_wrong_dimension_point_rejected(self, steps):
        """Checked on an empty dictionary too, where no cross term is
        evaluated."""
        ds = orthogonal_dataset(3)
        state = initial_state(4, RngHandle(0), KernelSpec.linear_kernel(), ds.dim)
        for t in range(steps):
            state, _ = ink_step(state, t, ds.points[t], StubOracle())
        with pytest.raises(InputError, match=r"point of shape \(3,\) .* got shape \(2,\)"):
            ink_step(state, steps, np.ones(2), StubOracle())

    @pytest.mark.parametrize("oracle_kind", ["exact", "estimate"])
    def test_oracle_gets_the_gram_column(self, oracle_kind):
        """The ``(cross, self_term)`` a step hands its oracle is the new
        point's column of ``gram``, restricted to the dictionary, bit for bit,
        on a stream that evicts."""

        class Recording(RecordingOracle):
            def __init__(self, inner):
                super().__init__()
                self.inner = inner

            def begin_step(self, state, new_index, cross, self_term):
                super().begin_step(state, new_index, cross, self_term)
                return self.inner.begin_step(state, new_index, cross, self_term)

        ds = clustered(150, seed=3, d=3)
        kern = KernelSpec.gaussian_kernel(1.0)
        gamma = 0.05
        inner = ExactOracle(ds, kern, gamma) if oracle_kind == "exact" else EstimateOracle(gamma, 0.5)
        oracle = Recording(inner)
        state = initial_state(10, RngHandle(4), kern, ds.dim)
        evicted = False
        for t in range(len(ds)):
            nxt, _ = ink_step(state, t, ds.points[t], oracle)
            evicted |= not np.isin(state.dictionary.indices, nxt.dictionary.indices).all()
            state = nxt
        assert evicted
        K = gram(ds, kern)
        for t, (indices, cross, self_term) in enumerate(oracle.columns):
            assert cross.tobytes() == K[t, indices].tobytes()
            assert self_term == K[t, t]

    def test_exact_oracle_probabilities_are_one_over_t(self):
        """Orthogonal stream: every column's sampling probability is 1/t,
        and clamping never bites because 1/t decreases."""
        ds = orthogonal_dataset(15)
        kern = KernelSpec.linear_kernel()
        gamma = 1.0
        oracle = ExactOracle(ds, kern, gamma)
        state = initial_state(50, RngHandle(5), kern, ds.dim)
        for t in range(15):
            state, profile = ink_step(state, t, ds.points[t], oracle)
            for p in profile.p_tilde:
                assert p == pytest.approx(1.0 / (t + 1), abs=1e-12)

    def test_state_bookkeeping_invariants(self):
        """Stored points always mirror the dictionary exactly, and the
        kernel block the oracle carries is the kernel on them; probability
        mass stays at most one; the dimension estimate never decreases."""
        ds = clustered(60, seed=2)
        kern = KernelSpec.gaussian_kernel(1.0)
        oracle = EstimateOracle(1.0, 0.5)
        state = initial_state(6, RngHandle(9), kern, ds.dim)
        prev_deff = 0.0
        prev_p: dict[int, float] = {}
        for t in range(60):
            asked = state
            state, profile = ink_step(state, t, ds.points[t], oracle)
            q = state.dictionary.size
            np.testing.assert_array_equal(state.dict_points, ds.points[state.dictionary.indices])
            assert state.p_tilde.shape == (q,)
            assert sum(profile.p_tilde) <= 1.0 + 1e-10
            assert state.deff_tilde >= prev_deff - 1e-12
            for i, p in zip(state.dictionary.indices.tolist(), state.p_tilde):
                if i in prev_p:
                    assert p <= prev_p[i] + 1e-12
            prev_deff = state.deff_tilde
            prev_p = dict(zip(state.dictionary.indices.tolist(), state.p_tilde))
            # the carried block is exactly the kernel on the points asked about
            if asked.dictionary.size:
                K_dict = gram(Dataset(points=asked.dict_points), kern)
                np.testing.assert_array_equal(oracle._sketch.gram, K_dict)

    def test_steps_leave_their_input_state_unchanged(self):
        """States share arrays (a step that drops no column passes the points
        on as they are), so neither the oracle nor the step may write into
        the state they are given; and the oracle moves its kernel block in
        place only on a step that admits or evicts: checked bit for bit on
        steps that admit, evict, reweight and change nothing."""
        spec = SyntheticSpec(n=300, d=3, n_clusters=4, cluster_std=0.5)
        ds = generate_synthetic(spec, rng=7).dataset
        kern = KernelSpec.gaussian_kernel(2.0)
        oracle = EstimateOracle(0.01, 0.5)
        state = initial_state(200, RngHandle(7), kern, ds.dim)
        seen = set()
        kept_block = None
        for t in range(len(ds)):
            d = state.dictionary
            held = (d.indices, d.counts, state.p_tilde, state.dict_points)
            before = [a.tobytes() for a in held]
            nxt, _ = ink_step(state, t, ds.points[t], oracle)
            assert [a.tobytes() for a in held] == before
            block = oracle._sketch.gram.tobytes() if t else None  # step 0 builds no sketch
            if kept_block is not None:
                assert block == kept_block
            kept_block = None
            new = nxt.dictionary
            admitted = bool(new.size) and new.indices[-1] == t
            retained = np.isin(d.indices, new.indices)
            kinds = {
                "admit": admitted,
                "evict": not retained.all(),
                "reweight": not np.array_equal(d.counts[retained], new.counts[: new.size - admitted]),
            }
            seen.update(kind for kind, happened in kinds.items() if happened)
            if not any(kinds.values()):
                seen.add("nothing")
                assert nxt.dictionary is state.dictionary
            if not (kinds["admit"] or kinds["evict"]):
                assert nxt.dict_points is state.dict_points
                kept_block = block
            state = nxt
        assert seen == {"admit", "evict", "reweight", "nothing"}

    def test_wrong_score_count_rejected(self):
        class ShortOracle(StubOracle):
            def begin_step(self, state, new_index, cross, self_term):
                return np.ones(state.dictionary.size), 1.0

        ds = orthogonal_dataset(3)
        kern = KernelSpec.linear_kernel()
        state = initial_state(4, RngHandle(0), kern, ds.dim)
        with pytest.raises(InputError, match="shape \\(0,\\) for 1 columns"):
            ink_step(state, 0, ds.points[0], ShortOracle())

    def test_hard_cap_violation(self):
        ds = orthogonal_dataset(17)
        kern = KernelSpec.linear_kernel()
        # cap = 8 * q_bar = 16; the stub keeps everything, so step 17 breaks it
        with pytest.raises(InvariantViolation, match="grew to 17 columns .* beyond the hard cap 16"):
            ink_oracle_run(ds, kern, 1.0, 2, StubOracle(), rng=0)

    def test_hard_cap_holds_on_a_step_that_changes_nothing(self):
        """A hand-built state already past the cap, whose chains keep every
        weight and drop the new column, still fails the cap check; under a
        cap it does not exceed, the same step passes its dictionary on."""

        class DropsTheNewColumn:
            def begin_step(self, state, new_index, cross, self_term):
                return np.append(np.ones(state.dictionary.size), 0.0), 1.0

        ds = orthogonal_dataset(10)

        def state(q_bar):
            # Weight 2 at probability 1 fires no chain (2 > 1 / q_bar), and
            # the new column's probability 0 drops it.
            start = initial_state(q_bar, RngHandle(0), KernelSpec.linear_kernel(), ds.dim)
            dictionary = Dictionary.from_weights({i: 2 for i in range(9)}, q_bar)
            return replace(start, step=9, dictionary=dictionary, p_tilde=np.ones(9), dict_points=ds.points[:9])

        with pytest.raises(InvariantViolation, match="grew to 9 columns at step 10, beyond the hard cap 8"):
            ink_step(state(1), 9, ds.points[9], DropsTheNewColumn())
        under_cap = state(2)
        nxt, _ = ink_step(under_cap, 9, ds.points[9], DropsTheNewColumn())
        assert nxt.dictionary is under_cap.dictionary


class TestEstimateOracleAgainstExact:
    def test_sandwiches_without_eviction(self):
        """With a budget so large nothing is evicted, the sketch tracks the
        full matrix and the estimates obey their two-sided bounds against
        the exact scores."""
        ds = clustered(35, seed=4)
        kern = KernelSpec.gaussian_kernel(1.0)
        gamma, eps = 1.0, 0.5
        alpha = (2 - eps) / (1 - eps)
        oracle = EstimateOracle(gamma, eps)
        state = initial_state(10_000, RngHandle(1), kern, ds.dim)
        K = gram(ds, kern)
        for t in range(35):
            state, profile = ink_step(state, t, ds.points[t], oracle)
            prof = exact_rls(K[: t + 1, : t + 1], gamma)
            assert state.dictionary.size == t + 1  # nothing evicted
            for i, tau_t in zip(profile.indices, profile.tau_tilde):
                assert tau_t <= prof.tau[i] + 1e-9
                assert tau_t >= prof.tau[i] / alpha - 1e-9
            assert profile.deff_tilde >= prof.deff - 1e-9

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_scores_drift_up_on_the_exact_oracles_dictionary(self, seed):
        """The paper's tau~ restricts the t x t score formula to the
        dictionary and new coordinates, which counts each dictionary row once
        though it stands for about b_i rows; so tau~ drifts up against the
        exact tau as the stream grows, even on the dictionaries ExactOracle
        builds, where no estimate feeds back.  Pinned as data on n=1000
        clustered points (d=3, a gaussian kernel of bandwidth 2, gamma 0.1,
        eps 0.5, q_bar 200, problem and chain seed ``seed``): a fresh
        EstimateOracle's median tau~/tau over the queried columns lies in
        [0.75, 1.0] on the step that sees the 251st point (measured
        0.83-0.94 on seeds 1-3) and is at least 1.4 on the step that sees
        the 1000th (measured 1.52-2.19)."""
        ds = clustered(1000, seed=seed, d=3, clusters=4, std=0.5)
        kern = KernelSpec.gaussian_kernel(2.0)
        exact = ExactOracle(ds, kern, 0.1)
        medians = {}

        class Compared:
            def begin_step(self, state, new_index, cross, self_term):
                tau, deff = exact.begin_step(state, new_index, cross, self_term)
                if new_index in (250, 999):
                    tau_tilde, _ = EstimateOracle(0.1, 0.5).begin_step(state, new_index, cross, self_term)
                    medians[new_index] = float(np.median(tau_tilde / tau))
                return tau, deff

        ink_oracle_run(ds, kern, 0.1, 200, Compared(), rng=seed)
        assert 0.75 <= medians[250] <= 1.0
        assert medians[999] >= 1.4


class PublicPathOracle:
    """Wraps an EstimateOracle and recomputes every step through the public
    estimators: the sketch from nystrom_approx on the dictionary block,
    estimate_rls_batch on it bordered with the new column, and
    estimate_deff_increment."""

    def __init__(self, gamma, epsilon):
        self.gamma, self.epsilon = gamma, epsilon
        self.oracle = EstimateOracle(gamma, epsilon)
        self.reference_diagnostics = Diagnostics()
        self.steps = []

    def begin_step(self, state, new_index, cross, self_term):
        tau, deff = self.oracle.begin_step(state, new_index, cross, self_term)
        if state.step:
            gamma, eps = self.gamma, self.epsilon
            weights = {pos: np.sqrt(b) for pos, b in enumerate(state.dictionary.weights.values())}
            selection = build_selection(range(len(weights)), weights, len(weights))
            block = _symmetric_pairwise(state.kernel, state.dict_points)
            sketch = nystrom_approx(block, selection, gamma).materialize()
            columns = border(block, cross, self_term)
            tau_ref = estimate_rls_batch(
                border(sketch, cross, self_term), columns, np.diag(columns), gamma, eps,
                diagnostics=self.reference_diagnostics,
            )
            delta = estimate_deff_increment(sketch, cross, self_term, gamma, eps)
            deff_ref = update_deff(state.deff_tilde, delta, eps, diagnostics=self.reference_diagnostics)
            self.steps.append((tau, tau_ref, deff, deff_ref))
        return tau, deff


def one_column_state(step=1):
    """A state before step ``step + 1`` that holds index 0 at weight 1, with
    the kernel block [[1.0]]: the linear kernel at the point 1."""
    state = initial_state(10, RngHandle(0), KernelSpec.linear_kernel(), 1)
    return replace(
        state, step=step, deff_tilde=0.5, dict_points=np.ones((1, 1)),
        dictionary=Dictionary.from_weights({0: 1}, q_bar=10),
    )


class TestEstimateOracleMatchesEstimators:
    def test_seeded_stream(self):
        spec = SyntheticSpec(n=300, d=3, n_clusters=4, cluster_std=0.5)
        ds = generate_synthetic(spec, rng=7).dataset
        wrapper = PublicPathOracle(0.01, 0.5)
        ink_oracle_run(ds, KernelSpec.gaussian_kernel(2.0), 0.01, 200, wrapper, rng=7)
        assert len(wrapper.steps) == 299
        for tau, tau_ref, deff, deff_ref in wrapper.steps:
            np.testing.assert_allclose(tau, tau_ref, rtol=1e-10, atol=1e-10 * np.max(tau_ref))
            assert deff == pytest.approx(deff_ref, rel=1e-10, abs=0.0)
        assert wrapper.oracle.diagnostics == wrapper.reference_diagnostics

    def test_indefinite_bordering_raises(self):
        """The bordered matrix is indefinite at shift alpha*gamma while the
        sketch plus alpha*gamma is positive definite: the public scores and
        the public increment raise NumericalError, and so does the step, on
        the failed bordered factor before any score, leaving the counters
        untouched."""
        gamma, eps = 0.1, 0.5
        shift = alpha_factor(eps) * gamma
        state = one_column_state()
        block = _symmetric_pairwise(state.kernel, state.dict_points)
        cross, corner = np.array([1.0]), 0.01
        sketch = nystrom_approx(block, build_selection([0], {0: 1.0}, 1), gamma).materialize()
        assert sketch[0, 0] + shift > 0
        assert np.linalg.eigvalsh(border(sketch, cross, corner) + shift * np.eye(2))[0] < 0
        reference = Diagnostics()
        columns = border(block, cross, corner)
        with pytest.raises(NumericalError, match="not positive definite"):
            estimate_rls_batch(
                border(sketch, cross, corner), columns, np.diag(columns), gamma, eps, diagnostics=reference
            )
        oracle = EstimateOracle(gamma, eps)
        with pytest.raises(NumericalError, match="increment denominator"):
            estimate_deff_increment(sketch, cross, corner, gamma, eps)
        with pytest.raises(NumericalError, match="bordered Schur complement .* not positive definite"):
            oracle.begin_step(state, 1, cross, corner)
        assert oracle.diagnostics == Diagnostics() == reference

    def test_numerical_error_on_indefinite_dictionary_block(self):
        """A dictionary block whose weighted form plus gamma is not positive
        definite cannot be factored: a rebuild on it raises the
        NumericalError the public materialize() raises on that block, and
        leaves the sketch as it was.  The block borders [[1.0]] with a
        made-up column, (2.0, 3.4); no kernel makes it, since a kernel block
        is positive semidefinite."""
        gamma, eps = 0.1, 0.5
        state = one_column_state()
        d = state.dictionary
        block = border(np.array([[1.0]]), np.array([2.0]), 3.4)
        with pytest.raises(NumericalError) as public_error:
            nystrom_approx(block, build_selection([0, 1], {0: 1.0, 1: 1.0}, 2), gamma).materialize()
        sketch = CarriedSketch(gamma, alpha_factor(eps) * gamma)
        sketch.rebuild(d.indices, d.counts, np.array([[1.0]]))
        held = sketch._buffers.tobytes()
        with pytest.raises(NumericalError) as rebuild_error:
            sketch.rebuild(np.array([0, 1]), np.array([1, 1]), block)
        assert str(rebuild_error.value) == str(public_error.value)
        assert "not positive definite (leading minor 2)" in str(rebuild_error.value)
        assert sketch.indices is d.indices and sketch._buffers.tobytes() == held


class TestEstimateOracleCarry:
    """The oracle carries its sketch inverses from a state to its successor
    and rebuilds them for any other state."""

    GAMMA, EPS = 0.05, 0.5
    # Long enough for every stream these tests run to carry its sketch
    # through over a hundred updates after its one rebuild.
    STEPS = 448

    @classmethod
    def _calls(cls, seed, steps, oracle, kern=KernelSpec.gaussian_kernel(1.0)):
        """``(state, new_index, point)`` of each step of a seeded stream."""
        ds = clustered(max(80, steps), seed=5, d=3)
        state = initial_state(40, RngHandle(seed), kern, ds.dim)
        calls = []
        for t in range(steps):
            calls.append((state, t, ds.points[t]))
            state, _ = ink_step(state, t, ds.points[t], oracle)
        return calls

    @classmethod
    def _ask(cls, oracle, call):
        """The oracle's answer to ``call``, with the column ink_step
        evaluates for it."""
        state, t, point = call
        cross = pairwise(state.kernel, point, state.dict_points)[0]
        return oracle.begin_step(state, t, cross, evaluate(state.kernel, point, point))

    def test_non_successor_states_get_the_from_scratch_result(self):
        oracle = EstimateOracle(self.GAMMA, self.EPS)
        calls = self._calls(1, 60, oracle)
        other_run = self._calls(2, 61, EstimateOracle(self.GAMMA, self.EPS))
        # The state just asked about, again; another run's state at the next
        # step; an earlier state; the first state once more.
        for call in (calls[-1], other_run[60], calls[20], calls[-1]):
            tau, deff = self._ask(oracle, call)
            ref_tau, ref_deff = self._ask(EstimateOracle(self.GAMMA, self.EPS), call)
            assert tau.tobytes() == ref_tau.tobytes()
            assert deff == ref_deff

    def test_a_non_successor_dictionary_at_the_expected_step_gets_the_from_scratch_result(self):
        """A state at the step the oracle expects next, with the same random
        handle, whose dictionary one step cannot have made from the last one
        (an earlier state's, which holds a column evicted since), gets a
        fresh oracle's scores and effective dimension, bit for bit."""
        oracle = EstimateOracle(self.GAMMA, self.EPS)
        calls = self._calls(1, 60, oracle)
        last, _, _ = calls[-1]
        held = set(last.dictionary.indices.tolist())
        earlier = next(state for state, _, _ in reversed(calls[:-1])
                       if not set(state.dictionary.indices.tolist()) <= held)
        call = (replace(last, step=last.step + 1, dictionary=earlier.dictionary, dict_points=earlier.dict_points,
                        p_tilde=earlier.p_tilde), 60, clustered(80, seed=5, d=3).points[60])
        assert call[0].rng is last.rng
        tau, deff = self._ask(oracle, call)
        ref_tau, ref_deff = self._ask(EstimateOracle(self.GAMMA, self.EPS), call)
        assert tau.tobytes() == ref_tau.tobytes()
        assert deff == ref_deff

    @pytest.mark.parametrize("kern", [KernelSpec.gaussian_kernel(1.0), KernelSpec.linear_kernel()])
    def test_successors_match_the_one_shot_step(self, kern, rebuilds):
        """Each successor against a fresh oracle, which computes the step from
        scratch; over a stream whose carried sketch is rebuilt once, so steps
        both right after a rebuild and over a hundred updates from one are
        checked.  The linear kernel's self terms differ from point to point
        (the gaussian's are all 1), which the diagonal a carried block keeps
        for its steps must follow."""
        oracle = EstimateOracle(self.GAMMA, self.EPS)
        calls = self._calls(1, self.STEPS, oracle, kern)
        assert rebuilds == [oracle._sketch]
        for call in calls[1:]:
            tau, deff = self._ask(oracle, call)
            ref_tau, ref_deff = self._ask(EstimateOracle(self.GAMMA, self.EPS), call)
            np.testing.assert_allclose(tau, ref_tau, rtol=1e-10, atol=1e-12)
            assert deff == pytest.approx(ref_deff, rel=1e-12)

    def test_carried_block_is_the_kernel_on_the_points(self, rebuilds):
        """After every step of a stream whose carried sketch is rebuilt once,
        the kernel block the oracle carries for the state it was asked about
        is the kernel on that state's points, bit for bit."""
        steps = self.STEPS
        ds = clustered(steps, seed=5, d=3)
        kern = KernelSpec.gaussian_kernel(1.0)
        oracle = EstimateOracle(self.GAMMA, self.EPS)
        state = initial_state(40, RngHandle(1), kern, ds.dim)
        checked = 0
        for t in range(steps):
            nxt, _ = ink_step(state, t, ds.points[t], oracle)
            if t and state.dictionary.size:
                expected = gram(Dataset(points=state.dict_points), kern)
                assert oracle._sketch.gram.tobytes() == expected.tobytes()
                checked += 1
            state = nxt
        assert checked == steps - 1
        assert rebuilds == [oracle._sketch]

    @pytest.mark.parametrize("site", ["successor", "N", "shifted", "bordered", "schur"])
    def test_a_declined_query_rebuilds_once_from_the_points(self, monkeypatch, site):
        """Each way a carried sketch's query declines, forced on a seeded
        stream:

        - successor: the state's dictionary is not one step's successor;
        - N: an admission's Schur complement of ``D + Gamma`` is not positive
          (gamma is -inf inside the admission), after the step's reweights
          and evictions have written the buffers;
        - shifted: a shifted inverse's bordered Schur complement is not
          positive (the shift is -inf inside the admission), after N's
          bordering too;
        - bordered: the admission runs to its end and is then reported
          failed, after every bordering;
        - schur: the new column's bordered Schur complement is not positive
          (its self term is -inf on the carried sketch).

        Each forced query answers None; the oracle then rebuilds the sketch
        exactly once, on the kernel block of the state's points, and answers
        what a fresh oracle answers for that state, bit for bit, or raises
        its error."""
        gamma, eps = self.GAMMA, self.EPS
        oracle = EstimateOracle(gamma, eps)
        # Each rebuild's block and each query's answer of the oracle's sketch.
        events = []
        rebuild, query, admit = CarriedSketch.rebuild, CarriedSketch.query, CarriedSketch._admit

        def rebuilt(sketch, indices, counts, block):
            if sketch is oracle._sketch:
                events.append(("rebuild", block))
            return rebuild(sketch, indices, counts, block)

        def queried(sketch, indices, counts, new_index, cross, self_term):
            if sketch is not oracle._sketch:
                return query(sketch, indices, counts, new_index, cross, self_term)
            carried = bool(events) and events[-1][0] == "query"
            answer = query(sketch, indices, counts, new_index, cross,
                           -math.inf if site == "schur" and carried else self_term)
            events.append(("query", answer))
            return answer

        def failing(sketch, *args):
            if site == "bordered":
                admit(sketch, *args)
                return None
            name = "gamma" if site == "N" else "shift"
            kept = getattr(sketch, name)
            setattr(sketch, name, -math.inf)
            try:
                return admit(sketch, *args)
            finally:
                setattr(sketch, name, kept)

        monkeypatch.setattr(CarriedSketch, "rebuild", rebuilt)
        monkeypatch.setattr(CarriedSketch, "query", queried)
        if site == "successor":
            monkeypatch.setattr(CarriedSketch, "_successor", lambda sketch, indices: None)
        elif site != "schur":
            monkeypatch.setattr(CarriedSketch, "_admit", failing)

        def answer(oracle, call):
            """The oracle's ``(tau, deff)`` for the call, or its NumericalError."""
            try:
                return oracle.begin_step(*call)
            except NumericalError as error:
                return error

        def seen(result):
            return str(result) if isinstance(result, NumericalError) else (result[0].tobytes(), result[1])

        declined = []

        class Twins:
            def begin_step(self, *call):
                start = len(events)
                result = answer(oracle, call)
                step = events[start:]
                if step and step[0] == ("query", None):
                    state, new_index = call[:2]
                    declined.append(new_index)
                    assert [kind for kind, _ in step] == ["query", "rebuild", "query"], new_index
                    block = _symmetric_pairwise(state.kernel, state.dict_points)
                    assert step[1][1].tobytes() == block.tobytes(), new_index
                    assert seen(result) == seen(answer(EstimateOracle(gamma, eps), call)), new_index
                if isinstance(result, NumericalError):
                    raise result
                return result

        ds = clustered(150, seed=5, d=3)
        ink_oracle_run(ds, KernelSpec.gaussian_kernel(1.0), gamma, 40, Twins(), rng=1)
        assert len(declined) > 10

    def test_successor_match_runs_once_per_admitting_or_evicting_step(self, monkeypatch, rebuilds):
        """The oracle matches its carried sketch to the state exactly once on
        each successor whose step admitted or evicted a column, and never on
        one whose step only reweighted or changed nothing (that state keeps
        the carried sketch's indices array, and the sketch its positions),
        on a seeded stream whose carried sketch is rebuilt once."""
        calls = []
        successor = CarriedSketch._successor

        def counted(sketch, indices):
            calls.append(sketch._column[0])
            return successor(sketch, indices)

        monkeypatch.setattr(CarriedSketch, "_successor", counted)
        steps = self.STEPS
        oracle = EstimateOracle(self.GAMMA, self.EPS)
        states = [state for state, _, _ in self._calls(1, steps, oracle)]
        assert rebuilds == [oracle._sketch]
        # Each call names the index the step before asked about; step 0
        # builds no sketch, and step 1 has none carried in.
        asking = [new_index + 1 for new_index in calls]
        moved = [t for t in range(2, steps)
                 if states[t].dictionary.indices.tolist() != states[t - 1].dictionary.indices.tolist()]
        reweighted = [t for t in range(2, steps) if states[t].dictionary is not states[t - 1].dictionary
                      and states[t].dictionary.indices is states[t - 1].dictionary.indices]
        assert asking == moved
        assert 0 < len(moved) < steps - 2 and reweighted

    def test_a_reweighting_step_keeps_the_indices_array(self):
        """A step that only changes weights builds the next dictionary on the
        same indices array; a step that admits or evicts builds a new one,
        and a step that changes nothing passes the dictionary on whole.  All
        three kinds occur on a seeded Q ~ 30 stream."""
        ds = clustered(600, seed=1, d=3, clusters=4, std=0.5)
        state = initial_state(200, RngHandle(1), KernelSpec.gaussian_kernel(2.0), ds.dim)
        oracle = EstimateOracle(0.1, 0.5)
        kinds = set()
        for t in range(ds.points.shape[0]):
            before = state.dictionary
            state, _ = ink_step(state, t, ds.points[t], oracle)
            after = state.dictionary
            if after.indices.tolist() != before.indices.tolist():
                kind = "moved"
                assert after.indices is not before.indices
            elif after.counts.tolist() != before.counts.tolist():
                kind = "reweighted"
                assert after is not before and after.indices is before.indices
            else:
                kind = "unchanged"
                assert after is before
            kinds.add(kind)
        assert kinds == {"moved", "reweighted", "unchanged"}

    @pytest.mark.parametrize("n, gamma, q_bar, q_range", [(600, 0.1, 200, (20, 40)), (400, 0.01, 2000, (100, 200))],
                             ids=["q30", "q160"])
    def test_a_copied_dictionary_takes_the_update_path_to_the_same_bits(self, n, gamma, q_bar, q_range):
        """A twin oracle asked about each state with its dictionary arrays
        freshly copied cannot share the carried sketch's arrays, so it
        matches the sketch's positions on every step; its scores and
        effective dimension match the shared path's bit for bit at every
        step, on the steps that change nothing (which query the carried
        sketch) and on those that only reweight (which move it on its own
        positions) alike: on a seeded Q ~ 30 stream, and on a Q ~ 160 one,
        past the Q ~ 100 where OpenBLAS starts to round rank-two and wider
        updates differently."""
        shared, twin = EstimateOracle(gamma, 0.5), EstimateOracle(gamma, 0.5)
        kinds = []

        class Twins:
            previous = None

            def begin_step(self, state, new_index, cross, self_term):
                d, previous = state.dictionary, self.previous
                if previous is not None:
                    kinds.append("unchanged" if d is previous else
                                 "reweighted" if d.indices is previous.indices else "moved")
                self.previous = d
                copied = replace(state, dictionary=replace(d, indices=d.indices.copy(), counts=d.counts.copy()))
                tau, deff = shared.begin_step(state, new_index, cross, self_term)
                twin_tau, twin_deff = twin.begin_step(copied, new_index, cross, self_term)
                assert (twin_tau.tobytes(), twin_deff) == (tau.tobytes(), deff), new_index
                return tau, deff

        ds = clustered(n, seed=1, d=3, clusters=4, std=0.5)
        res = ink_oracle_run(ds, KernelSpec.gaussian_kernel(2.0), gamma, q_bar, Twins(), rng=1)
        assert q_range[0] <= res.dictionary.size <= q_range[1]
        assert min(kinds.count(kind) for kind in ("unchanged", "reweighted", "moved")) >= 20


class TestRuns:
    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 3])
    @pytest.mark.parametrize("algorithm", ["ink-estimate", "ink-oracle", "batch-exact"])
    def test_seed_outside_64_bits_rejected(self, monkeypatch, algorithm, seed):
        """Seeds are not reduced modulo 2**64: -1 does not run as 2**64 - 1,
        nor 2**64 + 3 as 3.  The seed is checked before any kernel work."""
        ds = clustered(20, seed=1)
        kern = KernelSpec.gaussian_kernel(1.0)

        def no_kernel_work(*args, **kwargs):
            raise AssertionError("kernel evaluated before the seed was checked")

        for name in ("gram", "column", "_symmetric_pairwise"):
            monkeypatch.setattr(pipeline, name, no_kernel_work)
        with pytest.raises(InputError, match=f"seed {seed} "):
            if algorithm == "ink-estimate":
                ink_estimate_run(ds, kern, 0.1, 5, 0.5, rng=seed)
            elif algorithm == "ink-oracle":
                ink_oracle_run(ds, kern, 0.1, 5, rng=seed)
            else:
                batch_exact(ds, kern, 0.1, 5, seed)

    def test_single_point_estimate_run(self):
        ds = Dataset(points=[[2.0]])
        kern = KernelSpec.linear_kernel()
        res = ink_estimate_run(ds, kern, 1.0, 4, 0.5, rng=0)
        assert res.checkpoints[-1].deff_tilde == pytest.approx(4.0 / 5.0)
        assert res.selection.indices.tolist() == [0]
        assert res.checkpoints[-1].weights == (1.0,)

    def test_single_point_oracle_run(self):
        ds = Dataset(points=[[1.0]])
        res = ink_oracle_run(ds, KernelSpec.linear_kernel(), 1.0, 4, rng=0)
        assert res.checkpoints[-1].indices == (0,)
        assert res.checkpoints[-1].weights == (1.0,)

    @pytest.mark.parametrize("algorithm", ["ink-estimate", "ink-oracle"])
    def test_result_derives_from_its_final_dictionary(self, algorithm):
        """A result stores the final dictionary once; deff_tilde, the
        selection and the weights agree with the final checkpoint."""
        ds = clustered(90, seed=8)
        kern = KernelSpec.gaussian_kernel(1.0)
        if algorithm == "ink-estimate":
            res = ink_estimate_run(ds, kern, 0.1, 30, 0.5, rng=4, checkpoint_every=40)
        else:
            res = ink_oracle_run(ds, kern, 0.1, 30, rng=4, checkpoint_every=40)
        assert [f.name for f in dataclasses.fields(res)] == [
            "checkpoints", "dictionary", "dict_points", "kernel", "gamma", "diagnostics",
        ]
        last = res.checkpoints[-1]
        assert last.step == len(ds) and last.dict_size > 1
        assert res.deff_tilde == last.deff_tilde
        assert tuple(res.dictionary.indices.tolist()) == last.indices
        assert tuple(res.dictionary.counts.astype(np.float64).tolist()) == last.weights
        rebuilt = checkpoint_selection(last, algorithm)
        assert res.selection.t == rebuilt.t
        np.testing.assert_array_equal(res.selection.indices, rebuilt.indices)
        np.testing.assert_array_equal(res.selection.weights, rebuilt.weights)
        np.testing.assert_array_equal(res.dict_points, ds.points[res.dictionary.indices])

    def test_seeded_runs_are_identical(self):
        ds = clustered(80, seed=6)
        kern = KernelSpec.gaussian_kernel(0.9)
        a = ink_estimate_run(ds, kern, 1.0, 12, 0.5, rng=123, checkpoint_every=20)
        b = ink_estimate_run(ds, kern, 1.0, 12, 0.5, rng=123, checkpoint_every=20)
        assert len(a.checkpoints) == 4
        assert a.checkpoints == b.checkpoints

    def test_different_seed_changes_trajectory(self):
        ds = clustered(80, seed=6)
        kern = KernelSpec.gaussian_kernel(0.9)
        a = ink_estimate_run(ds, kern, 1.0, 6, 0.5, rng=1)
        b = ink_estimate_run(ds, kern, 1.0, 6, 0.5, rng=2)
        assert a.checkpoints[-1].indices != b.checkpoints[-1].indices

    def test_duplicate_stream_keeps_small_dictionary(self):
        """All-identical points: the effective dimension plateaus below one
        and the dictionary cannot grow linearly."""
        ds = duplicate_dataset(150)
        res = ink_oracle_run(ds, KernelSpec.linear_kernel(), 1.0, 10, rng=3)
        assert res.deff_tilde <= 1.0 + 1e-9
        assert res.checkpoints[-1].dict_size <= 40
        for cp in res.checkpoints:
            assert cp.dict_size <= 8 * 10

    def test_orthogonal_stream_chains_fire_late(self):
        """On an orthogonal stream every probability is 1/t, so once t
        exceeds the budget, entry chains fire and the dictionary stays
        bounded instead of keeping all t columns."""
        ds = orthogonal_dataset(100)
        kern = KernelSpec.linear_kernel()
        q_bar = 5
        res = ink_oracle_run(ds, kern, 1.0, q_bar, rng=4, checkpoint_every=1)
        sizes = [cp.dict_size for cp in res.checkpoints]
        assert max(sizes) <= 8 * q_bar
        assert sizes[-1] < 100  # chains dropped columns

    def test_zero_kernel_stream_degenerates_gracefully(self):
        """A stream with no kernel mass keeps nothing and estimates zero; it
        reports the same proxy keys as any run: rho 0 and beta alpha^2."""
        ds = Dataset(points=np.zeros((15, 2)))
        res = ink_estimate_run(ds, KernelSpec.linear_kernel(), 1.0, 4, 0.5, rng=0)
        assert res.checkpoints[-1].dict_size == 0
        assert res.deff_tilde == 0.0
        assert res.diagnostics["rho_lower_bound_proxy"] == 0.0
        assert res.diagnostics["beta_from_sketch_proxy"] == alpha_factor(0.5) ** 2

    def test_space_bound_under_eviction_pressure(self):
        """Small budgets force constant churn; the dictionary still respects
        the eight-fold budget cap at every step."""
        ds = clustered(120, seed=8)
        kern = KernelSpec.gaussian_kernel(1.0)
        for seed in range(6):
            res = ink_oracle_run(
                ds, kern, 1.0, 5, rng=seed, checkpoint_every=1
            )
            for cp in res.checkpoints:
                assert cp.dict_size <= 40

    def test_no_resurrection(self):
        """Once evicted, an index never reappears."""
        ds = clustered(120, seed=9)
        kern = KernelSpec.gaussian_kernel(1.0)
        res = ink_estimate_run(ds, kern, 1.0, 5, 0.5, rng=11, checkpoint_every=1)
        seen: set[int] = set()
        dropped: set[int] = set()
        for cp in res.checkpoints:
            current = set(cp.indices)
            assert not (current & dropped)
            dropped |= seen - current
            seen |= current

    def test_single_pass_audit(self, monkeypatch):
        """Each element is consumed once and kernel evaluations only pair
        the new point with itself or live dictionary members; the exact
        oracle, which reads every earlier point, fails the same check."""
        ds = clustered(70, seed=10)
        kern = KernelSpec.gaussian_kernel(1.0)
        runs = {
            "ink-estimate": lambda audit: ink_estimate_run(
                ds, kern, 1.0, 6, 0.5, rng=2, checkpoint_every=1, audit=audit),
            "ink-oracle": lambda audit: ink_oracle_run(
                ds, kern, 1.0, 6, rng=2, checkpoint_every=1, audit=audit),
        }
        non_live = {}
        for algorithm, run in runs.items():
            audit = AccessAudit()
            with monkeypatch.context() as patch:
                reads = KernelReads(patch, ds.points, audit)
                res = run(audit)
            assert audit.points_consumed == list(range(70))
            assert len(reads.calls) >= 70
            live_before = {0: frozenset()}
            for cp in res.checkpoints:
                live_before[cp.step] = frozenset(cp.indices)
            non_live[algorithm] = reads.non_live_pairs(live_before)
        assert non_live["ink-estimate"] == 0
        assert non_live["ink-oracle"] > 0

    def test_checkpoint_cadence(self):
        ds = clustered(90, seed=12)
        res = ink_oracle_run(
            ds, KernelSpec.gaussian_kernel(1.0), 1.0, 2000, rng=0, checkpoint_every=25
        )
        assert [cp.step for cp in res.checkpoints] == [25, 50, 75, 90]

    def test_negative_checkpoint_every_rejected(self):
        ds = clustered(20, seed=12)
        with pytest.raises(InputError, match="checkpoint_every"):
            ink_estimate_run(ds, KernelSpec.gaussian_kernel(1.0), 1.0, 10, 0.5, checkpoint_every=-1)

    def test_zero_checkpoint_every_rejected(self):
        """Any cadence of at least n keeps only the final checkpoint; 0 is
        not a spelling of it."""
        ds = clustered(20, seed=12)
        with pytest.raises(InputError, match="checkpoint_every must be a positive integer, got 0"):
            ink_oracle_run(ds, KernelSpec.gaussian_kernel(1.0), 1.0, 10, StubOracle(), checkpoint_every=0)
        res = ink_oracle_run(ds, KernelSpec.gaussian_kernel(1.0), 1.0, 10, StubOracle(), checkpoint_every=20)
        assert [cp.step for cp in res.checkpoints] == [20]

    def test_checkpoint_size_is_read_off_its_indices(self):
        """Q_t counts distinct indices; a batch draw may repeat one."""
        cp = RunCheckpoint(step=5, deff_tilde=1.0, indices=(0, 3, 3), weights=(1.0, 0.5, 0.5))
        assert cp.dict_size == 2
        assert "dict_size" not in {f.name for f in dataclasses.fields(RunCheckpoint)}

    @pytest.mark.parametrize("algorithm", ["ink-estimate", "ink-oracle"])
    def test_checkpoints_share_their_numbers(self, algorithm):
        """An index or weight kept across checkpoints is one object, and the
        checkpoints equal, with the same repr, those built from each state
        on its own."""
        ds = clustered(600, seed=5, d=3)
        kern = KernelSpec.gaussian_kernel(1.0)

        def oracle():
            return EstimateOracle(0.1, 0.5) if algorithm == "ink-estimate" else ExactOracle(ds, kern, 0.1)

        res = ink_oracle_run(ds, kern, 0.1, 30, oracle(), rng=3, checkpoint_every=50)
        state, unshared, stepping = initial_state(30, RngHandle(3), kern, ds.dim), [], oracle()
        for t in range(len(ds)):
            state, _ = ink_step(state, t, ds.points[t], stepping)
            if state.step % 50 == 0:
                d = state.dictionary
                unshared.append(RunCheckpoint(state.step, state.deff_tilde, tuple(d.indices.tolist()),
                                              tuple(d.counts.astype(np.float64).tolist())))
        assert res.checkpoints == tuple(unshared)
        assert repr(res.checkpoints) == repr(tuple(unshared))
        shared = 0
        for a, b in zip(res.checkpoints, res.checkpoints[1:]):
            indices, weights = {i: i for i in a.indices}, {w: w for w in a.weights}
            assert all(indices[i] is i for i in b.indices if i in indices)
            assert all(weights[w] is w for w in b.weights if w in weights)
            # CPython keeps one object per small int anyway, so count the others.
            shared += sum(i > 256 and i in indices for i in b.indices)
        assert shared > 0

    @pytest.mark.parametrize("name", ["oracle-exact", "estimate-q200"])
    def test_a_prefix_stream_has_the_full_streams_checkpoints(self, name):
        """A run on the first m points has, at every step, the checkpoint
        digest of the run on all n, for m around ExactOracle's block edges;
        perfbench's warm-up replays a prefix and checks just this.  The
        exact oracle reads up to a block ahead, so its blocks past the data
        must not change the bits of the rows before."""
        w = dataclasses.replace(WORKLOADS[name], n=400)
        for seed in (1, 2, 3):
            problem, kernel = make_problem(w, seed)

            def digests(dataset):
                args = (dataset, kernel, w.gamma, w.q_bar)
                if w.algorithm == "ink-estimate":
                    res = ink_estimate_run(*args, EPSILON, checkpoint_every=1, rng=seed)
                else:
                    res = ink_oracle_run(*args, checkpoint_every=1, rng=seed)
                return [digest(cp) for cp in res.checkpoints]

            full = digests(problem.dataset)
            for m in (1, 127, 128, 129, 255, 300):
                assert digests(problem.prefix(m).dataset) == full[:m], f"seed {seed}, prefix {m}"

    @pytest.mark.parametrize("q_bar", [0, -3])
    def test_nonpositive_q_bar_rejected_before_any_step(self, q_bar):
        ds = clustered(20, seed=12)
        audit = AccessAudit()
        with pytest.raises(InputError, match="q_bar must be a positive integer"):
            ink_oracle_run(ds, KernelSpec.gaussian_kernel(1.0), 1.0, q_bar, StubOracle(), audit=audit)
        assert audit.points_consumed == []

    @pytest.mark.parametrize("gamma", [0.0, -1.0])
    def test_nonpositive_gamma_rejected_before_any_step(self, gamma):
        ds = clustered(20, seed=12)
        kern = KernelSpec.gaussian_kernel(1.0)
        audit = AccessAudit()
        with pytest.raises(InputError, match="gamma must be positive"):
            ink_oracle_run(ds, kern, gamma, 10, StubOracle(), audit=audit)
        with pytest.raises(InputError, match="gamma must be positive"):
            ink_estimate_run(ds, kern, gamma, 10, 0.5, audit=audit)
        assert audit.points_consumed == []

    def test_stream_of_2_pow_28_points_or_more_is_not_refused(self):
        """Chain keys fold step and index past 2**28 - 2 into the Philox
        counter, so streams of 2**28 points and more pass the prologue of
        both entry points and go on to read their first point."""

        class PointRead(Exception):
            pass

        class LongStream:
            dim = 3

            def __init__(self, n):
                self.n = n

            def __len__(self):
                return self.n

            @property
            def points(self):
                raise PointRead

        kern = KernelSpec.gaussian_kernel(1.0)
        for n in (2**28 - 1, 2**28, 2**40):
            with pytest.raises(PointRead):
                ink_estimate_run(LongStream(n), kern, 1.0, 10, 0.5)
            with pytest.raises(PointRead):
                ink_oracle_run(LongStream(n), kern, 1.0, 10, StubOracle())

    @pytest.mark.parametrize("algorithm", ["ink-estimate", "ink-oracle"])
    def test_result_factor_sampled_is_exactly_symmetric(self, algorithm):
        ds = clustered(120, seed=15, d=3)
        kern = KernelSpec.gaussian_kernel(1.0)
        if algorithm == "ink-estimate":
            res = ink_estimate_run(ds, kern, 0.05, 100, 0.5, rng=2)
        else:
            res = ink_oracle_run(ds, kern, 0.05, 20, rng=2)
        assert res.factor.size > 1
        assert np.array_equal(res.factor.sampled, res.factor.sampled.T)

    @pytest.mark.parametrize("algorithm", ["ink-estimate", "ink-oracle"])
    def test_states_keep_no_dictionary_square(self, algorithm):
        """Every state of a seeded stream holds O(Q d) numbers: no array in
        it is larger than Q d + Q."""
        ds = clustered(150, seed=15, d=3)
        kern = KernelSpec.gaussian_kernel(1.0)
        gamma = 0.05
        if algorithm == "ink-estimate":
            q_bar, oracle = 100, EstimateOracle(gamma, 0.5)
        else:
            q_bar, oracle = 20, ExactOracle(ds, kern, gamma)
        state = initial_state(q_bar, RngHandle(2), kern, ds.dim)
        largest_q = 0
        for t in range(len(ds)):
            state, _ = ink_step(state, t, ds.points[t], oracle)
            q = state.dictionary.size
            assert max(a.size for a in arrays(state)) <= q * ds.dim + q
            largest_q = max(largest_q, q)
        assert largest_q > ds.dim + 1  # so a Q x Q block would break the bound

    @pytest.mark.parametrize("algorithm", ["ink-estimate", "ink-oracle"])
    def test_result_keeps_no_dictionary_square(self, algorithm):
        """A result keeps the final dictionary's points and weights, not its
        Q x Q blocks, and derives the factor the final state gives, bit for
        bit."""
        ds = clustered(150, seed=15, d=3)
        kern = KernelSpec.gaussian_kernel(1.0)
        gamma = 0.05
        if algorithm == "ink-estimate":
            q_bar, oracle = 100, EstimateOracle(gamma, 0.5)
            res = ink_estimate_run(ds, kern, gamma, q_bar, 0.5, rng=2)
        else:
            q_bar, oracle = 20, ExactOracle(ds, kern, gamma)
            res = ink_oracle_run(ds, kern, gamma, q_bar, rng=2)
        state = initial_state(q_bar, RngHandle(2), kern, ds.dim)
        for t in range(len(ds)):
            state, _ = ink_step(state, t, ds.points[t], oracle)
        q = state.dictionary.size
        assert q > ds.dim + 1  # so a Q x Q block breaks the bound
        assert max(a.size for a in arrays(res)) <= q * ds.dim + q
        idx = state.dictionary.indices
        # cross = D B^{1/2} and sampled = B^{1/2} D B^{1/2} on the dictionary block D.
        block, sqrt_b = gram(ds, kern)[np.ix_(idx, idx)], np.sqrt(state.dictionary.counts)
        assert res.factor.cross.tobytes() == (block * sqrt_b[None, :]).tobytes()
        assert res.factor.sampled.tobytes() == (block * np.outer(sqrt_b, sqrt_b)).tobytes()
        assert res.factor.gamma == gamma

    def test_estimate_run_diagnostics_labels(self):
        ds = clustered(40, seed=13)
        res = ink_estimate_run(ds, KernelSpec.gaussian_kernel(1.0), 1.0, 50, 0.5, rng=0)
        assert "rho_lower_bound_proxy" in res.diagnostics
        assert "beta_from_sketch_proxy" in res.diagnostics
        assert res.diagnostics["beta_from_sketch_proxy"] >= 1.0

    def test_plugged_estimate_oracle_reports_its_counters(self, monkeypatch):
        """A run reports the clamp counters of the oracle plugged into it.
        Every increment is made a roundoff-sized negative, which update_deff
        clamps and counts once per step after the first; the plugged run
        reports what ink_estimate_run reports, and an oracle without
        counters reports zeros."""
        monkeypatch.setattr(pipeline, "_increment_from_forms", lambda *args: -1e-12)
        ds = clustered(40, seed=13)
        kern = KernelSpec.gaussian_kernel(1.0)
        oracle = EstimateOracle(0.1, 0.5)
        plugged = ink_oracle_run(ds, kern, 0.1, 20, oracle, rng=3)
        assert plugged.diagnostics == oracle.diagnostics.as_dict()
        assert plugged.diagnostics["increment_clamped"] == len(ds) - 1
        estimated = ink_estimate_run(ds, kern, 0.1, 20, 0.5, rng=3)
        assert {k: estimated.diagnostics[k] for k in plugged.diagnostics} == plugged.diagnostics
        assert plugged.checkpoints == estimated.checkpoints
        exact = ink_oracle_run(ds, kern, 0.1, 20, rng=3)
        assert exact.diagnostics == Diagnostics().as_dict()

    @pytest.mark.parametrize("epsilon", [0.0, 1.0, -0.5])
    def test_epsilon_outside_the_open_interval_rejected_before_gamma(self, epsilon):
        with pytest.raises(InputError, match=r"epsilon must lie in \(0, 1\)"):
            EstimateOracle(-1.0, epsilon)
        with pytest.raises(InputError, match=r"epsilon must lie in \(0, 1\)"):
            ink_estimate_run(clustered(5, seed=1), KernelSpec.linear_kernel(), 1.0, 3, epsilon)


class TestKernelOverflow:
    """A kernel value that overflows from finite points is an InputError at
    the step that evaluates it, before the oracle sees it."""

    @pytest.mark.parametrize("algorithm", ["ink-estimate", "ink-oracle"])
    def test_overflowing_self_term(self, algorithm):
        """Was a deff_tilde of NaN (ink-estimate) or a Schur complement of
        NaN (ink-oracle) steps later."""
        ds, kern = Dataset(points=[[1e200], [2e200], [3e200]]), KernelSpec.linear_kernel()
        with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(
            InputError, match=r"^step 1: point 0 has a non-finite kernel value \(self term inf\)"
        ):
            if algorithm == "ink-estimate":
                ink_estimate_run(ds, kern, 1.0, 5, 0.5)
            else:
                ink_oracle_run(ds, kern, 1.0, 5)

    def test_overflowing_cross_term(self):
        state, _ = ink_step(initial_state(4, RngHandle(0), KernelSpec.linear_kernel(), 1), 0,
                            np.array([1.0]), StubOracle())
        state = replace(state, dict_points=np.array([[1e300]]))
        oracle = RecordingOracle()
        with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(
            InputError, match=r"^step 2: point 1 has a non-finite kernel value \(self term 1e\+20\)"
        ):
            ink_step(state, 1, np.array([1e10]), oracle)
        assert oracle.columns == []


def test_step_call_budget():
    """The Python-level calls that nystream's own code makes, over the first
    500 steps of a small-budget stream (Q about 30), counted with a profile
    hook: the per-step interpreter floor does not creep back.  The figure
    counts calls into nystream and into numpy's Python-level wrappers, so a
    numpy release that moves a wrapper between Python and C moves it."""
    root = os.path.dirname(pipeline.__file__) + os.sep
    ds = clustered(500, seed=1, d=3, clusters=4, std=0.5)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_back is not None and frame.f_back.f_code.co_filename.startswith(root):
            calls += 1

    # Earlier tests' garbage is collected first: a collection inside the
    # profiled run would count the finalizers it calls against the nystream
    # frame that happened to be running.
    gc.collect()
    sys.setprofile(count)
    try:
        res = ink_estimate_run(ds, KernelSpec.gaussian_kernel(2.0), 0.1, 200, 0.5, rng=1)
    finally:
        sys.setprofile(None)
    assert res.dictionary.size == 26
    # 43478 before the floor was cut, 34004 before one kernel formula, 32515
    # before a step that changes nothing kept its dictionary and sketch,
    # 30720 before the step's reductions left numpy's Python-level wrappers
    # and the step stopped computing alpha_factor, 27242 before the sketch
    # moved in place and the score clamp, the increment's coefficient, the
    # kernel's feature sum and the short Woodbury row sums left them too,
    # 19446 before a step that only reweights kept its indices (no position
    # match, no gathers) and the Woodbury update dropped np.diag, np.eye,
    # np.einsum and the per-matrix capacitance inverses, 16902 before the
    # sketch was refreshed after 64 updates instead of every 64 steps and an
    # admission formed both shifted inverses' products in one call, 15740
    # before the periodic refresh was deleted (a rebuild only follows a
    # failed update), 15664 before the sketch formed each update's factors
    # in a new array instead of a view of a kept scratch array.
    assert calls <= 15278


class TestGoldenRuns:
    """Pinned outputs of two small seeded runs.  The stream contract is that
    a fixed config and seed reproduce the same dictionaries and estimates, so
    refactors of the sketch state must leave these values untouched."""

    @staticmethod
    def _problem():
        spec = SyntheticSpec(n=300, d=3, n_clusters=4, cluster_std=0.5)
        return generate_synthetic(spec, rng=7).dataset, KernelSpec.gaussian_kernel(2.0)

    @staticmethod
    def _assert_checkpoints(result, expected):
        assert [cp.step for cp in result.checkpoints] == [step for step, *_ in expected]
        for cp, (step, deff, indices, weights) in zip(result.checkpoints, expected):
            assert cp.indices == indices
            assert cp.weights == tuple(float(w) for w in weights)
            assert cp.deff_tilde == pytest.approx(deff, rel=1e-9, abs=0.0)

    def test_ink_estimate(self):
        ds, kern = self._problem()
        res = ink_estimate_run(ds, kern, 0.01, 200, 0.5, checkpoint_every=150, rng=7)
        self._assert_checkpoints(res, [
            (150, 213.4843067584253,
             (2, 13, 18, 19, 23, 27, 30, 33, 48, 51, 79, 84, 85, 88, 91, 97, 104, 105,
              109, 110, 113, 116, 125, 135, 137),
             (2, 7, 5, 3, 10, 7, 3, 9, 4, 6, 2, 8, 7, 3, 5, 7, 10, 3, 4, 4, 10, 3, 10, 7, 4)),
            (300, 540.6147344738426,
             (18, 23, 33, 51, 85, 88, 97, 104, 105, 109, 113, 125, 175, 176, 183, 184,
              196, 202, 207, 209, 221, 224, 227, 236, 237, 239, 263, 271, 278, 279, 293),
             (5, 17, 13, 8, 8, 6, 9, 16, 9, 6, 16, 16, 8, 12, 14, 8, 8, 9, 6, 8, 8, 11, 5,
              6, 9, 8, 11, 8, 5, 5, 6)),
        ])

    def test_ink_oracle(self):
        ds, kern = self._problem()
        res = ink_oracle_run(ds, kern, 0.1, 20, checkpoint_every=150, rng=7)
        self._assert_checkpoints(res, [
            (150, 9.435365797937436,
             (4, 28, 32, 38, 50, 60, 79, 86, 93, 97, 105, 109, 110, 116, 125, 132, 135, 137),
             (3, 7, 23, 3, 5, 15, 1, 6, 4, 9, 3, 8, 5, 4, 27, 4, 8, 7)),
            (300, 20.748368374402673,
             (86, 109, 116, 125, 132, 137, 168, 183, 187, 224, 227, 232, 236, 238, 239,
              263, 264, 271, 280, 290, 293),
             (14, 18, 22, 73, 10, 16, 10, 29, 5, 15, 5, 6, 7, 4, 11, 17, 11, 12, 4, 9, 7)),
        ])

    @pytest.mark.parametrize("algorithm", ["ink-estimate", "ink-oracle"])
    def test_result_factor_is_dictionary_restriction(self, algorithm):
        """The returned factor is the full-row Nystrom approximation of the
        final selection, restricted to the dictionary rows and columns."""
        ds, kern = self._problem()
        gamma = 0.1
        if algorithm == "ink-estimate":
            res = ink_estimate_run(ds, kern, gamma, 200, 0.5, rng=3)
        else:
            res = ink_oracle_run(ds, kern, gamma, 20, rng=3)
        idx = list(res.selection.indices)
        assert res.factor.size == len(idx) > 0
        full = nystrom_approx(gram(ds, kern), res.selection, gamma).materialize()
        np.testing.assert_allclose(
            res.factor.materialize(), full[np.ix_(idx, idx)], rtol=0, atol=1e-10
        )


class TestBatchExact:
    def test_identity_gram_uniform_probabilities(self):
        ds = orthogonal_dataset(8)
        profile = exact_rls(gram(ds, KernelSpec.linear_kernel()), 1.0)
        np.testing.assert_allclose(profile.probabilities, np.full(8, 1 / 8))
        selection, deff = batch_exact(ds, KernelSpec.linear_kernel(), 1.0, 16, rng=0)
        np.testing.assert_allclose(selection.weights, 1.0 / math.sqrt(16 * (1 / 8)))
        assert deff == profile.deff

    def test_single_draw_keeps_sandwich(self):
        ds = clustered(30, seed=14)
        kern = KernelSpec.gaussian_kernel(1.0)
        K = gram(ds, kern)
        selection, _ = batch_exact(ds, kern, 1.0, 1, rng=5)
        assert selection.size == 1
        K_tilde = nystrom_approx(K, selection, 1.0).materialize()
        assert psd_order_check(np.zeros_like(K), K_tilde, 1e-8)
        assert psd_order_check(K_tilde, K, 1e-8)

    def test_rejects_zero_budget(self):
        ds = orthogonal_dataset(3)
        with pytest.raises(InputError):
            batch_exact(ds, KernelSpec.linear_kernel(), 1.0, 0)


class TestBudgets:
    def test_batch_budget_formula(self):
        # 2 * 10 / 0.25 * log(1000 / 0.1) = 80 * log(10000)
        want = math.ceil(80 * math.log(10_000))
        assert suggest_batch_m(10.0, 0.5, 0.1, 1000) == want

    def test_streaming_budget_formula(self):
        want = math.ceil((28 * 12 / 0.25) * math.log(4 * 1000 / 0.1))
        assert suggest_q_bar(12.0, 0.5, 0.1, 1000) == want

    def test_streaming_budget_with_factors(self):
        scaled = suggest_q_bar(5.0, 0.5, 0.1, 100, alpha=3.0, beta=18.0)
        assert scaled == math.ceil((28 * 3 * 18 * 5 / 0.25) * math.log(4 * 100 / 0.1))

    def test_rejects_bad_epsilon(self):
        with pytest.raises(InputError):
            suggest_q_bar(5.0, 1.0, 0.1, 100)
