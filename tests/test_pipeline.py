import math

import numpy as np
import pytest

from nystream import (
    AccessAudit,
    Dataset,
    EstimateOracle,
    ExactOracle,
    InputError,
    InvariantViolation,
    KernelSpec,
    RngHandle,
    batch_exact,
    exact_rls,
    gram,
    ink_estimate_run,
    ink_oracle_run,
    ink_step,
    initial_state,
    nystrom_approx,
    psd_order_check,
    stream_column,
    suggest_batch_m,
    suggest_q_bar,
)
from nystream.evaluation import SyntheticSpec, generate_synthetic
from nystream.kernels import KernelColumn


def orthogonal_dataset(n):
    """Standard basis vectors: the linear-kernel matrix is the identity."""
    return Dataset(points=np.eye(n))


def duplicate_dataset(n):
    return Dataset(points=np.ones((n, 1)))


def clustered(n, seed=0, d=2, clusters=3, std=0.4):
    return generate_synthetic(
        SyntheticSpec(n=n, d=d, n_clusters=clusters, cluster_std=std), rng=seed
    ).dataset


class StubOracle:
    """Constant answers; exercises the plumbing without any math."""

    def __init__(self, tau=1.0, deff=1.0):
        self._tau, self._deff = tau, deff

    def begin_step(self, state, new_index, point, cross, self_term):
        pass

    def rls(self, i, step):
        return self._tau

    def deff(self, step):
        return self._deff


class TestExactOracle:
    def test_matches_exact_profile_along_stream(self, rng):
        ds = clustered(40, seed=1)
        kern = KernelSpec.gaussian_kernel(1.0)
        gamma = 0.8
        oracle = ExactOracle(ds, kern, gamma, refresh_every=7)
        state = initial_state(gamma, 10, RngHandle(0), ds.dim)
        K = gram(ds, kern)
        for t in range(40):
            oracle.begin_step(state, t, ds.points[t], None, None)
            prof = exact_rls(K[: t + 1, : t + 1], gamma)
            got = np.array([oracle.rls(i, t + 1) for i in range(t + 1)])
            np.testing.assert_allclose(got, prof.tau, atol=1e-9)
            assert oracle.deff(t + 1) == pytest.approx(prof.deff, abs=1e-9)

    def test_orthogonal_closed_form(self):
        ds = orthogonal_dataset(12)
        oracle = ExactOracle(ds, KernelSpec.linear_kernel(), 1.0)
        state = initial_state(1.0, 5, RngHandle(0), ds.dim)
        for t in range(12):
            oracle.begin_step(state, t, ds.points[t], None, None)
            assert oracle.rls(0, t + 1) == pytest.approx(0.5, abs=1e-12)
            assert oracle.deff(t + 1) == pytest.approx((t + 1) / 2, abs=1e-12)

    def test_duplicate_closed_form(self):
        ds = duplicate_dataset(10)
        oracle = ExactOracle(ds, KernelSpec.linear_kernel(), 1.0)
        state = initial_state(1.0, 5, RngHandle(0), ds.dim)
        for t in range(10):
            oracle.begin_step(state, t, ds.points[t], None, None)
            assert oracle.rls(0, t + 1) == pytest.approx(1.0 / (t + 2), abs=1e-10)
            assert oracle.deff(t + 1) == pytest.approx((t + 1) / (t + 2), abs=1e-10)

    def test_out_of_order_rejected(self):
        ds = orthogonal_dataset(3)
        oracle = ExactOracle(ds, KernelSpec.linear_kernel(), 1.0)
        state = initial_state(1.0, 5, RngHandle(0), ds.dim)
        with pytest.raises(InputError):
            oracle.begin_step(state, 2, ds.points[2], None, None)


class TestInkStep:
    def test_trivial_growth_under_stub_oracle(self):
        """Probabilities pinned at one never cross the threshold: the
        dictionary keeps everything at weight one."""
        ds = orthogonal_dataset(6)
        kern = KernelSpec.linear_kernel()
        state = initial_state(1.0, 4, RngHandle(3), ds.dim)
        oracle = StubOracle(tau=1.0, deff=1.0)
        for t in range(6):
            col = stream_column(ds, kern, t, state.dict_indices)
            state, profile = ink_step(
                state, t, ds.points[t], KernelColumn(col.cross, col.self_term), oracle
            )
            assert profile.p_tilde[t] == 1.0
        assert state.dictionary.weights == {i: 1 for i in range(6)}

    def test_misaligned_column_rejected(self):
        ds = orthogonal_dataset(3)
        state = initial_state(1.0, 4, RngHandle(0), ds.dim)
        bad = KernelColumn(cross=np.ones(2), self_term=1.0)
        with pytest.raises(InputError):
            ink_step(state, 0, ds.points[0], bad, StubOracle())

    def test_exact_oracle_probabilities_are_one_over_t(self):
        """Orthogonal stream: every column's sampling probability is 1/t,
        and clamping never bites because 1/t decreases."""
        ds = orthogonal_dataset(15)
        kern = KernelSpec.linear_kernel()
        gamma = 1.0
        oracle = ExactOracle(ds, kern, gamma)
        state = initial_state(gamma, 50, RngHandle(5), ds.dim)
        for t in range(15):
            col = stream_column(ds, kern, t, state.dict_indices)
            state, profile = ink_step(state, t, ds.points[t], col, oracle)
            for p in profile.p_tilde.values():
                assert p == pytest.approx(1.0 / (t + 1), abs=1e-12)

    def test_state_bookkeeping_invariants(self):
        """Stored blocks always mirror the dictionary exactly; probability
        mass stays at most one; the dimension estimate never decreases."""
        ds = clustered(60, seed=2)
        kern = KernelSpec.gaussian_kernel(1.0)
        oracle = EstimateOracle(1.0, 0.5)
        state = initial_state(1.0, 6, RngHandle(9), ds.dim)
        prev_deff = 0.0
        prev_p: dict[int, float] = {}
        for t in range(60):
            col = stream_column(ds, kern, t, state.dict_indices)
            state, profile = ink_step(state, t, ds.points[t], col, oracle)
            q = state.dictionary.size
            assert state.dict_gram.shape == (q, q)
            assert state.dict_points.shape[0] == q
            assert set(state.p_tilde) == set(state.dict_indices)
            assert sum(profile.p_tilde.values()) <= 1.0 + 1e-10
            assert state.deff_tilde >= prev_deff - 1e-12
            for i, p in state.p_tilde.items():
                if i in prev_p:
                    assert p <= prev_p[i] + 1e-12
            prev_deff = state.deff_tilde
            prev_p = dict(state.p_tilde)
            # stored gram is exactly the kernel on the dictionary points
            K_dict = gram(
                Dataset(points=state.dict_points), kern
            ) if q else np.zeros((0, 0))
            np.testing.assert_array_equal(state.dict_gram, K_dict)

    def test_hard_cap_violation(self):
        ds = orthogonal_dataset(17)
        kern = KernelSpec.linear_kernel()
        # cap = 8 * q_bar = 16; the stub keeps everything, so step 17 breaks it
        with pytest.raises(InvariantViolation, match="grew to 17 columns .* beyond the hard cap 16"):
            ink_oracle_run(ds, kern, 1.0, 2, StubOracle(), rng=0)


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
        state = initial_state(gamma, 10_000, RngHandle(1), ds.dim)
        K = gram(ds, kern)
        for t in range(35):
            col = stream_column(ds, kern, t, state.dict_indices)
            state, profile = ink_step(state, t, ds.points[t], col, oracle)
            prof = exact_rls(K[: t + 1, : t + 1], gamma)
            assert state.dictionary.size == t + 1  # nothing evicted
            for i, tau_t in profile.tau_tilde.items():
                assert tau_t <= prof.tau[i] + 1e-9
                assert tau_t >= prof.tau[i] / alpha - 1e-9
            assert profile.deff_tilde >= prof.deff - 1e-9


class TestRuns:
    def test_single_point_estimate_run(self):
        ds = Dataset(points=[[2.0]])
        kern = KernelSpec.linear_kernel()
        res = ink_estimate_run(ds, kern, 1.0, 4, 0.5, rng=0)
        assert res.checkpoints[-1].deff_tilde == pytest.approx(4.0 / 5.0)
        assert res.selection.indices == (0,)
        assert res.checkpoints[-1].weights == (1.0,)

    def test_single_point_oracle_run(self):
        ds = Dataset(points=[[1.0]])
        res = ink_oracle_run(ds, KernelSpec.linear_kernel(), 1.0, 4, rng=0)
        assert res.checkpoints[-1].indices == (0,)
        assert res.checkpoints[-1].weights == (1.0,)

    def test_seeded_runs_are_identical(self):
        ds = clustered(80, seed=6)
        kern = KernelSpec.gaussian_kernel(0.9)
        a = ink_estimate_run(ds, kern, 1.0, 12, 0.5, rng=123, checkpoint_every=20)
        b = ink_estimate_run(ds, kern, 1.0, 12, 0.5, rng=123, checkpoint_every=20)
        for ca, cb in zip(a.checkpoints, b.checkpoints):
            assert ca.indices == cb.indices
            assert ca.weights == cb.weights
            assert ca.deff_tilde == cb.deff_tilde

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
        """A stream with no kernel mass keeps nothing and estimates zero."""
        ds = Dataset(points=np.zeros((15, 2)))
        res = ink_estimate_run(ds, KernelSpec.linear_kernel(), 1.0, 4, 0.5, rng=0)
        assert res.checkpoints[-1].dict_size == 0
        assert res.deff_tilde == 0.0

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

    def test_single_pass_audit(self):
        """Each element is consumed once and kernel evaluations only pair
        the new point with itself or live dictionary members."""
        ds = clustered(70, seed=10)
        kern = KernelSpec.gaussian_kernel(1.0)
        audit = AccessAudit()
        res = ink_estimate_run(
            ds, kern, 1.0, 6, 0.5, rng=2, checkpoint_every=1, audit=audit
        )
        assert audit.points_consumed == list(range(70))
        live_before = {0: frozenset()}
        for cp in res.checkpoints:
            live_before[cp.step] = frozenset(cp.indices)
        for i, j in audit.kernel_pairs:
            assert j == i or j in live_before[i]

    def test_checkpoint_cadence(self):
        ds = clustered(90, seed=12)
        res = ink_oracle_run(
            ds, KernelSpec.gaussian_kernel(1.0), 1.0, 2000, rng=0, checkpoint_every=25
        )
        assert [cp.step for cp in res.checkpoints] == [25, 50, 75, 90]

    def test_estimate_run_diagnostics_labels(self):
        ds = clustered(40, seed=13)
        res = ink_estimate_run(ds, KernelSpec.gaussian_kernel(1.0), 1.0, 50, 0.5, rng=0)
        assert "rho_lower_bound_proxy" in res.diagnostics
        assert "beta_from_sketch_proxy" in res.diagnostics
        assert res.diagnostics["beta_from_sketch_proxy"] >= 1.0


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
        factor, selection = batch_exact(ds, KernelSpec.linear_kernel(), 1.0, 16, rng=0)
        for i, w in selection.pairs:
            assert w == pytest.approx(1.0 / math.sqrt(16 * (1 / 8)))

    def test_single_draw_keeps_sandwich(self):
        ds = clustered(30, seed=14)
        kern = KernelSpec.gaussian_kernel(1.0)
        K = gram(ds, kern)
        factor, selection = batch_exact(ds, kern, 1.0, 1, rng=5)
        assert selection.size == 1
        K_tilde = factor.materialize()
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
