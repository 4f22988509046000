import json
import os
import threading
import tracemalloc
from concurrent.futures import Future
from dataclasses import asdict, replace

import numpy as np
import pytest
import scipy.linalg

from nystream import (
    Dataset,
    FixedDesignProblem,
    InputError,
    KernelSpec,
    SyntheticSpec,
    check_condition,
    exact_rls,
    fixed_design_risk,
    generate_synthetic,
    gram,
    ink_estimate_run,
    monotonicity_audit,
    nystrom_approx,
    psi_gap,
    risk_ratio_bound,
    verify_checkpoints,
)
from nystream import evaluation, nystrom
from nystream.evaluation import (
    CONDITION_TOL,
    CheckpointRecord,
    checkpoint_selection,
    write_records_csv,
    write_records_json,
)
from nystream.kernels import DESK_SCALE_CAP
from nystream.linalg import DEFAULT_PSD_TOL, psd_order_check, validate_psd
from nystream.nystrom import build_selection
from nystream.pipeline import RunCheckpoint, batch_exact

from conftest import random_gram


def full_selection(t):
    return build_selection(range(t), {i: 1.0 for i in range(t)}, t)


def random_selection(rng, t):
    q = int(rng.integers(1, t + 1))
    idx = rng.choice(t, size=q, replace=False).tolist()
    weights = {int(i): float(rng.uniform(0.4, 1.6)) for i in idx}
    return build_selection(idx, weights, t)


class TestCheckCondition:
    def test_exact_approximation(self, rng):
        K = random_gram(rng, 7)
        report = check_condition(K, K.copy(), 1.0, 0.0)
        assert report.lower_psd_ok and report.upper_psd_ok
        assert report.spectral_gap == pytest.approx(0.0, abs=1e-12)

    def test_full_selection_gap_closed_form(self, rng):
        """Keeping every column at unit weight leaves the gap at
        gamma * lam_max / (lam_max + gamma) and satisfies the two-sided
        condition already at accuracy zero."""
        for _ in range(5):
            K = random_gram(rng, 9)
            gamma = float(rng.uniform(0.4, 2.0))
            K_tilde = nystrom_approx(K, full_selection(9), gamma).materialize()
            report = check_condition(K, K_tilde, gamma, 0.0, step=9)
            lam_max = float(np.linalg.eigvalsh(K)[-1])
            assert report.lower_psd_ok and report.upper_psd_ok
            assert report.spectral_gap == pytest.approx(
                gamma * lam_max / (lam_max + gamma), rel=1e-9
            )

    def test_designed_failure(self):
        K = np.eye(4)
        report = check_condition(K, np.zeros((4, 4)), 1.0, 0.0)
        assert report.lower_psd_ok
        assert not report.upper_psd_ok

    def test_upper_ok_bounds_gap(self, rng):
        """Whenever the upper PSD check passes, the spectral gap is within
        gamma/(1-eps) plus tolerance."""
        for _ in range(15):
            t = int(rng.integers(2, 10))
            K = random_gram(rng, t)
            sel = random_selection(rng, t)
            gamma = float(rng.uniform(0.3, 2.0))
            eps = float(rng.uniform(0.0, 0.8))
            K_tilde = nystrom_approx(K, sel, gamma).materialize()
            report = check_condition(K, K_tilde, gamma, eps)
            if report.upper_psd_ok:
                assert report.spectral_gap <= gamma / (1 - eps) + 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            check_condition(np.eye(2), np.eye(3), 1.0, 0.0)


class TestPsiGap:
    def test_full_selection_zero(self, rng):
        K = random_gram(rng, 8)
        assert psi_gap(K, full_selection(8), 1.0) == pytest.approx(0.0, abs=1e-10)

    def test_empty_selection(self, rng):
        K = random_gram(rng, 8)
        got = psi_gap(K, build_selection([], {}, 8), 1.0)
        lam_max = float(np.linalg.eigvalsh(K)[-1])
        assert got == pytest.approx(lam_max / (lam_max + 1.0), rel=1e-10)

    def test_selection_size_mismatch_rejected(self):
        sel = build_selection([0], {0: 1.0}, 5)
        with pytest.raises(InputError, match="row count"):
            psi_gap(np.eye(3), sel, 1.0)
        with pytest.raises(InputError, match="row count"):
            check_condition(np.eye(3), np.eye(3), 1.0, 0.5, selection=sel)

    def test_gap_certifies_condition(self, rng):
        """psi_gap below one always implies the two-sided condition at that
        accuracy."""
        checked = 0
        for _ in range(100):
            t = int(rng.integers(2, 12))
            K = random_gram(rng, t)
            sel = random_selection(rng, t)
            gamma = float(rng.uniform(0.3, 2.0))
            g = psi_gap(K, sel, gamma)
            if g >= 0.999:
                continue
            eps = max(g, 0.0)
            K_tilde = nystrom_approx(K, sel, gamma).materialize()
            report = check_condition(K, K_tilde, gamma, eps)
            assert report.lower_psd_ok and report.upper_psd_ok
            checked += 1
        assert checked >= 20


class TestFixedDesignRisk:
    def test_pure_variance(self):
        ds = Dataset(points=np.eye(6))
        prob = FixedDesignProblem(dataset=ds, f_star=np.zeros(6), noise_std=0.3, mu=1.0)
        assert fixed_design_risk(np.eye(6), prob) == pytest.approx(0.09 * 6 / 4)

    def test_pure_bias(self, rng):
        f = rng.normal(size=5)
        ds = Dataset(points=np.zeros((5, 1)))
        prob = FixedDesignProblem(dataset=ds, f_star=f, noise_std=0.0, mu=2.0)
        assert fixed_design_risk(np.zeros((5, 5)), prob) == pytest.approx(float(f @ f))

    def test_matches_monte_carlo(self, rng):
        """Closed form against an empirical average over noise draws."""
        n = 12
        K = random_gram(rng, n)
        f = rng.normal(size=n)
        sigma, mu = 0.4, 0.8
        ds = Dataset(points=np.zeros((n, 1)))
        prob = FixedDesignProblem(dataset=ds, f_star=f, noise_std=sigma, mu=mu)
        closed = fixed_design_risk(K, prob)
        predictor = K @ np.linalg.inv(K + mu * np.eye(n))
        draws = 100_000
        noise = rng.normal(0.0, sigma, size=(draws, n))
        residuals = (f + noise) @ predictor.T - f
        samples = np.sum(residuals**2, axis=1)
        se = samples.std() / np.sqrt(draws)
        assert abs(samples.mean() - closed) < 3 * se

    def test_variance_monotone_under_psd_order(self, rng):
        """Any valid approximation can only shrink the variance term."""
        for _ in range(8):
            t = int(rng.integers(3, 10))
            K = random_gram(rng, t)
            sel = random_selection(rng, t)
            K_tilde = nystrom_approx(K, sel, 1.0).materialize()
            ds = Dataset(points=np.zeros((t, 1)))
            prob = FixedDesignProblem(
                dataset=ds, f_star=np.zeros(t), noise_std=1.0, mu=0.7
            )
            assert fixed_design_risk(K_tilde, prob) <= fixed_design_risk(K, prob) + 1e-12

    def test_risk_ratio_bound_value(self):
        assert risk_ratio_bound(1.0, 1.0, 0.5) == pytest.approx(9.0)


class TestGenerateSynthetic:
    def test_noise_free_labels_equal_targets(self):
        prob = generate_synthetic(
            SyntheticSpec(n=30, d=2, n_clusters=3, cluster_std=0.5, sigma=0.0), rng=0
        )
        np.testing.assert_array_equal(prob.dataset.labels, prob.f_star)

    def test_single_tight_cluster_is_rank_one(self):
        prob = generate_synthetic(
            SyntheticSpec(n=10, d=2, n_clusters=1, cluster_std=0.0), rng=1
        )
        K = gram(prob.dataset, KernelSpec.linear_kernel())
        lam = np.linalg.eigvalsh(K)
        assert np.sum(lam > 1e-10 * max(lam[-1], 1.0)) <= 1

    def test_seeded_determinism(self):
        spec = SyntheticSpec(n=25, d=3, n_clusters=4, cluster_std=0.3)
        a = generate_synthetic(spec, rng=7)
        b = generate_synthetic(spec, rng=7)
        np.testing.assert_array_equal(a.dataset.points, b.dataset.points)
        np.testing.assert_array_equal(a.dataset.labels, b.dataset.labels)

    def test_generator_and_its_seed_give_the_same_problem(self):
        spec = SyntheticSpec(n=25, d=3, n_clusters=4, cluster_std=0.3)
        a = generate_synthetic(spec, rng=np.random.default_rng(7))
        b = generate_synthetic(spec, rng=7)
        np.testing.assert_array_equal(a.dataset.points, b.dataset.points)
        np.testing.assert_array_equal(a.dataset.labels, b.dataset.labels)

    def test_sizes(self):
        prob = generate_synthetic(SyntheticSpec(n=17, d=1, n_clusters=5, cluster_std=0.1), rng=3)
        assert len(prob.dataset) == 17


class TestMonotonicityAudit:
    def test_orthogonal_stream_clean(self):
        ds = Dataset(points=np.eye(20))
        report = monotonicity_audit(ds, KernelSpec.linear_kernel(), 1.0, 20)
        assert report.ok

    def test_duplicate_stream_clean(self):
        ds = Dataset(points=np.ones((20, 1)))
        report = monotonicity_audit(ds, KernelSpec.linear_kernel(), 1.0, 20)
        assert report.ok

    def test_random_streams_clean(self, rng):
        for seed in range(5):
            prob = generate_synthetic(
                SyntheticSpec(n=25, d=2, n_clusters=3, cluster_std=0.6), rng=seed
            )
            report = monotonicity_audit(
                prob.dataset, KernelSpec.gaussian_kernel(1.0), 0.8, 25
            )
            assert report.ok, report.violations


class TestVerifyCheckpoints:
    def test_records_for_healthy_run(self):
        prob = generate_synthetic(
            SyntheticSpec(n=60, d=2, n_clusters=3, cluster_std=0.4), rng=11
        )
        kern = KernelSpec.gaussian_kernel(1.0)
        res = ink_estimate_run(
            prob.dataset, kern, 1.0, 5000, 0.5, rng=3, checkpoint_every=20
        )
        records = verify_checkpoints(
            prob.dataset, kern, 1.0, 0.5, res.checkpoints, "ink-estimate", problem=prob
        )
        assert [r.step for r in records] == [20, 40, 60]
        for rec in records:
            assert rec.lower_ok and rec.upper_ok
            assert rec.deff_tilde >= rec.deff_exact - 1e-9
            assert np.isfinite(rec.risk_exact) and np.isfinite(rec.risk_approx)
            assert rec.risk_approx <= rec.risk_ratio_bound * rec.risk_exact + 1e-8

    @pytest.mark.parametrize("algorithm", ["ink-estimate", "batch-exact"])
    def test_records_match_public_references(self, algorithm):
        """Every record agrees with exact_rls, check_condition and
        fixed_design_risk evaluated on the same K and K_tilde: below the
        theoretical budget for ink-estimate, and with repeated indices for
        batch-exact."""
        prob = generate_synthetic(
            SyntheticSpec(n=90, d=2, n_clusters=3, cluster_std=0.4), rng=21
        )
        kern = KernelSpec.gaussian_kernel(1.0)
        gamma, eps = 1.0, 0.5
        if algorithm == "ink-estimate":
            res = ink_estimate_run(
                prob.dataset, kern, gamma, 40, eps, rng=4, checkpoint_every=30
            )
            checkpoints = res.checkpoints
            assert max(cp.dict_size for cp in checkpoints) < 30
        else:
            sel, _ = batch_exact(prob.dataset, kern, gamma, 40, 4)
            indices = tuple(sel.indices.tolist())
            assert len(set(indices)) < sel.size
            checkpoints = [
                RunCheckpoint(
                    step=90,
                    deff_tilde=1.0,
                    indices=indices,
                    weights=tuple(sel.weights.tolist()),
                )
            ]
        records = verify_checkpoints(
            prob.dataset, kern, gamma, eps, checkpoints, algorithm, problem=prob
        )
        assert len(records) == len(checkpoints)
        for cp, rec in zip(checkpoints, records):
            t = cp.step
            K = gram(prob.dataset, kern, t)
            sel = checkpoint_selection(cp, algorithm)
            K_tilde = nystrom_approx(K, sel, gamma).materialize()
            report = check_condition(K, K_tilde, gamma, eps, step=t, selection=sel)
            sub = prob.prefix(t)
            got = [rec.deff_exact, rec.spectral_gap, rec.psi_gap, rec.risk_exact, rec.risk_approx]
            want = [
                exact_rls(K, gamma).deff,
                report.spectral_gap,
                report.psi_gap,
                fixed_design_risk(K, sub),
                fixed_design_risk(K_tilde, sub),
            ]
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)
            assert (rec.lower_ok, rec.upper_ok) == (report.lower_psd_ok, report.upper_psd_ok)

    def test_checkpoint_holds_about_five_squares(self):
        """Verifying a t = 300 checkpoint keeps at most six t x t arrays alive
        at once (about five: K, its eigenvectors and symmetrize's temporary,
        then K - K~ beside the upper bound's matrix and eigvalsh's copy)."""
        t = 300
        prob = generate_synthetic(SyntheticSpec(n=t, d=3, n_clusters=4, cluster_std=0.5), rng=5)
        kern = KernelSpec.gaussian_kernel(2.0)
        res = ink_estimate_run(prob.dataset, kern, 0.1, 200, 0.5, rng=5, checkpoint_every=t)
        args = (prob.dataset, kern, 0.1, 0.5, res.checkpoints, "ink-estimate")
        verify_checkpoints(*args, problem=prob)  # first-call set-up is not counted
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            (record,) = verify_checkpoints(*args, problem=prob)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert record.step == t
        assert peak <= 6 * 8 * t * t

    @pytest.mark.parametrize("algorithm", ["ink-estimat", "INK-ESTIMATE", ""])
    def test_unknown_algorithm_rejected_before_kernel_work(self, monkeypatch, algorithm):
        """A misspelt name would otherwise verify as a streaming run."""
        prob = generate_synthetic(SyntheticSpec(n=30, d=2, n_clusters=2, cluster_std=0.4), rng=12)
        kern = KernelSpec.gaussian_kernel(1.0)
        res = ink_estimate_run(prob.dataset, kern, 1.0, 500, 0.5, rng=0)

        def no_kernel_work(*args, **kwargs):
            raise AssertionError("gram evaluated for an unknown algorithm")

        monkeypatch.setattr(evaluation, "gram", no_kernel_work)
        with pytest.raises(InputError, match="batch-exact, ink-oracle, ink-estimate") as error:
            verify_checkpoints(prob.dataset, kern, 1.0, 0.5, res.checkpoints, algorithm)
        assert repr(algorithm) in str(error.value)

    @pytest.mark.parametrize("n, t", [(30, 31), (30, 0), (DESK_SCALE_CAP + 1, DESK_SCALE_CAP + 1)])
    def test_checkpoint_t_out_of_range_rejected_before_kernel_work(self, monkeypatch, n, t):
        """Each checkpoint's t must lie in 1..n and within the desk-scale
        cap; every checkpoint is checked before the first gram."""
        points = np.random.default_rng(3).normal(size=(n, 2))
        good = RunCheckpoint(step=10, deff_tilde=1.0, indices=(0,), weights=(1.0,))
        bad = replace(good, step=t)

        def no_kernel_work(*args, **kwargs):
            raise AssertionError("gram evaluated before every checkpoint was checked")

        monkeypatch.setattr(evaluation, "gram", no_kernel_work)
        with pytest.raises(InputError, match=f"checkpoint t={t} ") as error:
            verify_checkpoints(
                Dataset(points=points), KernelSpec.gaussian_kernel(1.0), 1.0, 0.5, [good, bad], "ink-estimate"
            )
        assert f"{n} points" in str(error.value)
        assert f"at most {DESK_SCALE_CAP}" in str(error.value)

    @pytest.mark.parametrize("gamma, epsilon, message", [
        (0.0, 0.5, "gamma must be positive"),
        (float("nan"), 0.5, "gamma must be positive"),
        (1.0, 1.0, r"epsilon must lie in \[0, 1\)"),
        (1.0, -0.1, r"epsilon must lie in \[0, 1\)"),
    ])
    def test_bad_gamma_or_epsilon_rejected_before_kernel_work(self, monkeypatch, gamma, epsilon, message):
        cp = RunCheckpoint(step=10, deff_tilde=1.0, indices=(0,), weights=(1.0,))

        def no_kernel_work(*args, **kwargs):
            raise AssertionError("gram evaluated before gamma and epsilon were checked")

        monkeypatch.setattr(evaluation, "gram", no_kernel_work)
        with pytest.raises(InputError, match=message):
            verify_checkpoints(
                Dataset(points=np.zeros((10, 2))), KernelSpec.gaussian_kernel(1.0), gamma, epsilon,
                [cp], "ink-estimate",
            )

    @pytest.mark.parametrize("other", ["prefix", "moved"])
    def test_problem_on_other_points_rejected_before_kernel_work(self, monkeypatch, other):
        """The risks are the problem's targets on the verified points: a
        problem on the first 50 of 100 points, or on 100 other points, is
        rejected before the first gram, not by a shape error in the risk or
        with another dataset's risks."""
        prob = generate_synthetic(SyntheticSpec(n=100, d=2, n_clusters=2, cluster_std=0.4), rng=12)
        if other == "prefix":
            wrong = prob.prefix(50)
        else:
            wrong = replace(prob, dataset=Dataset(points=prob.dataset.points + 1.0))
        cp = RunCheckpoint(step=50, deff_tilde=1.0, indices=(0,), weights=(1.0,))

        def no_kernel_work(*args, **kwargs):
            raise AssertionError("gram evaluated before the problem was checked")

        monkeypatch.setattr(evaluation, "gram", no_kernel_work)
        with pytest.raises(InputError, match=r"problem's dataset .* does not hold the verified dataset's points"):
            verify_checkpoints(prob.dataset, KernelSpec.gaussian_kernel(1.0), 1.0, 0.5, [cp], "ink-estimate",
                               problem=wrong)

    def test_dataset_past_the_cap_verifies_checkpoints_within_it(self):
        """The guard is on each checkpoint's t, not on the dataset's length."""
        points = np.random.default_rng(4).normal(size=(DESK_SCALE_CAP + 1, 2))
        kern = KernelSpec.gaussian_kernel(1.0)
        head = Dataset(points=points[:40])
        res = ink_estimate_run(head, kern, 1.0, 500, 0.5, rng=0, checkpoint_every=20)
        args = (kern, 1.0, 0.5, res.checkpoints, "ink-estimate")
        records = verify_checkpoints(Dataset(points=points), *args)
        assert [r.step for r in records] == [20, 40]
        # assert_equal, unlike ==, counts the NaN risk fields as equal
        np.testing.assert_equal(
            [r.as_dict() for r in records], [r.as_dict() for r in verify_checkpoints(head, *args)]
        )

    def test_risk_fields_nan_without_targets(self):
        prob = generate_synthetic(
            SyntheticSpec(n=30, d=2, n_clusters=2, cluster_std=0.4), rng=12
        )
        kern = KernelSpec.gaussian_kernel(1.0)
        res = ink_estimate_run(prob.dataset, kern, 1.0, 500, 0.5, rng=0)
        records = verify_checkpoints(
            prob.dataset, kern, 1.0, 0.5, res.checkpoints, "ink-estimate"
        )
        assert all(np.isnan(r.risk_exact) for r in records)


class InlineHelper:
    """An executor that runs each task when it is submitted, on the calling
    thread."""

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


def record_bits(record):
    return {k: v.hex() if isinstance(v, float) else v for k, v in asdict(record).items()}


class TestVerifyOverlap:
    """verify_checkpoints runs scipy's in-place eigh on one helper thread
    beside numpy's eigvalsh on the calling thread."""

    @staticmethod
    def _run():
        prob = generate_synthetic(SyntheticSpec(n=150, d=3, n_clusters=4, cluster_std=0.5), rng=5)
        kern = KernelSpec.gaussian_kernel(2.0)
        res = ink_estimate_run(prob.dataset, kern, 0.1, 200, 0.5, rng=5, checkpoint_every=50)
        return prob, (prob.dataset, kern, 0.1, 0.5, res.checkpoints, "ink-estimate")

    @pytest.mark.parametrize("with_problem", [True, False])
    def test_records_equal_inline_bit_for_bit(self, with_problem):
        prob, args = self._run()
        problem = prob if with_problem else None
        threaded = verify_checkpoints(*args, problem=problem)
        dataset, kern, gamma, eps, checkpoints, algorithm = args
        inline = [
            evaluation._verified(dataset, kern, gamma, eps, cp, algorithm, problem, InlineHelper())
            for cp in checkpoints
        ]
        assert len(threaded) == 3
        assert [record_bits(r) for r in threaded] == [record_bits(r) for r in inline]

    def test_helper_thread_calls_only_scipy_eigh(self):
        """perfbench's tracer keeps a single-threaded span stack around
        nystream's public functions; the helper runs none of them, only
        _evd and scipy below it."""
        _, args = self._run()
        calls = {}

        def profile(frame, event, arg):
            if event == "call":
                calls.setdefault(threading.get_ident(), set()).add(
                    (frame.f_code.co_filename, frame.f_code.co_name))

        threading.setprofile(profile)  # threads started from now on
        try:
            verify_checkpoints(*args)
        finally:
            threading.setprofile(None)
        (helper_calls,) = calls.values()
        package = os.path.dirname(evaluation.__file__) + os.sep
        assert {name for path, name in helper_calls if path.startswith(package)} == {"_evd"}
        assert "eigh" in {name for path, name in helper_calls if os.sep + "scipy" + os.sep in path}

    @pytest.mark.parametrize("where", ["helper", "caller"])
    def test_lapack_failure_keeps_its_type_and_joins_the_helper(self, monkeypatch, where):
        """A failed eigensolver raises numpy's LinAlgError (scipy's is the
        same class) from either thread, and the helper is gone after it."""
        _, args = self._run()

        def fail(*a, **k):
            raise scipy.linalg.LinAlgError(f"failed on the {where} thread")

        monkeypatch.setattr(*((scipy.linalg, "eigh") if where == "helper" else (np.linalg, "eigvalsh")), fail)
        before = threading.active_count()
        with pytest.raises(np.linalg.LinAlgError, match=f"failed on the {where} thread"):
            verify_checkpoints(*args)
        assert threading.active_count() == before

    @pytest.mark.parametrize("lowest", [-0.5, -5.0])
    def test_non_psd_kernel_matrix_is_an_input_error(self, monkeypatch, lowest):
        """At -0.5 the checkpoint's block plus gamma I is still positive
        definite and the PSD check on K's eigenvalues fails; at -5.0 the
        factor fails first, and K's verdict is still the error."""
        K = np.diag([2.0, lowest])
        monkeypatch.setattr(evaluation, "gram", lambda dataset, kernel, t=None: K.copy())
        cp = RunCheckpoint(step=2, deff_tilde=1.0, indices=(1,), weights=(1.0,))
        before = threading.active_count()
        with pytest.raises(InputError, match=r"kernel matrix is not PSD \(min eigenvalue -"):
            verify_checkpoints(Dataset(points=np.zeros((2, 1))), KernelSpec.linear_kernel(), 1.0, 0.5, [cp],
                               "ink-oracle")
        assert threading.active_count() == before

    def test_non_finite_kernel_matrix_rejected_before_lapack(self, monkeypatch):
        """gram builds K exactly symmetric and verify checks it once: a
        polynomial kernel that overflows to inf is an InputError before any
        factorization or eigensolver runs."""
        def no_lapack(*a, **k):
            raise AssertionError("LAPACK called on a non-finite K")

        monkeypatch.setattr(nystrom, "shifted_cholesky", no_lapack)
        monkeypatch.setattr(scipy.linalg, "eigh", no_lapack)
        monkeypatch.setattr(np.linalg, "eigh", no_lapack)
        monkeypatch.setattr(np.linalg, "eigvalsh", no_lapack)
        dataset = Dataset(points=[[1.0], [2.0], [1e100]])  # (1e100 * 1e100) ** 2 overflows
        cp = RunCheckpoint(step=3, deff_tilde=1.0, indices=(0,), weights=(1.0,))
        with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(
            InputError, match="matrix has a non-finite entry"
        ):
            verify_checkpoints(dataset, KernelSpec.polynomial_kernel(2), 1.0, 0.5, [cp], "ink-oracle")


class TestPsdRule:
    """validate_psd, psd_order_check, verify_checkpoints' check on K and
    check_condition's lower check share one rule,
    lambda_min >= -tol * max(1, max |lambda|), and so one verdict."""

    @pytest.mark.parametrize("top", [100.0, 0.5])
    @pytest.mark.parametrize("ratio, inside", [(0.9, True), (1.1, False)])
    def test_one_verdict_across_checks(self, monkeypatch, top, ratio, inside):
        def spectrum(tol):
            return np.diag([top, -ratio * tol * max(1.0, top)])

        K = spectrum(DEFAULT_PSD_TOL)
        assert psd_order_check(np.zeros((2, 2)), K) is inside
        try:
            validate_psd(K)
            validated = True
        except InputError:
            validated = False
        assert validated is inside

        monkeypatch.setattr(evaluation, "gram", lambda dataset, kernel, t=None: K.copy())
        cp = RunCheckpoint(step=2, deff_tilde=1.0, indices=(0,), weights=(1.0,))
        args = (Dataset(points=np.zeros((2, 1))), KernelSpec.linear_kernel(), 1.0, 0.5, [cp], "ink-oracle")
        if inside:
            assert len(verify_checkpoints(*args)) == 1
        else:
            with pytest.raises(InputError, match="kernel matrix is not PSD"):
                verify_checkpoints(*args)

        lower = check_condition(np.zeros((2, 2)), -spectrum(CONDITION_TOL), 1.0, 0.5).lower_psd_ok
        assert lower is inside


class TestWriters:
    def _record(self):
        return CheckpointRecord(
            step=10,
            dict_size=4,
            deff_exact=1.234567890123456789,
            deff_tilde=2.0,
            spectral_gap=0.5,
            psi_gap=0.25,
            lower_ok=True,
            upper_ok=False,
        )

    def test_csv_format(self, tmp_path):
        path = tmp_path / "r.csv"
        write_records_csv([self._record()], path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("t,Q_t,deff_exact")
        fields = lines[1].split(",")
        assert fields[0] == "10"
        assert fields[2] == format(1.234567890123456789, ".17g")
        assert float(fields[2]) == 1.234567890123456789  # round-trips exactly
        assert fields[6] == "1" and fields[7] == "0"
        assert "," in lines[1] and ";" not in lines[1]

    def test_json_schema_version(self, tmp_path):
        path = tmp_path / "r.json"
        write_records_json([self._record()], path, meta={"note": "x"})
        payload = json.loads(path.read_text())
        assert payload["spec_version"] == "1"
        assert payload["records"][0]["t"] == 10
        assert payload["note"] == "x"

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(InputError):
            write_records_csv([], tmp_path / "r.csv")

    def test_ok_needs_both_bounds_and_is_not_written(self):
        record = self._record()
        assert not record.ok and replace(record, upper_ok=True).ok
        assert "ok" not in record.as_dict()
