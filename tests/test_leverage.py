import numpy as np
import pytest

from nystream import (
    Diagnostics,
    InputError,
    InvariantViolation,
    NumericalError,
    alpha_factor,
    beta_factor,
    clamp_probabilities,
    deff_increment_exact,
    estimate_deff_increment,
    exact_rls,
    update_deff,
)
from nystream.leverage import curvature_coefficient, estimate_rls_batch

from conftest import border, random_gram, random_psd


def spectral_form_rls(K, gamma):
    """Independent oracle: leverage scores through the eigendecomposition,
    tau_i = sum_j lambda_j/(lambda_j + gamma) * U_ij^2."""
    lam, U = np.linalg.eigh((K + K.T) / 2)
    lam = np.clip(lam, 0.0, None)
    return (U**2) @ (lam / (lam + gamma))


class TestFactors:
    def test_alpha_at_zero(self):
        assert alpha_factor(0.0) == 2.0

    def test_alpha_at_half(self):
        assert alpha_factor(0.5) == pytest.approx(3.0)

    def test_alpha_rejects_one(self):
        with pytest.raises(InputError):
            alpha_factor(1.0)

    def test_beta(self):
        assert beta_factor(0.0, 1.0) == pytest.approx(8.0)

    def test_curvature_coefficient(self):
        assert curvature_coefficient(0.0) == 0.25
        assert curvature_coefficient(0.5) == 0.0625


class TestExactRls:
    def test_identity_two(self):
        prof = exact_rls(np.eye(2), 1.0)
        np.testing.assert_allclose(prof.tau, [0.5, 0.5])
        assert prof.deff == pytest.approx(1.0)
        np.testing.assert_allclose(prof.probabilities, [0.5, 0.5])

    def test_all_ones_two_by_two(self):
        prof = exact_rls(np.ones((2, 2)), 1.0)
        np.testing.assert_allclose(prof.tau, [1 / 3, 1 / 3], atol=1e-12)
        assert prof.deff == pytest.approx(2 / 3)

    def test_matches_spectral_form(self, rng):
        for _ in range(10):
            K = random_psd(rng, 8)
            gamma = float(rng.uniform(0.3, 3.0))
            prof = exact_rls(K, gamma)
            np.testing.assert_allclose(prof.tau, spectral_form_rls(K, gamma), atol=1e-10)

    def test_probabilities_normalize(self, rng):
        prof = exact_rls(random_psd(rng, 6), 0.7)
        assert prof.probabilities.sum() == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(prof.probabilities, prof.tau / prof.deff)

    def test_deff_below_rank(self, rng):
        K = random_psd(rng, 8, rank=3)
        prof = exact_rls(K, 0.5)
        assert prof.deff <= 3 + 1e-6

    def test_rejects_non_psd(self):
        with pytest.raises(InputError):
            exact_rls(np.diag([1.0, -1.0]), 1.0)

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(InputError):
            exact_rls(np.eye(2), 0.0)


class TestEstimateRls:
    def test_identity_hand_value(self):
        # exact sketch of I_2 at eps=0: estimate 1/3 sits inside [1/4, 1/2]
        (got,) = estimate_rls_batch(np.eye(2), np.array([1.0, 0.0]), 1.0, 1.0, 0.0)
        assert got == pytest.approx(1 / 3)
        tau = exact_rls(np.eye(2), 1.0).tau[0]
        assert tau / 2 <= got <= tau

    def test_null_column(self):
        assert estimate_rls_batch(np.eye(3), np.zeros(3), 0.0, 1.0, 0.0).tolist() == [0.0]

    def test_sandwich_with_exact_sketch(self, rng):
        """With the sketch equal to the matrix itself and eps=0, estimates
        land in [tau/2, tau] for every column."""
        for _ in range(10):
            K = random_gram(rng, 10)
            gamma = float(rng.uniform(0.3, 2.0))
            prof = exact_rls(K, gamma)
            est = estimate_rls_batch(K, K, np.diag(K), gamma, 0.0)
            assert np.all(est <= prof.tau + 1e-9)
            assert np.all(est >= prof.tau / 2 - 1e-9)

    def test_sandwich_with_certified_partial_sketch(self, rng):
        """A partial-selection sketch whose projection gap certifies accuracy
        eps yields estimates within [tau/alpha(eps), tau] once bordered with
        the next exact column."""
        from nystream import nystrom_approx, psi_gap
        from nystream.nystrom import build_selection

        checked = 0
        for _ in range(40):
            K = random_gram(rng, 12)
            gamma = float(rng.uniform(0.5, 2.0))
            t = 11
            q = int(rng.integers(1, t + 1))
            idx = rng.choice(t, size=q, replace=False).tolist()
            sel = build_selection(idx, {int(i): 1.0 for i in idx}, t)
            gap = psi_gap(K[:t, :t], sel, gamma)
            if gap >= 0.9:
                continue
            eps = min(max(gap, 0.0) * 1.001 + 1e-12, 0.9)
            sketch = nystrom_approx(K[:t, :t], sel, gamma).materialize()
            bordered = np.zeros((t + 1, t + 1))
            bordered[:t, :t] = sketch
            bordered[:t, t] = K[:t, t]
            bordered[t, :t] = K[t, :t]
            bordered[t, t] = K[t, t]
            prof = exact_rls(K, gamma)
            alpha = alpha_factor(eps)
            est = estimate_rls_batch(bordered, K, np.diag(K), gamma, eps)
            assert np.all(est <= prof.tau + 1e-8)
            assert np.all(est >= prof.tau / alpha - 1e-8)
            checked += 1
        assert checked >= 15

    def test_clamp_is_counted(self):
        diag = Diagnostics()
        # A sketch wildly above the "exact" data drives the estimate negative.
        bad_sketch = 100.0 * np.eye(2)
        (got,) = estimate_rls_batch(bad_sketch, np.array([1.0, 0.0]), 0.001, 1.0, 0.0, diagnostics=diag)
        assert got == 0.0
        assert diag.rls_clamped_low == 1

    def test_rejects_epsilon_one(self):
        with pytest.raises(InputError):
            estimate_rls_batch(np.eye(2), np.ones(2), 1.0, 1.0, 1.0)

    def test_empty_sketch(self):
        """A 0 x 0 sketch leaves only k_jj / (alpha * gamma), alpha = 3 here."""
        got = estimate_rls_batch(np.zeros((0, 0)), np.zeros((0, 2)), np.array([1.0, 0.5]), 1.0, 0.5)
        np.testing.assert_allclose(got, [1 / 3, 0.5 / 3], rtol=1e-15)

    def test_batch_matches_scalar(self, rng):
        K = random_gram(rng, 6)
        batch = estimate_rls_batch(K, K, np.diag(K), 1.0, 0.25)
        singles = [estimate_rls_batch(K, K[:, i], K[i, i], 1.0, 0.25)[0] for i in range(6)]
        np.testing.assert_allclose(batch, singles, atol=1e-12)


class TestDeffIncrementExact:
    def test_orthogonal_column(self):
        delta, xi = deff_increment_exact(np.eye(1), np.zeros(1), 1.0, 1.0)
        assert xi == pytest.approx(2.0)
        assert delta == pytest.approx(0.5)

    def test_duplicate_column(self):
        delta, xi = deff_increment_exact(np.ones((1, 1)), np.ones(1), 1.0, 1.0)
        assert xi == pytest.approx(1.5)
        assert delta == pytest.approx(1 / 6)
        # cross-check against the trace difference of the bordered matrix
        grown = exact_rls(np.ones((2, 2)), 1.0).deff - exact_rls(np.ones((1, 1)), 1.0).deff
        assert delta == pytest.approx(grown, abs=1e-12)

    def test_matches_trace_difference(self, rng):
        for _ in range(15):
            K = random_gram(rng, 9)
            gamma = float(rng.uniform(0.3, 2.0))
            t = 8
            delta, xi = deff_increment_exact(K[:t, :t], K[:t, t], float(K[t, t]), gamma)
            grown = exact_rls(K, gamma).deff - exact_rls(K[:t, :t], gamma).deff
            assert delta == pytest.approx(grown, abs=1e-8)
            assert xi >= gamma - 1e-9
            assert delta >= -1e-12

    def test_rejects_non_psd_bordering(self):
        # cross term violating Cauchy-Schwarz drives xi below gamma
        with pytest.raises(InputError):
            deff_increment_exact(np.ones((1, 1)), np.array([2.0]), 1.0, 1.0)


class TestEstimateDeffIncrement:
    def test_orthogonal_case(self):
        got = estimate_deff_increment(np.ones((1, 1)), np.zeros(1), 1.0, 1.0, 0.0)
        assert got == pytest.approx(0.5)

    def test_duplicate_hand_value(self):
        got = estimate_deff_increment(np.ones((1, 1)), np.ones(1), 1.0, 1.0, 0.0)
        assert got == pytest.approx(29 / 80)
        exact, _ = deff_increment_exact(np.ones((1, 1)), np.ones(1), 1.0, 1.0)
        rho = 1.0  # largest eigenvalue 1 over gamma 1
        assert exact <= got <= 4 * (1 + rho) * exact

    def test_sandwich_with_exact_sketch(self, rng):
        for _ in range(15):
            K = random_gram(rng, 9)
            gamma = float(rng.uniform(0.5, 2.0))
            t = 8
            exact, _ = deff_increment_exact(K[:t, :t], K[:t, t], float(K[t, t]), gamma)
            est = estimate_deff_increment(K[:t, :t], K[:t, t], float(K[t, t]), gamma, 0.0)
            rho = float(np.linalg.eigvalsh(K)[-1]) / gamma
            assert exact - 1e-9 <= est <= 4 * (1 + rho) * exact + 1e-9

    def test_denominator_violation_raises(self):
        with pytest.raises(NumericalError):
            estimate_deff_increment(np.zeros((1, 1)), np.zeros(1), -1.0, 0.5, 0.0)

    def test_indefinite_bordering_raises(self):
        """A new column too large for the sketch makes the bordered matrix
        indefinite at shift alpha*gamma while the sketch itself is fine: the
        batch scores cannot factor it and raise, as the carried sketch does,
        and the increment's denominator, which is that Schur complement minus
        (alpha-1)*gamma, is then negative as well."""
        gamma, eps = 0.1, 0.5
        shift = alpha_factor(eps) * gamma
        sketch, column, corner = np.array([[1.0 / 1.1]]), np.array([1.0]), 0.01
        bordered = border(sketch, column, corner)
        exact_cols = border(np.ones((1, 1)), column, corner)
        eig = np.linalg.eigvalsh(bordered + shift * np.eye(2))
        assert eig[0] < 0 < eig[1] and sketch[0, 0] + shift > 0
        with pytest.raises(NumericalError, match="not positive definite"):
            estimate_rls_batch(bordered, exact_cols, np.diag(exact_cols), gamma, eps)
        with pytest.raises(NumericalError, match="increment denominator"):
            estimate_deff_increment(sketch, column, corner, gamma, eps)

    @pytest.mark.parametrize("low", [-1.0, -0.2], ids=["alpha-gamma", "gamma"])
    def test_indefinite_sketch_raises(self, low):
        """A sketch indefinite beyond shift alpha*gamma (-1.0) or only beyond
        gamma (-0.2; alpha*gamma is 0.3 here) raises NumericalError."""
        gamma, eps = 0.1, 0.5
        sketch, column = np.diag([low, 1.0]), np.array([0.0, 0.5])
        with pytest.raises(NumericalError, match="not positive definite"):
            estimate_deff_increment(sketch, column, 1.0, gamma, eps)

    def test_scaled_increment_dominates_truth_with_certified_sketch(self, rng):
        """With a sketch certified at accuracy eps, the alpha-scaled estimate
        (exactly what the running sum adds) never falls below the true
        increment, and the raw estimate respects the spectrum-dependent
        upper factor."""
        from nystream import nystrom_approx, psi_gap
        from nystream.nystrom import build_selection

        checked = 0
        for _ in range(40):
            K = random_gram(rng, 10)
            gamma = float(rng.uniform(0.5, 2.0))
            t = 9
            q = int(rng.integers(1, t + 1))
            idx = rng.choice(t, size=q, replace=False).tolist()
            sel = build_selection(idx, {int(i): 1.0 for i in idx}, t)
            gap = psi_gap(K[:t, :t], sel, gamma)
            if gap >= 0.9:
                continue
            eps = min(max(gap, 0.0) * 1.001 + 1e-12, 0.9)
            alpha = alpha_factor(eps)
            sketch = nystrom_approx(K[:t, :t], sel, gamma).materialize()
            exact, _ = deff_increment_exact(K[:t, :t], K[:t, t], float(K[t, t]), gamma)
            est = estimate_deff_increment(sketch, K[:t, t], float(K[t, t]), gamma, eps)
            rho = float(np.linalg.eigvalsh(K[:t, :t])[-1]) / gamma
            assert alpha * est >= exact - 1e-8
            assert est <= alpha**2 * (1 + rho) * exact + 1e-8
            checked += 1
        assert checked >= 15


class TestUpdateDeff:
    def test_zero_increment_unchanged(self):
        assert update_deff(3.0, 0.0, 0.3) == 3.0

    def test_identity_stream_closed_form(self):
        """Orthogonal stream at gamma=1, eps=0: the estimate starts at the
        exact 1/2 and grows by alpha * 1/2 = 1 per step, staying within the
        [exact, beta * exact] band."""
        deff_tilde = 0.5  # first step value, known exactly
        for t in range(2, 12):
            deff_tilde = update_deff(deff_tilde, 0.5, 0.0)
            assert deff_tilde == pytest.approx(0.5 + (t - 1))
            exact = t / 2
            beta = beta_factor(0.0, 1.0)
            assert exact <= deff_tilde <= beta * exact

    def test_zero_estimate_grows_by_the_scaled_increment(self):
        """The estimate is 0 while every self term was 0; the first positive
        increment is scaled by alpha like any other, and a negative estimate
        is rejected."""
        assert update_deff(0.0, 0.5, 0.5) == 1.5
        with pytest.raises(InputError, match="non-negative"):
            update_deff(-1.0, 0.5, 0.5)

    def test_clamps_roundoff_negative(self):
        diag = Diagnostics()
        assert update_deff(1.0, -1e-12, 0.0, diagnostics=diag) == 1.0
        assert diag.increment_clamped == 1

    def test_rejects_genuinely_negative(self):
        with pytest.raises(InvariantViolation):
            update_deff(1.0, -1e-6, 0.0)


class TestClampProbabilities:
    def test_new_above_old(self):
        old = np.array([0.5, 0.25])
        new = np.array([0.9, 0.8])
        assert clamp_probabilities(new, old).tolist() == old.tolist()

    def test_new_below_old(self):
        old = np.array([0.5, 0.25])
        new = np.array([0.1, 0.2])
        assert clamp_probabilities(new, old).tolist() == new.tolist()

    def test_mixed_matches_naive_loop(self, rng):
        keys = list(range(12))
        old = rng.uniform(0, 1, size=12)
        new = rng.uniform(0, 1, size=12)
        got = clamp_probabilities(new, old)
        for k in keys:
            assert got[k] == min(new[k], old[k])
            assert got[k] <= old[k]

    def test_unseen_key_passes_through(self):
        assert clamp_probabilities(np.array([0.7]), np.empty(0)).tolist() == [0.7]

    def test_old_longer_than_new_rejected(self):
        """Was a bare numpy broadcasting error."""
        with pytest.raises(InputError, match="3 previous probabilities cannot clamp 2 new ones"):
            clamp_probabilities(np.ones(2), np.ones(3))


class TestMonotoneLaws:
    def test_tau_and_probability_decrease_on_random_streams(self, rng):
        for _ in range(5):
            K = random_gram(rng, 12)
            gamma = float(rng.uniform(0.4, 2.0))
            prev = exact_rls(K[:1, :1], gamma)
            for t in range(1, 12):
                cur = exact_rls(K[: t + 1, : t + 1], gamma)
                assert np.all(cur.tau[:t] <= prev.tau + 1e-9)
                assert np.all(cur.probabilities[:t] <= prev.probabilities + 1e-9)
                assert cur.deff >= prev.deff - 1e-9
                prev = cur

    def test_probability_mass_stays_below_one_with_estimates(self, rng):
        """tau below truth plus deff above truth keeps the estimated mass
        at most one."""
        for _ in range(5):
            K = random_gram(rng, 8)
            gamma = 1.0
            prof = exact_rls(K, gamma)
            est = estimate_rls_batch(K, K, np.diag(K), gamma, 0.0)
            inflated_deff = prof.deff * 1.5
            assert np.sum(est / inflated_deff) <= 1.0 + 1e-10
