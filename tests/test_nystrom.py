import numpy as np
import pytest

from nystream import (
    Diagnostics,
    InputError,
    NystromFactor,
    build_selection,
    krr_approx,
    krr_exact,
    nystrom_approx,
    psd_order_check,
    spectral_norm,
)

from conftest import random_gram


def full_selection(t):
    return build_selection(range(t), {i: 1.0 for i in range(t)}, t)


def random_selection(rng, t, *, multiset=False):
    q = int(rng.integers(1, t + 1))
    if multiset:
        idx = rng.integers(0, t, size=q).tolist()
    else:
        idx = rng.choice(t, size=q, replace=False).tolist()
    weights = {int(i): float(rng.uniform(0.3, 2.0)) for i in idx}
    return build_selection(idx, weights, t)


class TestSelection:
    def test_single_index_operator(self):
        sel = build_selection([1], {1: 1.0}, 3)
        idx, w = sel.arrays()
        assert idx.tolist() == [1]
        assert w.tolist() == [1.0]
        assert w.dtype == np.float64

    def test_multiset_allowed(self):
        sel = build_selection([0, 0, 2], {0: 0.5, 2: 1.5}, 3)
        assert sel.size == 3
        assert sel.indices == (0, 0, 2)

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            build_selection([3], {3: 1.0}, 3)

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(InputError):
            build_selection([0], {0: 0.0}, 2)


class TestNystromApprox:
    def test_scalar_full_selection(self):
        K = np.array([[1.0]])
        factor = nystrom_approx(K, full_selection(1), 1.0)
        K_tilde = factor.materialize()
        assert K_tilde[0, 0] == pytest.approx(0.5)
        # residual K - K_tilde equals gamma * K (K + gamma I)^{-1} here
        assert (K - K_tilde)[0, 0] == pytest.approx(0.5)

    def test_empty_selection_is_zero(self):
        K = np.eye(3)
        factor = nystrom_approx(K, build_selection([], {}, 3), 1.0)
        assert np.array_equal(factor.materialize(), np.zeros((3, 3)))

    def test_full_selection_closed_form(self, rng):
        """All columns at unit weight: the approximation equals
        K (K + gamma I)^{-1} K and the residual gamma K (K + gamma I)^{-1},
        computed independently with a dense inverse."""
        for _ in range(8):
            K = random_gram(rng, 10)
            gamma = float(rng.uniform(0.4, 2.0))
            K_tilde = nystrom_approx(K, full_selection(10), gamma).materialize()
            inv = np.linalg.inv(K + gamma * np.eye(10))
            np.testing.assert_allclose(K_tilde, K @ inv @ K, atol=1e-8)
            np.testing.assert_allclose(K - K_tilde, gamma * K @ inv, atol=1e-8)

    def test_psd_sandwich(self, rng):
        """0 <= K_tilde <= K for arbitrary selections and gamma."""
        for _ in range(20):
            t = int(rng.integers(2, 12))
            K = random_gram(rng, t)
            sel = random_selection(rng, t, multiset=bool(rng.integers(0, 2)))
            gamma = float(rng.uniform(0.1, 5.0))
            K_tilde = nystrom_approx(K, sel, gamma).materialize()
            assert psd_order_check(np.zeros_like(K), K_tilde, 1e-8)
            assert psd_order_check(K_tilde, K, 1e-8)

    def test_eigenvalue_domination(self, rng):
        for _ in range(10):
            t = int(rng.integers(3, 10))
            K = random_gram(rng, t)
            sel = random_selection(rng, t)
            K_tilde = nystrom_approx(K, sel, 0.8).materialize()
            lam = np.sort(np.linalg.eigvalsh(K))
            lam_tilde = np.sort(np.linalg.eigvalsh(K_tilde))
            assert np.all(lam_tilde <= lam + 1e-8)

    def test_blocks_match_explicit_selection_operator(self, rng):
        """cross and sampled equal K S and S^T K S for the t x m operator S
        with S[i_c, c] = w_c, repeated indices included; sampled is exactly
        symmetric."""
        repeats = 0
        for _ in range(10):
            t = int(rng.integers(2, 15))
            K = random_gram(rng, t)
            sel = random_selection(rng, t, multiset=True)
            repeats += len(set(sel.indices)) < sel.size
            S = np.zeros((t, sel.size))
            for col, (i, w) in enumerate(sel.pairs):
                S[i, col] = w
            factor = nystrom_approx(K, sel, 0.7)
            assert np.array_equal(factor.sampled, factor.sampled.T)
            np.testing.assert_allclose(factor.cross, K @ S, rtol=1e-12, atol=0)
            np.testing.assert_allclose(factor.sampled, S.T @ K @ S, rtol=1e-12, atol=0)
        assert repeats

    def test_whitened_factor_gives_materialize(self, rng):
        """materialize() is F F^T for the whitened factor F, exactly
        symmetric, and equal to cross (sampled + gamma I)^{-1} cross^T."""
        for _ in range(10):
            t = int(rng.integers(2, 15))
            K = random_gram(rng, t)
            sel = random_selection(rng, t, multiset=bool(rng.integers(0, 2)))
            factor = nystrom_approx(K, sel, 0.6)
            F = factor.whitened()
            K_tilde = factor.materialize()
            assert F.shape == (t, sel.size)
            assert np.array_equal(K_tilde, F @ F.T)
            assert np.array_equal(K_tilde, K_tilde.T)
            inv = np.linalg.inv(factor.sampled + 0.6 * np.eye(sel.size))
            np.testing.assert_allclose(K_tilde, factor.cross @ inv @ factor.cross.T, rtol=0, atol=1e-10)

    def test_materialize_cap(self):
        factor = NystromFactor(cross=np.ones((4, 1)), sampled=np.ones((1, 1)), gamma=1.0)
        with pytest.raises(InputError):
            factor.materialize(cap=2)


class TestKrrExact:
    def test_zero_matrix(self, rng):
        y = rng.normal(size=5)
        np.testing.assert_allclose(krr_exact(np.zeros((5, 5)), 2.0, y), y / 2.0)

    def test_identity(self, rng):
        y = rng.normal(size=5)
        np.testing.assert_allclose(krr_exact(np.eye(5), 1.0, y), y / 2.0)

    def test_matches_explicit_inverse(self, rng):
        for _ in range(10):
            K = random_gram(rng, 7)
            y = rng.normal(size=7)
            mu = float(rng.uniform(0.2, 2.0))
            expected = np.linalg.inv(K + mu * np.eye(7)) @ y
            np.testing.assert_allclose(krr_exact(K, mu, y), expected, atol=1e-8)


class TestKrrApprox:
    def test_empty_dictionary(self, rng):
        y = rng.normal(size=6)
        factor = NystromFactor(cross=np.zeros((6, 0)), sampled=np.zeros((0, 0)), gamma=1.0)
        np.testing.assert_allclose(krr_approx(factor, 2.0, y), y / 2.0, rtol=0, atol=0)

    def test_scalar_full_selection(self):
        K = np.array([[1.0]])
        factor = nystrom_approx(K, full_selection(1), 1.0)
        got = krr_approx(factor, 1.0, np.array([1.0]))
        assert got[0] == pytest.approx(1.0 / 1.5)

    def test_matches_dense_solve(self, rng):
        """Factored solver against (K_tilde + mu I)^{-1} y on rectangular
        instances."""
        for _ in range(10):
            K = random_gram(rng, 20)
            sel = random_selection(rng, 20)
            gamma = float(rng.uniform(0.3, 2.0))
            mu = float(rng.uniform(0.3, 2.0))
            y = rng.normal(size=20)
            factor = nystrom_approx(K, sel, gamma)
            dense = np.linalg.solve(factor.materialize() + mu * np.eye(20), y)
            got = krr_approx(factor, mu, y)
            err = np.linalg.norm(got - dense) / np.linalg.norm(dense)
            assert err <= 1e-8

    def test_floored_eigenvalues_counted(self, rng):
        diag = Diagnostics()
        sampled = np.diag([1.0, -1e-13])  # roundoff-negative eigenvalue
        factor = NystromFactor(cross=rng.normal(size=(5, 2)), sampled=sampled, gamma=1.0)
        krr_approx(factor, 1.0, rng.normal(size=5), diagnostics=diag)
        assert diag.sqrt_eig_floored == 1

    def test_rejects_bad_mu(self):
        factor = NystromFactor(cross=np.zeros((2, 0)), sampled=np.zeros((0, 0)), gamma=1.0)
        with pytest.raises(InputError):
            krr_approx(factor, 0.0, np.zeros(2))


class TestFactorShapes:
    def test_mismatched_blocks_rejected(self):
        with pytest.raises(InputError):
            NystromFactor(cross=np.zeros((3, 2)), sampled=np.zeros((3, 3)), gamma=1.0)

    def test_spectral_norm_of_gap_matches_eig(self, rng):
        K = random_gram(rng, 8)
        sel = random_selection(rng, 8)
        K_tilde = nystrom_approx(K, sel, 1.0).materialize()
        gap = spectral_norm(K - K_tilde)
        assert gap == pytest.approx(np.max(np.abs(np.linalg.eigvalsh(K - K_tilde))))
