import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.lapack import dpotrf, dpotri

from nystream import (
    InputError,
    NumericalError,
    check_condition,
    eig_pairs,
    exact_rls,
    psd_order_check,
    regularized_solve,
    spectral_norm,
)
from nystream.linalg import (
    _inverse,
    min_eigenvalue,
    shifted_cholesky,
    solve_shifted_indefinite,
    symmetrize,
    validate_psd,
)

from conftest import random_psd


def power_iteration_norm(A, iters=20000, seed=5):
    """Independent spectral-norm oracle: power iteration on A @ A."""
    gen = np.random.default_rng(seed)
    B = A @ A
    x = gen.normal(size=A.shape[0])
    x /= np.linalg.norm(x)
    for _ in range(iters):
        y = B @ x
        ny = np.linalg.norm(y)
        if ny == 0:
            return 0.0
        x = y / ny
    return float(np.sqrt(x @ B @ x))


class TestRegularizedSolve:
    def test_zero_matrix(self, rng):
        y = rng.normal(size=6)
        out = regularized_solve(np.zeros((6, 6)), 2.5, y)
        np.testing.assert_allclose(out, y / 2.5, rtol=0, atol=1e-15)

    def test_identity(self, rng):
        y = rng.normal(size=4)
        np.testing.assert_allclose(regularized_solve(np.eye(4), 1.0, y), y / 2.0)

    def test_matches_explicit_inverse(self, rng):
        for _ in range(20):
            A = random_psd(rng, 5)
            B = rng.normal(size=(5, 2))
            ridge = float(rng.uniform(0.1, 3.0))
            expected = np.linalg.inv(A + ridge * np.eye(5)) @ B
            np.testing.assert_allclose(regularized_solve(A, ridge, B), expected, atol=1e-8)

    def test_residual_contract(self, rng):
        for _ in range(20):
            A = random_psd(rng, 8)
            b = rng.normal(size=8)
            ridge = float(rng.uniform(0.05, 2.0))
            x = regularized_solve(A, ridge, b)
            res = np.linalg.norm((A + ridge * np.eye(8)) @ x - b)
            assert res <= 1e-8 * np.linalg.norm(b)

    def test_linear_in_rhs(self, rng):
        A = random_psd(rng, 7)
        b1 = rng.normal(size=7)
        b2 = rng.normal(size=7)
        lhs = regularized_solve(A, 0.7, b1 + b2)
        rhs = regularized_solve(A, 0.7, b1) + regularized_solve(A, 0.7, b2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_rejects_nonsymmetric(self, rng):
        A = rng.normal(size=(5, 5))
        with pytest.raises(InputError):
            regularized_solve(A, 1.0, np.ones(5))

    def test_rejects_nonpositive_ridge(self):
        with pytest.raises(InputError):
            regularized_solve(np.eye(3), 0.0, np.ones(3))

    def test_shrinker_eigenvalues_in_unit_interval(self, rng):
        """For PSD A the map (A + r I)^{-1} A has spectrum inside [0, 1)."""
        for _ in range(10):
            A = random_psd(rng, 6)
            M = regularized_solve(A, 0.5, A)
            lam = np.linalg.eigvals(M)
            assert np.all(np.abs(lam.imag) < 1e-8)
            assert np.all(lam.real >= -1e-9)
            assert np.all(lam.real < 1.0)

    def test_empty_matrix(self):
        out = regularized_solve(np.zeros((0, 0)), 1.0, np.zeros((0, 3)))
        assert out.shape == (0, 3)


class TestPsdOrderCheck:
    def test_equal_matrices(self, rng):
        A = random_psd(rng, 5)
        assert psd_order_check(A, A, tol=0.0)

    def test_identity_vs_double(self):
        assert psd_order_check(np.eye(3), 2 * np.eye(3))
        assert not psd_order_check(2 * np.eye(3), np.eye(3), tol=1e-9)

    def test_constructed_orderings(self, rng):
        for _ in range(15):
            A = random_psd(rng, 6)
            bump = random_psd(rng, 6)
            assert psd_order_check(A, A + bump)
            lam_min = np.linalg.eigvalsh(bump)[-1]
            assert not psd_order_check(A + bump, A - lam_min * np.eye(6), tol=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            psd_order_check(np.eye(2), np.eye(3))


class TestSpectralNorm:
    def test_zero(self):
        assert spectral_norm(np.zeros((4, 4))) == 0.0

    def test_signed_diagonal(self):
        assert spectral_norm(np.diag([3.0, -5.0])) == 5.0

    def test_matches_power_iteration(self, rng):
        for seed in range(5):
            A = rng.normal(size=(6, 6))
            A = (A + A.T) / 2
            assert spectral_norm(A) == pytest.approx(
                power_iteration_norm(A, seed=seed), abs=1e-8
            )


class TestEigPairs:
    def test_reconstruction_and_orthonormality(self, rng):
        for _ in range(10):
            A = random_psd(rng, 9)
            pair = eig_pairs(A)
            assert np.all(np.diff(pair.eigenvalues) <= 1e-12)
            U, lam = pair.eigenvectors, pair.eigenvalues
            err = spectral_norm(A - (U * lam) @ U.T)
            assert err <= 1e-8 * (1.0 + spectral_norm(A))
            gram = pair.eigenvectors.T @ pair.eigenvectors
            np.testing.assert_allclose(gram, np.eye(9), atol=1e-10)


class TestSymmetrize:
    def test_absorbs_roundoff(self, rng):
        A = random_psd(rng, 5)
        A[0, 1] += 1e-13
        out = symmetrize(A)
        assert np.array_equal(out, out.T)

    def test_rejects_genuine_asymmetry(self, rng):
        A = random_psd(rng, 5)
        A[0, 1] += 1e-3
        with pytest.raises(InputError):
            symmetrize(A)

    def test_roundoff_is_averaged_bit_for_bit(self, rng):
        A = random_psd(rng, 5)
        A[0, 1] += 1e-13
        assert symmetrize(A).tobytes() == ((A + A.T) / 2.0).tobytes()

    def test_exactly_symmetric_input_is_not_copied(self, rng):
        A = random_psd(rng, 5)
        A = np.triu(A) + np.triu(A, 1).T
        assert symmetrize(A) is A

    def test_entries_near_the_overflow_range(self):
        """An exactly symmetric matrix near the largest double is not summed
        (no overflow to inf), and its eigenvalues stay finite."""
        A = np.array([[1e308, 0.0], [0.0, 1.0]])
        assert symmetrize(A).tolist() == A.tolist()
        assert eig_pairs(A).eigenvalues.tolist() == [1e308, 1.0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "entry_point",
        [
            symmetrize,
            spectral_norm,
            lambda A: exact_rls(A, 0.5),
            lambda A: check_condition(A, np.eye(3), 0.5, 0.5),
            lambda A: check_condition(np.eye(3), A, 0.5, 0.5),
        ],
        ids=["symmetrize", "spectral_norm", "exact_rls", "check_condition-K", "check_condition-K_tilde"],
    )
    def test_rejects_a_non_finite_entry(self, entry_point, bad):
        """A non-finite symmetric pair fails where the matrix comes in, not
        as NaN scores, a NaN norm or an eigensolver that does not converge."""
        A = 2.0 * np.eye(3)
        A[0, 2] = A[2, 0] = bad
        with pytest.raises(InputError, match="non-finite entry"):
            entry_point(A)

    def test_validate_psd_rejects_indefinite(self):
        with pytest.raises(InputError):
            validate_psd(np.diag([1.0, -0.5]))

    def test_min_eigenvalue(self):
        assert min_eigenvalue(np.diag([2.0, -1.0])) == pytest.approx(-1.0)


class TestIndefiniteSolve:
    def test_matches_dense_solve_positive_definite(self, rng):
        A = rng.normal(size=(6, 6))
        A = (A + A.T) / 2
        b = rng.normal(size=6)
        shift = 10.0  # shifted matrix is PD: the fast path
        expected = np.linalg.solve(A + shift * np.eye(6), b)
        np.testing.assert_allclose(solve_shifted_indefinite(A, shift, b), expected, atol=1e-10)

    def test_matches_dense_solve_indefinite(self, rng):
        """Shifted matrix with eigenvalues of both signs exercises the
        fallback branch."""
        A = np.diag([-5.0, 3.0, 0.5])
        b = rng.normal(size=3)
        shifted = A + 1.0 * np.eye(3)
        assert np.linalg.eigvalsh(shifted)[0] < 0 < np.linalg.eigvalsh(shifted)[-1]
        expected = np.linalg.solve(shifted, b)
        np.testing.assert_allclose(solve_shifted_indefinite(A, 1.0, b), expected, atol=1e-10)


class TestShiftedCholesky:
    def test_lower_triangle_is_the_factor(self, rng):
        for n in (1, 5, 40):
            A = random_psd(rng, n, rank=max(n // 2, 1))
            A = (A + A.T) / 2
            L = np.tril(shifted_cholesky(A, 0.3))
            np.testing.assert_allclose(L @ L.T, A + 0.3 * np.eye(n), rtol=0, atol=1e-12 * n)
            assert np.all(np.diag(L) > 0)

    def test_input_left_untouched(self, rng):
        A = random_psd(rng, 6)
        A = (A + A.T) / 2
        before = A.copy()
        shifted_cholesky(A, 1.0)
        assert np.array_equal(A, before)

    def test_indefinite_shift_raises(self):
        with pytest.raises(NumericalError, match="not positive definite"):
            shifted_cholesky(np.diag([1.0, -0.5, 2.0]), 0.25)

    def test_bit_equal_to_dpotrf_of_the_shifted_matrix(self, rng):
        """Shifting a copy's diagonal in place gives the same matrix, and so
        the same factor, as adding ``shift * I``."""
        for n in (1, 2, 7, 64, 201):
            A = random_psd(rng, n)
            for shift in (1e-3, 0.3):
                reference, info = dpotrf(A + shift * np.eye(n), lower=1)
                assert info == 0
                assert np.tril(shifted_cholesky(A, shift)).tobytes() == reference.tobytes()


class TestOneCholeskyRoute:
    def test_regularized_solve_names_the_leading_minor(self):
        """An indefinite shifted matrix fails in shifted_cholesky, whose
        error names the first leading minor that is not positive."""
        with pytest.raises(NumericalError, match=r"not positive definite \(leading minor 2\)"):
            regularized_solve(np.diag([1.0, -3.0, 2.0]), 1.0, np.ones(3))

    def test_solves_bit_equal_to_a_solve_on_the_factor(self, rng):
        """Both solves run cho_solve on shifted_cholesky's factor of their
        symmetrized input."""
        A = random_psd(rng, 7) + 1e-13 * rng.normal(size=(7, 7))
        B = rng.normal(size=(7, 2))
        expected = scipy.linalg.cho_solve((shifted_cholesky(symmetrize(A), 0.4), True), B)
        assert regularized_solve(A, 0.4, B).tobytes() == expected.tobytes()
        assert solve_shifted_indefinite(A, 0.4, B).tobytes() == expected.tobytes()


class TestInverse:
    def test_inverse_of_the_shifted_matrix(self, rng):
        for n in (1, 5, 40):
            A = random_psd(rng, n, rank=max(n // 2, 1))
            A = (A + A.T) / 2
            inv = _inverse(shifted_cholesky(A, 0.3))
            assert np.array_equal(inv, inv.T)
            expected = np.linalg.inv(A + 0.3 * np.eye(n))
            np.testing.assert_allclose(inv, expected, rtol=0, atol=1e-12 * np.max(np.abs(expected)))

    def test_empty(self, capfd):
        """A 0 x 0 factor gives a 0 x 0 inverse, without LAPACK complaining
        about the empty matrix."""
        assert _inverse(shifted_cholesky(np.zeros((0, 0)), 0.3)).shape == (0, 0)
        assert capfd.readouterr() == ("", "")

    def test_bit_equal_to_the_summed_triangles(self, rng):
        """The mirrored triangle equals dpotri's lower triangle plus its
        strict transpose bit for bit (also for 0 x 0, which skips LAPACK)."""
        assert _inverse(np.zeros((0, 0))).tobytes() == np.zeros((0, 0)).tobytes()
        for n in (1, 2, 7, 64, 201):
            L = shifted_cholesky(random_psd(rng, n), 0.3)
            lower, info = dpotri(L.copy(order="F"), lower=1)
            assert info == 0
            expected = np.tril(lower) + np.tril(lower, -1).T
            assert _inverse(L).tobytes() == expected.tobytes()
