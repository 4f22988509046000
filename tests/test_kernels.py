import math
import re
import tracemalloc

import numpy as np
import pytest

from nystream import Dataset, InputError, KernelSpec, evaluate, gram, load_csv, load_libsvm
from nystream.kernels import DESK_SCALE_CAP, _symmetric_pairwise, column, pairwise

from conftest import random_dataset, random_kernel, streamed_columns


class TestEvaluate:
    def test_gaussian_zero_distance(self):
        spec = KernelSpec.gaussian_kernel(1.0)
        assert evaluate(spec, [0.3, -1.2], [0.3, -1.2]) == 1.0

    def test_linear_dot_product(self):
        spec = KernelSpec.linear_kernel()
        assert evaluate(spec, [1.0, 2.0], [3.0, 4.0]) == 11.0

    def test_gaussian_hand_value(self):
        # exp(-|0-2|^2 / 2) evaluated independently via math.exp
        spec = KernelSpec.gaussian_kernel(1.0)
        expected = math.exp(-2.0)
        assert evaluate(spec, [0.0], [2.0]) == pytest.approx(expected, abs=1e-12)

    def test_polynomial(self):
        spec = KernelSpec.polynomial_kernel(degree=2, offset=1.0)
        assert evaluate(spec, [1.0, 1.0], [2.0, 0.0]) == 9.0

    def test_dimension_mismatch(self):
        spec = KernelSpec.linear_kernel()
        with pytest.raises(InputError):
            evaluate(spec, [1.0, 2.0], [1.0])

    def test_symmetry_is_exact(self, rng):
        for _ in range(25):
            spec = random_kernel(rng)
            x = rng.normal(size=4)
            y = rng.normal(size=4)
            assert evaluate(spec, x, y) == evaluate(spec, y, x)


class TestSpecValidation:
    def test_bad_family(self):
        with pytest.raises(InputError):
            KernelSpec(family="laplacian")

    def test_gaussian_needs_bandwidth(self):
        with pytest.raises(InputError):
            KernelSpec(family="gaussian", bandwidth=0.0)

    # The bandwidths at the ends of the gaussian formula's range: 2.0 *
    # bandwidth**2 is the largest finite float at the first, the smallest
    # positive one at the second.
    WIDEST, NARROWEST = 9.480751908109176e153, 1.5717277847026288e-162

    @pytest.mark.parametrize(
        "bandwidth", [1e200, 1e-170, math.nextafter(WIDEST, math.inf), math.nextafter(NARROWEST, 0.0)]
    )
    def test_gaussian_bandwidth_outside_the_formulas_range(self, bandwidth):
        """2.0 * bandwidth**2 overflows (1e200 raises OverflowError) or is 0
        (every self term would be NaN): the spec names the bandwidth."""
        message = ("bandwidth must make 2 * bandwidth**2 a positive finite float "
                   f"(about 1.6e-162 to 9.5e153), got {bandwidth}")
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            KernelSpec.gaussian_kernel(bandwidth)

    @pytest.mark.parametrize("bandwidth", [WIDEST, NARROWEST])
    def test_gaussian_bandwidth_range_ends_accepted(self, bandwidth):
        point = np.array([0.3, -1.2])
        cross, self_term = column(KernelSpec.gaussian_kernel(bandwidth), point, np.empty((0, 2)))
        assert cross.shape == (0,) and self_term == 1.0

    @pytest.mark.parametrize("bandwidth", [1e150, 1e-150])
    def test_gaussian_bandwidth_far_inside_the_range_evaluates(self, bandwidth):
        ds = Dataset(points=[[0.0, 1.0], [1.0, 0.5], [0.3, -0.2]])
        spec = KernelSpec.gaussian_kernel(bandwidth)
        K = gram(ds, spec)
        assert np.isfinite(K).all() and (np.diag(K) == 1.0).all()
        cross, self_term = column(spec, ds.points[2], ds.points[:2])
        assert cross.tobytes() == K[2, :2].tobytes() and self_term == 1.0

    def test_polynomial_needs_degree(self):
        with pytest.raises(InputError):
            KernelSpec(family="polynomial", degree=0, offset=0.0)

    @pytest.mark.parametrize("degree", [2.5, float("nan"), float("inf")])
    def test_polynomial_degree_must_be_integral(self, degree):
        """``pairwise`` raises to ``int(degree)``, so 2.5 would silently be
        degree 2."""
        with pytest.raises(InputError, match=f"degree must be a positive integer, got {degree}"):
            KernelSpec.polynomial_kernel(degree, 1.0)

    def test_integral_float_degree_accepted(self):
        ds = Dataset(points=[[1.0, 2.0], [0.5, -1.0]])
        as_float = gram(ds, KernelSpec.polynomial_kernel(3.0, 1.0))
        assert as_float.tobytes() == gram(ds, KernelSpec.polynomial_kernel(3, 1.0)).tobytes()


class TestStreamColumn:
    """The column a streaming step evaluates for its point: cross terms
    against the dictionary's points and the self term."""

    def test_empty_restriction(self):
        (_, cross, self_term), = streamed_columns([[2.0]], KernelSpec.linear_kernel())
        assert cross.shape == (0,)
        assert self_term == 4.0

    def test_duplicate_point(self):
        _, (_, cross, self_term) = streamed_columns([[1.0], [1.0]], KernelSpec.linear_kernel())
        assert cross.tolist() == [1.0]
        assert self_term == 1.0

    def test_line_of_three_gaussian_points(self):
        # points at 0, 1, 2 with unit bandwidth; third column against both
        *_, (indices, cross, self_term) = streamed_columns([[0.0], [1.0], [2.0]], KernelSpec.gaussian_kernel(1.0))
        assert indices.tolist() == [0, 1]
        assert cross == pytest.approx([math.exp(-2.0), math.exp(-0.5)], abs=1e-15)
        assert self_term == 1.0


class TestGram:
    def test_single_point(self):
        ds = Dataset(points=[[2.0]])
        K = gram(ds, KernelSpec.linear_kernel(), 1)
        assert K.shape == (1, 1)
        assert K[0, 0] == 4.0

    def test_identical_points_all_ones(self):
        ds = Dataset(points=[[1.0]] * 4)
        K = gram(ds, KernelSpec.linear_kernel())
        assert np.array_equal(K, np.ones((4, 4)))

    def test_bordering_consistency_bit_exact(self, rng):
        """Growing the matrix by one point reproduces the new point's column,
        as pairwise and evaluate give it, bit for bit."""
        for _ in range(10):
            spec = random_kernel(rng)
            ds = random_dataset(rng, 9, d=2)
            t = int(rng.integers(1, 8))
            K_small = gram(ds, spec, t)
            K_big = gram(ds, spec, t + 1)
            x = ds.points[t]
            cross = pairwise(spec, x, ds.points[:t])[0]
            assert np.array_equal(K_big[:t, :t], K_small)
            assert np.array_equal(K_big[:t, t], cross)
            assert np.array_equal(K_big[t, :t], cross)
            assert K_big[t, t] == evaluate(spec, x, x)

    @pytest.mark.parametrize("spec", [
        KernelSpec.gaussian_kernel(1.3),
        KernelSpec.linear_kernel(),
        KernelSpec.polynomial_kernel(3, 0.5),
    ], ids=["gaussian", "linear", "polynomial"])
    def test_one_triangle_evaluation_matches_full(self, rng, spec):
        """Evaluating each pair once and mirroring gives pairwise(X, X) bit
        for bit, across several row blocks and a partial last block."""
        for n in (1, 7, 600):
            X = random_dataset(rng, n, d=3).points
            assert np.array_equal(_symmetric_pairwise(spec, X), pairwise(spec, X, X))

    def test_gram_allocates_little_beyond_its_result(self, rng):
        """At t = 1024 the evaluation's broadcast temporaries and row blocks
        add little to K's own 8 MB: the traced peak stays within 1.5 times
        K."""
        ds = random_dataset(rng, 1024, d=3)
        spec = KernelSpec.gaussian_kernel(2.0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            K = gram(ds, spec)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert K.nbytes == 8 * 1024 * 1024
        assert peak <= 1.5 * K.nbytes

    def test_psd_within_tolerance(self, rng):
        for _ in range(10):
            spec = random_kernel(rng)
            ds = random_dataset(rng, 20, d=3)
            lam = np.linalg.eigvalsh(gram(ds, spec))
            assert lam[0] >= -1e-9 * max(lam[-1], 1.0)

    def test_desk_scale_cap(self):
        ds = Dataset(points=np.zeros((DESK_SCALE_CAP + 1, 1)))
        with pytest.raises(InputError):
            gram(ds, KernelSpec.linear_kernel())

    def test_cauchy_schwarz_on_columns(self, rng):
        for _ in range(10):
            spec = random_kernel(rng)
            ds = random_dataset(rng, 8, d=2)
            K = gram(ds, spec)
            x = ds.points[7]
            bound = np.sqrt(evaluate(spec, x, x) * np.diag(K)[:7])
            assert np.all(np.abs(pairwise(spec, x, ds.points[:7])[0]) <= bound + 1e-12)


class TestDataset:
    def test_points_are_immutable(self):
        ds = Dataset(points=[[1.0, 2.0]])
        with pytest.raises(ValueError):
            ds.points[0, 0] = 5.0

    def test_label_length_checked(self):
        with pytest.raises(InputError):
            Dataset(points=[[1.0], [2.0]], labels=[1.0])

    def test_len_and_dim(self):
        ds = Dataset(points=[[1.0, 2.0], [3.0, 4.0]], labels=[0.0, 1.0])
        assert len(ds) == 2
        assert ds.dim == 2

    def test_caller_arrays_stay_writable_and_unshared(self):
        a = np.zeros((4, 2))
        y = np.zeros(4)
        ds = Dataset(points=a, labels=y)
        assert a.flags.writeable and y.flags.writeable
        assert not np.shares_memory(a, ds.points)
        assert not np.shares_memory(y, ds.labels)
        a[0, 0] = 9.0
        assert ds.points[0, 0] == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_names_row(self, bad):
        pts = np.zeros((5, 2))
        pts[3, 1] = bad
        pts[4, 0] = bad
        with pytest.raises(InputError, match="row 3 has a non-finite point"):
            Dataset(points=pts)

    def test_non_finite_label_names_row(self):
        with pytest.raises(InputError, match="row 1 has a non-finite label"):
            Dataset(points=np.zeros((3, 2)), labels=[0.0, np.nan, 1.0])


class TestLoaders:
    def test_csv_default_last_label(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0,0.5\n3.0,4.0,-0.5\n")
        ds = load_csv(path)
        assert ds.points.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert ds.labels.tolist() == [0.5, -0.5]

    def test_csv_header_and_label_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,a,b\n7.0,1.0,2.0\n8.0,3.0,4.0\n")
        ds = load_csv(path, has_header=True, label_column=0)
        assert ds.points.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert ds.labels.tolist() == [7.0, 8.0]

    def test_csv_header_after_blank_lines(self, tmp_path):
        """The header is the first non-blank row; errors keep the file's
        line numbers."""
        path = tmp_path / "d.csv"
        path.write_text("\n\nx,y,label\n1.0,2.0,0.5\n")
        ds = load_csv(path, has_header=True)
        assert ds.points.tolist() == [[1.0, 2.0]]
        assert ds.labels.tolist() == [0.5]
        path.write_text("\nx,y,label\n1.0,2.0,0.5\nnope,4.0,1.0\n")
        with pytest.raises(InputError, match="line 4"):
            load_csv(path, has_header=True)

    def test_csv_line_numbers_count_quoted_newlines(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('1.0,2.0\n"3\n",4.0\nnope,5.0\n')
        with pytest.raises(InputError, match="line 4"):
            load_csv(path)

    def test_csv_unlabeled(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        ds = load_csv(path, label_column=None)
        assert ds.labels is None
        assert ds.points.shape == (2, 2)

    def test_csv_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0\nnope,4.0\n")
        with pytest.raises(InputError, match="line 2"):
            load_csv(path, label_column=None)

    # load_csv takes the last column as the label, so "1.0,inf" is a bad label.
    @pytest.mark.parametrize("row", ["nan,4.0", "1.0,inf", "-Infinity,4.0"])
    def test_csv_non_finite_reports_line(self, tmp_path, row):
        path = tmp_path / "d.csv"
        path.write_text(f"1.0,2.0\n3.0,4.0\n{row}\n")
        with pytest.raises(InputError, match="non-finite value at line 3"):
            load_csv(path)

    @pytest.mark.parametrize("line", ["nan 1:0.5", "1.0 2:inf"])
    def test_libsvm_non_finite_reports_line(self, tmp_path, line):
        path = tmp_path / "d.svm"
        path.write_text(f"# header comment\n1.0 1:0.5\n{line}\n")
        with pytest.raises(InputError, match="non-finite value at line 3"):
            load_libsvm(path)

    # Indices are 1-based: 0 used to land in the last column, -1 raised IndexError.
    @pytest.mark.parametrize("line", ["2 0:9.0 1:1.0", "2 1:1.0 -1:9.0"])
    def test_libsvm_index_below_one_reports_line(self, tmp_path, line):
        path = tmp_path / "d.svm"
        path.write_text(f"1.0 1:0.5 2:1.0\n{line}\n")
        with pytest.raises(InputError, match=r"d\.svm: feature index -?\d below 1 at line 2"):
            load_libsvm(path)

    def test_libsvm_repeated_index_reports_file_line_and_index(self, tmp_path):
        """A repeated index is not resolved by keeping either value."""
        path = tmp_path / "d.svm"
        path.write_text("1.0 1:0.5 2:1.0\n1 3:2.0 3:7.0\n")
        with pytest.raises(InputError, match=r"d\.svm: feature index 3 repeats at line 2"):
            load_libsvm(path)

    def test_libsvm_densified(self, tmp_path):
        path = tmp_path / "d.svm"
        path.write_text("1.0 1:0.5 3:2.0\n-1.0 2:1.5\n")
        ds = load_libsvm(path)
        assert ds.points.tolist() == [[0.5, 0.0, 2.0], [0.0, 1.5, 0.0]]
        assert ds.labels.tolist() == [1.0, -1.0]


class TestPairwiseConsistency:
    def test_scalar_path_matches_matrix_path(self, rng):
        """The same pair gives the bit-identical value through every entry
        point, including across row-block boundaries."""
        spec = KernelSpec.gaussian_kernel(0.8)
        X = rng.normal(size=(300, 2))
        full = pairwise(spec, X, X[:5])
        for i in (0, 123, 299):
            for j in range(5):
                assert full[i, j] == evaluate(spec, X[i], X[j])


class TestColumn:
    @pytest.mark.parametrize("d", [1, 3, 8, 16])
    @pytest.mark.parametrize("m", [0, 1, 9, 300])
    @pytest.mark.parametrize(
        "spec",
        [KernelSpec.gaussian_kernel(0.9), KernelSpec.linear_kernel(), KernelSpec.polynomial_kernel(3, 0.4)],
        ids=["gaussian", "linear", "polynomial"],
    )
    def test_matches_pairwise_and_evaluate_bit_for_bit(self, rng, spec, d, m):
        """Past 8 features numpy's reduction sums pairwise; the row reduction
        is the same one, at every width and for an empty point set."""
        points, point = rng.normal(0.0, 2.0, size=(m, d)), rng.normal(0.0, 2.0, size=d)
        cross, self_term = column(spec, point, points)
        assert cross.shape == (m,)
        assert cross.tobytes() == pairwise(spec, point, points)[0].tobytes()
        assert type(self_term) is float
        assert np.float64(self_term).tobytes() == np.float64(evaluate(spec, point, point)).tobytes()
