import math

import numpy as np
import pytest

from nystream import Dataset, InputError, KernelSpec, evaluate, gram, load_csv, load_libsvm, stream_column
from nystream.kernels import DESK_SCALE_CAP, _symmetric_pairwise, pairwise

from conftest import random_dataset, random_kernel


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

    def test_polynomial_needs_degree(self):
        with pytest.raises(InputError):
            KernelSpec(family="polynomial", degree=0, offset=0.0)


class TestStreamColumn:
    def test_empty_restriction(self):
        ds = Dataset(points=[[1.0], [2.0]])
        col = stream_column(ds, KernelSpec.linear_kernel(), 1, [])
        assert col.cross.shape == (0,)
        assert col.self_term == 4.0

    def test_duplicate_point(self):
        ds = Dataset(points=[[1.0], [1.0]])
        col = stream_column(ds, KernelSpec.linear_kernel(), 1, [0])
        assert col.cross.tolist() == [1.0]
        assert col.self_term == 1.0

    def test_line_of_three_gaussian_points(self):
        # points at 0, 1, 2 with unit bandwidth; third column against both
        ds = Dataset(points=[[0.0], [1.0], [2.0]])
        col = stream_column(ds, KernelSpec.gaussian_kernel(1.0), 2, [0, 1])
        assert col.cross == pytest.approx([math.exp(-2.0), math.exp(-0.5)], abs=1e-15)
        assert col.self_term == 1.0

    def test_out_of_range(self):
        ds = Dataset(points=[[0.0], [1.0]])
        with pytest.raises(InputError):
            stream_column(ds, KernelSpec.linear_kernel(), 2, [0])
        with pytest.raises(InputError):
            stream_column(ds, KernelSpec.linear_kernel(), 1, [1])


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
        """Growing the matrix by one point reproduces the streamed column
        bit for bit."""
        for _ in range(10):
            spec = random_kernel(rng)
            ds = random_dataset(rng, 9, d=2)
            t = int(rng.integers(1, 8))
            K_small = gram(ds, spec, t)
            K_big = gram(ds, spec, t + 1)
            col = stream_column(ds, spec, t, range(t))
            assert np.array_equal(K_big[:t, :t], K_small)
            assert np.array_equal(K_big[:t, t], col.cross)
            assert np.array_equal(K_big[t, :t], col.cross)
            assert K_big[t, t] == col.self_term

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
            col = stream_column(ds, spec, 7, range(7))
            bound = np.sqrt(col.self_term * np.diag(K)[:7])
            assert np.all(np.abs(col.cross) <= bound + 1e-12)


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
