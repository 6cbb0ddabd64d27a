"""Unit and property tests for the sparse-matrix formats."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sparse import COOMatrix, CSCMatrix, CSRMatrix, from_dense


def random_dense(rng, rows=7, cols=5, density=0.4):
    mask = rng.random((rows, cols)) < density
    return rng.standard_normal((rows, cols)) * mask


def add_at_product(csr, other):
    """Reference CSR × dense: scatter every product with ``np.add.at``."""
    out = np.zeros((csr.shape[0], other.shape[1]))
    rows = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
    np.add.at(out, rows, csr.data[:, None] * other[csr.indices])
    return out


def add_at_matvec(csr, x):
    """Reference CSR × vector: scatter every product with ``np.add.at``."""
    out = np.zeros(csr.shape[0])
    rows = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
    np.add.at(out, rows, csr.data * x[csr.indices])
    return out


def assert_bitwise(a, b):
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


def assert_product_exact(csr, other):
    """``matmul_dense`` and its entry-position loop, whichever branch the
    shape selects, both equal the scatter bit for bit."""
    expected = add_at_product(csr, other)
    assert_bitwise(csr.matmul_dense(other), expected)
    assert_bitwise(csr._product_by_position(other), expected)


# ---------------------------------------------------------------- COO basics


class TestCOO:
    def test_to_dense_round_trip(self, rng):
        d = random_dense(rng)
        assert np.allclose(from_dense(d, "coo").to_dense(), d)

    def test_duplicate_coordinates_accumulate(self):
        coo = COOMatrix([0, 0], [1, 1], [2.0, 3.0], (2, 2))
        assert coo.to_dense()[0, 1] == 5.0

    def test_sum_duplicates_merges(self):
        coo = COOMatrix([0, 0, 1], [1, 1, 0], [2.0, 3.0, 1.0], (2, 2))
        merged = coo.sum_duplicates()
        assert merged.nnz == 2
        assert np.allclose(merged.to_dense(), coo.to_dense())

    def test_nnz_and_density(self):
        coo = COOMatrix([0], [0], [1.0], (2, 2))
        assert coo.nnz == 1
        assert coo.density == 0.25

    def test_empty_matrix(self):
        coo = COOMatrix([], [], [], (3, 3))
        assert coo.nnz == 0
        assert np.allclose(coo.to_dense(), np.zeros((3, 3)))

    def test_transpose(self, rng):
        d = random_dense(rng)
        assert np.allclose(from_dense(d, "coo").transpose().to_dense(), d.T)

    def test_out_of_bounds_row_rejected(self):
        with pytest.raises(ValueError):
            COOMatrix([5], [0], [1.0], (2, 2))

    def test_out_of_bounds_col_rejected(self):
        with pytest.raises(ValueError):
            COOMatrix([0], [9], [1.0], (2, 2))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            COOMatrix([0, 1], [0], [1.0], (2, 2))

    def test_dense_blowup_sparse_case(self):
        # one nonzero in a 100x100 matrix: dense is vastly larger
        coo = COOMatrix([0], [0], [1.0], (100, 100))
        assert coo.dense_blowup() > 1000


# ---------------------------------------------------------------- CSR basics


class TestCSR:
    def test_round_trip(self, rng):
        d = random_dense(rng)
        assert np.allclose(from_dense(d, "csr").to_dense(), d)

    def test_matvec_matches_dense(self, rng):
        d = random_dense(rng)
        csr = from_dense(d, "csr")
        x = rng.standard_normal(d.shape[1])
        assert np.allclose(csr.matvec(x), d @ x)

    def test_matvec_wrong_length_rejected(self, rng):
        csr = from_dense(random_dense(rng), "csr")
        with pytest.raises(ValueError):
            csr.matvec(np.zeros(csr.shape[1] + 1))

    def test_matvec_empty_rows_exact(self, rng):
        d = random_dense(rng, rows=9, cols=6, density=0.5)
        d[[0, 4, 8]] = 0.0
        csr = from_dense(d)
        x = rng.standard_normal(6)
        assert_bitwise(csr.matvec(x), add_at_matvec(csr, x))
        # the second call reads the kept row index
        assert_bitwise(csr.matvec(x), add_at_matvec(csr, x))

    @pytest.mark.parametrize("shape", [(0, 4), (5, 7)])
    def test_matvec_no_entries(self, rng, shape):
        out = from_dense(np.zeros(shape)).matvec(rng.standard_normal(shape[1]))
        assert out.dtype == np.float64
        assert_bitwise(out, np.zeros(shape[0]))

    def test_matvec_signed_zeros_exact(self, rng):
        # -0.0 products sum to +0.0, as from a +0.0 start
        d = rng.standard_normal((40, 30)) + 5.0
        d[rng.random((40, 30)) < 0.5] = 0.0
        csr = from_dense(d)
        negative = CSRMatrix(csr.indptr, csr.indices, -csr.data, csr.shape)
        x = rng.standard_normal(30)
        x[::3] = -0.0
        x[1::3] = 0.0
        for m in (csr, negative):
            assert_bitwise(m.matvec(x), add_at_matvec(m, x))
        all_negative_zero = negative.matvec(np.full(30, 0.0))
        assert not np.signbit(all_negative_zero).any()

    def test_matvec_random_exact(self, rng):
        for _ in range(200):
            rows, cols = rng.integers(1, 30, size=2)
            d = random_dense(rng, rows, cols, density=rng.random())
            d *= 10.0 ** rng.integers(-150, 150, size=d.shape)
            csr = from_dense(d)
            x = rng.standard_normal(cols) * 10.0 ** rng.integers(-150, 150, size=cols)
            assert_bitwise(csr.matvec(x), add_at_matvec(csr, x))

    def test_matmul_dense_matches(self, rng):
        d = random_dense(rng)
        csr = from_dense(d, "csr")
        w = rng.standard_normal((d.shape[1], 3))
        assert np.allclose(csr.matmul_dense(w), d @ w)

    def test_matmul_dense_empty_rows_exact(self, rng):
        d = random_dense(rng, rows=9, cols=6, density=0.5)
        d[[0, 4, 8]] = 0.0
        assert_product_exact(from_dense(d), rng.standard_normal((6, 4)))

    def test_matmul_dense_all_empty_exact(self, rng):
        csr = from_dense(np.zeros((5, 7)))
        out = csr.matmul_dense(rng.standard_normal((7, 3)))
        assert_bitwise(out, np.zeros((5, 3)))

    def test_matmul_dense_single_long_row_exact(self, rng):
        d = rng.standard_normal((1, 300))
        assert_product_exact(from_dense(d), rng.standard_normal((300, 16)))

    def test_matmul_dense_many_short_rows_exact(self, rng):
        d = random_dense(rng, rows=200, cols=40, density=0.05)
        d[np.arange(200), rng.integers(0, 40, 200)] = 1.5
        assert_product_exact(from_dense(d), rng.standard_normal((40, 8)))

    @pytest.mark.parametrize("rows", [1, 50])
    def test_matmul_dense_negative_zero_products(self, rng, rows):
        # -0.0 products sum to +0.0, as from a +0.0 start
        d = rng.standard_normal((rows, 30)) + 5.0
        other = np.zeros((30, 40))
        other[:, 1] = -0.0
        other[::2, 2] = -0.0
        other[:, 3:] = rng.standard_normal((30, 37))
        csr = from_dense(d)
        negative = CSRMatrix(csr.indptr, csr.indices, -csr.data, csr.shape)
        for m in (csr, negative):
            for out in (m.matmul_dense(other), m._product_by_position(other)):
                assert not np.signbit(out[:, :3]).any()
            assert_product_exact(m, other)

    def test_matmul_dense_sparse_dense_backward_shape_exact(self, rng):
        # a first layer's weight gradient x.T @ dY: 230 short columns of
        # a 32-row batch over 1406 mostly dead features
        live = rng.choice(1406, 230, replace=False)
        d = np.zeros((32, 1406))
        d[:, live] = rng.standard_normal((32, 230)) * (rng.random((32, 230)) < 0.8)
        x = from_dense(d)
        assert_product_exact(x, rng.standard_normal((1406, 12)))
        assert_product_exact(x.transpose(), rng.standard_normal((32, 12)))

    def test_matmul_dense_loops_by_position_only_for_wide_steps(
        self, rng, monkeypatch
    ):
        # 32 rows x width 64 put 2048 products in each position step: the
        # loop; one row puts 64: a single scatter call
        taken = []
        by_position = CSRMatrix._product_by_position

        def record(self, other):
            taken.append(self.shape)
            return by_position(self, other)

        monkeypatch.setattr(CSRMatrix, "_product_by_position", record)
        for rows in (32, 1):
            x = from_dense(rng.standard_normal((rows, 40)))
            w = rng.standard_normal((40, 64))
            assert_bitwise(x.matmul_dense(w), add_at_product(x, w))
        assert taken == [(32, 40)]

    def test_matmul_dense_dim_mismatch(self, rng):
        csr = from_dense(random_dense(rng), "csr")
        with pytest.raises(ValueError):
            csr.matmul_dense(np.zeros((csr.shape[1] + 2, 3)))

    def test_transpose(self, rng):
        d = random_dense(rng)
        assert np.allclose(from_dense(d, "csr").transpose().to_dense(), d.T)

    def test_diagonal(self, rng):
        d = random_dense(rng, rows=5, cols=5)
        assert np.allclose(from_dense(d, "csr").diagonal(), np.diag(d))

    def test_row_slice(self, rng):
        d = random_dense(rng)
        csr = from_dense(d, "csr")
        cols, vals = csr.row_slice(2)
        row = np.zeros(d.shape[1])
        row[cols] = vals
        assert np.allclose(row, d[2])

    def test_csr_to_coo_round_trip(self, rng):
        d = random_dense(rng)
        assert np.allclose(from_dense(d, "csr").to_coo().to_dense(), d)

    def test_csr_to_csc_round_trip(self, rng):
        d = random_dense(rng)
        assert np.allclose(from_dense(d, "csr").to_csc().to_dense(), d)

    def test_invalid_indptr_rejected(self):
        with pytest.raises(ValueError):
            CSRMatrix([0, 2, 1], [0, 1], [1.0, 2.0], (2, 2))

    def test_indptr_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            CSRMatrix([0, 1], [0], [1.0], (2, 2))

    def test_nnz_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CSRMatrix([0, 1, 3], [0, 1], [1.0, 2.0], (2, 2))


# ---------------------------------------------------------------- CSC basics


class TestCSC:
    def test_round_trip(self, rng):
        d = random_dense(rng)
        assert np.allclose(from_dense(d, "csc").to_dense(), d)

    def test_csc_to_csr(self, rng):
        d = random_dense(rng)
        assert np.allclose(from_dense(d, "csc").to_csr().to_dense(), d)

    def test_csc_to_coo(self, rng):
        d = random_dense(rng)
        assert np.allclose(from_dense(d, "csc").to_coo().to_dense(), d)

    def test_invalid_row_index_rejected(self):
        with pytest.raises(ValueError):
            CSCMatrix([0, 1, 1], [7], [1.0], (2, 2))


def test_from_dense_rejects_unknown_format(rng):
    with pytest.raises(ValueError):
        from_dense(random_dense(rng), "bsr")


def test_from_dense_rejects_1d():
    with pytest.raises(ValueError):
        from_dense(np.zeros(4))


# ---------------------------------------------------------------- properties


@st.composite
def dense_matrices(draw):
    rows = draw(st.integers(1, 8))
    cols = draw(st.integers(1, 8))
    values = draw(
        st.lists(
            st.floats(-100, 100, allow_nan=False).map(lambda v: 0.0 if abs(v) < 1 else v),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    return np.array(values).reshape(rows, cols)


@settings(max_examples=50, deadline=None)
@given(dense_matrices())
def test_all_formats_round_trip(dense):
    for fmt in ("coo", "csr", "csc"):
        assert np.allclose(from_dense(dense, fmt).to_dense(), dense)


@settings(max_examples=50, deadline=None)
@given(dense_matrices(), st.integers(0, 2**31 - 1))
def test_csr_matvec_property(dense, seed):
    x = np.random.default_rng(seed).standard_normal(dense.shape[1])
    csr = from_dense(dense, "csr")
    assert np.allclose(csr.matvec(x), dense @ x, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(dense_matrices())
def test_transpose_involution(dense):
    csr = from_dense(dense, "csr")
    assert np.allclose(csr.transpose().transpose().to_dense(), dense)


@settings(max_examples=40, deadline=None)
@given(dense_matrices())
def test_nnz_preserved_across_conversions(dense):
    coo = from_dense(dense, "coo")
    assert coo.nnz == coo.to_csr().nnz == coo.to_csc().nnz


@st.composite
def signed_zero_products(draw):
    """A CSR matrix with ±0.0 stored values and a dense factor with ±0.0."""
    rows = draw(st.integers(0, 9))
    cols = draw(st.integers(1, 9))
    width = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.floats(0.0, 1.0))
    d = rng.standard_normal((rows, cols)) * (rng.random((rows, cols)) < density)
    csr = from_dense(d)
    data = np.where(rng.random(csr.nnz) < 0.2, -0.0, csr.data)
    csr = CSRMatrix(csr.indptr, csr.indices, data, csr.shape)
    other = rng.standard_normal((cols, width))
    other[rng.random(other.shape) < 0.3] = rng.choice([0.0, -0.0])
    return csr, other, rng.standard_normal((rows, width))


@settings(max_examples=80, deadline=None)
@given(signed_zero_products())
def test_csr_matmul_dense_is_stored_order_sum(case):
    csr, other, upstream = case
    assert_product_exact(csr, other)
    assert_product_exact(csr.transpose(), upstream)
