"""Sparse matrix formats implemented from scratch.

Auto-HPCnet (§1, §4.2) observes that HPC inputs are usually sparse matrices
stored as COO / CSR / CSC, while DNN frameworks only consume dense arrays, so
every training or inference call would otherwise pay an unroll-to-dense
transformation in both time and memory (the paper reports a 14x size blow-up
for the NPB-CG matrix).  This module provides those three formats with
conversions, dense round-trips and the accounting (`nnz`, `density`,
`dense_blowup`) that the evaluation benches report.

The formats are deliberately self-contained (no ``scipy.sparse``): the
surrogate framework's sparse code path — CSR matmul in the first autoencoder
layer — is part of the system under reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["COOMatrix", "CSRMatrix", "CSCMatrix", "from_dense"]

# ``CSRMatrix.matmul_dense`` takes its entry-position loop, one NumPy step
# per entry of the longest row, only when the steps average more products
# than this; below it one ``np.add.at`` call is as fast or faster.
_PRODUCTS_PER_POSITION = 1024


def _check_shape(shape: tuple[int, int]) -> tuple[int, int]:
    rows, cols = int(shape[0]), int(shape[1])
    if rows < 0 or cols < 0:
        raise ValueError(f"shape must be non-negative, got {shape!r}")
    return rows, cols


@dataclass(frozen=True)
class COOMatrix:
    """Coordinate-list sparse matrix: parallel (row, col, value) arrays."""

    row: np.ndarray
    col: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self) -> None:
        row = np.asarray(self.row, dtype=np.int64)
        col = np.asarray(self.col, dtype=np.int64)
        data = np.asarray(self.data, dtype=np.float64)
        if not (row.shape == col.shape == data.shape) or row.ndim != 1:
            raise ValueError("row, col and data must be equal-length 1-D arrays")
        shape = _check_shape(self.shape)
        if row.size and (row.min() < 0 or row.max() >= shape[0]):
            raise ValueError("row index out of bounds")
        if col.size and (col.min() < 0 or col.max() >= shape[1]):
            raise ValueError("col index out of bounds")
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "col", col)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "shape", shape)

    @property
    def nnz(self) -> int:
        return int(self.data.size)

    @property
    def density(self) -> float:
        cells = self.shape[0] * self.shape[1]
        return self.nnz / cells if cells else 0.0

    def nbytes(self) -> int:
        """Storage footprint of the compressed representation."""
        return self.row.nbytes + self.col.nbytes + self.data.nbytes

    def dense_nbytes(self) -> int:
        """Storage footprint after unrolling to a dense float64 matrix."""
        return self.shape[0] * self.shape[1] * 8

    def dense_blowup(self) -> float:
        """Size amplification paid by unrolling (paper: ~14x for NPB CG)."""
        compressed = self.nbytes()
        return self.dense_nbytes() / compressed if compressed else float("inf")

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.float64)
        # duplicate coordinates accumulate, matching standard COO semantics
        np.add.at(out, (self.row, self.col), self.data)
        return out

    def sum_duplicates(self) -> "COOMatrix":
        """Canonicalize: sort by (row, col) and merge duplicate coordinates."""
        if self.nnz == 0:
            return self
        order = np.lexsort((self.col, self.row))
        row, col, data = self.row[order], self.col[order], self.data[order]
        keep = np.ones(row.size, dtype=bool)
        keep[1:] = (row[1:] != row[:-1]) | (col[1:] != col[:-1])
        idx = np.cumsum(keep) - 1
        merged = np.zeros(int(idx[-1]) + 1, dtype=np.float64)
        np.add.at(merged, idx, data)
        return COOMatrix(row[keep], col[keep], merged, self.shape)

    def to_csr(self) -> "CSRMatrix":
        canonical = self.sum_duplicates()
        indptr = np.zeros(self.shape[0] + 1, dtype=np.int64)
        np.add.at(indptr, canonical.row + 1, 1)
        np.cumsum(indptr, out=indptr)
        return CSRMatrix(indptr, canonical.col, canonical.data, self.shape)

    def to_csc(self) -> "CSCMatrix":
        return self.to_csr().to_csc()

    def transpose(self) -> "COOMatrix":
        return COOMatrix(self.col, self.row, self.data, (self.shape[1], self.shape[0]))


@dataclass(frozen=True)
class CSRMatrix:
    """Compressed Sparse Row matrix (a.k.a. CRS in the paper)."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self) -> None:
        indptr = np.asarray(self.indptr, dtype=np.int64)
        indices = np.asarray(self.indices, dtype=np.int64)
        data = np.asarray(self.data, dtype=np.float64)
        shape = _check_shape(self.shape)
        if indptr.ndim != 1 or indptr.size != shape[0] + 1:
            raise ValueError("indptr must have length nrows + 1")
        if indptr[0] != 0 or np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must start at 0 and be non-decreasing")
        if indices.shape != data.shape or indices.ndim != 1:
            raise ValueError("indices and data must be equal-length 1-D arrays")
        if int(indptr[-1]) != indices.size:
            raise ValueError("indptr[-1] must equal nnz")
        if indices.size and (indices.min() < 0 or indices.max() >= shape[1]):
            raise ValueError("column index out of bounds")
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "shape", shape)

    @property
    def nnz(self) -> int:
        return int(self.data.size)

    @property
    def density(self) -> float:
        cells = self.shape[0] * self.shape[1]
        return self.nnz / cells if cells else 0.0

    def nbytes(self) -> int:
        return self.indptr.nbytes + self.indices.nbytes + self.data.nbytes

    def dense_nbytes(self) -> int:
        return self.shape[0] * self.shape[1] * 8

    def dense_blowup(self) -> float:
        compressed = self.nbytes()
        return self.dense_nbytes() / compressed if compressed else float("inf")

    def row_slice(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Column indices and values of row ``i`` (views, not copies)."""
        lo, hi = int(self.indptr[i]), int(self.indptr[i + 1])
        return self.indices[lo:hi], self.data[lo:hi]

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.float64)
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        out[rows, self.indices] = self.data
        return out

    def to_coo(self) -> COOMatrix:
        rows = np.repeat(np.arange(self.shape[0], dtype=np.int64), np.diff(self.indptr))
        return COOMatrix(rows, self.indices.copy(), self.data.copy(), self.shape)

    def to_csc(self) -> "CSCMatrix":
        coo = self.to_coo()
        # build by sorting on (col, row)
        order = np.lexsort((coo.row, coo.col))
        row, col, data = coo.row[order], coo.col[order], coo.data[order]
        indptr = np.zeros(self.shape[1] + 1, dtype=np.int64)
        np.add.at(indptr, col + 1, 1)
        np.cumsum(indptr, out=indptr)
        return CSCMatrix(indptr, row, data, self.shape)

    def _entry_rows(self) -> np.ndarray:
        """The row of each stored entry, built on first use and kept: an
        iterative solver multiplies by one matrix many times."""
        rows = self.__dict__.get("_rows")
        if rows is None:
            rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
            object.__setattr__(self, "_rows", rows)
        return rows

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Sparse matrix × dense vector, no densification.

        Each row sums its products in stored order from +0.0, as an
        ``np.add.at`` scatter does, signed zeros included.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.shape[1],):
            raise ValueError(f"expected vector of length {self.shape[1]}, got {x.shape}")
        if not self.nnz:  # bincount of no entries returns integers
            return np.zeros(self.shape[0])
        return np.bincount(self._entry_rows(), self.data * x[self.indices], self.shape[0])

    def matmul_dense(self, other: np.ndarray) -> np.ndarray:
        """CSR × dense matrix -> dense, without unrolling self.

        This is the "TensorFlow embedding API" product of §4.2: the
        multiplication is performed directly on the compressed
        representation and only the (small) result is dense.

        Each output row is the sum of its products in stored order, starting
        from +0.0, which is what an ``np.add.at`` scatter of the products
        gives, signed zeros included.  One scatter call is fastest when each
        entry position holds few products; otherwise the entry-position loop
        reaches the same sums without the scatter and its nnz×width
        temporary.
        """
        other = np.asarray(other, dtype=np.float64)
        if other.ndim != 2 or other.shape[0] != self.shape[1]:
            raise ValueError(
                f"dimension mismatch: {self.shape} @ {other.shape}"
            )
        lengths = np.diff(self.indptr)
        longest = int(lengths.max(initial=0))
        if self.nnz * other.shape[1] > _PRODUCTS_PER_POSITION * longest:
            return self._product_by_position(other)
        out = np.zeros((self.shape[0], other.shape[1]), dtype=np.float64)
        # gather the needed rows of `other`, scale by values, scatter-add
        contrib = self.data[:, None] * other[self.indices]
        np.add.at(out, self._entry_rows(), contrib)
        return out

    def _product_by_position(self, other: np.ndarray) -> np.ndarray:
        """``matmul_dense`` by one update per entry position of the longest
        row: step k adds entry k of every row that has one into a +0.0
        accumulator, so each row sums in stored order."""
        out = np.zeros((self.shape[0], other.shape[1]), dtype=np.float64)
        lengths = np.diff(self.indptr)
        filled = np.flatnonzero(lengths)
        longest = int(lengths.max(initial=0))
        # longest rows first, so the rows still holding an entry at
        # position k are a prefix of ``order``
        order = filled[np.argsort(-lengths[filled], kind="stable")]
        starts = self.indptr[order]
        # active[k]: how many rows hold an entry at position k
        active = np.searchsorted(-lengths[order], -np.arange(longest))
        acc = np.zeros((order.size, other.shape[1]), dtype=np.float64)
        for k, n in enumerate(active):
            pos = starts[:n] + k
            acc[:n] += self.data[pos, None] * other[self.indices[pos]]
        out[order] = acc
        return out

    def transpose(self) -> "CSRMatrix":
        csc = self.to_csc()
        return CSRMatrix(csc.indptr, csc.indices, csc.data,
                         (self.shape[1], self.shape[0]))

    def diagonal(self) -> np.ndarray:
        n = min(self.shape)
        diag = np.zeros(n, dtype=np.float64)
        for i in range(n):
            cols, vals = self.row_slice(i)
            hit = np.nonzero(cols == i)[0]
            if hit.size:
                diag[i] = float(vals[hit].sum())
        return diag


@dataclass(frozen=True)
class CSCMatrix:
    """Compressed Sparse Column matrix."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self) -> None:
        indptr = np.asarray(self.indptr, dtype=np.int64)
        indices = np.asarray(self.indices, dtype=np.int64)
        data = np.asarray(self.data, dtype=np.float64)
        shape = _check_shape(self.shape)
        if indptr.ndim != 1 or indptr.size != shape[1] + 1:
            raise ValueError("indptr must have length ncols + 1")
        if indptr[0] != 0 or np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must start at 0 and be non-decreasing")
        if indices.shape != data.shape or indices.ndim != 1:
            raise ValueError("indices and data must be equal-length 1-D arrays")
        if int(indptr[-1]) != indices.size:
            raise ValueError("indptr[-1] must equal nnz")
        if indices.size and (indices.min() < 0 or indices.max() >= shape[0]):
            raise ValueError("row index out of bounds")
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "shape", shape)

    @property
    def nnz(self) -> int:
        return int(self.data.size)

    @property
    def density(self) -> float:
        cells = self.shape[0] * self.shape[1]
        return self.nnz / cells if cells else 0.0

    def nbytes(self) -> int:
        return self.indptr.nbytes + self.indices.nbytes + self.data.nbytes

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.float64)
        cols = np.repeat(np.arange(self.shape[1]), np.diff(self.indptr))
        out[self.indices, cols] = self.data
        return out

    def to_coo(self) -> COOMatrix:
        cols = np.repeat(np.arange(self.shape[1], dtype=np.int64), np.diff(self.indptr))
        return COOMatrix(self.indices.copy(), cols, self.data.copy(), self.shape)

    def to_csr(self) -> CSRMatrix:
        return self.to_coo().to_csr()


def from_dense(matrix: np.ndarray, fmt: str = "csr"):
    """Compress a dense matrix into ``fmt`` ("coo", "csr" or "csc")."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("from_dense expects a 2-D array")
    row, col = np.nonzero(matrix)
    coo = COOMatrix(row, col, matrix[row, col], matrix.shape)
    if fmt == "coo":
        return coo
    if fmt == "csr":
        return coo.to_csr()
    if fmt == "csc":
        return coo.to_csc()
    raise ValueError(f"unknown sparse format {fmt!r}")
