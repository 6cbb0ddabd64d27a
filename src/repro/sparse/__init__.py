"""Sparse matrix substrate: COO / CSR / CSC formats built from scratch.

Public API::

    from repro.sparse import COOMatrix, CSRMatrix, CSCMatrix, from_dense
    from repro.sparse import random_sparse, npb_cg_matrix, poisson_2d
"""

from .formats import COOMatrix, CSCMatrix, CSRMatrix, from_dense
from .generate import banded_spd, npb_cg_matrix, poisson_1d, poisson_2d, random_sparse

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "CSCMatrix",
    "from_dense",
    "random_sparse",
    "banded_spd",
    "npb_cg_matrix",
    "poisson_1d",
    "poisson_2d",
]
