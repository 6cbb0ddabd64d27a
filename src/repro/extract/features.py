"""Feature schemas: mapping region variables <-> flat NN feature vectors.

The surrogate consumes a flat input vector and emits a flat output vector;
this module records how each region variable (scalar, dense array or sparse
matrix) maps into those vectors.  Arrays stay *grouped*: one
:class:`FeatureField` per variable, preserving the array semantics the
paper's feature reduction relies on (§3.1).

A sparse field can be *gathered* (:meth:`FeatureSchema.gathered`): it then
carries only its live positions, the flat positions that were nonzero in
some training sample, and is filled straight from the stored entries of
the CSR/CSC/COO value without ever building the dense matrix (§4.2).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence

import numpy as np

from ..sparse import COOMatrix, CSCMatrix, CSRMatrix, from_dense

__all__ = [
    "FeatureField",
    "FeatureSchema",
    "SchemaMismatchError",
    "build_schema",
]

_SPARSE_TYPES = (COOMatrix, CSRMatrix, CSCMatrix)


class SchemaMismatchError(ValueError):
    """A value the schema cannot encode: a wrong shape, or a nonzero stored
    entry of a gathered sparse field outside its live positions.  A
    surrogate never saw such an input, so it must not serve it."""


def _stored_entries(value) -> tuple[np.ndarray, np.ndarray]:
    """Row-major flat positions and values of a sparse matrix's stored
    entries, in stored order."""
    if isinstance(value, COOMatrix):
        return value.row * value.shape[1] + value.col, value.data
    counts = value.indptr[1:] - value.indptr[:-1]
    if isinstance(value, CSRMatrix):
        rows = np.arange(value.shape[0]).repeat(counts)
        return rows * value.shape[1] + value.indices, value.data
    cols = np.arange(value.shape[1]).repeat(counts)
    return value.indices * value.shape[1] + cols, value.data


@dataclass(frozen=True)
class FeatureField:
    """One region variable's slice of the flat feature vector.

    ``live`` holds the ascending flat positions a gathered sparse field
    carries; ``None`` carries every position.  ``size`` (the field's
    width in the vector) and ``slice`` (its place there) are derived
    once, since every flatten reads them.
    """

    name: str
    shape: tuple[int, ...]
    offset: int
    is_sparse: bool
    live: Optional[tuple[int, ...]] = None
    size: int = field(init=False, repr=False, compare=False)
    slice: slice = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        live = None if self.live is None else np.array(self.live, dtype=np.int64)
        size = self.dense_size if live is None else live.size
        object.__setattr__(self, "_live", live)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "slice", slice(self.offset, self.offset + size))

    @property
    def dense_size(self) -> int:
        return math.prod(self.shape)


def _fill_sparse(f: FeatureField, value, block: np.ndarray) -> None:
    """Write one sparse value's stored entries into its slice ``block``."""
    positions, data = _stored_entries(value)
    if f.live is not None:
        index = f._live.searchsorted(positions)
        if f.size:
            known = f._live.take(index, mode="clip") == positions
        else:   # no sample filled this field: every entry is unknown
            known = np.zeros(positions.size, dtype=bool)
        if not known.all():
            if data[~known].any():
                raise SchemaMismatchError(
                    f"field {f.name!r}: a nonzero entry outside the "
                    f"{f.size} live positions"
                )
            index, data = index[known], data[known]
        positions = index
    block[:] = 0.0
    if isinstance(value, COOMatrix):
        np.add.at(block, positions, data)   # duplicates accumulate
    else:
        block[positions] = data


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered collection of fields covering the whole feature vector."""

    fields: tuple[FeatureField, ...]
    total_size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "total_size", sum(f.size for f in self.fields))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.fields)

    @property
    def has_sparse(self) -> bool:
        return any(f.is_sparse for f in self.fields)

    @property
    def gathers(self) -> bool:
        """True when some sparse field carries only its live positions."""
        return any(f.live is not None for f in self.fields)

    def field(self, name: str) -> FeatureField:
        for f in self.fields:
            if f.name == name:
                return f
        raise KeyError(f"no feature field named {name!r}")

    def flatten(self, values: Mapping[str, Any]) -> np.ndarray:
        """Pack a variable dict into one flat float64 vector.

        Sparse values are written from their stored entries; a gathered
        field raises :class:`SchemaMismatchError` for a nonzero entry
        outside its live positions.
        """
        out = np.empty(self.total_size, dtype=np.float64)
        for f in self.fields:
            value = values[f.name]
            if isinstance(value, _SPARSE_TYPES):
                if value.shape != f.shape:
                    raise SchemaMismatchError(
                        f"field {f.name!r}: expected shape {f.shape}, got {value.shape}"
                    )
                _fill_sparse(f, value, out[f.slice])
                continue
            arr = np.asarray(value, dtype=np.float64)
            if arr.shape != f.shape:
                raise SchemaMismatchError(
                    f"field {f.name!r}: expected shape {f.shape}, got {arr.shape}"
                )
            flat = arr.ravel()
            if f.live is not None:
                gathered = flat[f._live]
                if np.count_nonzero(gathered) != np.count_nonzero(flat):
                    raise SchemaMismatchError(
                        f"field {f.name!r}: nonzero outside the live positions"
                    )
                flat = gathered
            out[f.slice] = flat
        return out

    def unflatten(self, vector: np.ndarray) -> dict[str, Any]:
        """Unpack a flat vector back into named variables.

        Sparse fields come back as CSR (re-compressed from the dense slice),
        mirroring the online path where the surrogate's dense prediction is
        written back into the application's data structures.
        """
        vector = np.asarray(vector, dtype=np.float64).ravel()
        if vector.size != self.total_size:
            raise ValueError(
                f"expected vector of length {self.total_size}, got {vector.size}"
            )
        out: dict[str, Any] = {}
        for f in self.fields:
            if f.live is not None:
                arr = np.zeros(f.dense_size)
                arr[f._live] = vector[f.slice]
                arr = arr.reshape(f.shape)
            elif f.shape:
                arr = vector[f.slice].reshape(f.shape)
            else:
                arr = float(vector[f.offset])
            if f.is_sparse:
                out[f.name] = from_dense(np.atleast_2d(arr), "csr")
            else:
                out[f.name] = arr
        return out

    def gathered(self, x: np.ndarray) -> tuple["FeatureSchema", np.ndarray]:
        """This schema with each sparse field cut to its live positions.

        ``x`` holds rows flattened by this schema; a sparse field's live
        positions are those nonzero in some row.  Returns the gathered
        schema and the ascending columns of ``x`` it keeps, so
        ``x[:, columns]`` are the rows the gathered schema flattens.
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.total_size:
            raise ValueError(
                f"expected rows of length {self.total_size}, got {x.shape[1]}"
            )
        fields: list[FeatureField] = []
        columns: list[np.ndarray] = []
        offset = 0
        for f in self.fields:
            live, keep = f.live, np.arange(f.size)
            if f.is_sparse:
                keep = np.flatnonzero((x[:, f.slice] != 0.0).any(axis=0))
                live = tuple((keep if f.live is None else f._live[keep]).tolist())
            columns.append(f.offset + keep)
            fields.append(FeatureField(f.name, f.shape, offset, f.is_sparse, live))
            offset += fields[-1].size
        return FeatureSchema(fields=tuple(fields)), np.concatenate(columns)

    def manifest_record(self) -> dict:
        """What a published manifest records of this schema: the width of
        the fields that carry every position, and the count and SHA-256
        (of the little-endian int64 positions) of each gathered field."""
        return {
            "dense_width": sum(f.size for f in self.fields if f.live is None),
            "live_positions": {
                f.name: {
                    "count": f.size,
                    "sha256": hashlib.sha256(f._live.astype("<i8").tobytes()).hexdigest(),
                }
                for f in self.fields
                if f.live is not None
            },
        }

    def density(self, values: Mapping[str, Any]) -> float:
        """Nonzero fraction of the flattened vector for ``values``."""
        vec = self.flatten(values)
        return float(np.count_nonzero(vec)) / vec.size if vec.size else 0.0


def build_schema(names: Sequence[str], example: Mapping[str, Any]) -> FeatureSchema:
    """Build a schema from example values of the named variables."""
    fields: list[FeatureField] = []
    offset = 0
    for name in names:
        if name not in example:
            raise KeyError(f"no example value for feature {name!r}")
        value = example[name]
        sparse = isinstance(value, _SPARSE_TYPES)
        if sparse:
            shape = value.shape
        else:
            arr = np.asarray(value, dtype=np.float64)
            shape = arr.shape
        field = FeatureField(name=name, shape=tuple(shape), offset=offset, is_sparse=sparse)
        fields.append(field)
        offset += field.size
    return FeatureSchema(fields=tuple(fields))

