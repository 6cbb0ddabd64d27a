"""Row invariance of the batch-invariant product, bit for bit.

``invariant_matmul`` is the one 2-D product every served forward runs
under ``batch_invariant()``, in the interpreter and in the compiled plan.
Bit-identical batched serving rests on one property of it: any row of a
stacked product equals that row computed alone from a fresh array.  That
is a property of the NumPy and BLAS build underneath, not of this code,
so it is checked here across the shapes, dtypes, batch sizes and memory
placements serving produces.  CI runs this file again with one BLAS
thread (``OPENBLAS_NUM_THREADS=1``), since a threaded kernel may split
the work differently.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.nn.tensor import invariant_matmul

#: where the stacked operand's rows sit: a fresh array, rows starting at
#: an element offset inside a larger flat buffer, or the leading rows of
#: a wider-capacity buffer as the plan's thread-local scratch holds them
PLACEMENTS = ("fresh", "offset-0", "offset-1", "offset-3", "scratch")


def _place(x: np.ndarray, placement: str) -> np.ndarray:
    """``x``'s values at ``placement``; the result is a view when placed."""
    batch, features = x.shape
    if placement == "fresh":
        return x.copy()
    if placement == "scratch":
        buf = np.full((batch + 7, features), np.nan, dtype=x.dtype)
        buf[:batch] = x
        return buf[:batch]
    offset = int(placement.split("-")[1])
    flat = np.full(offset + x.size + 5, np.nan, dtype=x.dtype)
    view = flat[offset:offset + x.size].reshape(batch, features)
    view[...] = x
    return view


cases = st.fixed_dictionaries({
    "features": st.one_of(
        st.integers(1, 40), st.integers(41, 1406), st.sampled_from((230, 1406))
    ),
    "outputs": st.one_of(st.integers(1, 16), st.integers(17, 128)),
    "batch": st.integers(1, 70),
    "dtype": st.sampled_from((np.float64, np.float32)),
    "placement": st.sampled_from(PLACEMENTS),
    "seed": st.integers(0, 2**32 - 1),
})


@settings(max_examples=150, deadline=None)
@given(case=cases)
def test_each_row_equals_the_row_alone(case):
    rng = np.random.default_rng(case["seed"])
    dtype = case["dtype"]
    w = rng.standard_normal((case["features"], case["outputs"])).astype(dtype)
    x = rng.standard_normal((case["batch"], case["features"])).astype(dtype)
    stacked = _place(x, case["placement"])

    y = invariant_matmul(stacked, w)
    assert y.shape == (case["batch"], case["outputs"])
    assert y.dtype == dtype
    # the plan's form: written into the leading rows of a scratch buffer
    scratch = np.full((case["batch"] + 3, case["outputs"]), np.nan, dtype=dtype)
    invariant_matmul(stacked, w, scratch[:case["batch"]])

    for i in range(case["batch"]):
        alone = invariant_matmul(np.array(x[i:i + 1]), w.copy())
        assert y[i].tobytes() == alone[0].tobytes(), f"row {i}"
        assert scratch[i].tobytes() == alone[0].tobytes(), f"row {i} (out=)"


@settings(max_examples=40, deadline=None)
@given(
    features=st.integers(2, 200),
    outputs=st.integers(1, 40),
    batch=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_operand_layout_does_not_change_the_bits(features, outputs, batch, seed):
    # a BLAS kernel picks its loop by layout, so the helper makes both
    # operands contiguous: a strided row (the interpreter's one-row
    # conv window), a padded or Fortran-ordered weight (Conv1d's
    # transposed kernel) give the contiguous operands' bits
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((features, outputs))
    x = rng.standard_normal((batch, features))
    expected = invariant_matmul(x, w).tobytes()

    strided_rows = np.asfortranarray(x)
    padded_w = np.zeros((features, outputs + 5))
    padded_w[:, :outputs] = w
    for a, b in (
        (strided_rows, w),
        (x, padded_w[:, :outputs]),
        (x, np.asfortranarray(w)),
        (strided_rows, np.asfortranarray(w)),
    ):
        assert invariant_matmul(a, b).tobytes() == expected
