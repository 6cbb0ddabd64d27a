"""Gathered sparse fields: a schema that carries live positions only."""

import hashlib

import numpy as np
import pytest

from repro.apps import AMGApplication, CGApplication
from repro.extract import SchemaMismatchError, build_schema
from repro.sparse import COOMatrix, CSRMatrix, from_dense


def random_sparse(rng, shape=(5, 7), density=0.3):
    return rng.random(shape) * (rng.random(shape) < density) + 0.0


def gathered_schema(example, rows):
    """Schema of ``example`` gathered over the flattened ``rows``."""
    schema = build_schema(list(example), example)
    x = np.stack([schema.flatten(r) for r in rows])
    return schema, *schema.gathered(x)


class TestGatherFlatten:
    @pytest.mark.parametrize("fmt", ["csr", "csc", "coo"])
    def test_bit_equal_to_dense_gather(self, rng, fmt):
        dense = random_sparse(rng)
        example = {"m": from_dense(dense, fmt), "v": rng.random(3)}
        _, schema, columns = gathered_schema(example, [example])
        f = schema.field("m")
        assert f.live == tuple(np.flatnonzero(dense.ravel()))
        assert np.array_equal(columns[: f.size], f.live)
        for _ in range(5):
            values = dense * (1.0 + rng.standard_normal(dense.shape))
            vec = schema.flatten({"m": from_dense(values, fmt), "v": example["v"]})
            expected = values.ravel()[np.array(f.live)]
            assert vec[f.slice].tobytes() == expected.tobytes()
            assert vec[schema.field("v").slice].tobytes() == example["v"].tobytes()

    def test_never_calls_to_dense(self, rng, monkeypatch):
        example = {"m": from_dense(random_sparse(rng), "csr")}
        full, schema, _ = gathered_schema(example, [example])

        def refuse(self):
            raise AssertionError("to_dense called")

        monkeypatch.setattr(CSRMatrix, "to_dense", refuse)
        schema.flatten(example)
        full.flatten(example)

    def test_union_of_samples_is_live(self, rng):
        a = np.zeros((3, 3))
        a[0, 1] = 1.0
        b = np.zeros((3, 3))
        b[2, 0] = 2.0
        rows = [{"m": from_dense(a, "csr")}, {"m": from_dense(b, "csr")}]
        _, schema, _ = gathered_schema(rows[0], rows)
        assert schema.field("m").live == (1, 6)
        assert schema.total_size == 2

    def test_field_no_sample_filled(self, rng):
        example = {"m": from_dense(np.zeros((3, 3)), "csr"), "v": rng.random(2)}
        _, schema, columns = gathered_schema(example, [example])
        assert schema.field("m").live == () and schema.total_size == 2
        assert list(columns) == [9, 10]
        assert schema.flatten(example).tobytes() == example["v"].tobytes()
        with pytest.raises(SchemaMismatchError):
            schema.flatten(dict(example, m=from_dense(np.eye(3), "csr")))

    def test_entry_outside_live_set_rejected(self, rng):
        dense = random_sparse(rng)
        example = {"m": from_dense(dense, "csr")}
        _, schema, _ = gathered_schema(example, [example])
        dead = int(np.flatnonzero(dense.ravel() == 0.0)[0])
        moved = dense.copy()
        moved.flat[dead] = 0.5
        with pytest.raises(SchemaMismatchError, match="outside"):
            schema.flatten({"m": from_dense(moved, "csr")})
        with pytest.raises(SchemaMismatchError, match="outside"):
            schema.flatten({"m": moved})        # a dense value, same rule

    def test_stored_zero_outside_live_set_accepted(self, rng):
        dense = random_sparse(rng)
        example = {"m": from_dense(dense, "coo")}
        _, schema, _ = gathered_schema(example, [example])
        coo = example["m"]
        dead = int(np.flatnonzero(dense.ravel() == 0.0)[0])
        padded = COOMatrix(
            np.append(coo.row, dead // dense.shape[1]),
            np.append(coo.col, dead % dense.shape[1]),
            np.append(coo.data, 0.0),
            coo.shape,
        )
        assert schema.flatten({"m": padded}).tobytes() == schema.flatten(example).tobytes()

    def test_shape_mismatch_is_a_schema_mismatch(self, rng):
        example = {"m": from_dense(random_sparse(rng), "csr"), "v": rng.random(3)}
        _, schema, _ = gathered_schema(example, [example])
        with pytest.raises(SchemaMismatchError):
            schema.flatten(dict(example, m=from_dense(random_sparse(rng, (4, 7)), "csr")))
        with pytest.raises(SchemaMismatchError):
            schema.flatten(dict(example, v=rng.random(4)))

    def test_unflatten_scatters_live_positions(self, rng):
        dense = random_sparse(rng)
        example = {"m": from_dense(dense, "csr")}
        _, schema, _ = gathered_schema(example, [example])
        back = schema.unflatten(schema.flatten(example))
        assert np.array_equal(back["m"].to_dense(), dense)

    def test_manifest_record(self, rng):
        dense = random_sparse(rng)
        example = {"m": from_dense(dense, "csr"), "v": rng.random(3), "s": 2.0}
        _, schema, _ = gathered_schema(example, [example])
        live = np.flatnonzero(dense.ravel()).astype("<i8")
        assert schema.manifest_record() == {
            "dense_width": 4,
            "live_positions": {
                "m": {
                    "count": live.size,
                    "sha256": hashlib.sha256(live.tobytes()).hexdigest(),
                }
            },
        }


@pytest.mark.parametrize(
    "app_cls, width",
    [(AMGApplication, 156 + 3 * 36 + 2), (CGApplication, 314 + 2 * 24 + 2)],
)
def test_fresh_problems_gather_bit_equal(app_cls, width):
    """On problems the acquisition never saw, the gathered row is the dense
    unroll at the live positions, bit for bit."""
    app = app_cls()
    full = app.acquire(n_samples=12, rng=np.random.default_rng(0))
    acq = full.gathered()
    assert acq.input_dim == width
    assert acq.input_schema.field("A").size == app.matrix.nnz
    for problem in app.generate_problems(6, np.random.default_rng(41)):
        vec = acq.input_schema.flatten(problem)
        for f in acq.input_schema.fields:
            value = problem[f.name]
            if f.live is not None:
                expected = value.to_dense().ravel()[np.array(f.live)]
            else:
                expected = np.asarray(value, dtype=np.float64).ravel()
            assert vec[f.slice].tobytes() == expected.tobytes(), f.name
