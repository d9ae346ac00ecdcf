"""Round-trip and size-ordering tests for all storage formats (§VII.B)."""
import numpy as np
import pandas as pd
import pytest

from repro.baselines.formats import (
    read_array,
    read_parquet,
    read_raw,
    write_array,
    write_parquet,
    write_raw,
)
from repro.baselines.turborc import read_turborc, write_turborc
from repro.capture import patterns as pt
from repro.core import provrc, storage
from repro.core.model import backward_schema, forward_schema, schema_of
from repro.core.provrc import interval_columns
from repro.core.ranges import rep


@pytest.fixture()
def elementwise_rel():
    """1:1 lineage of a 100x40 element-wise op — highly structured."""
    rows = [(i, j, i, j) for i in range(100) for j in range(40)]
    return pd.DataFrame(rows, columns=["b0", "b1", "a0", "a1"])


@pytest.fixture()
def random_rel():
    g = np.random.default_rng(0)
    return pd.DataFrame(
        {
            "b0": np.arange(4000),
            "a0": g.permutation(4000),
        }
    )


class TestBaselineRoundTrips:
    def test_raw_csv(self, tmp_path, elementwise_rel):
        p = tmp_path / "r.csv"
        size = write_raw(elementwise_rel, p)
        assert size > 0
        back = read_raw(p)
        pd.testing.assert_frame_equal(back, elementwise_rel, check_dtype=False)

    def test_array_npy(self, tmp_path, elementwise_rel):
        p = tmp_path / "r.npy"
        write_array(elementwise_rel, p)
        back = read_array(p, columns=list(elementwise_rel.columns))
        pd.testing.assert_frame_equal(back, elementwise_rel, check_dtype=False)

    @pytest.mark.parametrize("codec", ["snappy", "gzip"])
    def test_parquet(self, tmp_path, elementwise_rel, codec):
        p = tmp_path / "r.parquet"
        write_parquet(elementwise_rel, p, codec=codec)
        back = read_parquet(p)
        pd.testing.assert_frame_equal(back, elementwise_rel, check_dtype=False)

    def test_turborc(self, tmp_path, elementwise_rel, random_rel):
        for name, rel in [("e", elementwise_rel), ("r", random_rel)]:
            p = tmp_path / f"{name}.trc"
            write_turborc(rel, p)
            back = read_turborc(p)
            pd.testing.assert_frame_equal(back, rel, check_dtype=False)


class TestProvRCStorage:
    @pytest.mark.parametrize("gzipped", [False, True])
    def test_roundtrip_through_disk(self, tmp_path, elementwise_rel, gzipped):
        schema = backward_schema(2, 2)
        cdf = provrc.compress(elementwise_rel, schema)
        p = tmp_path / "l.prc"
        storage.write(cdf, schema, p, gzipped=gzipped)
        back_cdf, back_schema = storage.read(p)
        assert back_schema == schema
        full = provrc.decompress(back_cdf, back_schema)
        expect = elementwise_rel.sort_values(["b0", "b1", "a0", "a1"]).reset_index(
            drop=True
        )
        pd.testing.assert_frame_equal(full, expect, check_dtype=False)

    def test_gzipped_write_is_reproducible(self, tmp_path, random_rel):
        """The gzip header's MTIME field is zero, so writing one table
        twice, at any two times, gives the same bytes."""
        schema = backward_schema(1, 1)
        cdf = provrc.compress(random_rel, schema)
        paths = [tmp_path / "1.prc.gz", tmp_path / "2.prc.gz"]
        for p in paths:
            storage.write(cdf, schema, p, gzipped=True)
        first, second = (p.read_bytes() for p in paths)
        assert first[4:8] == bytes(4)
        assert first == second

    def test_unstructured_roundtrip(self, tmp_path, random_rel):
        schema = backward_schema(1, 1)
        cdf = provrc.compress(random_rel, schema)
        p = tmp_path / "l.prc"
        storage.write(cdf, schema, p, gzipped=True)
        back_cdf, back_schema = storage.read(p)
        full = provrc.decompress(back_cdf, back_schema)
        expect = random_rel.sort_values(["b0", "a0"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(full, expect, check_dtype=False)

    def test_structured_lineage_size_ordering(self, tmp_path, elementwise_rel):
        """The paper's headline: ProvRC crushes baselines on structured ops."""
        schema = backward_schema(2, 2)
        cdf = provrc.compress(elementwise_rel, schema)
        assert len(cdf) == 1
        s_provrc = storage.write(cdf, schema, tmp_path / "l.prc")
        s_raw = write_raw(elementwise_rel, tmp_path / "r.csv")
        s_parquet = write_parquet(elementwise_rel, tmp_path / "r.parquet")
        s_turbo = write_turborc(elementwise_rel, tmp_path / "r.trc")
        assert s_provrc < s_parquet / 10
        assert s_provrc < s_turbo  # margin grows with scale (Table VII)
        assert s_provrc < s_raw / 100


@pytest.mark.parametrize(
    "schema", [backward_schema(1, 2), forward_schema(1, 2)], ids=["backward", "forward"]
)
def test_schema_survives_the_file(schema):
    """A file declares (direction, n_key, n_val); with n_key != n_val a
    swapped rebuild of the schema cannot pass."""
    cdf = provrc.compress(pt.reduce_axis((6, 5), 1), schema)
    assert storage.deserialize(storage.serialize(cdf, schema))[1] == schema
    assert schema_of(schema.direction, schema.n_key, schema.n_val) == schema


def test_schema_of_rejects_unknown_direction():
    with pytest.raises(ValueError, match="unknown lineage direction 'sideways'"):
        schema_of("sideways", 1, 1)


def _bad_rep_code(cdf):
    """A 2-key file whose a0 rep code (9) names no key attribute."""
    return storage.serialize(cdf.assign(**{rep("a0"): 9}), backward_schema(2, 2))


@pytest.mark.parametrize(
    "corrupt,match",
    [
        (lambda buf, cdf: b"XXXX" + buf[4:], "not a ProvRC file"),
        (lambda buf, cdf: buf[:4] + b"\x03" + buf[5:], "unsupported ProvRC file version 3"),
        (lambda buf, cdf: buf[:10], "truncated ProvRC file: header"),
        (lambda buf, cdf: buf[:-1], "truncated ProvRC file: stream"),
        (lambda buf, cdf: buf + b"\x00", "1 trailing bytes"),
        (lambda buf, cdf: _bad_rep_code(cdf), "representation code 9, but the file has 2 key"),
    ],
    ids=["bad-magic", "bad-version", "short-header", "truncated", "trailing", "rep-out-of-range"],
)
def test_deserialize_rejects_malformed(corrupt, match):
    schema = backward_schema(2, 2)
    cdf = provrc.compress(pt.conv2d(10, 10, 3, 3), schema)
    buf = storage.serialize(cdf, schema)
    back, _ = storage.deserialize(buf)  # the intact file reads back
    assert len(back) == len(cdf) == 9
    with pytest.raises(ValueError, match=match):
        storage.deserialize(corrupt(buf, cdf))


def _one_row(b0_lo: int, b0_hi: int) -> pd.DataFrame:
    """A finalized 1-key, 1-value table of one row, ``a0`` absolute."""
    return pd.DataFrame(
        [[b0_lo, b0_hi, 0, 0, 3]], columns=interval_columns(backward_schema(1, 1))
    )


@pytest.mark.parametrize("b0", [2**31 - 1, -(2**31)])
def test_int32_extremes_roundtrip(b0):
    schema = backward_schema(1, 1)
    cdf = _one_row(b0, b0)
    back, _ = storage.deserialize(storage.serialize(cdf, schema))
    pd.testing.assert_frame_equal(back, cdf)


@pytest.mark.parametrize(
    "b0_lo,b0_hi,match",
    [
        (2**31 + 5, 2**31 + 5, "stream b0_lo delta holds 2147483653"),
        (0, 2**31, "stream b0_hi width holds 2147483648"),
    ],
    ids=["lo-above-int32", "width-above-int32"],
)
def test_serialize_refuses_values_outside_int32(b0_lo, b0_hi, match):
    with pytest.raises(ValueError, match=match):
        storage.serialize(_one_row(b0_lo, b0_hi), backward_schema(1, 1))
