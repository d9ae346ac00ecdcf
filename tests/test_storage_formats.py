"""Round-trip and size-ordering tests for all storage formats (§VII.B)."""
import gzip
import re

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from repro.baselines.formats import read_array, write_array, write_parquet, write_raw
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
        back = pd.read_csv(p)
        pd.testing.assert_frame_equal(back, elementwise_rel, check_dtype=False)

    def test_array_npy(self, tmp_path, elementwise_rel):
        p = tmp_path / "r.npy"
        write_array(elementwise_rel, p)
        back = read_array(p).set_axis(elementwise_rel.columns, axis=1)
        pd.testing.assert_frame_equal(back, elementwise_rel, check_dtype=False)

    @pytest.mark.parametrize("codec", ["snappy", "gzip"])
    def test_parquet(self, tmp_path, elementwise_rel, codec):
        p = tmp_path / "r.parquet"
        write_parquet(elementwise_rel, p, codec=codec)
        back = pq.read_table(p).to_pandas()
        pd.testing.assert_frame_equal(back, elementwise_rel, check_dtype=False)

    def test_turborc(self, tmp_path, elementwise_rel, random_rel):
        for name, rel in [("e", elementwise_rel), ("r", random_rel)]:
            p = tmp_path / f"{name}.trc"
            write_turborc(rel, p)
            back = read_turborc(p)
            pd.testing.assert_frame_equal(back, rel, check_dtype=False)

    def test_turborc_roundtrips_the_widest_deltas(self, tmp_path):
        """A zigzagged delta fills the int32 stream at -2**30 and 2**30 - 1."""
        rel = pd.DataFrame({"c": [0, 2**30 - 1, -1, -(2**30) - 1, -2]})
        write_turborc(rel, tmp_path / "w.trc")
        pd.testing.assert_frame_equal(read_turborc(tmp_path / "w.trc"), rel)

    @pytest.mark.parametrize(
        "values",
        [[0, 2**30], [0, 2**31], [5, -(2**31)], [2**30], [-(2**30) - 1]],
        ids=["delta-2^30", "delta-2^31", "delta-below-int32", "first-value", "first-negative"],
    )
    def test_turborc_refuses_values_its_streams_cannot_hold(self, tmp_path, values):
        rel = pd.DataFrame({"a0": [0] * len(values), "b1": values})
        with pytest.raises(ValueError, match="column b1 does not fit int32"):
            write_turborc(rel, tmp_path / "x.trc")


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


def _table(rows) -> pd.DataFrame:
    """A finalized 1-key, 1-value table, one list per row."""
    return pd.DataFrame(rows, columns=interval_columns(backward_schema(1, 1)))


def _at_width(c) -> pd.DataFrame:
    """A 3-row table whose ``a0_lo`` stream is a constant run and whose
    ``a0_hi`` width stream (the file's last) is stored in full, both at
    ``2**c`` bytes per value: they hold that width's minimum and maximum."""
    top = 2 ** (8 * 2**c - 1) - 1
    return _table([[i, i, 0, -top - 1, -top - 1 + w] for i, w in enumerate([0, 1, top])])


def _cut_last_stream(c):
    """``_at_width(c)``'s file, one byte short of its last stream."""
    return storage.serialize(_at_width(c), backward_schema(1, 1))[:-1]


@pytest.mark.parametrize(
    "corrupt,match",
    [
        (lambda buf, cdf: b"XXXX" + buf[4:], "not a ProvRC file"),
        (lambda buf, cdf: buf[:4] + b"\x02" + buf[5:], "unsupported ProvRC file version 2"),
        (lambda buf, cdf: buf[:10], "truncated ProvRC file: header"),
        (lambda buf, cdf: buf[:-1], "truncated ProvRC file: stream"),
        (lambda buf, cdf: buf + b"\x00", "1 trailing bytes"),
        (lambda buf, cdf: _bad_rep_code(cdf), "representation code 9, but the file has 2 key"),
        (lambda buf, cdf: buf[:16] + b"\x02" + buf[17:], "bad stream flag 2 at byte 16"),
        (lambda buf, cdf: buf[:16] + b"\x40" + buf[17:], "unknown width code 4 at byte 16"),
        *(
            (lambda buf, cdf, c=c: _cut_last_stream(c), f"needs {3 * 2**c} bytes, {3 * 2**c - 1} left")
            for c in range(4)
        ),
    ],
    ids=[
        "bad-magic", "bad-version", "short-header", "truncated", "trailing", "rep-out-of-range",
        "bad-kind", "unknown-width-code", "truncated-i1", "truncated-i2", "truncated-i4", "truncated-i8",
    ],
)
def test_deserialize_rejects_malformed(corrupt, match):
    """The bad-version case is a version-2 header: v3 reads v3 only."""
    schema = backward_schema(2, 2)
    cdf = provrc.compress(pt.conv2d(10, 10, 3, 3), schema)
    buf = storage.serialize(cdf, schema)
    back, _ = storage.deserialize(buf)  # the intact file reads back
    assert len(back) == len(cdf) == 9
    with pytest.raises(ValueError, match=match):
        storage.deserialize(corrupt(buf, cdf))


@pytest.mark.parametrize("c", range(4), ids=["i1", "i2", "i4", "i8"])
def test_every_width_roundtrips_full_and_constant(c):
    cdf = _at_width(c)
    buf = storage.serialize(cdf, backward_schema(1, 1))
    # Header, the b0 delta stream [0, 1, 1] in full at one byte, the b0
    # width and a0 rep streams as one-byte constants, then a0_lo (one
    # value) and the a0 width stream (three values) at 2**c bytes.
    assert len(buf) == 16 + 4 + 2 + 2 + (1 + 2**c) + (1 + 3 * 2**c)
    back, _ = storage.deserialize(buf)
    pd.testing.assert_frame_equal(back, cdf)


@pytest.mark.parametrize("b0", [2**31 - 1, -(2**31)])
def test_int32_extremes_roundtrip(b0):
    cdf = _table([[b0, b0, 0, 0, 3]])
    back, _ = storage.deserialize(storage.serialize(cdf, backward_schema(1, 1)))
    pd.testing.assert_frame_equal(back, cdf)


@pytest.mark.parametrize(
    "b0_lo,b0_hi",
    [
        (2**31 + 5, 2**31 + 5),
        (0, 2**31),
        (2**31, 2**31),
        (2**63 - 1, 2**63 - 1),
        (-(2**63 - 1), -(2**63 - 1)),
        (-(2**63 - 1), 0),
    ],
    ids=["lo-above-int32", "width-above-int32", "2^31", "2^63-1", "-(2^63-1)", "width-2^63-1"],
)
def test_values_past_int32_roundtrip(b0_lo, b0_hi):
    """v3 stores a stream at up to 8 bytes per value, so any int64 key
    ``lo`` and any width up to 2**63 - 1 reads back unchanged (-2**31 is
    in ``test_int32_extremes_roundtrip``)."""
    cdf = _table([[b0_lo, b0_hi, 0, 0, 3]])
    back, _ = storage.deserialize(storage.serialize(cdf, backward_schema(1, 1)))
    pd.testing.assert_frame_equal(back, cdf)


@pytest.mark.parametrize(
    "rows,match",
    [
        ([[-(2**63 - 1)] * 2 + [0, 0, 3], [2**63 - 1] * 2 + [0, 0, 3]], "stream b0_lo delta overflows int64"),
        ([[-1, 2**63 - 1, 0, 0, 3]], "stream b0_hi width overflows int64"),
        ([[0, 0, 0, -(2**63), 1]], "stream a0_hi width overflows int64"),
    ],
    ids=["key-delta", "key-width", "value-width"],
)
def test_serialize_refuses_int64_overflow(rows, match):
    with pytest.raises(ValueError, match=match):
        storage.serialize(_table(rows), backward_schema(1, 1))


@pytest.mark.parametrize(
    "corrupt,error",
    [
        (lambda gz: gz[: len(gz) // 2], EOFError),
        (lambda gz: gz[:-8] + bytes([gz[-8] ^ 1]) + gz[-7:], gzip.BadGzipFile),
    ],
    ids=["truncated", "bad-crc"],
)
def test_read_reports_a_corrupt_gzip_file_by_path(tmp_path, random_rel, corrupt, error):
    """A cut or corrupted ProvRC-GZip file raises ``ValueError`` naming
    the path, not gzip's own ``EOFError`` or ``BadGzipFile``."""
    schema = backward_schema(1, 1)
    p = tmp_path / "l.prc.gz"
    storage.write(provrc.compress(random_rel, schema), schema, p, gzipped=True)
    p.write_bytes(corrupt(p.read_bytes()))
    with pytest.raises(ValueError, match=f"corrupt ProvRC-GZip file {re.escape(str(p))}") as info:
        storage.read(p)
    assert isinstance(info.value.__cause__, error)
