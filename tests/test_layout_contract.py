"""One finalized layout: the kernel, the file format, Spark and the
Parquet store all return ``interval_columns(schema)``, in that order, as
int64, with equal rows.
"""
import pytest
from pyspark.sql.types import LongType

from repro.capture import patterns as pt
from repro.core import provrc, storage
from repro.core.model import backward_schema
from repro.core.spark_provrc import collect_compressed, compress_spark, interval_columns
from repro.insitu import store


def _rows(cdf):
    return sorted(map(tuple, cdf.to_numpy().tolist()))


def test_kernel_file_and_spark_share_one_layout(spark, tmp_path):
    rel = pt.conv2d(12, 12, 3, 3)
    schema = backward_schema(2, 2)
    cols = interval_columns(schema)
    assert cols == [
        "b0_lo", "b0_hi", "b1_lo", "b1_hi",
        "a0_rep", "a0_lo", "a0_hi", "a1_rep", "a1_lo", "a1_hi",
    ]

    kernel = provrc.compress(rel, schema)
    storage.write(kernel, schema, tmp_path / "t.prc.gz", gzipped=True)
    stored, stored_schema = storage.read(tmp_path / "t.prc.gz")
    assert stored_schema == schema
    for n in (1, 4, 8, None):  # None: the session's defaultParallelism
        sdf = compress_spark(spark.createDataFrame(rel), schema, n_buckets=n)
        assert all(not f.nullable for f in sdf.schema.fields)
        # Spark runs the kernel's own passes: the same rows in the same order.
        assert collect_compressed(sdf).equals(kernel)
    for cdf in (kernel, stored):
        assert list(cdf.columns) == cols
        assert all(str(t) == "int64" for t in cdf.dtypes)
    # Both representations occur, so the rep columns are exercised.
    assert set(kernel["a0_rep"]) == {0, 1}
    assert _rows(stored) == _rows(kernel)

    # The store writes exactly the layout, and refuses a frame with the
    # columns reordered, another integer width or an extra column.
    store.write_store(sdf, schema, tmp_path / "st")
    written = spark.read.parquet(str(tmp_path / "st" / "data"))
    assert written.columns == cols
    assert all(f.dataType == LongType() for f in written.schema.fields)
    parquet, parquet_schema = store.open_store(spark, tmp_path / "st")
    assert parquet_schema == schema and parquet.columns == cols
    assert _rows(parquet.toPandas()) == _rows(kernel)
    for given in (kernel[cols[::-1]], kernel.astype("int32"), kernel.assign(extra=0)):
        with pytest.raises(ValueError, match="interval_columns"):
            store.write_store(spark.createDataFrame(given), schema, tmp_path / "bad")
    assert not (tmp_path / "bad").exists()
