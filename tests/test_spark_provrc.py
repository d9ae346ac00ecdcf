"""Spark-parallel ProvRC: the same table as the pandas kernel (row for
row, in order, for 1, 4 and 8 hash partitions of the primary key),
losslessness through the Spark path, and the DuckDB oracle on query
results.
"""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql.types import LongType, StructField, StructType

from repro.capture import patterns as pt
from repro.core import provrc
from repro.core.model import backward_schema
from repro.core.spark_provrc import collect_compressed, compress_spark
from repro.insitu.theta_join import chain_query, intervals_to_cells
from repro.oracle import assert_equivalent


def _compress_like_kernel(spark, rel, schema, n_buckets=(1, 4, 8), fields=None):
    """``compress_spark`` at each partition count; every result must equal
    ``provrc.compress`` exactly (same rows, same order, int64)."""
    want = provrc.compress(rel, schema)
    sdf = spark.createDataFrame(rel, fields)
    for n in n_buckets:
        got = collect_compressed(compress_spark(sdf, schema, n_buckets=n))
        pd.testing.assert_frame_equal(got, want)
    return got


@pytest.mark.parametrize(
    "rel_fn,n_out,n_in",
    [
        (lambda: pt.identity((40, 25)), 2, 2),
        (lambda: pt.reduce_axis((40, 25), 1), 1, 2),
        (lambda: pt.cumulative((50,), 0), 1, 1),
        (
            lambda: pd.DataFrame(
                {
                    "b0": np.arange(300),
                    "a0": np.random.default_rng(0).permutation(300),
                }
            ),
            1,
            1,
        ),
    ],
    ids=["elementwise", "aggregate", "cumsum", "sort-like"],
)
def test_spark_matches_pandas_kernel(spark, rel_fn, n_out, n_in):
    _compress_like_kernel(spark, rel_fn(), backward_schema(n_out, n_in))


def test_spark_roundtrip_lossless(spark):
    g = np.random.default_rng(3)
    rel = pd.DataFrame(
        {
            "b0": g.integers(0, 30, 500),
            "a0": g.integers(0, 30, 500),
            "a1": g.integers(0, 10, 500),
        }
    ).drop_duplicates()
    schema = backward_schema(1, 2)
    cdf = _compress_like_kernel(spark, rel, schema)
    back = provrc.decompress(cdf, schema)
    expect = rel.sort_values(["b0", "a0", "a1"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(back, expect, check_dtype=False)


def test_query_over_spark_compressed_matches_duckdb(spark):
    """End-to-end: Spark compression -> kernel θ-join -> DuckDB oracle."""
    rel = pt.reduce_axis((60, 8), 1)  # aggregate lineage
    schema = backward_schema(1, 2)
    cdf = _compress_like_kernel(spark, rel, schema)
    q_cells = pd.DataFrame({"b0": [5, 6, 7, 30]})
    q = provrc.encode_query(q_cells, ["b0"])
    got_cells = intervals_to_cells(chain_query(q, [(cdf, schema)]), ["a0", "a1"])
    got_spark = spark.createDataFrame(got_cells)
    assert_equivalent(
        got_spark,
        "SELECT DISTINCT a0, a1 FROM rel WHERE b0 IN (5, 6, 7, 30)",
        rel=rel,
    )


def test_partition_is_chunked_whole_not_per_arrow_batch(spark):
    """A partition reaches ``mapInPandas`` in Arrow batches; with 50-row
    batches each primary-key value's 116-174 rows span several, and chunking
    each batch alone would leave the b1 pass's merges cut at their edges."""
    key = "spark.sql.execution.arrow.maxRecordsPerBatch"
    old = spark.conf.get(key)
    spark.conf.set(key, "50")
    try:
        _compress_like_kernel(spark, pt.conv2d(20, 20, 3, 3), backward_schema(2, 2), (2,))
    finally:
        spark.conf.set(key, old)


def test_fewer_primary_key_values_than_ranges(spark):
    rel = pt.reduce_axis((3, 40), 1)  # 3 output cells, 8 partitions asked for
    cdf = _compress_like_kernel(spark, rel, backward_schema(1, 2), (8,))
    assert len(cdf) == 1


def test_empty_relation(spark):
    schema = backward_schema(1, 2)
    rel = pd.DataFrame({c: pd.Series([], dtype="int64") for c in schema.full_cols})
    fields = StructType([StructField(c, LongType()) for c in schema.full_cols])
    cdf = _compress_like_kernel(spark, rel, schema, (4,), fields)
    assert cdf.empty
