"""Spark-parallel ProvRC benchmark: compression of a 360k-row aggregate
lineage relation (``provrc.chunk`` per hash partition of the primary
key, one hash exchange, ``provrc.stitch`` on the driver) and the Spark
in-situ query path end to end, each next to the pandas kernel on the
same relation or table. Measures the paper's "highly parallelizable"
claim against the single-process kernel, and the fixed cost of the two
kinds of Spark job a chain query runs: a JVM-only collect of a later
table and the one Python (``mapInPandas``) job."""
import pandas as pd

from repro.capture import patterns as pt
from repro.core import provrc
from repro.core.model import backward_schema
from repro.core.spark_provrc import compress_spark
from repro.insitu.spark_query import chain_query_spark, collect_cells
from repro.insitu.theta_join import chain_query, intervals_to_cells


def test_spark_compress_aggregate(benchmark, spark):
    rel = pt.reduce_axis((600, 600), 1)
    sdf = spark.createDataFrame(rel)
    schema = backward_schema(1, 2)

    def run():
        return compress_spark(sdf, schema, n_buckets=32).count()

    n = benchmark.pedantic(run, rounds=1, iterations=1)
    assert n == 1  # full aggregate pattern collapses to a single row


def test_kernel_compress_aggregate(benchmark):
    """The same relation as above, through the pandas kernel."""
    rel = pt.reduce_axis((600, 600), 1)
    schema = backward_schema(1, 2)

    cdf = benchmark.pedantic(lambda: provrc.compress(rel, schema), rounds=1, iterations=1)
    assert len(cdf) == 1


def test_spark_insitu_query_end_to_end(benchmark, spark):
    rel = pt.reduce_axis((600, 600), 1)
    schema = backward_schema(1, 2)
    cdf_s = compress_spark(spark.createDataFrame(rel), schema, n_buckets=32)
    cdf_s = cdf_s.cache()
    cdf_s.count()
    q = provrc.encode_query(pd.DataFrame({"b0": list(range(50, 80))}), ["b0"])

    def run():
        return collect_cells(chain_query_spark(spark, q, [(cdf_s, schema)]), ["a0", "a1"])

    cells = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(cells) == 30 * 600


def test_kernel_insitu_query_end_to_end(benchmark):
    """The same query and table as above, through the pandas kernel."""
    rel = pt.reduce_axis((600, 600), 1)
    schema = backward_schema(1, 2)
    cdf = provrc.compress(rel, schema)
    q = provrc.encode_query(pd.DataFrame({"b0": list(range(50, 80))}), ["b0"])

    def run():
        return intervals_to_cells(chain_query(q, [(cdf, schema)]), ["a0", "a1"])

    cells = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(cells) == 30 * 600


def _one_row(spark):
    return spark.createDataFrame(pd.DataFrame({"x": [0]}))


def test_spark_jvm_only_job(benchmark, spark):
    """A 1-row table through Arrow ``toPandas``: no Python worker runs."""
    df = _one_row(spark)
    out = benchmark.pedantic(df.toPandas, rounds=12, iterations=1, warmup_rounds=1)
    assert len(out) == 1


def test_spark_python_job(benchmark, spark):
    """The same table through an identity ``mapInPandas``, on warm workers."""
    df = _one_row(spark)
    df = df.mapInPandas(lambda batches: batches, df.schema)
    out = benchmark.pedantic(df.toPandas, rounds=12, iterations=1, warmup_rounds=1)
    assert len(out) == 1
