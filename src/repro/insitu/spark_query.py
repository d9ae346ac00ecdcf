"""Chained in-situ lineage queries over compressed tables, in Spark (§V).

Spark executes the θ-join kernel; it does not re-express it. A chain
starts from the kernel's query matrix (``theta_join.query_matrix``,
which also refuses a path whose axis counts do not line up, before any
Spark job runs) and runs as one Python job:

1. the first table is filtered on the query's hull over its primary key
   axis (``store.overlapping``), so a Parquet store prunes row groups,
   and the scan is coalesced (narrow, no shuffle) to at most one
   partition per core;
2. tables 2..k are collected once each, by a JVM-only job (their
   ``interval_columns`` through Arrow ``toPandas``), into the int64
   matrices ``chain_query`` reads;
3. one ``mapInPandas`` task per partition runs every step: ``theta_join``
   (range join, de-relativization and merge) of the small int64 query
   matrix with the partition's rows, then ``theta_join`` of that result
   with each later table in turn. The query matrix and the later tables
   travel in the kernel's ``functools.partial`` closure.

A k-table chain therefore costs k - 1 JVM-only jobs and one Python job,
whose start-up (a few hundred milliseconds even on warm workers) is the
fixed cost of a Spark query. The trade-off, as for ``spark_provrc``'s
``stitch``: tables 2..k must fit in driver and task memory. They are
compressed tables, usually a few rows (one in the benchmark's chain).

The driver merges nothing. A merge only reduces rows and never changes
the cell set, so merging per partition gives the chain's cells, only
possibly in more rows than ``chain_query`` returns; ``collect_cells``
(``intervals_to_cells``) drops the duplicates across partitions. The
returned DataFrame is uncollected: a filtered scan and one
``mapInPandas``, no shuffle. The query never decompresses a lineage
table. The kernel functions are looked up on the ``theta_join`` module
at call time, as ``chain_query`` does; they run in Python workers, so a
tracer that wraps them on the driver does not see the per-partition
θ-joins.
"""
from __future__ import annotations

from functools import partial
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, functions as F
from pyspark.sql.types import LongType, StructField, StructType

from repro.core.model import LineageSchema
from repro.core.provrc import interval_columns, value_columns
from repro.insitu import store
from repro.insitu import theta_join as tj


def _kernel(
    q: np.ndarray,
    n_key: int,
    later: list[tuple[np.ndarray, int]],
    cols: list[str],
    batches: Iterator[pd.DataFrame],
) -> Iterator[pd.DataFrame]:
    """Every θ-join step of a chain over one partition of the first table
    (all of its Arrow batches, whose columns are its ``interval_columns``,
    with ``n_key`` key attributes), then over each ``(matrix, n_key)`` of
    ``later``; the result is named ``cols``.

    Module-level and bound with ``functools.partial``, so it pickles by
    reference and each worker runs its own import of the kernel.
    """
    parts = [batch.to_numpy(np.int64) for batch in batches]
    if parts:
        q = tj.theta_join(q, np.concatenate(parts), n_key)
        for table, k in later:
            q = tj.theta_join(q, table, k)
        yield pd.DataFrame(q, columns=cols)


def _scan(spark: SparkSession, cdf: DataFrame, q: np.ndarray, schema: LineageSchema) -> DataFrame:
    """The first table's partitions the kernel runs on: its rows that
    overlap the query's primary-key hull, its ``interval_columns`` by
    name, coalesced to at most one partition per core (every Python task
    has a fixed cost, and after the hull filter most partitions are
    usually empty)."""
    if len(q):
        cdf = store.overlapping(cdf, schema, q[:, 0].min(), q[:, 1].max())
    else:
        cdf = cdf.filter(F.lit(False))
    return cdf.select(*interval_columns(schema)).coalesce(spark.sparkContext.defaultParallelism)


def chain_query_spark(
    spark: SparkSession,
    qdf: pd.DataFrame,
    tables: list[tuple[DataFrame, LineageSchema]],
) -> DataFrame:
    """Process a query along a path of Spark-resident compressed tables.

    Same contract as ``theta_join.chain_query``: ``qdf`` holds intervals
    over the first table's key attributes; the result holds intervals
    over the last table's value attributes, with the same cells.
    """
    q = tj.query_matrix(qdf, [schema for _, schema in tables])
    later = [
        (cdf.select(*interval_columns(s)).toPandas().to_numpy(np.int64), s.n_key)
        for cdf, s in tables[1:]
    ]
    cdf, schema = tables[0]
    cols = value_columns(tables[-1][1])
    out = StructType([StructField(c, LongType(), nullable=False) for c in cols])
    return _scan(spark, cdf, q, schema).mapInPandas(
        partial(_kernel, q, schema.n_key, later, cols), out
    )


def collect_cells(result: DataFrame, cols: list[str]) -> pd.DataFrame:
    """Expand a Spark interval result into distinct cells (driver-side)."""
    return tj.intervals_to_cells(result.toPandas(), cols)
