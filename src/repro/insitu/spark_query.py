"""Chained in-situ lineage queries over compressed tables, in Spark (§V).

Spark executes the θ-join kernel; it does not re-express it. A chain
starts from the kernel's query matrix (``theta_join.query_matrix``,
which also refuses a path whose axis counts do not line up, before any
Spark job runs), and each step:

1. filters the stored table on the query's hull over the primary key axis
   (``store.overlapping``), so a Parquet store prunes row groups;
2. runs ``theta_join.theta_join`` once per partition with ``mapInPandas``
   — range join, de-relativization and merge, with the step's small int64
   query matrix shipped in the closure — after coalescing the scan to
   at most one partition per core;
3. for an intermediate step, collects the result and merges it on the
   driver with ``theta_join.merge_intervals`` (the merge needs all rows);
   that matrix is the next step's query, the paper's Q'.

The last step's DataFrame is returned uncollected. Its plan is a filtered
scan and one ``mapInPandas``: no shuffle. The query never decompresses a
lineage table. The kernel functions are looked up on the ``theta_join``
module at call time, as ``chain_query`` does.
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
    q: np.ndarray, schema: LineageSchema, batches: Iterator[pd.DataFrame]
) -> Iterator[pd.DataFrame]:
    """One θ-join over a whole partition (all of its Arrow batches, whose
    columns are ``interval_columns(schema)``).

    Module-level and bound with ``functools.partial``, so it pickles by
    reference and each worker runs its own import of the kernel.
    """
    tables = [batch.to_numpy(np.int64) for batch in batches]
    if tables:
        out = tj.theta_join(q, np.concatenate(tables), schema.n_key)
        yield pd.DataFrame(out, columns=value_columns(schema))


def _step(spark: SparkSession, cdf: DataFrame, q: np.ndarray, schema: LineageSchema) -> DataFrame:
    """One θ-join step as a filtered scan plus a per-partition kernel.

    The scan reads the table's ``interval_columns`` by name. Every Python
    task has a fixed cost, and after the hull filter most partitions are
    usually empty, so the scan is coalesced (narrow, no shuffle) to at
    most one partition per core.
    """
    if len(q):
        part = store.overlapping(cdf, schema, q[:, 0].min(), q[:, 1].max())
    else:
        part = cdf.filter(F.lit(False))
    part = part.select(*interval_columns(schema)).coalesce(spark.sparkContext.defaultParallelism)
    out = StructType([StructField(c, LongType(), nullable=False) for c in value_columns(schema)])
    return part.mapInPandas(partial(_kernel, q, schema), out)


def chain_query_spark(
    spark: SparkSession,
    qdf: pd.DataFrame,
    tables: list[tuple[DataFrame, LineageSchema]],
) -> DataFrame:
    """Process a query along a path of Spark-resident compressed tables.

    Same contract as ``theta_join.chain_query``: ``qdf`` holds intervals
    over the first table's key attributes; the result holds intervals
    over the last table's value attributes.
    """
    q = tj.query_matrix(qdf, [schema for _, schema in tables])
    for cdf, schema in tables[:-1]:
        q = tj.merge_intervals(_step(spark, cdf, q, schema).toPandas().to_numpy(np.int64))
    cdf, schema = tables[-1]
    return _step(spark, cdf, q, schema)


def collect_cells(result: DataFrame, cols: list[str]) -> pd.DataFrame:
    """Expand a Spark interval result into distinct cells (driver-side)."""
    return tj.intervals_to_cells(result.toPandas(), cols)
