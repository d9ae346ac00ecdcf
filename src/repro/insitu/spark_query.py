"""Chained in-situ lineage queries over compressed tables, in Spark (§V).

Spark executes the θ-join kernel; it does not re-express it. Each
step of a chain:

1. filters the stored table on the query's hull over the primary key axis
   (``store.overlapping``), so a Parquet store prunes row groups;
2. runs ``theta_join.theta_join`` once per partition with ``mapInPandas``
   — range join, de-relativization and merge, with the step's small
   encoded query shipped in the closure — after coalescing the scan to
   at most one partition per core;
3. for an intermediate step, collects the result and merges it on the
   driver (``merge_intervals`` needs all rows); that is the next step's
   query, the paper's Q'.

The last step's DataFrame is returned uncollected. Its plan is a filtered
scan and one ``mapInPandas``: no shuffle. The query never decompresses a
lineage table.
"""
from __future__ import annotations

from functools import partial
from typing import Iterator

import pandas as pd
from pyspark.sql import DataFrame, SparkSession, functions as F
from pyspark.sql.types import LongType, StructField, StructType

from repro.core import ranges as rg
from repro.core.model import LineageSchema
from repro.core.provrc import value_columns
from repro.insitu import store
from repro.insitu.theta_join import (
    as_next_query,
    intervals_to_cells,
    merge_intervals,
    theta_join,
)


def _kernel(
    q: pd.DataFrame, schema: LineageSchema, batches: Iterator[pd.DataFrame]
) -> Iterator[pd.DataFrame]:
    """One θ-join over a whole partition (all of its Arrow batches).

    Module-level and bound with ``functools.partial``, so it pickles by
    reference and each worker runs its own import of the kernel.
    """
    frames = list(batches)
    if frames:
        yield theta_join(q, pd.concat(frames, ignore_index=True), schema)


def _step(
    spark: SparkSession, cdf: DataFrame, q: pd.DataFrame, schema: LineageSchema
) -> DataFrame:
    """One θ-join step as a filtered scan plus a per-partition kernel.

    Every Python task has a fixed cost, and after the hull filter most
    partitions are usually empty, so the scan is coalesced (narrow, no
    shuffle) to at most one partition per core.
    """
    if q.empty:
        part = cdf.filter(F.lit(False))
    else:
        k = schema.key_cols[0]
        part = store.overlapping(cdf, schema, q[rg.lo(k)].min(), q[rg.hi(k)].max())
    part = part.coalesce(spark.sparkContext.defaultParallelism)
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
    q = qdf
    for (cdf, schema), (_, nxt) in zip(tables, tables[1:]):
        part = _step(spark, cdf, q, schema).toPandas()
        q = as_next_query(merge_intervals(part, list(schema.val_cols)), schema, nxt)
    cdf, schema = tables[-1]
    return _step(spark, cdf, q, schema)


def collect_cells(result: DataFrame, cols: list[str]) -> pd.DataFrame:
    """Expand a Spark interval result into distinct cells (driver-side)."""
    return intervals_to_cells(result.toPandas(), cols)
