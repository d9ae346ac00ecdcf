"""Spark-parallel ProvRC compression (paper §VII.C.2: "ProvRC is highly
parallelizable, so we expect significant performance gains from a
multi-threaded implementation").

Spark executes the kernel's two halves, ``provrc.chunk`` and
``provrc.stitch``; it does not re-express them. The relation is
hash-partitioned on the primary key (``schema.key_cols[0]``) with one
``repartition``, ``chunk`` runs once per whole partition in
``mapInPandas``, and ``stitch`` runs once on the driver over the
collected candidate rows.

The split is exact, not an approximation: every merge that ``chunk``
performs (step 1, which also merges duplicate rows, and every key pass
but the primary key's) happens within a single primary-key value,
because that key is still scalar until its own pass runs, and hash
partitioning keeps equal keys in one partition. Partitions need not hold contiguous key ranges:
only the primary-key pass merges across key values, and ``stitch`` runs
it once over all of them and sorts its input. So after one exchange the
result equals ``provrc.compress`` row for row, in the same order.

Candidate rows travel as the kernel's candidate matrix transposed into
a frame named by ``provrc.candidate_columns`` (doubles, NaN = absent
representation), since Arrow needs names; the driver turns the collected
frame back into the matrix ``stitch`` takes. The driver collects all of
them, so what ``chunk`` leaves must fit in its memory: few rows for
structured lineage, nearly the whole relation for incompressible lineage
such as Sort. The result is the finalized layout shared with the kernel
and the file format, ``interval_columns(schema)`` as non-nullable longs,
collectable into the pandas kernel's table or persisted via
``insitu.store``.
"""
from __future__ import annotations

from functools import partial
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql.types import DoubleType, LongType, StructField, StructType

from repro.core import provrc
from repro.core.model import LineageSchema
from repro.core.provrc import interval_columns


def _chunk(
    schema: LineageSchema, batches: Iterator[pd.DataFrame]
) -> Iterator[pd.DataFrame]:
    """``provrc.chunk`` over a whole partition (all of its Arrow batches:
    a batch boundary may cut a primary-key value's rows apart), as one
    frame named by ``provrc.candidate_columns``.

    Module-level and bound with ``functools.partial``, so it pickles by
    reference and each worker runs its own import of the kernel.
    """
    frames = list(batches)
    if frames:
        m = provrc.chunk(pd.concat(frames, ignore_index=True), schema)
        yield pd.DataFrame(m.T, columns=provrc.candidate_columns(schema))


def compress_spark(
    df: DataFrame, schema: LineageSchema, *, n_buckets: int | None = None
) -> DataFrame:
    """Compress a full lineage relation (integer columns per axis) with
    ProvRC: ``provrc.chunk`` per hash partition of the primary key in the
    executors (``n_buckets`` partitions, by default the session's
    ``defaultParallelism``: every partition is one Python task, so more
    partitions than cores only add tasks), ``provrc.stitch`` on the
    driver.

    Returns ``interval_columns(schema)`` as non-nullable longs, the same
    rows in the same order as ``provrc.compress``.
    """
    cand = StructType(
        [StructField(c, DoubleType()) for c in provrc.candidate_columns(schema)]
    )
    if n_buckets is None:
        n_buckets = df.sparkSession.sparkContext.defaultParallelism
    work = (
        df.repartition(n_buckets, schema.key_cols[0])
        .mapInPandas(partial(_chunk, schema), cand)
        .toPandas()
    )
    final = StructType(
        [StructField(c, LongType(), nullable=False) for c in interval_columns(schema)]
    )
    cdf = provrc.stitch(work.to_numpy(np.float64).T, schema)
    return df.sparkSession.createDataFrame(cdf, final)


def collect_compressed(cdf: DataFrame) -> pd.DataFrame:
    """Collect a Spark compressed table into the pandas kernel format."""
    return cdf.toPandas()
