"""The θ-join over compressed lineage tables (paper §V.B), numpy kernel.

A query is a table of intervals over the key attributes of a compressed
table (the paper's Q', produced by ``provrc.encode_query``). One θ-join,
``theta_join``, takes and returns int64 matrices:

1. **Range join** — an interval join on the primary key (the first key
   attribute): the table is sorted by its ``lo``, each query row's
   candidates are one ``searchsorted`` slice, and a residual overlap
   test on every key attribute keeps the rows whose key intervals all
   overlap the query row's, each cut to the intersection. Because each
   compressed row is all-to-all between its intervals (in relative space
   for relative attributes), intersecting the key side preserves exactly
   the lineage of the queried cells (paper Fig 4).
2. **De-relativize** — rebuild absolute value intervals: an attribute
   stored relative to key ``k`` with delta ``[d1, d2]`` and intersected
   key interval ``[x1, x2]`` covers exactly ``[x1 + d1, x2 + d2]`` (the
   union of shifted intervals over a contiguous key range is one
   interval). This is the paper's ``rel_back``
   (``provrc.absolute_values``); the forward direction uses the same
   formula on the forward representation (DESIGN.md explains why the
   paper's separate ``rel_for`` is not needed).
3. **Project + merge** — keep only the next array's attributes and merge
   overlapping/adjacent intervals per group (the paper's row-reduction
   optimization; skipping it gives the DSLog-NoMerge baseline). The merge,
   ``merge_intervals``, is ``ranges.union_sweep``, the range encoding
   ProvRC step 1 and the query encoding also run.

Chained queries (``chain_query``) start from ``query_matrix`` and repeat
``theta_join`` along the path, passing each step's int64 result on as
the next step's query: its value attributes are the next table's key
attributes, positionally (the arrays are the same, only the role flips
from "output of op k" to "input of op k+1"), so no frame is built and
nothing is renamed between steps. Spark (``spark_query``) runs the same
``theta_join`` on the same matrices, every step of a chain in one task
per partition of the first table.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core import ranges as rg
from repro.core.model import LineageSchema
from repro.core.provrc import absolute_values, interval_columns, value_columns

# Most (query row, table row) candidate pairs gathered at once; bounds the
# range join's working memory whatever the tables' sizes and widths.
PAIR_BUDGET = 1 << 18


def _range_join(q: np.ndarray, table: np.ndarray, n_key: int) -> np.ndarray:
    """Rows of the table joined with every query row whose key intervals
    all overlap theirs, keys cut to the intersection and values made
    absolute.

    ``q`` is an int64 matrix of key ``lo``/``hi`` pairs; ``table`` is the
    table's int64 matrix in ``interval_columns`` order, of which only the
    candidate rows are ever gathered. The table is stable-sorted by its
    primary-key ``lo``. A row overlapping ``[q_lo, q_hi]`` on that axis has
    ``lo`` in ``[q_lo - w, q_hi]``, with ``w`` the table's widest
    primary-key interval, so each query row's candidates are one
    ``searchsorted`` slice whose length is known before anything is
    gathered. Query rows are processed in consecutive chunks of at most
    ``PAIR_BUDGET`` candidate pairs (a chunk holds at least one query row),
    so a wide table row costs time, never |query| x |table| memory. The
    result is in ``value_columns`` order, one row per overlapping pair,
    ordered by query row, then table row.
    """
    lo0, hi0 = table[:, 0], table[:, 1]
    order = np.argsort(lo0, kind="stable")
    sorted_lo = lo0[order]
    width = (hi0 - lo0).max() if len(lo0) else 0
    first = np.searchsorted(sorted_lo, q[:, 0] - width, side="left")
    counts = np.searchsorted(sorted_lo, q[:, 1], side="right") - first
    ends = np.cumsum(counts)
    n_val = (table.shape[1] - 2 * n_key) // 3
    blocks = [np.empty((0, 2 * n_val), dtype=np.int64)]  # the result when nothing overlaps
    a = 0
    while a < len(q):
        done = ends[a] - counts[a]
        b = max(a + 1, int(np.searchsorted(ends, done + PAIR_BUDGET, side="right")))
        qi = np.repeat(np.arange(a, b), counts[a:b])
        slot = np.arange(len(qi)) - (ends[qi] - counts[qi] - done)
        ri = order[first[qi] + slot]
        keep = np.ones(len(qi), dtype=bool)
        for k in range(n_key):
            keep &= (q[qi, 2 * k] <= table[ri, 2 * k + 1]) & (table[ri, 2 * k] <= q[qi, 2 * k + 1])
        qi, ri = np.divmod(np.sort(qi[keep] * len(lo0) + ri[keep]), len(lo0))
        rows = table[ri]
        key_lo = np.maximum(rows[:, 0 : 2 * n_key : 2], q[qi, 0::2])
        key_hi = np.minimum(rows[:, 1 : 2 * n_key : 2], q[qi, 1::2])
        blocks.append(absolute_values(rows[:, 2 * n_key :], key_lo, key_hi))
        a = b
    return np.concatenate(blocks)


def merge_intervals(m: np.ndarray) -> np.ndarray:
    """Row-reduction of a θ-join result matrix (``value_columns`` order):
    one ``ranges.union_sweep`` over every attribute, first to last, each
    grouped by the others.

    Every sweep sorts by all columns, so identical rows meet in one run
    and the first sweep also drops duplicates.
    """
    return rg.union_sweep(m, list(range(m.shape[1] // 2)))


def theta_join(q: np.ndarray, table: np.ndarray, n_key: int, *, merge: bool = True) -> np.ndarray:
    """One θ-join on int64 matrices: the range join, de-relativization and,
    with ``merge``, the row-reduction (``merge_intervals``).

    ``q`` holds the query's key ``lo``/``hi`` pairs, ``table`` the
    compressed table in ``interval_columns`` order, with ``n_key`` key
    attributes. Returns the absolute value intervals in
    ``value_columns`` order, which is also the layout of the next step's
    query; empty (with those columns) when nothing overlaps.
    """
    out = _range_join(q, table, n_key)
    return merge_intervals(out) if merge else out


def _matrix(df: pd.DataFrame, cols: list[str]) -> np.ndarray:
    """``df``'s columns ``cols``, in that order, as one int64 matrix.

    Columns are read by name, so their order in ``df`` does not matter.
    A frame whose columns are exactly ``cols`` (every table that
    ``provrc.compress`` or ``storage.read`` returns, every query of
    ``provrc.encode_query``) is read with one ``to_numpy``, a view of its
    single int64 block.
    """
    if list(df.columns) != cols:
        df = df[cols]
    return df.to_numpy(np.int64)


def query_matrix(qdf: pd.DataFrame, schemas: list[LineageSchema]) -> np.ndarray:
    """The int64 matrix a query along a path of tables over ``schemas``
    starts from: ``qdf``'s key ``lo``/``hi`` pairs of the first table.

    Refuses a path in which a table's value attributes are not as many
    as the next table's key attributes, before any step runs: each
    step's result becomes the next step's query positionally.
    """
    for prev, schema in zip(schemas, schemas[1:]):
        if len(prev.val_cols) != len(schema.key_cols):
            raise ValueError(
                f"path axis count mismatch ({len(prev.val_cols)} vs {len(schema.key_cols)})"
            )
    return _matrix(qdf, interval_columns(schemas[0])[: 2 * schemas[0].n_key])


def chain_query(
    qdf: pd.DataFrame,
    tables: list[tuple[pd.DataFrame, LineageSchema]],
    *,
    merge: bool = True,
) -> pd.DataFrame:
    """Process a query along a path of compressed tables (left to right).

    ``qdf`` holds intervals over the first table's key attributes (read
    by name, like each table's ``interval_columns``). Every step is
    ``theta_join`` on int64 matrices, and its result is the next step's
    query as it stands: its value attributes are, positionally, the next
    table's key attributes (checked up front by ``query_matrix``), so
    nothing is renamed or rebuilt between steps. Returns absolute
    intervals over the last table's value attributes, the only frame
    built; empty, with those int64 columns, when nothing overlaps.
    """
    q = query_matrix(qdf, [schema for _, schema in tables])
    for cdf, schema in tables:
        q = theta_join(q, _matrix(cdf, interval_columns(schema)), schema.n_key, merge=merge)
    return pd.DataFrame(q, columns=value_columns(tables[-1][1]))


def intervals_to_cells(df: pd.DataFrame, cols: list[str]) -> pd.DataFrame:
    """Expand an interval result into its distinct cells, sorted (for
    display and the oracle); int64 columns ``cols``, empty if ``df`` is.

    ``lo``/``hi`` are column slices of one int64 matrix of ``df``'s
    ``lo``/``hi`` pairs; the rows expand with ``ranges.cartesian`` (the
    Cartesian product of each row's intervals), and
    ``ranges.distinct_rows`` sorts the cells and drops duplicates in one
    packed sort, both as in ``provrc.decompress``.
    """
    m = _matrix(df, [c for a in cols for c in (rg.lo(a), rg.hi(a))])
    _, cells = rg.cartesian(m[:, 0::2], m[:, 1::2], cols)
    return pd.DataFrame(rg.distinct_rows(cells), columns=cols)
