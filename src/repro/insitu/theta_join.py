"""The θ-join over compressed lineage tables (paper §V.B), numpy kernel.

A query is a table of intervals over the key attributes of a compressed
table (the paper's Q', produced by ``provrc.encode_query``). One θ-join
works on int64 matrices from end to end:

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
   optimization; skipping it gives the DSLog-NoMerge baseline). The merge
   is ``ranges.union_sweep``, the range encoding ProvRC step 1 and the
   query encoding also run.

Chained queries repeat the θ-join along the path, renaming each result's
axes to the next table's key attributes positionally (the arrays are the
same, only the role flips from "output of op k" to "input of op k+1").
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


def _range_join(q: np.ndarray, table: list[np.ndarray], n_key: int) -> np.ndarray:
    """Rows of the table joined with every query row whose key intervals
    all overlap theirs, keys cut to the intersection and values made
    absolute.

    ``q`` is an int64 matrix of key ``lo``/``hi`` pairs; ``table`` holds
    the table's int64 columns in ``interval_columns`` order, so only the
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
    lo0, hi0 = table[0], table[1]
    order = np.argsort(lo0, kind="stable")
    sorted_lo = lo0[order]
    width = (hi0 - lo0).max() if len(lo0) else 0
    first = np.searchsorted(sorted_lo, q[:, 0] - width, side="left")
    counts = np.searchsorted(sorted_lo, q[:, 1], side="right") - first
    ends = np.cumsum(counts)
    n_val = (len(table) - 2 * n_key) // 3
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
            keep &= (q[qi, 2 * k] <= table[2 * k + 1][ri]) & (table[2 * k][ri] <= q[qi, 2 * k + 1])
        qi, ri = np.divmod(np.sort(qi[keep] * len(lo0) + ri[keep]), len(lo0))
        rows = np.column_stack([c[ri] for c in table])
        key_lo = np.maximum(rows[:, 0 : 2 * n_key : 2], q[qi, 0::2])
        key_hi = np.minimum(rows[:, 1 : 2 * n_key : 2], q[qi, 1::2])
        blocks.append(absolute_values(rows[:, 2 * n_key :], key_lo, key_hi))
        a = b
    return np.concatenate(blocks)


def merge_intervals(df: pd.DataFrame, cols: list[str]) -> pd.DataFrame:
    """Row-reduction: one ``ranges.union_sweep`` over every attribute,
    first to last, each grouped by the others.

    ``df``'s columns are the ``lo``/``hi`` pairs of ``cols``, in that
    order (``value_columns``). Every sweep sorts by all of them, so
    identical rows meet in one run and the first sweep also drops
    duplicates.
    """
    m = rg.union_sweep(df.to_numpy(np.int64), list(range(len(cols))))
    return pd.DataFrame(m, columns=df.columns)


def theta_join(
    qdf: pd.DataFrame,
    cdf: pd.DataFrame,
    schema: LineageSchema,
    *,
    merge: bool = True,
) -> pd.DataFrame:
    """One θ-join: returns absolute int64 intervals over ``schema.val_cols``.

    Empty when nothing overlaps (an empty query, an empty table or a
    query outside the table's keys), with the same int64 columns.
    """
    key_cols = [c for k in schema.key_cols for c in (rg.lo(k), rg.hi(k))]
    q = np.column_stack([qdf[c].to_numpy(np.int64) for c in key_cols])
    table = [cdf[c].to_numpy(np.int64) for c in interval_columns(schema)]
    t = pd.DataFrame(
        _range_join(q, table, len(schema.key_cols)), columns=value_columns(schema)
    )
    if merge:
        t = merge_intervals(t, list(schema.val_cols))
    return t


def chain_query(
    qdf: pd.DataFrame,
    tables: list[tuple[pd.DataFrame, LineageSchema]],
    *,
    merge: bool = True,
) -> pd.DataFrame:
    """Process a query along a path of compressed tables (left to right).

    ``qdf`` holds intervals over the first table's key attributes. Each
    step's result is renamed positionally to the next table's key
    attributes. Returns absolute intervals over the last table's value
    attributes.
    """
    cur = qdf
    for step, (cdf, schema) in enumerate(tables):
        if step > 0:
            cur = as_next_query(cur, tables[step - 1][1], schema)
        cur = theta_join(cur, cdf, schema, merge=merge)
    return cur


def as_next_query(
    result: pd.DataFrame, prev: LineageSchema, schema: LineageSchema
) -> pd.DataFrame:
    """Relabel a step's result (``value_columns(prev)``, in that order, as
    ``theta_join`` and ``merge_intervals`` return it) positionally as the
    key attributes of the next table, ``schema.key_cols``."""
    if len(prev.val_cols) != len(schema.key_cols):
        raise ValueError(
            f"path axis count mismatch ({len(prev.val_cols)} vs {len(schema.key_cols)})"
        )
    keys = [c for k in schema.key_cols for c in (rg.lo(k), rg.hi(k))]
    return result.set_axis(keys, axis=1)


def intervals_to_cells(df: pd.DataFrame, cols: list[str]) -> pd.DataFrame:
    """Expand an interval result into its distinct cells, sorted (for
    display and the oracle); int64 columns ``cols``, empty if ``df`` is.

    The rows expand with ``ranges.cartesian`` (the Cartesian product of
    each row's intervals, as in ``provrc.decompress``); duplicates go by
    hash (``drop_duplicates``) before one ``np.lexsort``.
    """
    lo_m = np.column_stack([df[rg.lo(c)].to_numpy(np.int64) for c in cols])
    hi_m = np.column_stack([df[rg.hi(c)].to_numpy(np.int64) for c in cols])
    _, cells = rg.cartesian(lo_m, hi_m, cols)
    return rg.sort_rows(pd.DataFrame(cells, columns=cols).drop_duplicates(), cols)
