"""Vectorized interval and run-scan primitives.

Every attribute is a closed integer interval ``[lo, hi]`` stored as two
columns. A finalized compressed table (``provrc.interval_columns``) is all
int64: key ``lo``/``hi`` pairs plus, per value attribute, a ``rep`` code
and the chosen representation's ``lo``/``hi``. Only the candidate columns
inside ProvRC's step-2 key passes are float64 with NaN = absent; float64
represents integers exactly up to 2**53, far beyond any array index here.

The primitives are whole-column numpy: ``sort_rows`` (a stable
``np.lexsort``, NaN last), change masks, next-change indices and the
group-wise union sweep. None of them loops over rows in Python.
"""
from __future__ import annotations

import numpy as np
import pandas as pd


def lo(col: str) -> str:
    """Name of the lower-bound column for logical attribute ``col``."""
    return f"{col}_lo"


def hi(col: str) -> str:
    """Name of the upper-bound column for logical attribute ``col``."""
    return f"{col}_hi"


def rep(col: str) -> str:
    """Name of the representation-code column of value attribute ``col``:
    0 = absolute, 1 + j = relative to key attribute j (the file's codes)."""
    return f"{col}_rep"


def delta(val: str, key: str) -> str:
    """Name of the relative (delta) attribute ``val - key``.

    The paper's prose writes the delta as ``b - a`` but its worked tables
    and ``rel_back`` formula require ``a - b`` (see DESIGN.md); here the
    convention is uniformly ``value - key`` so ``value = key + delta``.
    """
    return f"{val}__{key}"


def sort_rows(df: pd.DataFrame, cols: list[str]) -> pd.DataFrame:
    """Rows of ``df`` sorted by ``cols``, stable, NaN last, fresh index.

    The same order as ``df.sort_values(cols, kind="mergesort")``, from one
    ``np.lexsort`` over the raw columns instead of pandas' per-column
    ``Categorical`` codes.
    """
    return take_rows(df, np.lexsort([df[c].to_numpy() for c in reversed(cols)]))


def take_rows(df: pd.DataFrame, rows: np.ndarray) -> pd.DataFrame:
    """Rows ``rows`` of ``df`` under a fresh ``RangeIndex``.

    ``take(...).reset_index(drop=True)`` without the second full copy
    that ``reset_index`` makes.
    """
    out = df.take(rows)
    out.index = pd.RangeIndex(len(out))
    return out


def pair_changed(df: pd.DataFrame, col: str) -> np.ndarray:
    """Boolean mask: row t's ``[lo, hi]`` for ``col`` differs from row t-1's.

    NaN-aware: two NaNs compare equal (same "absent" state); NaN vs value
    is a change. Row 0 is always marked changed.
    """
    same = np.ones(max(len(df) - 1, 0), dtype=bool)
    for c in (lo(col), hi(col)):
        v = df[c].to_numpy()
        nan = np.isnan(v)
        same &= (v[1:] == v[:-1]) | (nan[1:] & nan[:-1])
    out = np.ones(len(df), dtype=bool)
    out[1:] = ~same
    return out


def group_changed(df: pd.DataFrame, cols: list[str]) -> np.ndarray:
    """Boolean mask: any of the interval attributes in ``cols`` changed."""
    out = np.zeros(len(df), dtype=bool)
    out[0] = True
    for c in cols:
        out |= pair_changed(df, c)
    return out


def next_true_at_or_after(mask: np.ndarray) -> np.ndarray:
    """For each index t, the smallest u >= t with ``mask[u]`` (n if none).

    Computed with one reversed running-minimum — O(n), no Python loop.
    ProvRC step 2 derives every row's candidate run end from these
    next-change indices in one vectorized expression.
    """
    n = len(mask)
    idx = np.where(mask, np.arange(n), n)
    return np.minimum.accumulate(idx[::-1])[::-1]


def explode_interval(df: pd.DataFrame, col: str, out_col: str) -> pd.DataFrame:
    """Expand interval attribute ``col`` into one row per integer value.

    Vectorized via ``np.repeat``; the expanded scalar lands in ``out_col``
    and the lo/hi pair is dropped.
    """
    if df.empty:
        out = df.drop(columns=[lo(col), hi(col)]).copy()
        out[out_col] = pd.Series(dtype="float64")
        return out
    lo_v = df[lo(col)].to_numpy()
    hi_v = df[hi(col)].to_numpy()
    counts = (hi_v - lo_v + 1).astype(np.int64)
    if (counts <= 0).any():
        raise ValueError(f"empty or inverted interval in {col}")
    rep = df.loc[df.index.repeat(counts)].reset_index(drop=True)
    offsets = np.arange(counts.sum()) - np.repeat(
        np.concatenate(([0], np.cumsum(counts)[:-1])), counts
    )
    rep[out_col] = np.repeat(lo_v, counts) + offsets
    return rep.drop(columns=[lo(col), hi(col)])


def union_sweep(df: pd.DataFrame, col: str, group_cols: list[str]) -> pd.DataFrame:
    """Merge overlapping or adjacent intervals of ``col`` per group.

    ``group_cols`` are interval attributes (lo/hi pairs) that must match
    exactly for two rows to merge. Used by the θ-join's row-reduction
    ("merge") optimization, which unions intervals (subsuming the paper's
    adjacent-interval merge) to minimize rows fed to the next join.
    Intervals must be valid (``lo <= hi``).
    """
    if df.empty:
        return df
    sort_cols = [lo(g) for g in group_cols] + [hi(g) for g in group_cols] + [lo(col), hi(col)]
    df = sort_rows(df, sort_cols)
    run_start = group_changed(df, group_cols)
    lo_v = df[lo(col)].to_numpy()
    hi_v = df[hi(col)].to_numpy()
    # An interval starts a new run iff its group changed or its lo exceeds
    # (running max of hi over the group's earlier rows) + 1. The running
    # max never crosses a group: each group's hi is lifted above every
    # earlier group's by its group id times the value range.
    gid = np.cumsum(run_start) - 1
    base = hi_v.min()
    width = hi_v.max() - base + 1
    lifted = gid * width + (hi_v - base)
    run_max = np.maximum.accumulate(lifted) - gid * width + base
    run_start[1:] |= lo_v[1:] > run_max[:-1] + 1
    starts = np.flatnonzero(run_start)
    out = take_rows(df, starts)
    out[hi(col)] = np.maximum.reduceat(hi_v, starts)
    return out
