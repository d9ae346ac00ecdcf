"""Vectorized interval and run-scan primitives.

Every attribute is a closed integer interval ``[lo, hi]`` stored as two
columns. A finalized compressed table (``provrc.interval_columns``) is all
int64: key ``lo``/``hi`` pairs plus, per value attribute, a ``rep`` code
and the chosen representation's ``lo``/``hi``. Only the candidate columns
inside ProvRC's step-2 key passes are float64 with NaN = absent; float64
represents integers exactly up to 2**53, far beyond any array index here.

The primitives are whole-column numpy: ``sort_rows`` (a stable
``np.lexsort``, NaN last), change masks, next-change indices, interval
expansion (``expand``) and the group-wise union sweep, which works on
one int64 matrix rather than a frame. None of them loops over rows in
Python.
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


def expand(lo_v: np.ndarray, hi_v: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Every integer of every interval ``[lo_v[i], hi_v[i]]``.

    Returns ``(row, value)``: the source row of each integer and the
    integer itself, rows in order and values ascending within a row.
    Vectorized via ``np.repeat``. Raises ``ValueError`` naming attribute
    ``name`` if an interval is empty or inverted.
    """
    counts = (hi_v - lo_v + 1).astype(np.int64)
    if (counts <= 0).any():
        raise ValueError(f"empty or inverted interval in {name}")
    row = np.repeat(np.arange(len(counts)), counts)
    return row, lo_v[row] + (np.arange(len(row)) - (np.cumsum(counts) - counts)[row])


def explode_interval(df: pd.DataFrame, col: str, out_col: str) -> pd.DataFrame:
    """Expand interval attribute ``col`` into one row per integer value.

    One ``expand``; the expanded scalar lands in ``out_col`` and the
    lo/hi pair is dropped.
    """
    if df.empty:
        out = df.drop(columns=[lo(col), hi(col)]).copy()
        out[out_col] = pd.Series(dtype="float64")
        return out
    row, val = expand(df[lo(col)].to_numpy(), df[hi(col)].to_numpy(), col)
    rep = df.iloc[row].reset_index(drop=True)
    rep[out_col] = val
    return rep.drop(columns=[lo(col), hi(col)])


def union_sweep(m: np.ndarray, col: tuple[int, int], groups: list[tuple[int, int]]) -> np.ndarray:
    """Merge overlapping or adjacent intervals of one attribute per group.

    ``m`` is an int64 matrix holding interval attributes as (lo, hi)
    column pairs. ``col`` is the pair whose intervals are unioned;
    ``groups`` are the pairs that must match exactly for two rows to
    merge. Used by the θ-join's row-reduction ("merge") optimization,
    which unions intervals (subsuming the paper's adjacent-interval
    merge) to minimize rows fed to the next join. Intervals must be valid
    (``lo <= hi``).

    Rows come back sorted by every group ``lo``, then every group ``hi``,
    then ``col``'s ``lo`` and ``hi`` (one stable ``np.lexsort``); each is
    the first row of its run, with ``hi`` the run's maximum. Identical
    rows always fall into one run, so when the pairs cover every column
    the sweep also drops duplicate rows.
    """
    if len(m) == 0:
        return m
    lo_c, hi_c = col
    keys = [g[0] for g in groups] + [g[1] for g in groups] + [lo_c, hi_c]
    m = m[np.lexsort(m[:, keys[::-1]].T)]
    run_start = np.ones(len(m), dtype=bool)
    group_cols = [c for g in groups for c in g]
    run_start[1:] = (m[1:, group_cols] != m[:-1, group_cols]).any(axis=1)
    lo_v = m[:, lo_c]
    hi_v = m[:, hi_c]
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
    out = m[starts]
    out[:, hi_c] = np.maximum.reduceat(hi_v, starts)
    return out
