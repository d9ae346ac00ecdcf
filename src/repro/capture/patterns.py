"""Vectorized builders for common fine-grained lineage patterns.

Every builder returns a full lineage relation: a pandas DataFrame with
int64 columns ``b0..b{l-1}, a0..a{m-1}`` (output axes first, paper
§III.B). All builders are pure numpy — no Python per-cell loops — so
capture scales to the million-cell arrays of Table VII.
"""
from __future__ import annotations

import numpy as np
import pandas as pd


def _frame(out_idx: list[np.ndarray], in_idx: list[np.ndarray]) -> pd.DataFrame:
    data = {}
    for j, arr in enumerate(out_idx):
        data[f"b{j}"] = arr.astype("int64")
    for i, arr in enumerate(in_idx):
        data[f"a{i}"] = arr.astype("int64")
    return pd.DataFrame(data)


def out_indices(out_shape: tuple[int, ...]) -> list[np.ndarray]:
    """Flattened index arrays, one per output axis, covering every cell."""
    if out_shape == ():
        out_shape = (1,)
    grids = np.indices(out_shape)
    return [g.ravel() for g in grids]


def index_map(out_shape: tuple[int, ...], fn) -> pd.DataFrame:
    """One-to-one lineage: each output cell reads one input cell.

    ``fn`` maps the list of output index arrays to the list of input
    index arrays (vectorized). Covers transpose/reshape/flip/roll/tile/
    repeat/kron/... ``fn`` may also return ``(in_idx, keep_mask)`` to drop
    output cells with no lineage (e.g. pad borders, triu zeros).
    """
    o = out_indices(out_shape)
    res = fn(o)
    if isinstance(res, tuple) and len(res) == 2 and isinstance(res[1], np.ndarray) and res[1].dtype == bool:
        in_idx, keep = res
        o = [x[keep] for x in o]
        in_idx = [x[keep] for x in in_idx]
    else:
        in_idx = res
    return _frame(o, in_idx)


def identity(shape: tuple[int, ...]) -> pd.DataFrame:
    """Element-wise lineage: b == a on every axis."""
    return index_map(shape, lambda o: list(o))


def reduce_axis(shape: tuple[int, ...], axis: int) -> pd.DataFrame:
    """Aggregation over one axis: output cell <- the full input fiber."""
    axis = axis % len(shape)
    out_shape = tuple(d for ax, d in enumerate(shape) if ax != axis)
    if out_shape == ():
        out_shape = (1,)
    o = out_indices(out_shape)
    d = shape[axis]
    rep = [np.repeat(x, d) for x in o]
    fiber = np.tile(np.arange(d), int(np.prod(out_shape)))
    in_idx = []
    oi = 0
    for ax in range(len(shape)):
        if ax == axis:
            in_idx.append(fiber)
        else:
            in_idx.append(rep[oi])
            oi += 1
    return _frame(rep, in_idx)


def reduce_all(shape: tuple[int, ...]) -> pd.DataFrame:
    """Full aggregation: the single output cell <- every input cell."""
    grids = np.indices(shape)
    in_idx = [g.ravel() for g in grids]
    return _frame([np.zeros(in_idx[0].size)], in_idx)


def cumulative(shape: tuple[int, ...], axis: int) -> pd.DataFrame:
    """Prefix pattern: out cell <- all input cells at or before it on axis."""
    axis = axis % len(shape)
    o = out_indices(shape)
    pos = o[axis]
    counts = (pos + 1).astype("int64")
    rep = [np.repeat(x, counts) for x in o]
    total = counts.sum()
    offsets = np.repeat(np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
    prefix = np.arange(total) - offsets
    in_idx = list(rep)
    in_idx[axis] = prefix
    return _frame(rep, in_idx)


def window(
    n_out: int,
    n_in: int,
    lo_off: int,
    hi_off: int,
    *,
    clip: bool = True,
) -> pd.DataFrame:
    """1-D sliding-window lineage: out i <- in [i+lo_off, i+hi_off].

    With ``clip`` the window is clamped to the input extent (convolve /
    gradient borders); output cells whose clamped window is empty get no
    lineage (pad borders).
    """
    o = np.arange(n_out)
    lo = o + lo_off
    hi = o + hi_off
    if clip:
        lo = np.clip(lo, 0, n_in - 1)
        hi = np.clip(hi, 0, n_in - 1)
    keep = (lo <= hi) & (hi >= 0) & (lo <= n_in - 1)
    o, lo, hi = o[keep], lo[keep], hi[keep]
    counts = hi - lo + 1
    rep = np.repeat(o, counts)
    offsets = np.repeat(np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
    src = np.arange(counts.sum()) - offsets + np.repeat(lo, counts)
    return _frame([rep], [src])


def conv2d(h: int, w: int, kh: int, kw: int) -> pd.DataFrame:
    """Same-padding 2-D convolution lineage (the ImgFilter op, Table VII)."""
    rh, rw = kh // 2, kw // 2
    oi, oj = [g.ravel() for g in np.indices((h, w))]
    rows = []
    for di in range(-rh, kh - rh):
        for dj in range(-rw, kw - rw):
            si = oi + di
            sj = oj + dj
            keep = (si >= 0) & (si < h) & (sj >= 0) & (sj < w)
            rows.append(
                _frame([oi[keep], oj[keep]], [si[keep], sj[keep]])
            )
    return pd.concat(rows, ignore_index=True)


def matmul(n: int, k: int, m: int) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Lineage of (n,k) @ (k,m): per-input relations."""
    oi, oj = [g.ravel() for g in np.indices((n, m))]
    rep_i = np.repeat(oi, k)
    rep_j = np.repeat(oj, k)
    inner = np.tile(np.arange(k), n * m)
    rel_a = _frame([rep_i, rep_j], [rep_i, inner])
    rel_b = _frame([rep_i, rep_j], [inner, rep_j])
    return rel_a, rel_b
