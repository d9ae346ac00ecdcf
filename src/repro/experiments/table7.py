"""Table VII — lineage storage size across formats for 12 operations.

Workload scales are reduced from the paper's 1M-cell arrays (DESIGN.md
§4): compression *ratios* (Rel %, vs the Raw row format) are the
comparison axis, and for structured lineage they are scale-robust
because ProvRC's output is O(1) rows. ``PAPER_REL`` records the paper's
Rel % values next to ours in EXPERIMENTS.md. Only the backward ProvRC
representation is materialized, as in the paper (§VII.C.1).
"""
from __future__ import annotations

from pathlib import Path

import numpy as np
import pandas as pd

from repro.baselines.formats import write_baselines
from repro.capture import patterns as pt
from repro.capture.explain import drise_capture, lime_capture
from repro.core import provrc, storage
from repro.core.model import backward_schema_of

FORMATS = [
    "Raw", "Array", "Parquet", "Parquet-GZip", "Turbo-RC", "ProvRC", "ProvRC-GZip",
]

# Paper Table VII, Rel % of Raw (None = unreadable/garbled in the paper's
# table, e.g. the shifted Matrix*Matrix row).
PAPER_REL: dict[str, dict[str, float | None]] = {
    "Negative":      {"Array": 141, "Parquet": 22.31, "Parquet-GZip": 19.10, "Turbo-RC": 22.58, "ProvRC": 0.0431, "ProvRC-GZip": 0.0457},
    "Addition":      {"Array": 141, "Parquet": 22.31, "Parquet-GZip": 19.10, "Turbo-RC": 22.58, "ProvRC": 0.0431, "ProvRC-GZip": 0.0457},
    "Aggregate":     {"Array": 155, "Parquet": 0.639, "Parquet-GZip": 0.124, "Turbo-RC": 18.17, "ProvRC": 0.0475, "ProvRC-GZip": 0.0504},
    "Repetition":    {"Array": 130, "Parquet": 25.65, "Parquet-GZip": 14.78, "Turbo-RC": 22.43, "ProvRC": 0.0100, "ProvRC-GZip": 0.0105},
    "Matrix*Vector": {"Array": 163, "Parquet": 0.649, "Parquet-GZip": 0.122, "Turbo-RC": 17.25, "ProvRC": 0.0498, "ProvRC-GZip": 0.0528},
    "Matrix*Matrix": {"Array": 159, "Parquet": 0.635, "Parquet-GZip": None, "Turbo-RC": None, "ProvRC": 4.95e-5, "ProvRC-GZip": 5.23e-5},
    "Sort":          {"Array": 141, "Parquet": 14.92, "Parquet-GZip": 12.19, "Turbo-RC": 26.91, "ProvRC": 15.15, "ProvRC-GZip": 12.33},
    "ImgFilter":     {"Array": 131, "Parquet": 45.93, "Parquet-GZip": 24.73, "Turbo-RC": 24.64, "ProvRC": 0.233, "ProvRC-GZip": 0.244},
    "Lime":          {"Array": 123, "Parquet": 2.19, "Parquet-GZip": 0.513, "Turbo-RC": 24.78, "ProvRC": 0.0511, "ProvRC-GZip": 0.0502},
    "DRISE":         {"Array": 125, "Parquet": 1.01, "Parquet-GZip": 0.271, "Turbo-RC": 24.91, "ProvRC": 0.120, "ProvRC-GZip": 0.123},
    "Group By":      {"Array": 136, "Parquet": 17.78, "Parquet-GZip": 7.39, "Turbo-RC": 19.61, "ProvRC": 16.05, "ProvRC-GZip": 7.42},
    "Inner Join":    {"Array": 111, "Parquet": 8.36, "Parquet-GZip": 2.28, "Turbo-RC": 25.02, "ProvRC": 0.604, "ProvRC-GZip": 0.272},
}

_SCALES = {
    # side lengths / row counts per op at each scale
    "test": {"nn": 60, "mm": 24, "conv": 40, "img": 64, "titles": 800, "episodes": 1200},
    "bench": {"nn": 600, "mm": 110, "conv": 200, "img": 416, "titles": 40_000, "episodes": 60_000},
}


def build_relations(op: str, *, scale: str = "bench", spark=None) -> list[pd.DataFrame]:
    """Full lineage relations for one Table VII operation."""
    s = _SCALES[scale]
    n = s["nn"]
    g = np.random.default_rng(0)
    if op == "Negative":
        return [pt.identity((n, n))]
    if op == "Addition":
        return [pt.identity((n, n)), pt.identity((n, n))]
    if op == "Aggregate":
        return [pt.reduce_axis((n, n), 1)]
    if op == "Repetition":
        h = n // 2
        return [pt.index_map((n, n), lambda o: [o[0] % h, o[1] % h])]
    if op == "Matrix*Vector":
        h = n // 2
        rel_m = pt.reduce_axis((h, h), 1)  # out i <- row i of M
        oi = np.repeat(np.arange(h), h)
        rel_v = pd.DataFrame({"b0": oi, "a0": np.tile(np.arange(h), h)})
        return [rel_m, rel_v]
    if op == "Matrix*Matrix":
        m = s["mm"]
        rel_a, rel_b = pt.matmul(m, m, m)
        return [rel_a, rel_b]
    if op == "Sort":
        size = n * n
        return [pd.DataFrame({"b0": np.arange(size), "a0": g.permutation(size)})]
    if op == "ImgFilter":
        c = s["conv"]
        return [pt.conv2d(c, c, 3, 3)]
    if op == "Lime":
        d = s["img"]
        return [lime_capture(d, d, 3, block=16, keep_frac=0.7, seed=0).relation(0)]
    if op == "DRISE":
        d = s["img"]
        return [drise_capture(d, d, 3, grid=13, keep_frac=0.25, seed=1).relation(0)]
    if op in ("Group By", "Inner Join"):
        if spark is None:
            raise ValueError(f"{op} needs a SparkSession")
        from repro import synth_data
        from repro.capture.relational import groupby_lineage, inner_join_lineage

        basics, episodes = synth_data.imdb_like(
            spark, n_titles=s["titles"], n_episodes=s["episodes"], seed=7
        )
        if op == "Group By":
            _, cap = groupby_lineage(basics, "isAdult", ["genre_id"])
            return [cap.relation(0)]
        _, cap = inner_join_lineage(basics, episodes, "tconst")
        return list(cap.relations)
    raise KeyError(op)


def capture_order(rel: pd.DataFrame, seed: int = 0) -> pd.DataFrame:
    """Reorder a relation the way the capture API emits it (paper §III.A).

    ``capture(i)`` iterates output cells, yielding each output's input
    cells as one batch; parallel capture makes the *batch* order
    arbitrary, while rows inside a batch stay in input-index order. This
    is the storage order the paper's baselines see: element-wise lineage
    (1-row batches) arrives effectively shuffled — the regime where
    Parquet sits at ~20% — while aggregation lineage keeps long
    within-batch runs that Parquet's dictionary/RLE pages crush (its
    0.6% Aggregate row). Our builders' globally-sorted emission would
    otherwise gift the baselines runs the paper's capture never
    produced. ProvRC is order-invariant (it sorts internally).
    """
    b_cols = [c for c in rel.columns if c.startswith("b")]
    a_cols = [c for c in rel.columns if c.startswith("a")]
    gid = pd.MultiIndex.from_frame(rel[b_cols]).factorize()[0]
    g = np.random.default_rng(seed)
    perm = g.permutation(gid.max() + 1)
    order = rel.assign(__g=perm[gid]).sort_values(["__g"] + a_cols, kind="mergesort")
    return order.drop(columns="__g").reset_index(drop=True)


def measure_op(op: str, relations: list[pd.DataFrame], out_dir: Path) -> dict[str, int]:
    """Write every format for one op; return bytes on disk per format."""
    out_dir.mkdir(parents=True, exist_ok=True)
    sizes = {f: 0 for f in FORMATS}
    for i, rel in enumerate(relations):
        rel = capture_order(rel)
        stem = out_dir / f"{op.replace('*', 'x').replace(' ', '_')}_{i}"
        for fmt, (_, n_bytes) in write_baselines(rel, stem).items():
            sizes[fmt] += n_bytes
        schema = backward_schema_of(rel.columns)
        cdf = provrc.compress(rel, schema)
        sizes["ProvRC"] += storage.write(cdf, schema, f"{stem}.prc")
        sizes["ProvRC-GZip"] += storage.write(cdf, schema, f"{stem}.prc.gz", gzipped=True)
    return sizes


def run_table7(
    out_dir: str | Path,
    *,
    scale: str = "bench",
    spark=None,
    ops: list[str] | None = None,
) -> pd.DataFrame:
    """Measure all ops; returns rows (op, format, bytes, rel_pct, paper_rel_pct)."""
    out_dir = Path(out_dir)
    rows = []
    for op in ops or list(PAPER_REL):
        if op in ("Group By", "Inner Join") and spark is None:
            continue
        rels = build_relations(op, scale=scale, spark=spark)
        sizes = measure_op(op, rels, out_dir)
        raw = sizes["Raw"]
        for fmt in FORMATS:
            rows.append(
                {
                    "op": op,
                    "format": fmt,
                    "bytes": sizes[fmt],
                    "rel_pct": 100.0 * sizes[fmt] / raw,
                    "paper_rel_pct": (
                        100.0 if fmt == "Raw" else PAPER_REL[op].get(fmt)
                    ),
                }
            )
    return pd.DataFrame(rows)


def format_table(df: pd.DataFrame) -> str:
    """Paper-style rows: one line per op, Rel % per format (ours | paper)."""
    lines = []
    header = f"{'Op':<14}" + "".join(f"{f:>24}" for f in FORMATS[1:])
    lines.append(header + "    (ours Rel% | paper Rel%)")
    for op, sub in df.groupby("op", sort=False):
        cells = []
        for fmt in FORMATS[1:]:
            r = sub[sub["format"] == fmt].iloc[0]
            paper = r["paper_rel_pct"]
            paper_s = f"{paper:.4g}" if paper is not None and not pd.isna(paper) else "n/a"
            cells.append(f"{r['rel_pct']:.4g} | {paper_s}".rjust(24))
        lines.append(f"{op:<14}" + "".join(cells))
    return "\n".join(lines)
