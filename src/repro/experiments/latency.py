"""Query-latency comparison (paper §VII.D, Figures 8-9 shape check).

Forward queries through a pipeline of compressed lineage tables, DSLog's
in-situ path vs the DPSM baselines, wall-clock from query issue to
response (storage reads included, as in the paper):

- DSLog:         stored ProvRC files -> θ-join chain (never decompresses);
- DSLog-NoMerge: same without the row-reduction optimization;
- Raw / Parquet / Parquet-GZip: DuckDB equality joins over the files;
- Turbo-RC:      explicit decompression, then DuckDB joins;
- Array:         vectorized numpy membership per step.

Figures are out of scope; the *shape* — which system wins, how latency
scales with selectivity — is recorded in EXPERIMENTS.md.
"""
from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pandas as pd

from repro.baselines.formats import write_baselines
from repro.core import provrc, storage
from repro.core.model import forward_schema
from repro.experiments.table7 import capture_order
from repro.insitu.baseline_query import array_chain_query, duckdb_chain_query
from repro.insitu.theta_join import chain_query, intervals_to_cells
from repro.workflows.pipelines import PipelineStep, random_numpy_pipeline

SYSTEMS = [
    "DSLog", "DSLog-NoMerge", "Raw", "Parquet", "Parquet-GZip", "Turbo-RC", "Array",
]


def prepare(steps: list[PipelineStep], workdir: str | Path) -> dict[str, list[Path]]:
    """Materialize every storage format for each step of the pipeline;
    returns each system's file per step."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    paths: dict[str, list[Path]] = {f: [] for f in SYSTEMS if f != "DSLog-NoMerge"}
    for i, s in enumerate(steps):
        stem = workdir / f"step{i}"
        schema = forward_schema(len(s.out_shape), len(s.in_shape))
        # Storage order = capture emission order (see table7.capture_order).
        rel = capture_order(s.relation)
        storage.write(provrc.compress(rel, schema), schema, f"{stem}.prc.gz", gzipped=True)
        paths["DSLog"].append(Path(f"{stem}.prc.gz"))
        for fmt, (path, _) in write_baselines(rel, stem).items():
            paths[fmt].append(path)
    return paths


def make_query(shape: tuple[int, int], n_rows: int, seed: int) -> pd.DataFrame:
    """A random contiguous block of ``n_rows`` full rows (fixed-size cell
    range, as in the paper's query generator)."""
    g = np.random.default_rng(seed)
    r0 = int(g.integers(0, shape[0] - n_rows + 1))
    rows = np.arange(r0, r0 + n_rows)
    rr = np.repeat(rows, shape[1])
    cc = np.tile(np.arange(shape[1]), n_rows)
    return pd.DataFrame({"a0": rr, "a1": cc})


def run_one(
    system: str, paths: dict[str, list[Path]], q_cells: pd.DataFrame, shape
) -> tuple[float, int]:
    """Execute one query; returns (seconds, result cell count)."""
    t0 = time.perf_counter()
    if system in ("DSLog", "DSLog-NoMerge"):
        tables = [storage.read(p) for p in paths["DSLog"]]
        key_cols = list(tables[0][1].key_cols)
        q = provrc.encode_query(q_cells.set_axis(key_cols, axis=1), key_cols)
        result = chain_query(
            q, [(c, s) for c, s in tables], merge=system == "DSLog"
        )
        cells = intervals_to_cells(result, list(tables[-1][1].val_cols))
    elif system == "Array":
        cells = array_chain_query(paths["Array"], q_cells, shape)
    else:
        fmt = {"Raw": "raw", "Parquet": "parquet", "Parquet-GZip": "parquet", "Turbo-RC": "turborc"}[system]
        cells = duckdb_chain_query(paths[system], fmt, q_cells, 2)
    dt = time.perf_counter() - t0
    return dt, len(cells)


def run_latency(
    workdir: str | Path,
    *,
    n_ops: int = 5,
    shape: tuple[int, int] = (2000, 50),
    query_rows: tuple[int, ...] = (2, 20, 200),
    systems: list[str] | None = None,
    seed: int = 0,
) -> pd.DataFrame:
    """One random numpy pipeline; queries at several selectivities."""
    paths = prepare(random_numpy_pipeline(n_ops, shape=shape, seed=seed), workdir)
    rows = []
    for qr in query_rows:
        q_cells = make_query(shape, qr, seed + qr)
        expected = None
        for system in systems or SYSTEMS:
            secs, n_cells = run_one(system, paths, q_cells, shape)
            if expected is None:
                expected = n_cells
            rows.append(
                {
                    "system": system,
                    "query_rows": qr,
                    "selectivity_pct": 100.0 * qr / shape[0],
                    "seconds": secs,
                    "result_cells": n_cells,
                    "agrees": n_cells == expected,
                }
            )
    return pd.DataFrame(rows)


def format_table(df: pd.DataFrame) -> str:
    lines = [f"{'system':<14}" + "".join(f"{q:>14}" for q in sorted(df['query_rows'].unique()))]
    for system, sub in df.groupby("system", sort=False):
        cells = "".join(
            f"{sub[sub['query_rows'] == q]['seconds'].mean():>13.3f}s"
            for q in sorted(df["query_rows"].unique())
        )
        lines.append(f"{system:<14}" + cells)
    return "\n".join(lines)
