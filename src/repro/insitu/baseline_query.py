"""Query processing for the DPSM baselines (paper §VII.D).

The paper serves every storage baseline's queries from DuckDB: the chain
of lineage relations is joined with equality joins, seeded by the query
cells. Formats that cannot be scanned directly (Turbo-RC) are explicitly
decompressed first — that cost is part of their measured latency, as in
the paper. The Array baseline instead evaluates vectorized numpy
membership per step (the paper's `==` evaluation, batched).
"""
from __future__ import annotations

from pathlib import Path

import duckdb
import numpy as np
import pandas as pd

from repro.baselines.formats import read_array
from repro.baselines.turborc import read_turborc


# Stored tuples tested per vectorized membership pass of the Array baseline.
_BATCH_TUPLES = 1_000_000


def _axis_cols(n_axes: int, side: str) -> list[str]:
    return [f"{side}{i}" for i in range(n_axes)]


def _register(con: duckdb.DuckDBPyConnection, name: str, path: str | Path, fmt: str, n_axes: int) -> None:
    path = str(path)
    if fmt == "raw":
        con.execute(f"CREATE VIEW {name} AS SELECT * FROM read_csv_auto('{path}')")
    elif fmt in ("parquet", "parquet-gzip"):
        con.execute(f"CREATE VIEW {name} AS SELECT * FROM read_parquet('{path}')")
    elif fmt == "turborc":
        df = read_turborc(path)  # explicit decompression, counted in latency
        con.register(f"{name}_df", df)
        con.execute(f"CREATE VIEW {name} AS SELECT * FROM {name}_df")
    else:
        raise ValueError(f"unknown baseline format {fmt}")


def duckdb_chain_query(
    paths: list[str | Path],
    fmt: str,
    query_cells: pd.DataFrame,
    n_axes: int,
) -> pd.DataFrame:
    """Forward chain query over stored relations via DuckDB equality joins.

    ``query_cells`` has one column per axis of the first array (named
    ``a0..``); each stored relation has columns ``b0.., a0..``. Returns
    the distinct cells of the final array.
    """
    con = duckdb.connect()
    try:
        con.register("q", query_cells)
        for i, p in enumerate(paths):
            _register(con, f"r{i}", p, fmt, n_axes)
        a = _axis_cols(n_axes, "a")
        b = _axis_cols(n_axes, "b")
        joins = [
            "FROM q JOIN r0 ON "
            + " AND ".join(f"r0.{x} = q.{x}" for x in a)
        ]
        for i in range(1, len(paths)):
            joins.append(
                f"JOIN r{i} ON "
                + " AND ".join(f"r{i}.{x} = r{i-1}.{y}" for x, y in zip(a, b))
            )
        last = f"r{len(paths) - 1}"
        sql = (
            "SELECT DISTINCT "
            + ", ".join(f"{last}.{x} AS {x}" for x in b)
            + " "
            + " ".join(joins)
        )
        out = con.execute(sql).fetchdf()
    finally:
        con.close()
    return out.sort_values(list(out.columns)).reset_index(drop=True).astype("int64")


def array_chain_query(
    paths: list[str | Path],
    query_cells: pd.DataFrame,
    shape: tuple[int, ...],
) -> pd.DataFrame:
    """The Array baseline: per step, vectorized membership of the current
    cell set against the stored tuple array (batched, as in the paper)."""
    n_axes = len(shape)
    cur = np.zeros(shape, dtype=bool)
    cur[tuple(query_cells[f"a{i}"].to_numpy() for i in range(n_axes))] = True
    for p in paths:
        arr = read_array(p).to_numpy()
        b_idx = tuple(arr[:, i] for i in range(n_axes))
        a_idx = tuple(arr[:, n_axes + i] for i in range(n_axes))
        nxt = np.zeros(shape, dtype=bool)
        for s in range(0, len(arr), _BATCH_TUPLES):
            e = s + _BATCH_TUPLES
            sel = cur[tuple(ix[s:e] for ix in a_idx)]
            hit = tuple(ix[s:e][sel] for ix in b_idx)
            nxt[hit] = True
        cur = nxt
    hits = np.argwhere(cur)
    out = pd.DataFrame(hits, columns=[f"b{i}" for i in range(n_axes)])
    return out.sort_values(list(out.columns)).reset_index(drop=True).astype("int64")
