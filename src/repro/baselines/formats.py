"""Baseline storage formats for full (uncompressed) lineage relations.

All writers take the full lineage relation as a pandas DataFrame of int64
index columns and return the file size in bytes; readers return the
relation. Sizes on these files are the Abs(MB) columns of Table VII.
``write_baselines`` writes one relation in every DPSM baseline format, and
``provrc_compressible`` is the compressibility rule of Tables IX and X.
"""
from __future__ import annotations

from functools import partial
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from repro.baselines.turborc import write_turborc
from repro.core import provrc, storage
from repro.core.model import backward_schema_of


def write_raw(df: pd.DataFrame, path: str | Path) -> int:
    """Row-oriented uncompressed storage (paper's Raw / Ground-style).

    CSV keeps the row-major, text-per-tuple character of the paper's
    DuckDB row table export (~20 bytes/row for 4 small ints, matching
    Table VII's Raw magnitudes).
    """
    df.to_csv(path, index=False)
    return Path(path).stat().st_size


def read_raw(path: str | Path) -> pd.DataFrame:
    return pd.read_csv(path)


def write_array(df: pd.DataFrame, path: str | Path) -> int:
    """The Array baseline: lineage tuples as a dense int64 numpy matrix."""
    np.save(path, df.to_numpy(dtype="int64"), allow_pickle=False)
    return Path(path).stat().st_size


def read_array(path: str | Path, columns: list[str] | None = None) -> pd.DataFrame:
    arr = np.load(path, allow_pickle=False)
    cols = columns or [f"c{i}" for i in range(arr.shape[1])]
    return pd.DataFrame(arr, columns=cols)


def write_parquet(df: pd.DataFrame, path: str | Path, *, codec: str = "snappy") -> int:
    """Parquet with default encodings; ``codec='gzip'`` is Parquet-GZip."""
    table = pa.Table.from_pandas(df, preserve_index=False)
    pq.write_table(table, path, compression=codec)
    return Path(path).stat().st_size


def read_parquet(path: str | Path) -> pd.DataFrame:
    return pq.read_table(path).to_pandas()


def write_baselines(rel: pd.DataFrame, stem: str | Path) -> dict[str, tuple[Path, int]]:
    """Write ``rel`` in each DPSM baseline format as ``stem`` plus that
    format's suffix; returns each format's (path, bytes on disk)."""
    writers = {
        "Raw": (".csv", write_raw),
        "Array": (".npy", write_array),
        "Parquet": (".parquet", write_parquet),
        "Parquet-GZip": (".gz.parquet", partial(write_parquet, codec="gzip")),
        "Turbo-RC": (".trc", write_turborc),
    }
    out = {}
    for fmt, (suffix, write) in writers.items():
        path = Path(f"{stem}{suffix}")
        out[fmt] = path, write(rel, path)
    return out


def provrc_compressible(relations: list[pd.DataFrame]) -> bool:
    """The paper's compressibility rule (Tables IX and X): the ProvRC
    binary of the relations' backward tables is under 0.5x their raw CSV."""
    provrc_bytes = raw_bytes = 0
    for rel in relations:
        schema = backward_schema_of(rel.columns)
        provrc_bytes += len(storage.serialize(provrc.compress(rel, schema), schema))
        raw_bytes += len(rel.to_csv(index=False).encode())
    return provrc_bytes < 0.5 * raw_bytes
