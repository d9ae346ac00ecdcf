"""Turbo-RC: a custom columnar baseline — per-column RLE + entropy coding.

The paper's Turbo-RC applies "state-of-the-art integer compression over
each column: run-length encoding combined with integer entropy coding"
[17]. We reproduce that design: each column is run-length encoded into
(value, run-length) streams, the value stream is delta + zigzag encoded,
both streams are packed as int32 (a column that does not fit is
refused), and a DEFLATE entropy stage (zlib, which is LZ77 + canonical
Huffman) compresses the packed bytes. Like the paper's Turbo-RC, the
format cannot be queried in place — the query path must fully decode it
first, which is the source of its latency overhead in the paper's
Figures 8-9.

Layout: magic ``TRC1`` | n_cols u8 | n_rows u64
        per column: name-len u16 | name utf8 | n_runs u64
                    | zlen u64 | zlib(values_i32 ++ runs_i32)
"""
from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np
import pandas as pd

_MAGIC = b"TRC1"
_I32_MAX = 2**31 - 1


def _rle(col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run-length encode: (values, run lengths)."""
    if len(col) == 0:
        return np.zeros(0, dtype="int64"), np.zeros(0, dtype="int64")
    change = np.ones(len(col), dtype=bool)
    change[1:] = col[1:] != col[:-1]
    starts = np.flatnonzero(change)
    values = col[starts]
    runs = np.diff(np.append(starts, len(col)))
    return values, runs


def _zigzag(v: np.ndarray) -> np.ndarray:
    return (v << 1) ^ (v >> 63)


def _unzigzag(v: np.ndarray) -> np.ndarray:
    return (v >> 1) ^ -(v & 1)


def write_turborc(df: pd.DataFrame, path: str | Path) -> int:
    """Write ``df``; returns the file size. Raises ``ValueError`` naming
    the column if a zigzagged delta or a run length does not fit int32
    (a delta outside ``[-2**30, 2**30 - 1]``)."""
    parts = [_MAGIC, struct.pack("<BQ", len(df.columns), len(df))]
    for name in df.columns:
        col = df[name].to_numpy(dtype="int64")
        values, runs = _rle(col)
        # Zigzag maps int64 onto uint64 (-2**63 becomes 2**64 - 1).
        zz = _zigzag(np.diff(values, prepend=np.int64(0)))
        if (zz.view(np.uint64) > _I32_MAX).any() or (runs > _I32_MAX).any():
            raise ValueError(f"cannot write Turbo-RC file: column {name} does not fit int32 streams")
        packed = np.concatenate([zz.astype("<i4"), runs.astype("<i4")]).tobytes()
        z = zlib.compress(packed, 6)
        nb = name.encode()
        parts.append(struct.pack("<H", len(nb)))
        parts.append(nb)
        parts.append(struct.pack("<QQ", len(values), len(z)))
        parts.append(z)
    buf = b"".join(parts)
    Path(path).write_bytes(buf)
    return len(buf)


def read_turborc(path: str | Path) -> pd.DataFrame:
    buf = Path(path).read_bytes()
    if buf[:4] != _MAGIC:
        raise ValueError("not a Turbo-RC file")
    n_cols, n_rows = struct.unpack("<BQ", buf[4:13])
    off = 13
    cols = {}
    for _ in range(n_cols):
        (nlen,) = struct.unpack_from("<H", buf, off)
        off += 2
        name = buf[off : off + nlen].decode()
        off += nlen
        n_runs, zlen = struct.unpack_from("<QQ", buf, off)
        off += 16
        packed = zlib.decompress(buf[off : off + zlen])
        off += zlen
        arr = np.frombuffer(packed, dtype="<i4").astype("int64")
        deltas = _unzigzag(arr[:n_runs])
        runs = arr[n_runs:]
        values = np.cumsum(deltas)
        cols[name] = np.repeat(values, runs)
        if len(cols[name]) != n_rows:
            raise ValueError("corrupt Turbo-RC column")
    return pd.DataFrame(cols)
