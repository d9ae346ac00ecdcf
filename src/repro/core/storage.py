"""On-disk binary format for ProvRC-compressed lineage tables (§VII.B).

The format stores, per row: every key interval (int32 lo/hi) and, per
value attribute, a one-byte representation code (0 = absolute, 1+j =
delta vs key axis j) plus the int32 lo/hi of the chosen representation —
exactly the information in the paper's finalized tables, and exactly the
columns of the in-memory finalized table (``provrc.interval_columns``).
Both directions go through one ``(n_cols, n)`` int64 matrix, one row per
column: ``serialize`` reads the table into it and streams its rows, and
``deserialize`` fills it from the streams and wraps it once as the
frame's single int64 block (the form ``provrc.finalize`` builds too, and
which the θ-join reads with one ``to_numpy``). ``ProvRC-GZip`` gzips the
same payload; the paper applies it by default because it wins on
unstructured lineage at negligible cost for structured lineage.

Layout (little-endian), version 2:
  magic ``PRVC`` | version u8 | direction u8 (0=backward, 1=forward)
  | n_key u8 | n_val u8 | n_rows u64
  | key blocks: dlo[i32 x n] width[i32 x n] per key attribute
  | val blocks: rep[u8 x n] lo[i32 x n] width[i32 x n] per value attribute

Rows are sorted by the key lower bounds and each key's lo column is
delta-encoded (``dlo[0]`` absolute); widths are ``hi - lo``. For runs of
consecutive scalar keys (the dominant shape in semi-structured lineage,
e.g. Sort) the delta stream is all 1s and the width stream all 0s, which
the GZip stage then collapses — mirroring how the paper's ProvRC file
for Sort lands near the columnar baselines instead of above Raw.

``deserialize`` rejects malformed input (bad magic, version or direction,
a truncated stream, a representation code above ``n_key``, trailing
bytes) with a ``ValueError`` naming the format. ``serialize`` refuses,
with a ``ValueError`` naming the stream and the value, a table whose key
delta, ``lo``, width or ``rep`` stream does not fit its dtype, instead of
writing a file that reads back different values.
"""
from __future__ import annotations

import gzip
import struct
from pathlib import Path

import numpy as np
import pandas as pd

from repro.core import ranges as rg
from repro.core.model import LineageSchema, schema_of
from repro.core.provrc import interval_columns

_MAGIC = b"PRVC"
_VERSION = 2


def _put_stream(parts: list[bytes], arr: np.ndarray) -> None:
    """Append a column stream with constant-run elision: a stream whose
    values are all equal stores one flag byte + one value (the dominant
    case for key deltas, widths and rep codes in semi-structured
    lineage)."""
    if len(arr) and (arr == arr.flat[0]).all():
        parts.append(b"\x01" + arr[:1].tobytes())
    else:
        parts.append(b"\x00" + arr.tobytes())


def _take_stream(buf: bytes, off: int, dtype: str, n: int) -> tuple[np.ndarray, int]:
    """The stream at ``off`` (one value if it is a constant run) and the
    offset after it."""
    if off >= len(buf):
        raise ValueError(f"truncated ProvRC file: stream at byte {off} is missing")
    flag = buf[off]
    if flag not in (0, 1):
        raise ValueError(f"corrupt ProvRC file: bad stream flag {flag} at byte {off}")
    count = 1 if flag == 1 else n
    size = np.dtype(dtype).itemsize * count
    if off + 1 + size > len(buf):
        raise ValueError(
            f"truncated ProvRC file: stream at byte {off} needs {size} bytes, "
            f"{len(buf) - off - 1} left"
        )
    return np.frombuffer(buf, dtype=dtype, count=count, offset=off + 1), off + 1 + size


def _streams(schema: LineageSchema) -> list[tuple[str, str]]:
    """What each stream holds and its dtype, one per column of
    ``interval_columns``."""
    keys = [
        s
        for k in schema.key_cols
        for s in ((f"{rg.lo(k)} delta", "<i4"), (f"{rg.hi(k)} width", "<i4"))
    ]
    vals = [
        s
        for v in schema.val_cols
        for s in ((rg.rep(v), "u1"), (rg.lo(v), "<i4"), (f"{rg.hi(v)} width", "<i4"))
    ]
    return keys + vals


def serialize(cdf: pd.DataFrame, schema: LineageSchema) -> bytes:
    """Encode a finalized compressed table (``provrc.interval_columns``).

    One ``(n_cols, n)`` int64 matrix, its columns stably sorted by the key
    ``lo`` rows (primary key first), becomes the streams in place: key
    ``lo`` as deltas, every ``hi`` as a width over its ``lo``. A stream
    with a value outside its dtype (int32, or u8 for ``rep``) raises
    ``ValueError`` naming the stream and the value, before anything is
    cast.
    """
    m = cdf[interval_columns(schema)].to_numpy(np.int64).T
    k = 2 * schema.n_key
    m = m.take(np.lexsort(m[k - 2 :: -2]), axis=1)
    m[1:k:2] -= m[0:k:2]
    m[k + 2 :: 3] -= m[k + 1 :: 3]
    m[0:k:2] = np.diff(m[0:k:2], axis=1, prepend=0)
    parts = [
        _MAGIC,
        struct.pack(
            "<BBBBQ",
            _VERSION,
            0 if schema.direction == "backward" else 1,
            schema.n_key,
            schema.n_val,
            m.shape[1],
        ),
    ]
    for row, (name, dtype) in zip(m, _streams(schema)):
        info = np.iinfo(dtype)
        for v in (row.min(), row.max()) if len(row) else ():
            if not info.min <= v <= info.max:
                raise ValueError(
                    f"cannot write ProvRC file: stream {name} holds {v}, "
                    f"outside {dtype} [{info.min}, {info.max}]"
                )
        _put_stream(parts, row.astype(dtype))
    return b"".join(parts)


def deserialize(buf: bytes) -> tuple[pd.DataFrame, LineageSchema]:
    """Decode a ProvRC file into its finalized table and schema.

    Every stream is validated first; then one int64 matrix is filled (key
    ``lo`` from a cumulative sum of its deltas, every ``hi`` as ``lo`` +
    width) and becomes the table's only block.
    """
    if buf[:4] != _MAGIC:
        raise ValueError("not a ProvRC file (bad magic)")
    if len(buf) < 16:
        raise ValueError("truncated ProvRC file: header is shorter than 16 bytes")
    version, direction, n_key, n_val, n = struct.unpack("<BBBBQ", buf[4:16])
    if version != _VERSION:
        raise ValueError(f"unsupported ProvRC file version {version} (expected {_VERSION})")
    if direction not in (0, 1):
        raise ValueError(f"corrupt ProvRC file: direction byte {direction}")
    schema = schema_of(("backward", "forward")[direction], n_key, n_val)
    dtypes = [dtype for _, dtype in _streams(schema)]
    streams = []
    off = 16
    for r, dtype in enumerate(dtypes):
        arr, off = _take_stream(buf, off, dtype, n)
        if dtype == "u1" and n and arr.max() > n_key:
            raise ValueError(
                f"corrupt ProvRC file: value attribute {schema.val_cols[(r - 2 * n_key) // 3]} "
                f"has representation code {arr.max()}, but the file has {n_key} key attributes"
            )
        streams.append(arr)
    if off != len(buf):
        raise ValueError(
            f"corrupt ProvRC file: {len(buf) - off} trailing bytes after the last stream"
        )
    # One int64 row per column of ``interval_columns``; a constant
    # stream's single value is broadcast.
    m = np.empty((len(dtypes), n), dtype=np.int64)
    for row, arr in zip(m, streams):
        row[:] = arr
    k = 2 * n_key
    m[0:k:2] = np.cumsum(m[0:k:2], axis=1)
    m[1:k:2] += m[0:k:2]
    m[k + 2 :: 3] += m[k + 1 :: 3]
    return pd.DataFrame(m.T, columns=interval_columns(schema)), schema


def write(cdf: pd.DataFrame, schema: LineageSchema, path: str | Path, *, gzipped: bool = False) -> int:
    """Write a compressed table; returns bytes on disk."""
    payload = serialize(cdf, schema)
    if gzipped:
        payload = gzip.compress(payload, compresslevel=6)
    Path(path).write_bytes(payload)
    return len(payload)


def read(path: str | Path) -> tuple[pd.DataFrame, LineageSchema]:
    buf = Path(path).read_bytes()
    if buf[:2] == b"\x1f\x8b":  # gzip magic
        buf = gzip.decompress(buf)
    return deserialize(buf)
