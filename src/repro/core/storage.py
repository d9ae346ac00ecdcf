"""On-disk binary format for ProvRC-compressed lineage tables (§VII.B).

The format stores, per row: every key interval and, per value attribute,
a representation code (0 = absolute, 1+j = delta vs key axis j) plus the
lo/hi of the chosen representation — exactly the information in the
paper's finalized tables, and exactly the columns of the in-memory
finalized table (``provrc.interval_columns``). Both directions go
through one ``(n_cols, n)`` int64 matrix, one row per column:
``serialize`` reads the table into it and streams its rows, and
``deserialize`` fills it from the streams and wraps it once as the
frame's single int64 block (the form ``provrc.finalize`` builds too, and
which the θ-join reads with one ``to_numpy``). ``ProvRC-GZip`` gzips the
same payload, with a zero header timestamp so one table always gives the
same file; the paper applies it by default because it wins on
unstructured lineage at negligible cost for structured lineage.

Layout (little-endian), version 3:
  magic ``PRVC`` | version u8 | direction u8 (0=backward, 1=forward)
  | n_key u8 | n_val u8 | n_rows u64
  | key blocks: dlo, width per key attribute
  | val blocks: rep, lo, width per value attribute

Every stream is one flag byte, then its values as signed integers of
one width. The flag's low nibble is the kind (0 = ``n_rows`` values,
1 = a constant run: one value standing for all ``n_rows``); its high
nibble is the width code ``c``, for ``2**c`` bytes per value (1, 2, 4
or 8). ``serialize`` gives each stream the narrowest width that holds
its minimum and maximum, so no stream is wider than its values need —
the frame-of-reference idea behind the integer coders the paper cites
for Turbo-RC [17] — and a stream whose minimum equals its maximum is a
constant run.

Rows are sorted by the key lower bounds and each key's lo column is
delta-encoded (``dlo[0]`` absolute); widths are ``hi - lo``. For runs of
consecutive scalar keys (the dominant shape in semi-structured lineage,
e.g. Sort) the delta stream is all 1s and the width stream all 0s, both
constant runs; an unstructured permutation's value ``lo`` stream fits in
as few bytes as its range needs, which is also less work for GZip.

``deserialize`` rejects malformed input (bad magic, version or direction,
an unknown stream kind or width code, a truncated stream, a
representation code outside ``0..n_key``, trailing bytes) with a
``ValueError`` naming the format. ``serialize`` refuses, with a
``ValueError`` naming the stream, a table whose key ``lo`` delta or
``hi - lo`` width overflows int64, instead of writing a file that reads
back different values. ``read`` reports a corrupt or truncated gzip
member as a ``ValueError`` naming the path.
"""
from __future__ import annotations

import gzip
import struct
import zlib
from pathlib import Path

import numpy as np
import pandas as pd

from repro.core import ranges as rg
from repro.core.model import LineageSchema, schema_of
from repro.core.provrc import interval_columns

_MAGIC = b"PRVC"
_VERSION = 3
# Width code c stores each value as a signed integer of 2**c bytes.
_WIDTHS = [np.dtype(f"<i{2**c}") for c in range(4)]
_BOUNDS = [(int(np.iinfo(dt).min), int(np.iinfo(dt).max)) for dt in _WIDTHS]


def _put_stream(parts: list[bytes], row: np.ndarray) -> None:
    """Append one int64 stream at the narrowest width that holds its
    range; a stream whose values are all equal stores one flag byte and
    one value (the dominant case for key deltas, widths and rep codes in
    semi-structured lineage)."""
    if not len(row):
        parts.append(b"\x00")
        return
    lo, hi = int(row.min()), int(row.max())
    code = next(c for c, (a, b) in enumerate(_BOUNDS) if a <= lo and hi <= b)
    if lo == hi:
        parts.append(bytes([code << 4 | 1]) + _WIDTHS[code].type(lo).tobytes())
    else:
        parts.append(bytes([code << 4]) + row.astype(_WIDTHS[code]).tobytes())


def _take_stream(buf: bytes, off: int, n: int) -> tuple[np.ndarray, int]:
    """The stream at ``off`` (one value if it is a constant run) and the
    offset after it."""
    if off >= len(buf):
        raise ValueError(f"truncated ProvRC file: stream at byte {off} is missing")
    kind, code = buf[off] & 0x0F, buf[off] >> 4
    if kind > 1:
        raise ValueError(f"corrupt ProvRC file: bad stream flag {buf[off]} at byte {off}")
    if code >= len(_WIDTHS):
        raise ValueError(f"corrupt ProvRC file: unknown width code {code} at byte {off}")
    dtype = _WIDTHS[code]
    count = 1 if kind == 1 else n
    size = dtype.itemsize * count
    if off + 1 + size > len(buf):
        raise ValueError(
            f"truncated ProvRC file: stream at byte {off} needs {size} bytes, "
            f"{len(buf) - off - 1} left"
        )
    return np.frombuffer(buf, dtype=dtype, count=count, offset=off + 1), off + 1 + size


def _streams(schema: LineageSchema) -> list[str]:
    """What each stream holds, one per column of ``interval_columns``."""
    keys = [s for k in schema.key_cols for s in (f"{rg.lo(k)} delta", f"{rg.hi(k)} width")]
    vals = [s for v in schema.val_cols for s in (rg.rep(v), rg.lo(v), f"{rg.hi(v)} width")]
    return keys + vals


def _subtract(m: np.ndarray, rows: slice, prev: np.ndarray, names: list[str]) -> None:
    """``m[rows] -= prev`` in place, refusing a row whose difference
    overflows int64 (operands of opposite signs whose wrapped result
    takes the sign of the subtrahend)."""
    cur = m[rows].copy()
    m[rows] -= prev
    for r, bad in zip(range(len(m))[rows], (((cur ^ prev) & (cur ^ m[rows])) < 0).any(axis=1)):
        if bad:
            raise ValueError(f"cannot write ProvRC file: stream {names[r]} overflows int64")


def serialize(cdf: pd.DataFrame, schema: LineageSchema) -> bytes:
    """Encode a finalized compressed table (``provrc.interval_columns``).

    One ``(n_cols, n)`` int64 matrix, its columns stably sorted by the key
    ``lo`` rows (primary key first), becomes the streams in place: key
    ``lo`` as deltas, every ``hi`` as a width over its ``lo``. A delta or
    width that overflows int64 raises ``ValueError`` naming the stream.
    """
    m = cdf[interval_columns(schema)].to_numpy(np.int64).T
    k = 2 * schema.n_key
    m = m.take(np.lexsort(m[k - 2 :: -2]), axis=1)
    names = _streams(schema)
    _subtract(m, slice(1, k, 2), m[0:k:2], names)
    _subtract(m, slice(k + 2, None, 3), m[k + 1 :: 3], names)
    prev = np.zeros_like(m[0:k:2])
    prev[:, 1:] = m[0:k:2, :-1]
    _subtract(m, slice(0, k, 2), prev, names)
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
    for row in m:
        _put_stream(parts, row)
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
    n_streams = 2 * n_key + 3 * n_val
    streams = []
    off = 16
    for r in range(n_streams):
        arr, off = _take_stream(buf, off, n)
        if r >= 2 * n_key and (r - 2 * n_key) % 3 == 0:
            bad = arr[(arr < 0) | (arr > n_key)]
            if len(bad):
                raise ValueError(
                    f"corrupt ProvRC file: value attribute {schema.val_cols[(r - 2 * n_key) // 3]} "
                    f"has representation code {bad[0]}, but the file has {n_key} key attributes"
                )
        streams.append(arr)
    if off != len(buf):
        raise ValueError(
            f"corrupt ProvRC file: {len(buf) - off} trailing bytes after the last stream"
        )
    # One int64 row per column of ``interval_columns``; a constant
    # stream's single value is broadcast.
    m = np.empty((n_streams, n), dtype=np.int64)
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
        payload = gzip.compress(payload, compresslevel=6, mtime=0)
    Path(path).write_bytes(payload)
    return len(payload)


def read(path: str | Path) -> tuple[pd.DataFrame, LineageSchema]:
    """Read a ProvRC or ProvRC-GZip file; a gzip member that is
    truncated or fails its checks raises ``ValueError`` naming ``path``."""
    buf = Path(path).read_bytes()
    if buf[:2] == b"\x1f\x8b":  # gzip magic
        try:
            buf = gzip.decompress(buf)
        except (EOFError, gzip.BadGzipFile, zlib.error) as e:
            raise ValueError(f"corrupt ProvRC-GZip file {path}: {e}") from e
    return deserialize(buf)
