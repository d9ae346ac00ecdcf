"""Operation signatures, index reshaping, and automatic reuse prediction.

Two mappings, the second more general (paper §VI):

- ``dim_sig(op, in_shapes, args)``     — reuse when only shapes match
  (lineage is value-independent);
- ``gen_sig(op, args)``                — reuse for *any* input shape via
  "index reshaping": every interval equal to a full axis extent
  ``[0, d-1]`` in the compressed table is replaced by a symbolic
  dimension, and instantiating new shapes rebuilds the lineage with no
  capture at all.

Both are one ``_Signature`` record under their own key: the first call's
finalized ``(table, schema)`` pairs, by reference (the tables
``DSLog.register_operation`` compressed and its edges hold, so every
table is held once), each table's full-extent marks, the call's shapes
and a status. A prediction is ``instantiate`` of the stored tables at the
new shapes; at the stored shapes nothing changes and it returns the
tables themselves, so a dim_sig hit shares them. A confirmation compares
the instantiation with the captured tables: ``DataFrame.equals``, or
else equality of the decompressed relations. That is exact:
``provrc.compress`` depends only on the relation's row set (step 1's
first sweep sorts on every column) and is lossless, and an instantiation
may be a non-canonical table of the right relation.

``ReuseIndex`` implements the paper's automatic prediction: temporary
mappings are stored on first registration and promoted to permanent
after one confirming call (the paper's constant m = 1; gen_sig
additionally requires a different shape); a non-matching confirmation
marks the signature not-reusable. With m = 1, promotions are cheap but
can mispredict — ``np.cross`` (whose pattern depends on the
last-dimension size) is the paper's one observed error, reproduced in the
tests.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.core import provrc
from repro.core import ranges as rg
from repro.core.model import LineageSchema

Shapes = tuple[tuple[int, ...], ...]
Table = tuple[pd.DataFrame, LineageSchema]


def _flat_dims(in_shapes: Shapes) -> np.ndarray:
    return np.array([d for s in in_shapes for d in s], dtype=np.int64)


def generalize(cdf: pd.DataFrame, schema: LineageSchema, in_shapes: Shapes) -> np.ndarray:
    """Index reshaping (paper Fig 6): the full-extent intervals of ``cdf``.

    Returns an int64 ``(row, attribute, dim)`` array: that row's interval
    on that attribute (an index into ``key_cols + val_cols``) equals
    ``[0, dims[dim] - 1]`` of the flattened ``in_shapes``, and is
    re-instantiated from new shapes on reuse. Each interval is marked
    with the first dim whose extent it equals. Only absolute intervals
    are candidates: a value attribute stored relative to a key
    (``rep != 0``) holds a delta, never an extent.
    """
    attrs = schema.key_cols + schema.val_cols
    at = cdf.columns.get_indexer
    m = cdf.to_numpy(np.int64)
    hi_v = m[:, at([rg.hi(a) for a in attrs])]
    absolute = m[:, at([rg.lo(a) for a in attrs])] == 0
    absolute[:, schema.n_key :] &= m[:, at([rg.rep(v) for v in schema.val_cols])] == 0
    dim = np.full(hi_v.shape, -1, dtype=np.int64)
    for di, d in reversed(list(enumerate(_flat_dims(in_shapes)))):
        dim[absolute & (hi_v == d - 1)] = di
    row, attr = np.nonzero(dim >= 0)
    return np.column_stack([row, attr, dim[row, attr]]).astype(np.int64)


def instantiate(
    cdf: pd.DataFrame, schema: LineageSchema, marks: np.ndarray, in_shapes: Shapes
) -> pd.DataFrame:
    """``cdf`` with each marked interval's ``hi`` set from ``in_shapes``.

    Returns ``cdf`` itself when no value changes; otherwise a new table
    held as one int64 block, the layout ``provrc.finalize`` builds and the
    θ-join reads. Raises ``ValueError`` for a mark on an empty axis.
    """
    row, attr, dim = marks.T
    new_hi = _flat_dims(in_shapes)[dim] - 1
    if (new_hi < 0).any():
        raise ValueError("full-extent interval on an empty axis")
    col = cdf.columns.get_indexer([rg.hi(a) for a in schema.key_cols + schema.val_cols])[attr]
    m = cdf.to_numpy(np.int64).T
    if np.array_equal(m[col, row], new_hi):
        return cdf
    m = m.copy()
    m[col, row] = new_hi
    return pd.DataFrame(m.T, columns=cdf.columns)


@dataclass
class _Signature:
    """One mapping: the first call's tables, their marks, shapes, status."""

    tables: list[Table]
    marks: list[np.ndarray]
    shapes: Shapes
    status: str = "pending"  # pending | permanent | blocked

    def instantiate(self, shapes: Shapes) -> list[Table]:
        if [len(s) for s in shapes] != [len(s) for s in self.shapes]:
            raise ValueError("axis count mismatch")
        return [
            (instantiate(cdf, schema, marks, shapes), schema)
            for (cdf, schema), marks in zip(self.tables, self.marks)
        ]

    def matches(self, shapes: Shapes, tables: list[Table]) -> bool:
        """Whether the instantiation at ``shapes`` is the captured lineage;
        one that cannot be built or expanded is not."""
        if len(tables) != len(self.tables):
            return False
        try:
            predicted = self.instantiate(shapes)
            return all(
                ps == schema
                and (p.equals(cdf) or provrc.decompress(p, ps).equals(provrc.decompress(cdf, schema)))
                for (p, ps), (cdf, schema) in zip(predicted, tables)
            )
        except (ValueError, KeyError):
            return False


@dataclass
class ObserveResult:
    dim_status: str  # "permanent" is a hit, as in ``predict``
    gen_status: str
    error: bool = False  # a permanent mapping predicted wrong lineage


class ReuseIndex:
    """Automatic reuse prediction over repeated register_operation calls."""

    def __init__(self):
        self._sigs: dict[tuple, _Signature] = {}

    @staticmethod
    def _keys(op_name: str, op_args: tuple, in_shapes: Shapes):
        """dim_sig's key, then gen_sig's, each with whether a confirming
        call must have different shapes (gen_sig only, as in the paper)."""
        return [((op_name, op_args, in_shapes), False), ((op_name, op_args), True)]

    def observe(
        self,
        op_name: str,
        op_args: tuple,
        in_shapes: Shapes,
        tables: list[Table],
    ) -> ObserveResult:
        """Register one call's captured lineage; update predictions.

        ``tables`` is the ground-truth captured lineage, compressed: one
        finalized ``(table, schema)`` pair per input. Returns each
        mapping's status and the error flag for the evaluation harness.
        """
        in_shapes = tuple(tuple(s) for s in in_shapes)
        statuses, error, marks = [], False, None
        for key, needs_new_shapes in self._keys(op_name, op_args, in_shapes):
            sig = self._sigs.get(key)
            if sig is None:
                if marks is None:
                    marks = [generalize(cdf, schema, in_shapes) for cdf, schema in tables]
                sig = self._sigs[key] = _Signature(list(tables), marks, in_shapes)
            elif sig.status == "permanent":
                error |= not sig.matches(in_shapes, tables)
            elif sig.status == "pending" and not (needs_new_shapes and in_shapes == sig.shapes):
                sig.status = "permanent" if sig.matches(in_shapes, tables) else "blocked"
            statuses.append(sig.status)
        return ObserveResult(*statuses, error)

    def predict(self, op_name: str, op_args: tuple, in_shapes: Shapes) -> list[Table] | None:
        """Compressed lineage for a call, from a permanent mapping, or None.

        dim_sig (same shapes) is tried first, then gen_sig; the first
        permanent one's tables are instantiated for ``in_shapes`` (no
        caller mutates a finalized table, so they may be the stored ones).
        """
        in_shapes = tuple(tuple(s) for s in in_shapes)
        for key, _ in self._keys(op_name, op_args, in_shapes):
            sig = self._sigs.get(key)
            if sig is not None and sig.status == "permanent":
                try:
                    return sig.instantiate(in_shapes)
                except ValueError:
                    return None
        return None
