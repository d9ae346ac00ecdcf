"""Operation signatures, index reshaping, and automatic reuse prediction.

Two mappings, the second more general (paper §VI):

- ``dim_sig(op, in_shapes, args)``     — reuse when only shapes match
  (lineage is value-independent);
- ``gen_sig(op, args)``                — reuse for *any* input shape via
  "index reshaping": every interval equal to a full axis extent
  ``[0, d-1]`` in the compressed table is replaced by a symbolic
  dimension, and instantiating new shapes rebuilds the lineage with no
  capture at all.

Every mapping stores and returns finalized ProvRC tables, one
``(table, schema)`` pair per input, as ``DSLog.register_operation``
compressed them: the index holds no raw relation and compresses nothing.
A dim_sig confirmation is ``DataFrame.equals`` on the tables, which is
exact because ``provrc.compress`` depends only on the relation's row set
(step 1's first sweep sorts on every column) and is lossless. A gen_sig
confirmation compares the decompressed instantiation with the
decompressed table; a gen_sig hit is the instantiated table itself.

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

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.core import provrc
from repro.core import ranges as rg
from repro.core.model import LineageSchema

Shapes = tuple[tuple[int, ...], ...]
Table = tuple[pd.DataFrame, LineageSchema]


def _flat_dims(in_shapes: Shapes) -> list[int]:
    return [d for s in in_shapes for d in s]


@dataclass
class GeneralizedTable:
    """A compressed lineage table with full-extent intervals symbolized.

    ``marks`` lists (row position, attribute, dim index): that row's
    interval on that attribute equals ``[0, dims[dim] - 1]`` at capture
    time and is re-instantiated from the new shapes on reuse.
    """

    template: pd.DataFrame
    schema: LineageSchema
    marks: list[tuple[int, str, int]]
    captured_shapes: Shapes


def generalize(cdf: pd.DataFrame, schema: LineageSchema, in_shapes: Shapes) -> GeneralizedTable:
    """Index reshaping (paper Fig 6): symbolize full-extent intervals.

    Only absolute intervals are candidates: a value attribute stored
    relative to a key (``rep != 0``) holds a delta, never an extent.
    Each interval is marked with the first dim whose extent it equals.
    """
    cdf = cdf.reset_index(drop=True)
    dims = _flat_dims(in_shapes)
    marks: list[tuple[int, str, int]] = []
    for a in schema.key_cols + schema.val_cols:
        todo = (cdf[rg.lo(a)] == 0).to_numpy()
        if a in schema.val_cols:
            todo &= (cdf[rg.rep(a)] == 0).to_numpy()
        hi_v = cdf[rg.hi(a)].to_numpy()
        for di, d in enumerate(dims):
            hit = todo & (hi_v == d - 1)
            marks += [(int(pos), a, di) for pos in np.flatnonzero(hit)]
            todo &= ~hit
    return GeneralizedTable(
        template=cdf.copy(),
        schema=schema,
        marks=marks,
        captured_shapes=tuple(tuple(s) for s in in_shapes),
    )


def instantiate(gen: GeneralizedTable, in_shapes: Shapes) -> pd.DataFrame:
    """Rebuild a concrete compressed table for new input shapes."""
    dims = _flat_dims(in_shapes)
    old_dims = _flat_dims(gen.captured_shapes)
    if len(dims) != len(old_dims):
        raise ValueError("axis count mismatch")
    if any(dims[di] < 1 for _, _, di in gen.marks):
        raise ValueError("full-extent interval on an empty axis")
    out = gen.template.copy()
    for pos, a, di in gen.marks:
        out.loc[pos, rg.hi(a)] = dims[di] - 1
    return out


@dataclass
class _SigState:
    status: str = "pending"  # pending | permanent | blocked
    stored: list = field(default_factory=list)  # per-input payloads
    shapes: Shapes | None = None


@dataclass
class ObserveResult:
    dim_status: str  # "permanent" is a hit, as in ``predict``
    gen_status: str
    error: bool = False  # a permanent mapping predicted wrong lineage


class ReuseIndex:
    """Automatic reuse prediction over repeated register_operation calls."""

    def __init__(self):
        self._dim: dict[tuple, _SigState] = {}
        self._gen: dict[tuple, _SigState] = {}

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
        dim_status, dim_error = self._observe_dim(op_name, op_args, in_shapes, tables)
        gen_status, gen_error = self._observe_gen(op_name, op_args, in_shapes, tables)
        return ObserveResult(dim_status, gen_status, dim_error or gen_error)

    def predict(self, op_name: str, op_args: tuple, in_shapes: Shapes) -> list[Table] | None:
        """Compressed lineage for a call, from a permanent mapping, or None.

        dim_sig (same shapes) is tried first and returns the stored
        tables themselves (no caller mutates a finalized table), then
        gen_sig, whose stored tables are re-instantiated for ``in_shapes``.
        """
        in_shapes = tuple(tuple(s) for s in in_shapes)
        st = self._dim.get((op_name, op_args, in_shapes))
        if st is not None and st.status == "permanent":
            return list(st.stored)
        st = self._gen.get((op_name, op_args))
        if st is not None and st.status == "permanent":
            try:
                return [(instantiate(g, in_shapes), g.schema) for g in st.stored]
            except ValueError:
                return None
        return None

    # -- dim_sig ---------------------------------------------------------
    def _observe_dim(self, op, args, shapes, tables):
        key = (op, args, shapes)
        st = self._dim.get(key)
        if st is None:
            self._dim[key] = _SigState(stored=list(tables))
            return "pending", False
        if st.status == "blocked":
            return "blocked", False
        match = len(st.stored) == len(tables) and all(
            sa == sb and a.equals(b) for (a, sa), (b, sb) in zip(st.stored, tables)
        )
        if st.status == "permanent":
            return "permanent", not match
        st.status = "permanent" if match else "blocked"
        return st.status, False

    # -- gen_sig ---------------------------------------------------------
    def _observe_gen(self, op, args, shapes, tables):
        key = (op, args)
        st = self._gen.get(key)
        if st is None:
            gens = [generalize(t, schema, shapes) for t, schema in tables]
            self._gen[key] = _SigState(stored=gens, shapes=shapes)
            return "pending", False
        if st.status == "blocked":
            return "blocked", False
        if st.status == "pending" and shapes == st.shapes:
            # The paper requires confirming calls with *different* shapes.
            return "pending", False
        match = self._gen_matches(st.stored, shapes, tables)
        if st.status == "permanent":
            return "permanent", not match
        st.status = "permanent" if match else "blocked"
        return st.status, False

    @staticmethod
    def _gen_matches(gens: list[GeneralizedTable], shapes, tables) -> bool:
        if len(gens) != len(tables):
            return False
        for gen, (table, schema) in zip(gens, tables):
            if schema != gen.schema:
                return False
            try:
                predicted = provrc.decompress(instantiate(gen, shapes), gen.schema)
            except (ValueError, KeyError):
                return False
            if not predicted.equals(provrc.decompress(table, schema)):
                return False
        return True
