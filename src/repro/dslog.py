"""The DSLog facade (paper §III): Array / Lineage / register_operation /
prov_query, backed by ProvRC compression, the in-situ θ-join, and the
automatic reuse index.

Every captured relation is compressed once, at ingest, into the backward
orientation (the paper's long-term choice, §VII.C.1), and the relation is
then dropped: the log and its reuse index hold only finalized ProvRC
tables. The forward orientation is materialized lazily when a forward
query needs it (§IV.C), by compressing the decompressed backward table
with the forward schema (the two hold the same row set, and ``compress``
depends only on that). Queries run in situ — a backward query never
decompresses a stored table.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import pandas as pd

from repro.capture.model import CapturedLineage
from repro.core import provrc
from repro.core.model import LineageSchema, backward_schema, forward_schema
from repro.insitu.theta_join import chain_query, intervals_to_cells
from repro.reuse.signatures import ReuseIndex


@dataclass
class _Edge:
    """Lineage between a (src array -> dst array) pair of one operation."""

    backward: pd.DataFrame  # finalized ProvRC table, key=dst
    schema: LineageSchema  # backward schema of ``backward``
    forward: pd.DataFrame | None = None  # compressed on first use, key=src

    def compressed(self, direction: str) -> tuple[pd.DataFrame, LineageSchema]:
        if direction == "backward":
            return self.backward, self.schema
        schema = forward_schema(self.schema.n_key, self.schema.n_val)
        if self.forward is None:
            relation = provrc.decompress(self.backward, self.schema)
            self.forward = provrc.compress(relation, schema)
        return self.forward, schema


class DSLog:
    """In-memory DSLog instance (kernel execution path).

    The facade is kernel-only: it never calls Spark. ``core.spark_provrc``
    and ``insitu.spark_query`` run the same kernels per partition in Spark
    executors, for callers that hold their tables in Spark. Reuse
    promotes a signature after one confirming call (the paper's m = 1).
    """

    def __init__(self):
        self._arrays: dict[str, tuple[int, ...]] = {}
        self._edges: dict[tuple[str, str], _Edge] = {}
        self._reuse = ReuseIndex()
        self.capture_calls = 0  # how many times a capture was executed
        self.reuse_hits = 0  # how many captures were skipped via reuse

    # -- paper §III.A API -------------------------------------------------
    def array(self, name: str, shape: tuple[int, ...]) -> None:
        """Array(name, shape): define a tracked array."""
        self._arrays[name] = tuple(shape)

    def lineage(self, arr_src: str, arr_dst: str, relation: pd.DataFrame) -> None:
        """Lineage(arr1, arr2, capture): compress one captured relation
        (columns ``b*`` for ``arr_dst``'s axes, ``a*`` for ``arr_src``'s)."""
        schema = self._schema(arr_src, [arr_dst], relation.columns)
        self._edges[(arr_src, arr_dst)] = _Edge(provrc.compress(relation, schema), schema)

    def register_operation(
        self,
        op_name: str,
        in_arrs: list[str],
        out_arrs: list[str],
        capture,
        op_args: tuple = (),
        *,
        reuse: bool = False,
    ) -> None:
        """register_operation: consolidate lineage for one executed op.

        ``capture`` is a callable ``() -> CapturedLineage`` (the paper's
        capture object) returning one relation per input array; each is
        compressed once, and the edges to every output array share it
        (and the forward table a forward query builds from it).
        With ``reuse`` the automatic predictor may skip the capture when a
        permanent signature mapping exists.
        """
        in_shapes = tuple(self._arrays[a] for a in in_arrs)
        predicted = self._reuse.predict(op_name, op_args, in_shapes) if reuse else None
        if predicted is not None:
            tables = predicted
            self.reuse_hits += 1
        else:
            cap: CapturedLineage = capture()
            self.capture_calls += 1
            if len(cap.relations) != len(in_arrs):
                raise ValueError(
                    f"{op_name}: capture returned {len(cap.relations)} relations "
                    f"for {len(in_arrs)} input arrays"
                )
            tables = []
            for src, rel in zip(in_arrs, cap.relations):
                schema = self._schema(src, out_arrs, rel.columns)
                tables.append((provrc.compress(rel, schema), schema))
            self._reuse.observe(op_name, op_args, in_shapes, tables)
        for src, (table, schema) in zip(in_arrs, tables, strict=True):
            edge = _Edge(table, schema)
            for dst in out_arrs:
                self._edges[(src, dst)] = edge

    def _schema(self, src: str, dsts: list[str], columns: Iterable[str]) -> LineageSchema:
        """The backward schema of the edges ``src -> dst`` for each of
        ``dsts``: one key per ``dst`` axis, one value per ``src`` axis.
        Raises ``ValueError`` unless ``columns`` are exactly those axes."""
        if not dsts:
            raise ValueError(f"lineage of {src} has no output array")
        got = sorted(columns)
        for dst in dsts:
            schema = backward_schema(len(self._arrays[dst]), len(self._arrays[src]))
            if got != sorted(schema.full_cols):
                raise ValueError(
                    f"lineage {src} -> {dst}: relation columns {got} are not the "
                    f"declared axes {sorted(schema.full_cols)}"
                )
        return schema

    # -- paper §III.A queries ---------------------------------------------
    def prov_query(self, path: list[str], query_cells: pd.DataFrame) -> pd.DataFrame:
        """prov_query(X, query_cells): lineage of the given cells of
        ``path[0]`` in ``path[-1]``, via chained in-situ θ-joins.
        Raises ``ValueError`` for a path of fewer than two arrays."""
        if len(path) < 2:
            raise ValueError(f"a lineage path names at least two arrays, got {list(path)}")
        tables = []
        for src, dst in zip(path, path[1:]):
            if (src, dst) in self._edges:
                # Path follows op direction: src is the op input -> the
                # query-facing (absolute) side is the input: forward rep.
                cdf, schema = self._edges[(src, dst)].compressed("forward")
            elif (dst, src) in self._edges:
                cdf, schema = self._edges[(dst, src)].compressed("backward")
            else:
                raise KeyError(f"no lineage between {src} and {dst}")
            tables.append((cdf, schema))
        key_cols = list(tables[0][1].key_cols)
        q = provrc.encode_query(query_cells.set_axis(key_cols, axis=1), key_cols)
        result = chain_query(q, tables)
        out_cols = list(tables[-1][1].val_cols)
        cells = intervals_to_cells(result, out_cols)
        return cells.set_axis([f"c{i}" for i in range(len(out_cols))], axis=1)
