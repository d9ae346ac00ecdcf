"""The DSLog facade (paper §III): Array / Lineage / register_operation /
prov_query, backed by ProvRC compression, the in-situ θ-join, and the
automatic reuse index.

Lineage is stored compressed in the backward orientation (the paper's
long-term choice, §VII.C.1); the forward orientation is materialized
lazily when a forward query needs it (§IV.C). Queries run in situ — the
stored tables are never decompressed.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import pandas as pd

from repro.capture.model import CapturedLineage
from repro.core import provrc
from repro.core.model import LineageSchema, backward_schema, forward_schema
from repro.insitu.theta_join import chain_query, intervals_to_cells
from repro.reuse.signatures import ReuseIndex


@dataclass
class _Edge:
    """Lineage between a (src array -> dst array) pair of one operation."""

    n_src_axes: int
    n_dst_axes: int
    relation: pd.DataFrame  # full lineage, columns b* (dst), a* (src)
    backward: pd.DataFrame | None = None  # compressed, key=dst
    forward: pd.DataFrame | None = None  # compressed, key=src

    def compressed(self, direction: str) -> tuple[pd.DataFrame, LineageSchema]:
        if direction == "backward":
            schema = backward_schema(self.n_dst_axes, self.n_src_axes)
            if self.backward is None:
                self.backward = provrc.compress(self.relation, schema)
            return self.backward, schema
        schema = forward_schema(self.n_dst_axes, self.n_src_axes)
        if self.forward is None:
            self.forward = provrc.compress(self.relation, schema)
        return self.forward, schema


class DSLog:
    """In-memory DSLog instance (kernel execution path).

    The facade is kernel-only: it never calls Spark. ``core.spark_provrc``
    and ``insitu.spark_query`` run the same kernels per partition in Spark
    executors, for callers that hold their tables in Spark.
    """

    def __init__(self, *, reuse_m: int = 1):
        self._arrays: dict[str, tuple[int, ...]] = {}
        self._edges: dict[tuple[str, str], _Edge] = {}
        self._reuse = ReuseIndex(m=reuse_m)
        self.capture_calls = 0  # how many times a capture was executed
        self.reuse_hits = 0  # how many captures were skipped via reuse

    # -- paper §III.A API -------------------------------------------------
    def array(self, name: str, shape: tuple[int, ...]) -> None:
        """Array(name, shape): define a tracked array."""
        self._arrays[name] = tuple(shape)

    def lineage(self, arr_src: str, arr_dst: str, relation: pd.DataFrame) -> None:
        """Lineage(arr1, arr2, capture): ingest one captured relation."""
        self._edges[(arr_src, arr_dst)] = _Edge(
            n_src_axes=len(self._arrays[arr_src]),
            n_dst_axes=len(self._arrays[arr_dst]),
            relation=relation.reset_index(drop=True),
        )

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
        capture object); with ``reuse`` the automatic predictor may skip
        it when a permanent signature mapping exists.
        """
        in_shapes = tuple(self._arrays[a] for a in in_arrs)
        predicted = self._reuse.predict(op_name, op_args, in_shapes) if reuse else None
        if predicted is not None:
            relations = predicted
            self.reuse_hits += 1
        else:
            cap: CapturedLineage = capture()
            relations = cap.relations
            self.capture_calls += 1
            self._reuse.observe(op_name, op_args, in_shapes, relations)
        for src, rel in zip(in_arrs, relations):
            for dst in out_arrs:
                self.lineage(src, dst, rel)

    # -- paper §III.A queries ---------------------------------------------
    def prov_query(self, path: list[str], query_cells: pd.DataFrame) -> pd.DataFrame:
        """prov_query(X, query_cells): lineage of the given cells of
        ``path[0]`` in ``path[-1]``, via chained in-situ θ-joins."""
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
