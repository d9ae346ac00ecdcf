"""In-memory span tracing around the public functions of each layer.

The benchmark never edits the program: ``Tracer`` wraps module-level
functions (and one method) from outside, records one span per call with
a parent link, and restores the originals on ``uninstall``. Spans are
kept in memory and written once, when the run ends.

Two import-time bindings would otherwise make a wrapper record nothing:

- ``repro.insitu`` re-exports the function ``theta_join`` under the
  submodule's name, so ``repro.insitu.theta_join`` is the function, not
  the module. Targets are therefore resolved with
  ``importlib.import_module``, which returns the module from
  ``sys.modules``.
- ``repro.dslog`` and ``repro.experiments.latency`` bind ``chain_query``
  and ``intervals_to_cells`` with ``from ... import``. Installing a
  wrapper therefore replaces every attribute of every loaded ``repro``
  module that *is* the original function, not only the defining one.

A target that no longer exists (a later refactor renamed or removed it)
is skipped with a warning; the layer metrics built on it are dropped.
"""
from __future__ import annotations

import importlib
import json
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable


@dataclass
class Span:
    id: int
    parent: int | None
    op: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _rows(x: Any) -> int:
    try:
        return len(x)
    except TypeError:
        return 0


# (module, attribute, span name, attrs(args, kwargs, result) -> dict)
Target = tuple[str, str, str, Callable[[tuple, dict, Any], dict] | None]

TARGETS: list[Target] = [
    ("repro.core.provrc", "compress", "provrc.compress",
     lambda a, k, r: {"rows_in": _rows(a[0]), "rows_out": _rows(r)}),
    ("repro.core.provrc", "finalize", "provrc.finalize", None),
    ("repro.core.provrc", "encode_query", "provrc.encode_query", None),
    ("repro.core.storage", "write", "storage.write",
     lambda a, k, r: {"bytes": r}),
    ("repro.core.storage", "serialize", "storage.serialize", None),
    ("repro.core.storage", "read", "storage.read", None),
    ("repro.core.storage", "deserialize", "storage.deserialize", None),
    ("repro.insitu.theta_join", "chain_query", "theta_join.chain_query", None),
    ("repro.insitu.theta_join", "theta_join", "theta_join.theta_join", None),
    ("repro.insitu.theta_join", "merge_intervals", "theta_join.merge_intervals",
     lambda a, k, r: {"rows_in": _rows(a[0]), "rows_out": _rows(r)}),
    ("repro.insitu.theta_join", "intervals_to_cells", "theta_join.intervals_to_cells",
     lambda a, k, r: {"cells": _rows(r)}),
    ("repro.dslog", "DSLog.prov_query", "dslog.prov_query", None),
    ("repro.core.spark_provrc", "compress_spark", "spark_provrc.compress_spark", None),
    ("repro.core.spark_provrc", "collect_compressed", "spark_provrc.collect_compressed", None),
    ("repro.insitu.spark_query", "chain_query_spark", "spark_query.chain_query_spark", None),
    ("repro.insitu.spark_query", "collect_cells", "spark_query.collect_cells", None),
    ("repro.insitu.store", "open_store", "store.open_store", None),
]


class Tracer:
    """Records spans for every call into the targets while installed."""

    def __init__(self, targets: list[Target] = TARGETS):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[Span] = []
        self._patches: list[tuple[Any, str, Any, Any]] = []
        self.missing: list[str] = []
        for mod_name, attr, name, attrs in targets:
            try:
                owner = importlib.import_module(mod_name)
            except ImportError:
                self._skip(name, f"{mod_name}.{attr}")
                continue
            *path, leaf = attr.split(".")
            for p in path:
                owner = getattr(owner, p, None)
            orig = getattr(owner, leaf, None) if owner is not None else None
            if not callable(orig):
                self._skip(name, f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(orig, name, attrs)
            self._patches.append((owner, leaf, orig, wrapper))
            if path:  # a method: patching the class is enough
                continue
            for mname, mod in list(sys.modules.items()):
                if mod is owner or not mname.startswith("repro"):
                    continue
                for aname, val in list(vars(mod).items()):
                    if val is orig:
                        self._patches.append((mod, aname, orig, wrapper))

    def _skip(self, name: str, what: str) -> None:
        self.missing.append(name)
        warnings.warn(f"trace target {what} not found; its layer metrics are dropped")

    def _wrap(self, fn, name, attrs):
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._stack[-1].id if tracer._stack else None
            span = Span(len(tracer.spans), parent, tracer.op, name, time.perf_counter())
            tracer.spans.append(span)
            tracer._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the durations of its direct children."""
        out = {s.id: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([vars(s) for s in self.spans]))
