"""Naming conventions for lineage relations and compressed tables.

A lineage relation for an operation ``A -> B`` (A: m input axes, B: l
output axes) is a flat integer table with columns ``b0..b{l-1}`` then
``a0..a{m-1}``; one row per (output cell <- input cell) contribution, set
semantics (unique rows), 0-based indices.

The compressed representation is organized around *roles*, which makes the
paper's forward/backward asymmetry (§IV.C) a parameter instead of a second
algorithm:

- **key** attributes are absolute and query-facing (predicates push down
  on them);
- **value** attributes may be stored absolutely or relative to a key
  attribute (``delta = value - key``).

Backward tables use key=B, value=A (answering "which inputs produced this
output"); forward tables use key=A, value=B. Both are produced by the same
``provrc.compress`` kernel.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass


def out_axis(j: int) -> str:
    return f"b{j}"


def in_axis(i: int) -> str:
    return f"a{i}"


@dataclass(frozen=True)
class LineageSchema:
    """Column roles for one lineage relation.

    ``key_cols`` are the absolute/query-facing attributes, ``val_cols``
    the possibly-relative ones. ``full_cols`` is the canonical column
    order of the *uncompressed* relation (outputs first, as in the paper's
    §III.B relational model).
    """

    key_cols: tuple[str, ...]
    val_cols: tuple[str, ...]
    direction: str  # "backward" | "forward"

    @property
    def full_cols(self) -> tuple[str, ...]:
        if self.direction == "backward":
            return self.key_cols + self.val_cols
        return self.val_cols + self.key_cols

    @property
    def n_key(self) -> int:
        return len(self.key_cols)

    @property
    def n_val(self) -> int:
        return len(self.val_cols)


def backward_schema(n_out: int, n_in: int) -> LineageSchema:
    """Backward representation: output axes absolute, inputs may be relative."""
    return LineageSchema(
        key_cols=tuple(out_axis(j) for j in range(n_out)),
        val_cols=tuple(in_axis(i) for i in range(n_in)),
        direction="backward",
    )


def backward_schema_of(columns: Iterable[str]) -> LineageSchema:
    """Backward schema of a lineage relation with these column names: one
    key per output column (``b*``), one value per input column (``a*``)."""
    cols = list(columns)
    return backward_schema(
        sum(c.startswith("b") for c in cols), sum(c.startswith("a") for c in cols)
    )


def forward_schema(n_out: int, n_in: int) -> LineageSchema:
    """Forward representation: input axes absolute, outputs may be relative."""
    return LineageSchema(
        key_cols=tuple(in_axis(i) for i in range(n_in)),
        val_cols=tuple(out_axis(j) for j in range(n_out)),
        direction="forward",
    )


def schema_of(direction: str, n_key: int, n_val: int) -> LineageSchema:
    """The schema a stored table declares by its direction and its
    numbers of key and value attributes."""
    if direction == "backward":
        return backward_schema(n_key, n_val)
    if direction == "forward":
        return forward_schema(n_val, n_key)
    raise ValueError(f"unknown lineage direction {direction!r}")
