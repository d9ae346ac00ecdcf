"""Perturbation-based ground-truth lineage capture.

Runs the real numpy operation and, for every input cell, replaces its
value with fresh random draws and records which output cells change.
This observes true value flow — the same mechanism the paper's
explainable-AI capture uses (occlusion/perturbation), applied exhaustively
at small scale. O(cells x trials) op executions, so it is used as a test
oracle for the analytic generators in ``numpy_ops``, not at benchmark
scale.

Caveat by construction: for non-injective value flow (``maximum``,
``sign``, masked regions) a perturbation may not change the output even
though the cell participates, so perturbation lineage is a *subset* of
contribution lineage. Tests assert equality for strictly-sensitive ops
and the subset relation otherwise.
"""
from __future__ import annotations

import itertools

import numpy as np
import pandas as pd

from repro.capture.model import CapturedLineage


def perturbation_capture(
    fn,
    arrays: list[np.ndarray],
    *,
    trials: int = 3,
    seed: int = 0,
    atol: float = 1e-12,
) -> CapturedLineage:
    """Capture lineage of ``out = fn(*arrays)`` by exhaustive perturbation."""
    g = np.random.default_rng(seed)
    base = np.asarray(fn(*arrays))
    out_shape = base.shape if base.shape != () else (1,)
    relations = []
    for ai, arr in enumerate(arrays):
        rows: list[tuple] = []
        for idx in itertools.product(*(range(d) for d in arr.shape)):
            changed = np.zeros(out_shape, dtype=bool)
            for _ in range(trials):
                mod = [a.copy() for a in arrays]
                mod[ai][idx] = mod[ai][idx] + g.uniform(0.5, 2.0) * (
                    1 if g.random() < 0.5 else -1
                )
                out = np.asarray(fn(*mod)).reshape(out_shape)
                with np.errstate(invalid="ignore"):
                    diff = ~np.isclose(out, base.reshape(out_shape), atol=atol, equal_nan=True)
                changed |= diff
            for out_idx in zip(*np.nonzero(changed)):
                rows.append(tuple(out_idx) + tuple(idx))
        cols = [f"b{j}" for j in range(len(out_shape))] + [
            f"a{i}" for i in range(len(arr.shape))
        ]
        relations.append(
            pd.DataFrame(rows, columns=cols).astype("int64")
            if rows
            else pd.DataFrame({c: pd.Series(dtype="int64") for c in cols})
        )
    return CapturedLineage(
        out_shape=out_shape,
        in_shapes=tuple(a.shape for a in arrays),
        relations=relations,
    )

