"""Workflow builders for the query-latency experiments (paper Table VIII).

A pipeline is a chain of single-input steps; each step carries the full
lineage relation between consecutive arrays. The paper's four workflow
families are all here:

- image: resize -> luminosity -> rotate 90 -> horizontal flip -> LIME;
- relational: inner join -> NaN filter -> add columns -> one-hot ->
  add constant (over the 2-D rows x attributes array view);
- ResNet block: conv/bn/relu x2 + skip-add + relu (7 steps);
- random numpy: ops drawn from the registry's shape-preserving pool
  over a 100,000-cell array, as in §VII.D.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.capture import numpy_ops as nops
from repro.capture import patterns as pt
from repro.capture.explain import lime_capture
from repro.core import provrc
from repro.core.model import LineageSchema, forward_schema


@dataclass
class PipelineStep:
    name: str
    in_shape: tuple[int, ...]
    out_shape: tuple[int, ...]
    relation: pd.DataFrame  # full lineage: b* (out), a* (in)


def compress_pipeline(steps: list[PipelineStep]) -> list[tuple[pd.DataFrame, LineageSchema]]:
    """Compress every step's forward table, for chained forward queries."""
    out = []
    for s in steps:
        schema = forward_schema(len(s.out_shape), len(s.in_shape))
        out.append((provrc.compress(s.relation, schema), schema))
    return out


# -- image workflow (Table VIII left) ---------------------------------------

def image_pipeline(h0: int = 480, w0: int = 640, target: int = 416, *, lime_block: int = 16) -> list[PipelineStep]:
    c = 3
    h1 = w1 = target
    resize = pt.index_map(
        (h1, w1, c),
        lambda o: [o[0] * h0 // h1, o[1] * w0 // w1, o[2]],
    )
    lum = pt.identity((h1, w1, c))
    rot = pt.index_map((w1, h1, c), lambda o: [o[1], w1 - 1 - o[0], o[2]])
    flip = pt.index_map((w1, h1, c), lambda o: [o[0], h1 - 1 - o[1], o[2]])
    lime = lime_capture(w1, h1, c, block=lime_block, keep_frac=0.7, seed=0).relation(0)
    return [
        PipelineStep("resize", (h0, w0, c), (h1, w1, c), resize),
        PipelineStep("luminosity", (h1, w1, c), (h1, w1, c), lum),
        PipelineStep("rotate90", (h1, w1, c), (w1, h1, c), rot),
        PipelineStep("hflip", (w1, h1, c), (w1, h1, c), flip),
        PipelineStep("lime", (w1, h1, c), (1,), lime),
    ]


# -- relational workflow (Table VIII right) ---------------------------------

def relational_pipeline(
    n_left: int = 2000, n_right: int = 3000, *, seed: int = 0
) -> list[PipelineStep]:
    """The paper's relational workflow over the 2-D array view of tables.

    Step 1 joins a sorted-key base table with an episode table (the
    run-structured lineage the IMDB join exhibits); steps 2-5 transform
    the joined table.
    """
    g = np.random.default_rng(seed)
    lcols, rcols = 4, 3
    # Inner join on a sorted key: left row i joins right rows in a sorted
    # block. Simulate right-side multiplicity like title.episode.
    right_parent = np.sort(g.integers(0, n_left, n_right))
    out_rows = np.arange(n_right)  # one output row per right match
    left_of_out = right_parent
    cols_out = lcols + rcols - 1
    join_rel = pd.concat(
        [
            pd.DataFrame(
                {
                    "b0": np.repeat(out_rows, lcols),
                    "b1": np.tile(np.arange(lcols), n_right),
                    "a0": np.repeat(left_of_out, lcols),
                    "a1": np.tile(np.arange(lcols), n_right),
                }
            )
        ],
        ignore_index=True,
    )
    shape1 = (n_right, cols_out)

    # Step 2: drop rows with NaN (value filter, ~10% dropped).
    keep = g.random(n_right) >= 0.1
    old_idx = np.flatnonzero(keep)
    n2 = len(old_idx)
    new_of_old = np.full(n_right, -1)
    new_of_old[old_idx] = np.arange(n2)
    filt = pt.index_map(
        (n2, cols_out), lambda o: [old_idx[o[0]], o[1]]
    )
    shape2 = (n2, cols_out)

    # Step 3: add two columns -> new derived column at the end.
    derived = pd.DataFrame(
        {
            "b0": np.repeat(np.arange(n2), 2),
            "b1": cols_out,
            "a0": np.repeat(np.arange(n2), 2),
            "a1": np.tile([1, 2], n2),
        }
    )
    addcols = pd.concat(
        [pt.identity(shape2), derived], ignore_index=True
    )
    shape3 = (n2, cols_out + 1)

    # Step 4: one-hot encode the genre column into n_genres new columns.
    genre_col, n_genres = 3, 8
    onehot_new = pd.DataFrame(
        {
            "b0": np.repeat(np.arange(n2), n_genres),
            "b1": np.tile(np.arange(shape3[1], shape3[1] + n_genres), n2),
            "a0": np.repeat(np.arange(n2), n_genres),
            "a1": genre_col,
        }
    )
    onehot = pd.concat([pt.identity(shape3), onehot_new], ignore_index=True)
    shape4 = (n2, shape3[1] + n_genres)

    # Step 5: add a constant to one column (element-wise).
    addconst = pt.identity(shape4)

    return [
        PipelineStep("inner_join", (n_left, lcols), shape1, join_rel),
        PipelineStep("nan_filter", shape1, shape2, filt),
        PipelineStep("add_columns", shape2, shape3, addcols),
        PipelineStep("one_hot", shape3, shape4, onehot),
        PipelineStep("add_const", shape4, shape4, addconst),
    ]


# -- ResNet block (7 steps, §VII.D) -----------------------------------------

def resnet_pipeline(h: int = 56, w: int = 56) -> list[PipelineStep]:
    conv1 = pt.conv2d(h, w, 3, 3)
    steps = [
        PipelineStep("conv1", (h, w), (h, w), conv1),
        PipelineStep("bn1", (h, w), (h, w), pt.identity((h, w))),
        PipelineStep("relu1", (h, w), (h, w), pt.identity((h, w))),
        PipelineStep("conv2", (h, w), (h, w), pt.conv2d(h, w, 3, 3)),
        PipelineStep("bn2", (h, w), (h, w), pt.identity((h, w))),
        PipelineStep("skip_add", (h, w), (h, w), pt.identity((h, w))),
        PipelineStep("relu2", (h, w), (h, w), pt.identity((h, w))),
    ]
    return steps


# -- random numpy workflows (§VII.D) ----------------------------------------

def random_numpy_pipeline(
    n_ops: int,
    *,
    shape: tuple[int, int] = (100, 1000),
    seed: int = 0,
) -> list[PipelineStep]:
    """A random chain of shape-preserving numpy ops over a 100k-cell array.

    Element-wise and complex ops are drawn with equal probability (the
    registry pool is element-wise-heavy, so a uniform draw rarely
    exercises sort/cumsum-class lineage; the paper's latency spread of
    two orders of magnitude comes from exactly those draws).
    """
    g = np.random.default_rng(seed)
    pool = nops.single_float_pipeline_ops()
    element = [s for s in pool if s.category == "element"]
    complex_ = [s for s in pool if s.category == "complex"]
    steps = []
    for k in range(n_ops):
        sub = complex_ if g.random() < 0.5 else element
        spec = sub[int(g.integers(0, len(sub)))]
        cap = spec.capture((shape,), g)
        steps.append(
            PipelineStep(f"{k}:{spec.name}", shape, shape, cap.relation(0))
        )
    return steps
