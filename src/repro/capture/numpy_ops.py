"""The 136-operation numpy lineage registry (paper §VII.E, Table IX).

The paper evaluates every numpy API function that (1) can intake and
output float64 arrays and (2) takes only scalar non-array arguments:
75 element-wise operations and 61 "complex" operations. This module
enumerates the same split and attaches a lineage capture to each op:

- value-independent ops use analytic generators from ``patterns``
  (validated against perturbation capture in the tests);
- value-dependent ops (sort family, arg-based reductions) execute the
  real numpy function on concrete data and derive lineage from it — the
  role the paper's ``tracked_cell`` plays.

Each spec also carries a ``runner`` (the actual numpy call) so tests can
cross-check generators with ``tracked.perturbation_capture``, plus a
default and an alternative shape set for the reuse evaluation
(``dim_sig`` needs same-shape/different-data runs, ``gen_sig`` needs
different-shape runs).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import pandas as pd

from repro.capture import patterns as pt
from repro.capture.model import CapturedLineage

Shapes = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class OpSpec:
    name: str
    category: str  # "element" | "complex"
    value_dependent: bool
    capture: Callable[[Shapes, np.random.Generator], CapturedLineage]
    default_shapes: Shapes
    alt_shapes: Shapes
    runner: Callable | None = None
    op_args: tuple = ()


OPS: dict[str, OpSpec] = {}


def _register(spec: OpSpec) -> None:
    if spec.name in OPS:
        raise ValueError(f"duplicate op {spec.name}")
    OPS[spec.name] = spec


def _captured(out_shape, in_shapes, relations) -> CapturedLineage:
    return CapturedLineage(
        out_shape=tuple(out_shape) if out_shape != () else (1,),
        in_shapes=tuple(tuple(s) for s in in_shapes),
        relations=relations,
    )


# --------------------------------------------------------------------------
# Element-wise operations (75)
# --------------------------------------------------------------------------

def _elementwise_capture(n_inputs: int):
    def cap(shapes: Shapes, rng=None) -> CapturedLineage:
        shape = shapes[0]
        rels = [pt.identity(shape) for _ in range(n_inputs)]
        return _captured(shape, shapes, rels)

    return cap


# 50 unary + 22 binary + 3 scalar-arg = the paper's 75 element-wise ops.
# All are numpy API names meeting the paper's criteria (float64 in/out,
# scalar-only non-array args); aliases (abs/absolute, conj/conjugate,
# divide/true_divide, …) count as distinct API functions, as in the paper.
_UNARY_ELEMENT = [
    "abs", "absolute", "fabs", "negative", "positive", "sign", "rint", "fix",
    "ceil", "floor", "trunc", "sqrt", "cbrt", "square", "reciprocal", "exp",
    "exp2", "expm1", "log", "log2", "log10", "log1p", "sin", "cos", "tan",
    "arcsin", "arccos", "arctan", "sinh", "cosh", "tanh", "arcsinh",
    "arccosh", "arctanh", "deg2rad", "rad2deg", "degrees", "radians",
    "conjugate", "conj", "i0", "sinc", "spacing", "nan_to_num", "copy",
    "real", "imag", "angle", "round", "real_if_close",
]

_BINARY_ELEMENT = [
    "add", "subtract", "multiply", "divide", "true_divide", "floor_divide",
    "mod", "fmod", "remainder", "power", "float_power", "maximum", "minimum",
    "fmax", "fmin", "hypot", "arctan2", "copysign", "nextafter", "logaddexp",
    "logaddexp2", "heaviside",
]

_ELEMENT_SHAPE: Shapes = ((6, 5),)
_ELEMENT_ALT: Shapes = ((4, 7),)


def _np_attr(name: str):
    return getattr(np, name, None)


for _name in _UNARY_ELEMENT:
    fn = _np_attr(_name)
    _register(
        OpSpec(
            name=_name,
            category="element",
            value_dependent=False,
            capture=_elementwise_capture(1),
            default_shapes=_ELEMENT_SHAPE,
            alt_shapes=_ELEMENT_ALT,
            runner=(lambda f: (lambda a: f(a)))(fn) if fn is not None else None,
        )
    )

for _name in _BINARY_ELEMENT:
    fn = _np_attr(_name)
    _register(
        OpSpec(
            name=_name,
            category="element",
            value_dependent=False,
            capture=_elementwise_capture(2),
            default_shapes=(_ELEMENT_SHAPE[0], _ELEMENT_SHAPE[0]),
            alt_shapes=(_ELEMENT_ALT[0], _ELEMENT_ALT[0]),
            runner=(lambda f: (lambda a, b: f(a, b)))(fn) if fn is not None else None,
        )
    )

_register(
    OpSpec(
        name="clip",
        category="element",
        value_dependent=False,
        capture=_elementwise_capture(1),
        default_shapes=_ELEMENT_SHAPE,
        alt_shapes=_ELEMENT_ALT,
        runner=lambda a: np.clip(a, 0.25, 0.75),
        op_args=(0.25, 0.75),
    )
)
_register(
    OpSpec(
        name="around",
        category="element",
        value_dependent=False,
        capture=_elementwise_capture(1),
        default_shapes=_ELEMENT_SHAPE,
        alt_shapes=_ELEMENT_ALT,
        runner=lambda a: np.around(a, 2),
        op_args=(2,),
    )
)
_register(
    OpSpec(
        name="nan_to_num_scaled",
        category="element",
        value_dependent=False,
        capture=_elementwise_capture(1),
        default_shapes=_ELEMENT_SHAPE,
        alt_shapes=_ELEMENT_ALT,
        runner=lambda a: np.nan_to_num(a, nan=0.5),
        op_args=(0.5,),
    )
)


# --------------------------------------------------------------------------
# Complex operations (61)
# --------------------------------------------------------------------------

def _reduce_capture(axis: int):
    def cap(shapes: Shapes, rng=None) -> CapturedLineage:
        shape = shapes[0]
        rel = pt.reduce_axis(shape, axis)
        out_shape = tuple(d for ax, d in enumerate(shape) if ax != axis % len(shape))
        return _captured(out_shape or (1,), shapes, [rel])

    return cap


def _cum_capture(axis: int):
    def cap(shapes: Shapes, rng=None) -> CapturedLineage:
        shape = shapes[0]
        return _captured(shape, shapes, [pt.cumulative(shape, axis)])

    return cap


def _map_capture(out_shape_fn, map_fn, n_inputs: int = 1):
    """Generic one-to-one capture; ``map_fn(out_idx, shapes, i)`` per input."""

    def cap(shapes: Shapes, rng=None) -> CapturedLineage:
        out_shape = out_shape_fn(shapes)
        rels = [
            pt.index_map(out_shape, lambda o, i=i: map_fn(o, shapes, i))
            for i in range(n_inputs)
        ]
        return _captured(out_shape, shapes, rels)

    return cap


def _argreduce_capture(select_fn):
    """Value-dependent reduction over axis=1 of a 2-D array.

    ``select_fn(data)`` returns a list of per-row contributing column
    index arrays (e.g. [argmax] or [lo_median, hi_median]).
    """

    def cap(shapes: Shapes, rng: np.random.Generator) -> CapturedLineage:
        data = rng.random(shapes[0])
        r = shapes[0][0]
        cols = select_fn(data)
        frames = [
            pd.DataFrame(
                {"b0": np.arange(r), "a0": np.arange(r), "a1": c.astype("int64")}
            )
            for c in cols
        ]
        rel = pd.concat(frames, ignore_index=True).drop_duplicates()
        return _captured((r,), shapes, [rel])

    return cap


def _sortlike_capture(argfn):
    def cap(shapes: Shapes, rng: np.random.Generator) -> CapturedLineage:
        data = rng.random(shapes[0])
        perm = argfn(data)
        r, c = shapes[0]
        oi, oj = [g.ravel() for g in np.indices((r, c))]
        rel = pd.DataFrame(
            {"b0": oi, "b1": oj, "a0": oi, "a1": perm[oi, oj].astype("int64")}
        )
        return _captured(shapes[0], shapes, [rel])

    return cap


_R2 = ((6, 5),)
_R2_ALT = ((4, 7),)

# Reductions over axis=1 — value-independent all-to-all (the paper's
# "Aggregate" pattern). std/var/mean/average read every cell of the fiber.
for _name in [
    "sum", "prod", "mean", "std", "var", "average",
    "nansum", "nanprod", "nanmean", "nanstd", "nanvar",
]:
    fn = _np_attr(_name)
    _register(
        OpSpec(
            name=_name,
            category="complex",
            value_dependent=False,
            capture=_reduce_capture(1),
            default_shapes=_R2,
            alt_shapes=_R2_ALT,
            runner=(lambda f: (lambda a: f(a, axis=1)))(fn) if fn is not None else None,
            op_args=("axis=1",),
        )
    )

# Value-dependent reductions: contribution is the selected cell(s).
def _mid_indices(data):
    order = np.argsort(data, axis=1)
    c = data.shape[1]
    if c % 2:
        return [order[:, c // 2]]
    return [order[:, c // 2 - 1], order[:, c // 2]]


for _name, _sel, _run in [
    ("max", lambda d: [np.argmax(d, axis=1)], lambda a: np.max(a, axis=1)),
    ("min", lambda d: [np.argmin(d, axis=1)], lambda a: np.min(a, axis=1)),
    ("nanmax", lambda d: [np.nanargmax(d, axis=1)], lambda a: np.nanmax(a, axis=1)),
    ("nanmin", lambda d: [np.nanargmin(d, axis=1)], lambda a: np.nanmin(a, axis=1)),
    ("median", _mid_indices, lambda a: np.median(a, axis=1)),
    ("nanmedian", _mid_indices, lambda a: np.nanmedian(a, axis=1)),
    (
        "ptp",
        lambda d: [np.argmax(d, axis=1), np.argmin(d, axis=1)],
        lambda a: np.ptp(a, axis=1),
    ),
]:
    _register(
        OpSpec(
            name=_name,
            category="complex",
            value_dependent=True,
            capture=_argreduce_capture(_sel),
            default_shapes=_R2,
            alt_shapes=_R2_ALT,
            runner=_run,
            op_args=("axis=1",),
        )
    )

# Cumulative (prefix) ops along axis=1.
for _name in ["cumsum", "cumprod", "nancumsum", "nancumprod"]:
    fn = _np_attr(_name)
    _register(
        OpSpec(
            name=_name,
            category="complex",
            value_dependent=False,
            capture=_cum_capture(1),
            default_shapes=_R2,
            alt_shapes=_R2_ALT,
            runner=(lambda f: (lambda a: f(a, axis=1)))(fn) if fn is not None else None,
            op_args=("axis=1",),
        )
    )

# Shape / layout operations.
_register(OpSpec(
    name="transpose", category="complex", value_dependent=False,
    capture=_map_capture(lambda s: s[0][::-1], lambda o, s, i: [o[1], o[0]]),
    default_shapes=_R2, alt_shapes=_R2_ALT,
    runner=lambda a: np.transpose(a),
))
_register(OpSpec(
    name="swapaxes", category="complex", value_dependent=False,
    capture=_map_capture(lambda s: s[0][::-1], lambda o, s, i: [o[1], o[0]]),
    default_shapes=_R2, alt_shapes=_R2_ALT,
    runner=lambda a: np.swapaxes(a, 0, 1), op_args=(0, 1),
))
_register(OpSpec(
    name="reshape", category="complex", value_dependent=False,
    capture=_map_capture(
        lambda s: (s[0][0] * s[0][1],),
        lambda o, s, i: [o[0] // s[0][1], o[0] % s[0][1]],
    ),
    default_shapes=_R2, alt_shapes=_R2_ALT,
    runner=lambda a: np.reshape(a, (-1,)), op_args=("(-1,)",),
))
_register(OpSpec(
    name="ravel", category="complex", value_dependent=False,
    capture=_map_capture(
        lambda s: (s[0][0] * s[0][1],),
        lambda o, s, i: [o[0] // s[0][1], o[0] % s[0][1]],
    ),
    default_shapes=_R2, alt_shapes=_R2_ALT,
    runner=lambda a: np.ravel(a),
))
_register(OpSpec(
    name="moveaxis", category="complex", value_dependent=False,
    capture=_map_capture(
        lambda s: (s[0][1], s[0][2], s[0][0]),
        lambda o, s, i: [o[2], o[0], o[1]],
    ),
    default_shapes=((3, 4, 5),), alt_shapes=((2, 6, 3),),
    runner=lambda a: np.moveaxis(a, 0, 2), op_args=(0, 2),
))
_register(OpSpec(
    name="expand_dims", category="complex", value_dependent=False,
    capture=_map_capture(
        lambda s: (1,) + s[0], lambda o, s, i: [o[1], o[2]]
    ),
    default_shapes=_R2, alt_shapes=_R2_ALT,
    runner=lambda a: np.expand_dims(a, 0), op_args=(0,),
))
_register(OpSpec(
    name="squeeze", category="complex", value_dependent=False,
    capture=_map_capture(
        lambda s: s[0][1:], lambda o, s, i: [np.zeros_like(o[0]), o[0], o[1]]
    ),
    default_shapes=((1, 6, 5),), alt_shapes=((1, 4, 7),),
    runner=lambda a: np.squeeze(a, 0), op_args=(0,),
))
_register(OpSpec(
    name="broadcast_to", category="complex", value_dependent=False,
    capture=_map_capture(lambda s: (6,) + s[0], lambda o, s, i: [o[1]]),
    default_shapes=((5,),), alt_shapes=((8,),),
    runner=lambda a: np.broadcast_to(a, (6,) + a.shape).copy(), op_args=("(6, d)",),
))
_register(OpSpec(
    name="flip", category="complex", value_dependent=False,
    capture=_map_capture(
        lambda s: s[0], lambda o, s, i: [s[0][0] - 1 - o[0], o[1]]
    ),
    default_shapes=_R2, alt_shapes=_R2_ALT,
    runner=lambda a: np.flip(a, 0), op_args=(0,),
))
_register(OpSpec(
    name="flipud", category="complex", value_dependent=False,
    capture=_map_capture(
        lambda s: s[0], lambda o, s, i: [s[0][0] - 1 - o[0], o[1]]
    ),
    default_shapes=_R2, alt_shapes=_R2_ALT,
    runner=lambda a: np.flipud(a),
))
_register(OpSpec(
    name="fliplr", category="complex", value_dependent=False,
    capture=_map_capture(
        lambda s: s[0], lambda o, s, i: [o[0], s[0][1] - 1 - o[1]]
    ),
    default_shapes=_R2, alt_shapes=_R2_ALT,
    runner=lambda a: np.fliplr(a),
))
_register(OpSpec(
    name="roll", category="complex", value_dependent=False,
    capture=_map_capture(
        lambda s: s[0], lambda o, s, i: [(o[0] - 2) % s[0][0], o[1]]
    ),
    default_shapes=_R2, alt_shapes=_R2_ALT,
    runner=lambda a: np.roll(a, 2, axis=0), op_args=(2, 0),
))
_register(OpSpec(
    name="rot90", category="complex", value_dependent=False,
    capture=_map_capture(
        lambda s: s[0][::-1], lambda o, s, i: [o[1], s[0][1] - 1 - o[0]]
    ),
    default_shapes=_R2, alt_shapes=_R2_ALT,
    runner=lambda a: np.rot90(a),
))
_register(OpSpec(
    name="tile", category="complex", value_dependent=False,
    capture=_map_capture(
        lambda s: (2 * s[0][0], 2 * s[0][1]),
        lambda o, s, i: [o[0] % s[0][0], o[1] % s[0][1]],
    ),
    default_shapes=_R2, alt_shapes=_R2_ALT,
    runner=lambda a: np.tile(a, (2, 2)), op_args=((2, 2),),
))
_register(OpSpec(
    name="repeat", category="complex", value_dependent=False,
    capture=_map_capture(
        lambda s: (2 * s[0][0], s[0][1]), lambda o, s, i: [o[0] // 2, o[1]]
    ),
    default_shapes=_R2, alt_shapes=_R2_ALT,
    runner=lambda a: np.repeat(a, 2, axis=0), op_args=(2, 0),
))


def _concat_axis0_map(o, shapes, i):
    r0 = shapes[0][0]
    if i == 0:
        keep = o[0] < r0
        return [o[0], o[1]], keep
    keep = o[0] >= r0
    return [o[0] - r0, o[1]], keep


def _concat_axis1_map(o, shapes, i):
    c0 = shapes[0][1]
    if i == 0:
        keep = o[1] < c0
        return [o[0], o[1]], keep
    keep = o[1] >= c0
    return [o[0], o[1] - c0], keep


for _name, _axis, _map, _run in [
    ("concatenate", 0, _concat_axis0_map, lambda a, b: np.concatenate([a, b], axis=0)),
    ("vstack", 0, _concat_axis0_map, lambda a, b: np.vstack([a, b])),
    ("hstack", 1, _concat_axis1_map, lambda a, b: np.hstack([a, b])),
]:
    _register(OpSpec(
        name=_name, category="complex", value_dependent=False,
        capture=_map_capture(
            (lambda s: (s[0][0] + s[1][0], s[0][1])) if _axis == 0
            else (lambda s: (s[0][0], s[0][1] + s[1][1])),
            _map, n_inputs=2,
        ),
        default_shapes=(_R2[0], _R2[0]), alt_shapes=(_R2_ALT[0], _R2_ALT[0]),
        runner=_run, op_args=(_axis,),
    ))


def _stack_map(o, shapes, i):
    keep = o[0] == i
    return [o[1], o[2]], keep


_register(OpSpec(
    name="stack", category="complex", value_dependent=False,
    capture=_map_capture(lambda s: (2,) + s[0], _stack_map, n_inputs=2),
    default_shapes=(_R2[0], _R2[0]), alt_shapes=(_R2_ALT[0], _R2_ALT[0]),
    runner=lambda a, b: np.stack([a, b], axis=0), op_args=(0,),
))


def _pad_capture(shapes: Shapes, rng=None) -> CapturedLineage:
    n = shapes[0][0]
    rel = pt.window(n + 4, n, -2, -2, clip=False)
    return _captured((n + 4,), shapes, [rel])


_register(OpSpec(
    name="pad", category="complex", value_dependent=False,
    capture=_pad_capture,
    default_shapes=((30,),), alt_shapes=((12,),),
    runner=lambda a: np.pad(a, 2), op_args=(2,),
))

# Linear algebra.
def _matmul_capture(shapes: Shapes, rng=None) -> CapturedLineage:
    (n, k), (k2, m) = shapes
    rel_a, rel_b = pt.matmul(n, k, m)
    return _captured((n, m), shapes, [rel_a, rel_b])


for _name, _run in [
    ("matmul", lambda a, b: a @ b),
    ("dot", lambda a, b: np.dot(a, b)),
    ("tensordot", lambda a, b: np.tensordot(a, b, axes=1)),
]:
    _register(OpSpec(
        name=_name, category="complex", value_dependent=False,
        capture=_matmul_capture,
        default_shapes=((6, 4), (4, 5)), alt_shapes=((3, 7), (7, 2)),
        runner=_run,
    ))


def _inner_capture(shapes: Shapes, rng=None) -> CapturedLineage:
    (n, k), (m, k2) = shapes
    oi, oj = [g.ravel() for g in np.indices((n, m))]
    rep_i, rep_j = np.repeat(oi, k), np.repeat(oj, k)
    inner = np.tile(np.arange(k), n * m)
    rel_a = pd.DataFrame({"b0": rep_i, "b1": rep_j, "a0": rep_i, "a1": inner})
    rel_b = pd.DataFrame({"b0": rep_i, "b1": rep_j, "a0": rep_j, "a1": inner})
    return _captured((n, m), shapes, [rel_a, rel_b])


_register(OpSpec(
    name="inner", category="complex", value_dependent=False,
    capture=_inner_capture,
    default_shapes=((6, 4), (5, 4)), alt_shapes=((3, 6), (4, 6)),
    runner=lambda a, b: np.inner(a, b),
))


def _outer_capture(shapes: Shapes, rng=None) -> CapturedLineage:
    (n,), (m,) = shapes
    oi, oj = [g.ravel() for g in np.indices((n, m))]
    rel_a = pd.DataFrame({"b0": oi, "b1": oj, "a0": oi})
    rel_b = pd.DataFrame({"b0": oi, "b1": oj, "a0": oj})
    return _captured((n, m), shapes, [rel_a, rel_b])


_register(OpSpec(
    name="outer", category="complex", value_dependent=False,
    capture=_outer_capture,
    default_shapes=((6,), (5,)), alt_shapes=((4,), (7,)),
    runner=lambda a, b: np.outer(a, b),
))


def _vdot_capture(shapes: Shapes, rng=None) -> CapturedLineage:
    rels = [pt.reduce_all(s) for s in shapes]
    return _captured((1,), shapes, rels)


_register(OpSpec(
    name="vdot", category="complex", value_dependent=False,
    capture=_vdot_capture,
    default_shapes=((6,), (6,)), alt_shapes=((9,), (9,)),
    runner=lambda a, b: np.vdot(a, b),
))


def _kron_capture(shapes: Shapes, rng=None) -> CapturedLineage:
    (r, c), (p, q) = shapes
    out_shape = (r * p, c * q)
    rel_a = pt.index_map(out_shape, lambda o: [o[0] // p, o[1] // q])
    rel_b = pt.index_map(out_shape, lambda o: [o[0] % p, o[1] % q])
    return _captured(out_shape, shapes, [rel_a, rel_b])


_register(OpSpec(
    name="kron", category="complex", value_dependent=False,
    capture=_kron_capture,
    default_shapes=((2, 3), (3, 2)), alt_shapes=((3, 2), (2, 2)),
    runner=lambda a, b: np.kron(a, b),
))


def _cross_capture(shapes: Shapes, rng=None) -> CapturedLineage:
    """np.cross: lineage pattern depends on the last-dimension size.

    3-vectors: out (i,k) <- both inputs at (i, j != k). 2-vectors: out
    (i,) <- both inputs at (i, 0..1). This dependence is exactly what
    makes the paper's automatic gen_sig prediction misfire on cross.
    """
    (n, d), _ = shapes
    if d == 3:
        rows = [
            (i, k, i, j)
            for i in range(n)
            for k in range(3)
            for j in range(3)
            if j != k
        ]
        rel = pd.DataFrame(rows, columns=["b0", "b1", "a0", "a1"])
        return _captured((n, 3), shapes, [rel.copy(), rel.copy()])
    rows = [(i, i, j) for i in range(n) for j in range(2)]
    rel = pd.DataFrame(rows, columns=["b0", "a0", "a1"])
    return _captured((n,), shapes, [rel.copy(), rel.copy()])


_register(OpSpec(
    name="cross", category="complex", value_dependent=False,
    capture=_cross_capture,
    default_shapes=((4, 3), (4, 3)), alt_shapes=((6, 3), (6, 3)),
    runner=lambda a, b: np.cross(a, b),
))


def _trace_capture(shapes: Shapes, rng=None) -> CapturedLineage:
    n = min(shapes[0])
    rel = pd.DataFrame({"b0": np.zeros(n, dtype=int), "a0": np.arange(n), "a1": np.arange(n)})
    return _captured((1,), shapes, [rel])


_register(OpSpec(
    name="trace", category="complex", value_dependent=False,
    capture=_trace_capture,
    default_shapes=((6, 6),), alt_shapes=((4, 4),),
    runner=lambda a: np.trace(a),
))

for _name, _run in [
    ("diagonal", lambda a: np.diagonal(a)),
    ("diag", lambda a: np.diag(a)),
]:
    _register(OpSpec(
        name=_name, category="complex", value_dependent=False,
        capture=_map_capture(
            lambda s: (min(s[0]),), lambda o, s, i: [o[0], o[0]]
        ),
        default_shapes=((6, 6),), alt_shapes=((4, 4),),
        runner=_run,
    ))


def _tri_map(lower: bool):
    def m(o, shapes, i):
        keep = o[0] >= o[1] if lower else o[0] <= o[1]
        return [o[0], o[1]], keep

    return m


for _name, _lower, _run in [
    ("tril", True, lambda a: np.tril(a)),
    ("triu", False, lambda a: np.triu(a)),
]:
    _register(OpSpec(
        name=_name, category="complex", value_dependent=False,
        capture=_map_capture(lambda s: s[0], _tri_map(_lower)),
        default_shapes=((6, 6),), alt_shapes=((5, 5),),
        runner=_run,
    ))

# Windowed operations.
def _convolve_capture(shapes: Shapes, rng=None) -> CapturedLineage:
    (n,), (m,) = shapes
    out_n = n + m - 1
    rel_a = pt.window(out_n, n, -(m - 1), 0)
    rel_b = pt.window(out_n, m, -(n - 1), 0)
    return _captured((out_n,), shapes, [rel_a, rel_b])


def _correlate_capture(shapes: Shapes, rng=None) -> CapturedLineage:
    """np.correlate 'full': same a-windows as convolve, kernel index flipped."""
    (n,), (m,) = shapes
    out_n = n + m - 1
    rel_a = pt.window(out_n, n, -(m - 1), 0)
    rel_b = pt.window(out_n, m, -(n - 1), 0)
    rel_b["a0"] = (m - 1) - rel_b["a0"]
    return _captured((out_n,), shapes, [rel_a, rel_b])


_register(OpSpec(
    name="convolve", category="complex", value_dependent=False,
    capture=_convolve_capture,
    default_shapes=((20,), (5,)), alt_shapes=((12,), (3,)),
    runner=lambda a, b: np.convolve(a, b),
))
_register(OpSpec(
    name="correlate", category="complex", value_dependent=False,
    capture=_correlate_capture,
    default_shapes=((20,), (5,)), alt_shapes=((12,), (3,)),
    runner=lambda a, b: np.correlate(a, b, mode="full"),
))

_register(OpSpec(
    name="diff", category="complex", value_dependent=False,
    capture=lambda shapes, rng=None: _captured(
        (shapes[0][0] - 1,), shapes, [pt.window(shapes[0][0] - 1, shapes[0][0], 0, 1, clip=False)]
    ),
    default_shapes=((30,),), alt_shapes=((12,),),
    runner=lambda a: np.diff(a),
))
def _gradient_capture(shapes: Shapes, rng=None) -> CapturedLineage:
    """np.gradient: central differences — out[i] <- {i-1, i+1} in the
    interior, one-sided {0,1} / {n-2,n-1} at the edges (a[i] itself does
    not feed out[i] in the interior)."""
    n = shapes[0][0]
    rel = pd.concat(
        [
            pt.window(n, n, -1, -1, clip=False),
            pt.window(n, n, 1, 1, clip=False),
            pd.DataFrame({"b0": [0, n - 1], "a0": [0, n - 1]}),
        ],
        ignore_index=True,
    ).drop_duplicates()
    return _captured((n,), shapes, [rel])


_register(OpSpec(
    name="gradient", category="complex", value_dependent=False,
    capture=_gradient_capture,
    default_shapes=((30,),), alt_shapes=((12,),),
    runner=lambda a: np.gradient(a),
))

# Sort family (value-dependent permutations).
_register(OpSpec(
    name="sort", category="complex", value_dependent=True,
    capture=_sortlike_capture(lambda d: np.argsort(d, axis=1, kind="stable")),
    default_shapes=_R2, alt_shapes=_R2_ALT,
    runner=lambda a: np.sort(a, axis=1), op_args=("axis=1",),
))
_register(OpSpec(
    name="partition", category="complex", value_dependent=True,
    capture=_sortlike_capture(lambda d: np.argpartition(d, d.shape[1] // 2, axis=1)),
    default_shapes=_R2, alt_shapes=_R2_ALT,
    runner=lambda a: np.partition(a, a.shape[1] // 2, axis=1),
    op_args=("kth=mid",),
))


ELEMENT_OPS = [s for s in OPS.values() if s.category == "element"]
COMPLEX_OPS = [s for s in OPS.values() if s.category == "complex"]
ALL_OPS = list(OPS.values())


def single_float_pipeline_ops() -> list[OpSpec]:
    """Ops usable in random pipelines: one float64 2-D array in, one out,
    shape-preserving (paper §VII.D draws 76 such ops)."""
    names = set(_UNARY_ELEMENT) | {"clip", "around", "nan_to_num_scaled"} | {
        "cumsum", "cumprod", "nancumsum", "nancumprod",
        "sort", "partition", "flip", "flipud", "fliplr", "roll",
        "tril", "triu",
    }
    return [OPS[n] for n in sorted(names & set(OPS))]
