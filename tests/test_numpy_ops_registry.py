"""Registry structure tests + ground-truth validation of lineage generators.

The analytic generators are validated against ``perturbation_capture``
(which executes the real numpy op). For strictly value-sensitive ops the
two must match exactly; for ops with non-injective value flow (maximum,
sign, clip, …) perturbation lineage is a subset of contribution lineage.
"""
import numpy as np
import pandas as pd
import pytest

from repro.capture import numpy_ops as nops
from repro.capture.tracked import perturbation_capture


def relations_equal(x: pd.DataFrame, y: pd.DataFrame) -> bool:
    """True iff ``x`` and ``y`` have the same columns (in any order) and
    the same set of rows, duplicates ignored."""
    if set(x.columns) != set(y.columns):
        return False
    cols = sorted(x.columns)
    cx = x[cols].drop_duplicates().sort_values(cols).reset_index(drop=True)
    cy = y[cols].drop_duplicates().sort_values(cols).reset_index(drop=True)
    return cx.astype("int64").equals(cy.astype("int64"))


def relation_subset(small: pd.DataFrame, big: pd.DataFrame) -> bool:
    """True iff every row of ``small`` appears in ``big``."""
    if small.empty:
        return True
    merged = small.merge(big.drop_duplicates(), how="left", indicator=True)
    return bool((merged["_merge"] == "both").all())


class TestRegistryShape:
    def test_counts_match_table_ix(self):
        assert len(nops.ELEMENT_OPS) == 75
        assert len(nops.COMPLEX_OPS) == 61
        assert len(nops.ALL_OPS) == 136

    def test_all_runners_resolve_real_numpy_functions(self):
        missing = [s.name for s in nops.ALL_OPS if s.runner is None]
        assert missing == []

    def test_value_dependent_split(self):
        vd = sorted(s.name for s in nops.ALL_OPS if s.value_dependent)
        assert vd == sorted(
            ["max", "min", "nanmax", "nanmin", "median", "nanmedian", "ptp", "sort", "partition"]
        )

    def test_pipeline_ops_shape_preserving(self):
        ops = nops.single_float_pipeline_ops()
        assert len(ops) >= 50
        g = np.random.default_rng(0)
        a = g.random((4, 4)) + 0.5
        for spec in ops:
            out = np.asarray(spec.runner(a))
            assert out.shape == a.shape, spec.name

    def test_capture_runs_for_every_op(self):
        g = np.random.default_rng(1)
        for spec in nops.ALL_OPS:
            cap = spec.capture(spec.default_shapes, g)
            assert len(cap.relations) >= 1, spec.name
            for rel in cap.relations:
                assert len(rel) > 0, spec.name
                assert all(c.startswith(("a", "b")) for c in rel.columns)


# Ops whose value flow is strictly sensitive: perturbation == contribution.
_EXACT = [
    "negative", "sqrt", "exp", "log1p", "sin", "cosh", "add", "subtract",
    "multiply", "hypot", "logaddexp", "sum", "mean", "cumsum", "transpose",
    "reshape", "ravel", "flip", "fliplr", "flipud", "roll", "rot90", "tile",
    "repeat", "concatenate", "vstack", "hstack", "stack", "expand_dims",
    "squeeze", "broadcast_to", "pad", "outer", "diag", "diagonal", "trace",
    "diff", "moveaxis", "swapaxes", "kron", "convolve", "correlate",
    "gradient", "vdot", "matmul", "dot", "tensordot", "inner", "cross",
    "var", "std",
]
# Non-injective flow: perturbation may under-report.
_SUBSET = ["maximum", "minimum", "sign", "clip", "floor", "tril", "triu", "around"]


def _inputs_for(spec, g):
    return [g.random(s) + 0.5 for s in spec.default_shapes]


@pytest.mark.parametrize("name", _EXACT)
def test_generator_matches_perturbation(name):
    spec = nops.OPS[name]
    g = np.random.default_rng(42)
    arrays = _inputs_for(spec, g)
    truth = perturbation_capture(spec.runner, arrays, trials=3, seed=7)
    cap = spec.capture(spec.default_shapes, g)
    assert cap.out_shape == truth.out_shape, name
    for i, (got, want) in enumerate(zip(cap.relations, truth.relations)):
        assert relations_equal(got, want), f"{name} input {i}"


@pytest.mark.parametrize("name", _SUBSET)
def test_generator_superset_of_perturbation(name):
    spec = nops.OPS[name]
    g = np.random.default_rng(43)
    arrays = _inputs_for(spec, g)
    truth = perturbation_capture(spec.runner, arrays, trials=3, seed=11)
    cap = spec.capture(spec.default_shapes, g)
    for i, (got, want) in enumerate(zip(cap.relations, truth.relations)):
        assert relation_subset(want, got), f"{name} input {i}"


@pytest.mark.parametrize("name", ["sort", "max", "min", "median", "ptp", "partition"])
def test_value_dependent_capture_consistent_with_execution(name):
    """Value-dependent lineage must point at cells that actually feed out."""
    spec = nops.OPS[name]
    rng = np.random.default_rng(5)
    # Re-generating with the same rng state reproduces the same data, so
    # run capture and check lineage against a fresh argsort of that data.
    state = rng.bit_generator.state
    cap = spec.capture(spec.default_shapes, rng)
    rng.bit_generator.state = state
    data = rng.random(spec.default_shapes[0])
    rel = cap.relation(0)
    if name == "sort":
        perm = np.argsort(data, axis=1, kind="stable")
        for _, row in rel.iterrows():
            assert perm[row["b0"], row["b1"]] == row["a1"]
    elif name in ("max", "min"):
        argfn = np.argmax if name == "max" else np.argmin
        arg = argfn(data, axis=1)
        for _, row in rel.iterrows():
            assert arg[row["b0"]] == row["a1"]
