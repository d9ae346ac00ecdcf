"""Lineage reuse tests (paper §VI): index reshaping (Fig 6), dim_sig and
gen_sig prediction with m=1, and the np.cross misprediction.
"""
import numpy as np
import pandas as pd
import pytest

from repro.capture import numpy_ops as nops
from repro.capture import patterns as pt
from repro.core import provrc
from repro.core.model import backward_schema, backward_schema_of
from repro.core.ranges import hi, lo, rep
from repro.reuse.signatures import ReuseIndex, generalize, instantiate


class TestIndexReshaping:
    def test_fig6_aggregate_extrapolates(self):
        """Fig 6: all-to-all aggregation over d=2 generalizes to d=4."""
        schema = backward_schema(1, 1)
        rel2 = pt.reduce_all((2,))
        cdf2 = provrc.compress(rel2, schema)
        gen = generalize(cdf2, schema, ((2,),))
        cdf4 = instantiate(gen, ((4,),))
        got = provrc.decompress(cdf4, schema)
        want = pt.reduce_all((4,)).sort_values(["b0", "a0"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_elementwise_extrapolates(self):
        schema = backward_schema(2, 2)
        rel = pt.identity((6, 5))
        gen = generalize(provrc.compress(rel, schema), schema, ((6, 5),))
        got = provrc.decompress(instantiate(gen, ((9, 3),)), schema)
        want = (
            pt.identity((9, 3))
            .sort_values(["b0", "b1", "a0", "a1"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_matmul_extrapolates(self):
        schema = backward_schema(2, 2)
        rel, _ = pt.matmul(4, 3, 5)
        gen = generalize(provrc.compress(rel, schema), schema, ((4, 3), (3, 5)))
        got = provrc.decompress(instantiate(gen, ((6, 2), (2, 3))), schema)
        want_rel, _ = pt.matmul(6, 2, 3)
        want = want_rel.sort_values(["b0", "b1", "a0", "a1"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_relative_delta_is_never_marked(self):
        """A delta equal to ``[0, d-1]`` is not a full-extent interval."""
        # b[i] <- a[i..i+2, 0..2]: a0 = b0 + [0, 2], a1 = [0, 2], inputs 6x3.
        rel = pd.DataFrame(
            [(b, b + t, j) for b in range(4) for t in range(3) for j in range(3)],
            columns=["b0", "a0", "a1"],
        )
        schema = backward_schema(1, 2)
        cdf = provrc.compress(rel, schema)
        assert len(cdf) == 1
        r = cdf.iloc[0]
        assert r[rep("a0")] == 1 and (r[lo("a0")], r[hi("a0")]) == (0, 2)
        gen = generalize(cdf, schema, ((6, 3),))
        # Only the absolute a1 = [0, 2] matches a dim (3); a0's delta,
        # equal to [0, 3 - 1], stays fixed.
        assert gen.marks == [(0, "a1", 1)]

    def test_reshape_does_not_extrapolate(self):
        """Flat-index arithmetic is shape-coupled; gen must fail to match."""
        spec = nops.OPS["reshape"]
        g = np.random.default_rng(0)
        cap_a = spec.capture(spec.default_shapes, g)
        rel_a = cap_a.relation(0)
        schema = backward_schema(1, 2)
        gen = generalize(provrc.compress(rel_a, schema), schema, spec.default_shapes)
        cap_b = spec.capture(spec.alt_shapes, g)
        got = provrc.decompress(instantiate(gen, spec.alt_shapes), schema)
        want = (
            cap_b.relation(0)
            .sort_values(["b0", "a0", "a1"])
            .reset_index(drop=True)
            .astype("int64")
        )
        assert not got.equals(want)


class TestReusePredictor:
    def _run(self, index, spec, shapes, seed):
        g = np.random.default_rng(seed)
        cap = spec.capture(shapes, g)
        tables = []
        for rel in cap.relations:
            schema = backward_schema_of(rel.columns)
            tables.append((provrc.compress(rel, schema), schema))
        return index.observe(spec.name, spec.op_args, cap.in_shapes, tables)

    def test_dim_sig_promoted_for_value_independent(self):
        idx = ReuseIndex()
        spec = nops.OPS["sum"]
        r1 = self._run(idx, spec, spec.default_shapes, 0)
        assert r1.dim_status == "pending"
        r2 = self._run(idx, spec, spec.default_shapes, 1)
        assert r2.dim_status == "permanent" and not r2.error
        r3 = self._run(idx, spec, spec.default_shapes, 2)
        assert r3.dim_status == "permanent" and not r3.error

    def test_dim_sig_blocked_for_sort(self):
        idx = ReuseIndex()
        spec = nops.OPS["sort"]
        self._run(idx, spec, spec.default_shapes, 0)
        r2 = self._run(idx, spec, spec.default_shapes, 1)
        assert r2.dim_status == "blocked"

    def test_gen_sig_promoted_for_matmul(self):
        idx = ReuseIndex()
        spec = nops.OPS["matmul"]
        r1 = self._run(idx, spec, spec.default_shapes, 0)
        assert r1.gen_status == "pending"
        # Same shape again: not a confirmation (paper requires different).
        r2 = self._run(idx, spec, spec.default_shapes, 1)
        assert r2.gen_status == "pending"
        r3 = self._run(idx, spec, spec.alt_shapes, 2)
        assert r3.gen_status == "permanent" and not r3.error

    def test_gen_sig_blocked_for_tile(self):
        idx = ReuseIndex()
        spec = nops.OPS["tile"]
        self._run(idx, spec, spec.default_shapes, 0)
        r2 = self._run(idx, spec, spec.alt_shapes, 1)
        assert r2.gen_status == "blocked"

    def test_predict_from_permanent_mappings(self):
        idx = ReuseIndex()
        spec = nops.OPS["matmul"]
        assert idx.predict(spec.name, spec.op_args, spec.default_shapes) is None
        self._run(idx, spec, spec.default_shapes, 0)
        self._run(idx, spec, spec.alt_shapes, 1)  # gen_sig now permanent
        shapes = ((5, 4), (4, 6))
        predicted = idx.predict(spec.name, spec.op_args, shapes)
        got = [provrc.decompress(t, schema) for t, schema in predicted]
        want = spec.capture(shapes, np.random.default_rng(2)).relations
        assert len(got) == len(want) == 2
        for g, w in zip(got, want):
            cols = sorted(w.columns)
            pd.testing.assert_frame_equal(
                g[cols].sort_values(cols).reset_index(drop=True),
                w[cols].sort_values(cols).reset_index(drop=True),
                check_dtype=False,
            )

    def test_cross_misprediction(self):
        """The paper's one reuse error: cross's pattern flips at dim 2."""
        idx = ReuseIndex()
        spec = nops.OPS["cross"]
        self._run(idx, spec, ((4, 3), (4, 3)), 0)
        r2 = self._run(idx, spec, ((6, 3), (6, 3)), 1)
        assert r2.gen_status == "permanent" and not r2.error
        # 2-vector cross: different lineage pattern -> misprediction.
        r3 = self._run(idx, spec, ((5, 2), (5, 2)), 2)
        assert r3.error
