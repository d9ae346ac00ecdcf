"""Workflow builders, the DSLog facade (incl. reuse-backed capture
skipping), and the Kaggle simulation."""
import numpy as np
import pandas as pd
import pytest

from repro.capture import numpy_ops as nops
from repro.core import provrc
from repro.dslog import DSLog
from repro.insitu.theta_join import intervals_to_cells, chain_query
from repro.workflows.pipelines import (
    compress_pipeline,
    image_pipeline,
    random_numpy_pipeline,
    relational_pipeline,
    resnet_pipeline,
)
from repro.workflows.kaggle_sim import (
    CATALOG,
    kind_is_compressible,
    run_study,
    simulate_notebook,
)


class TestPipelines:
    def test_image_pipeline_shapes_chain(self):
        steps = image_pipeline(60, 80, target=52, lime_block=13)
        assert [s.name for s in steps] == [
            "resize", "luminosity", "rotate90", "hflip", "lime",
        ]
        for a, b in zip(steps, steps[1:]):
            assert a.out_shape == b.in_shape

    def test_image_pipeline_forward_query(self):
        steps = image_pipeline(60, 80, target=52, lime_block=13)
        tables = compress_pipeline(steps)
        q = provrc.encode_query(
            pd.DataFrame({"a0": [10], "a1": [10], "a2": [0]}),
            ["a0", "a1", "a2"],
        )
        out = chain_query(q, tables)
        cells = intervals_to_cells(out, ["b0"])
        # Either the pixel feeds the (single-cell) detection or not.
        assert cells["b0"].tolist() in ([], [0])

    def test_relational_pipeline_chain(self):
        steps = relational_pipeline(300, 500, seed=1)
        assert len(steps) == 5
        for a, b in zip(steps, steps[1:]):
            assert a.out_shape == b.in_shape
        tables = compress_pipeline(steps)
        q = provrc.encode_query(pd.DataFrame({"a0": [5], "a1": [1]}), ["a0", "a1"])
        out = chain_query(q, tables)
        cells = intervals_to_cells(out, ["b0", "b1"])
        # Cell (5, 1) of the base table feeds the joined rows' col 1, the
        # derived sum column, and survives the remaining steps.
        assert len(cells) >= 0  # smoke: full equivalence below

    def test_relational_pipeline_matches_ground_truth(self):
        steps = relational_pipeline(200, 300, seed=2)
        tables = compress_pipeline(steps)
        q_cells = pd.DataFrame({"a0": [3, 7], "a1": [1, 2]})
        q = provrc.encode_query(q_cells, ["a0", "a1"])
        got = intervals_to_cells(chain_query(q, tables), ["b0", "b1"])
        cur = q_cells.rename(columns={"a0": "x0", "a1": "x1"})
        for s in steps:
            j = cur.merge(
                s.relation, left_on=["x0", "x1"][: len(s.in_shape)], right_on=[f"a{i}" for i in range(len(s.in_shape))]
            )
            cur = (
                j[[f"b{i}" for i in range(len(s.out_shape))]]
                .drop_duplicates()
                .reset_index(drop=True)
            )
            cur.columns = [f"x{i}" for i in range(len(s.out_shape))]
        want = cur.sort_values(list(cur.columns)).reset_index(drop=True)
        want.columns = ["b0", "b1"]
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_resnet_pipeline(self):
        steps = resnet_pipeline(20, 20)
        assert len(steps) == 7
        tables = compress_pipeline(steps)
        # conv lineage compresses to a handful of rows (boundary cases).
        assert all(len(cdf) < 200 for cdf, _ in tables)
        q = provrc.encode_query(pd.DataFrame({"a0": [10], "a1": [10]}), ["a0", "a1"])
        cells = intervals_to_cells(chain_query(q, tables), ["b0", "b1"])
        # Two 3x3 convs -> 5x5 influence region around (10, 10).
        assert len(cells) == 25
        assert cells["b0"].between(8, 12).all() and cells["b1"].between(8, 12).all()

    def test_random_numpy_pipeline(self):
        steps = random_numpy_pipeline(5, shape=(20, 30), seed=3)
        assert len(steps) == 5
        for s in steps:
            assert s.in_shape == s.out_shape == (20, 30)


class TestDSLogFacade:
    def test_forward_and_backward_queries(self):
        log = DSLog()
        log.array("X", (30,))
        log.array("Y", (30,))
        log.array("Z", (30,))
        spec = nops.OPS["cumsum"]
        rel1 = pd.DataFrame({"b0": range(30), "a0": range(30)})  # elementwise
        rows2 = [(i, j) for i in range(30) for j in range(i + 1)]  # cumsum
        rel2 = pd.DataFrame(rows2, columns=["b0", "a0"])
        log.lineage("X", "Y", rel1)
        log.lineage("Y", "Z", rel2)
        fwd = log.prov_query(["X", "Y", "Z"], pd.DataFrame({"c0": [28]}))
        assert fwd["c0"].tolist() == [28, 29]
        back = log.prov_query(["Z", "Y", "X"], pd.DataFrame({"c0": [2]}))
        assert back["c0"].tolist() == [0, 1, 2]

    def test_register_operation_with_reuse_skips_capture(self):
        log = DSLog()
        spec = nops.OPS["sum"]
        calls = {"n": 0}

        def capture():
            calls["n"] += 1
            g = np.random.default_rng(calls["n"])
            return spec.capture(spec.default_shapes, g)

        for i in range(4):
            log.array(f"in{i}", spec.default_shapes[0])
            log.array(f"out{i}", (spec.default_shapes[0][0],))
            log.register_operation(
                "sum", [f"in{i}"], [f"out{i}"], capture, spec.op_args, reuse=True
            )
        # Calls 1 and 2 capture (pending -> permanent); 3 and 4 reuse.
        assert calls["n"] == 2
        assert log.reuse_hits == 2
        # Reused lineage answers queries identically to captured lineage.
        q = pd.DataFrame({"c0": [0, 1], "c1": [0, 1]})
        a = log.prov_query(["in0", "out0"], q)
        b = log.prov_query(["in3", "out3"], q)
        pd.testing.assert_frame_equal(a, b)


class TestKaggleSim:
    def test_catalog_compressibility_split(self):
        compressible = {k for k in CATALOG if kind_is_compressible(k)}
        assert "elementwise" in compressible
        assert "aggregate" in compressible
        assert "matmul" in compressible
        assert "sort_values" not in compressible
        assert "value_filter" not in compressible
        assert "group_by" not in compressible

    def test_notebook_stats_sane(self):
        s = simulate_notebook("Flight", 1)
        assert 8 <= s.total_ops <= 200
        assert 0 < s.compressible <= s.total_ops
        assert 1 <= s.longest_chain <= s.total_ops

    def test_study_shape_matches_paper(self):
        df = run_study(10, seed=0)
        assert list(df["dataset"]) == ["Flight", "Netflix", "Total"]
        flight = df[df["dataset"] == "Flight"].iloc[0]
        netflix = df[df["dataset"] == "Netflix"].iloc[0]
        # The paper's key qualitative findings: majority compressible,
        # Flight > Netflix, double-digit longest chains.
        assert flight["pct_mean"] > netflix["pct_mean"]
        assert netflix["pct_mean"] > 55
        assert flight["chain_mean"] > 5

    def test_profiles_draw_their_own_notebooks(self):
        # A notebook's op count is its first draw: profiles that shared
        # seeds reported identical total-op statistics.
        df = run_study(10, seed=0).set_index("dataset")
        assert df.loc["Flight", "total_mean"] != df.loc["Netflix", "total_mean"]
