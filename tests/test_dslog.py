"""DSLog ingest: each captured relation is compressed once, the log keeps
only ProvRC tables, and malformed captures are refused."""
import gc
import tracemalloc
from collections import Counter

import numpy as np
import pandas as pd
import pytest

from repro.capture import numpy_ops as nops
from repro.capture import patterns as pt
from repro.capture.model import CapturedLineage
from repro.core import provrc
from repro.dslog import DSLog


@pytest.fixture
def calls(monkeypatch):
    """Counts of ``provrc.compress`` and ``provrc.decompress`` calls."""
    n = Counter()
    for name in ("compress", "decompress"):
        fn = getattr(provrc, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            n[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(provrc, name, counted)
    return n


def _register(log, spec, shapes, seed, tag):
    """Register one call of ``spec`` with reuse, on arrays named by ``tag``."""
    ins = [f"{tag}_in{i}" for i in range(len(shapes))]
    cap = spec.capture(shapes, np.random.default_rng(seed))
    for name, shape in zip(ins, shapes):
        log.array(name, shape)
    log.array(f"{tag}_out", cap.out_shape)
    log.register_operation(spec.name, ins, [f"{tag}_out"], lambda: cap, spec.op_args, reuse=True)
    return ins


def test_register_compresses_each_relation_once(calls):
    log = DSLog()
    spec = nops.OPS["add"]
    shape = spec.default_shapes[0]
    for name in ("X", "Z", "W1", "W2"):
        log.array(name, shape)
    cap = spec.capture(spec.default_shapes, np.random.default_rng(0))
    log.register_operation("add", ["X", "Z"], ["W1", "W2"], lambda: cap)
    # Two relations, four edges: one compress each at registration, and
    # none (nor any decompress) when each edge is then queried backward.
    cell = pd.DataFrame({"c0": [1], "c1": [2]})
    for src in ("X", "Z"):
        for dst in ("W1", "W2"):
            assert log.prov_query([dst, src], cell).values.tolist() == [[1, 2]]
    assert calls == {"compress": 2}
    # The edges of one relation also share the forward table it builds.
    for src in ("X", "Z"):
        for dst in ("W1", "W2"):
            assert log.prov_query([src, dst], cell).values.tolist() == [[1, 2]]
    assert calls == {"compress": 4, "decompress": 2}


def test_reuse_hits_and_backward_queries_neither_compress_nor_decompress(calls):
    log = DSLog()
    q = pd.DataFrame({"c0": [0, 1]})
    # dim_sig: calls 1 and 2 capture (pending -> permanent), call 3 reuses.
    sums = nops.OPS["sum"]
    for seed in (1, 2):
        _register(log, sums, sums.default_shapes, seed, f"s{seed}")
    # gen_sig: a second shape promotes it, a third is instantiated.
    mm = nops.OPS["matmul"]
    _register(log, mm, mm.default_shapes, 1, "m1")
    _register(log, mm, mm.alt_shapes, 2, "m2")
    assert log.reuse_hits == 0
    calls.clear()
    _register(log, sums, sums.default_shapes, 3, "s3")
    ins = _register(log, mm, ((5, 4), (4, 6)), 3, "m3")
    assert log.reuse_hits == 2
    log.prov_query(["s3_out", "s3_in0"], q)
    back = log.prov_query(["m3_out", ins[0]], pd.DataFrame({"c0": [1], "c1": [2]}))
    assert back.values.tolist() == [[1, k] for k in range(4)]
    assert sum(calls.values()) == 0
    # A forward query builds the edge's forward table once, from the
    # backward table: one decompress and one compress, on first use only.
    for _ in range(2):
        log.prov_query([ins[0], "m3_out"], pd.DataFrame({"c0": [1], "c1": [2]}))
    assert calls == {"decompress": 1, "compress": 1}


def test_register_retains_no_relation():
    """A 510k-row cumulative relation: after ``register_operation`` the
    log and its reuse index hold only the compressed tables."""
    shape = (400, 50)

    def capture():
        rel = pt.cumulative(shape, axis=1)
        return CapturedLineage(out_shape=shape, in_shapes=(shape,), relations=[rel])

    log = DSLog()
    log.array("X", shape)
    log.array("Y", shape)
    assert len(capture().relation(0)) >= 500_000
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        log.register_operation("cumsum", ["X"], ["Y"], capture, (1,))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 2 * 2**20
    got = log.prov_query(["Y", "X"], pd.DataFrame({"c0": [7], "c1": [3]}))
    assert got.values.tolist() == [[7, k] for k in range(4)]


def test_register_refuses_fewer_relations_than_inputs():
    log = DSLog()
    for name in ("X", "Z", "W"):
        log.array(name, (3,))
    rel = pd.DataFrame({"b0": range(3), "a0": range(3)})
    cap = CapturedLineage(out_shape=(3,), in_shapes=((3,), (3,)), relations=[rel])
    with pytest.raises(ValueError, match=r"add: capture returned 1 relations for 2 input"):
        log.register_operation("add", ["X", "Z"], ["W"], lambda: cap)


def test_lineage_refuses_undeclared_axis():
    """A ``b1`` column into a 1-D ``Y`` is not projected away."""
    log = DSLog()
    log.array("X", (2,))
    log.array("Y", (2,))
    rel = pd.DataFrame({"b0": [0, 0], "b1": [0, 1], "a0": [0, 1]})
    with pytest.raises(ValueError, match=r"X -> Y: relation columns \['a0', 'b0', 'b1'\]"):
        log.lineage("X", "Y", rel)


def test_reuse_never_instantiates_an_empty_axis():
    """A full-extent interval cannot be instantiated on a zero-length
    axis: such a call is captured, not predicted."""
    log = DSLog()
    mm = nops.OPS["matmul"]
    _register(log, mm, mm.default_shapes, 1, "m1")
    _register(log, mm, mm.alt_shapes, 2, "m2")
    shapes = {"e_in0": (0, 4), "e_in1": (4, 6), "e_out": (0, 6)}
    for name, shape in shapes.items():
        log.array(name, shape)
    empty = pd.DataFrame({c: np.array([], np.int64) for c in ("b0", "b1", "a0", "a1")})
    cap = CapturedLineage(out_shape=(0, 6), in_shapes=((0, 4), (4, 6)), relations=[empty] * 2)
    log.register_operation("matmul", ["e_in0", "e_in1"], ["e_out"], lambda: cap, mm.op_args, reuse=True)
    assert (log.capture_calls, log.reuse_hits) == (3, 0)


@pytest.mark.parametrize("path", [[], ["X"]], ids=["empty", "one-array"])
def test_prov_query_refuses_a_path_of_fewer_than_two_arrays(path):
    log = DSLog()
    log.array("X", (3,))
    with pytest.raises(ValueError, match="at least two arrays"):
        log.prov_query(path, pd.DataFrame({"c0": [1]}))


def test_reuse_index_stores_the_tables_the_edges_hold():
    """Every table a reuse signature keeps is an edge's table itself."""
    log = DSLog()
    sums, mm = nops.OPS["sum"], nops.OPS["matmul"]
    for seed, (spec, shapes) in enumerate(
        [(sums, sums.default_shapes)] * 3 + [(mm, mm.default_shapes), (mm, mm.alt_shapes), (mm, ((5, 4), (4, 6)))]
    ):
        _register(log, spec, shapes, seed, f"t{seed}")
    assert log.reuse_hits == 2
    edge_tables = [edge.backward for edge in log._edges.values()]
    stored = [cdf for sig in log._reuse._sigs.values() for cdf, _ in sig.tables]
    # sum: one table under its dim and gen keys; matmul: two tables under
    # each of its two dim keys and its gen key.
    assert len(stored) == 1 + 1 + 2 + 2 + 2
    assert all(any(cdf is t for t in edge_tables) for cdf in stored)


def test_register_retains_the_table_once():
    """Registering a 300x300 sort (an 89,138-row table, incompressible)
    retains that table once, plus its reuse signature's small marks."""
    spec = nops.OPS["sort"]
    shapes = ((300, 300),)
    cap = spec.capture(shapes, np.random.default_rng(0))
    log = DSLog()
    log.array("X", shapes[0])
    log.array("Y", cap.out_shape)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        log.register_operation("sort", ["X"], ["Y"], lambda: cap, spec.op_args)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    table = log._edges[("X", "Y")].backward
    assert len(table) > 80_000
    assert retained <= table.memory_usage(index=False).sum() + 2**20
