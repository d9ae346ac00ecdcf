"""Fig 7-style benchmark: compression latency vs input size, for the two
extreme lineage types (one-to-one element-wise and one-axis aggregation),
ProvRC-GZip against the columnar baselines. Latency covers capture-table
-> format conversion -> compression -> flush, as in the paper.

Two incompressible cases measure ProvRC's worst case (paper Table VII's
Sort row): a row-wise sort of a 316x316 array and a random permutation of
100k cells, ~100k rows each, where nearly every row survives compression.
"""
import numpy as np
import pandas as pd
import pytest

from repro.baselines.formats import write_parquet
from repro.baselines.turborc import write_turborc
from repro.capture import numpy_ops as nops
from repro.capture import patterns as pt
from repro.core import provrc, storage
from repro.core.model import backward_schema_of

_SIZES = {"10k": 100, "90k": 300, "360k": 600}
_WORST_SIDE = 316  # ~100k rows

# (kind, size label, array side)
_CASES = [(kind, size, n) for kind in ("elementwise", "aggregate") for size, n in _SIZES.items()]
_CASES += [(kind, "100k", _WORST_SIDE) for kind in ("sort", "permutation")]


def _rel(kind: str, n: int) -> pd.DataFrame:
    if kind == "elementwise":
        return pt.identity((n, n))
    if kind == "aggregate":
        return pt.reduce_axis((n, n), 1)
    g = np.random.default_rng(0)
    if kind == "sort":
        return nops.OPS["sort"].capture(((n, n),), g).relation(0)
    return pd.DataFrame({"b0": np.arange(n * n), "a0": g.permutation(n * n)})


@pytest.mark.parametrize("kind,size,n", _CASES, ids=[f"{k}-{s}" for k, s, _ in _CASES])
def test_provrc_gzip_compression_latency(benchmark, tmp_path, kind, size, n):
    rel = _rel(kind, n)
    schema = backward_schema_of(rel.columns)

    def run():
        cdf = provrc.compress(rel, schema)
        return storage.write(cdf, schema, tmp_path / "x.prc.gz", gzipped=True)

    benchmark.pedantic(run, rounds=2, iterations=1)


@pytest.mark.parametrize("fmt", ["parquet-gzip", "turborc"])
@pytest.mark.parametrize("kind", ["elementwise", "aggregate", "sort", "permutation"])
def test_baseline_compression_latency(benchmark, tmp_path, fmt, kind):
    rel = _rel(kind, _SIZES["360k"] if kind in ("elementwise", "aggregate") else _WORST_SIDE)

    def run():
        if fmt == "parquet-gzip":
            return write_parquet(rel, tmp_path / "x.parquet", codec="gzip")
        return write_turborc(rel, tmp_path / "x.trc")

    benchmark.pedantic(run, rounds=2, iterations=1)
