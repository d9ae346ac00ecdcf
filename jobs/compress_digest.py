"""Two sha256s per compression case, to compare two checkouts' ProvRC output.

Each case hashes the ``provrc.compress`` table (values, dtypes, column
order, index and row order) and, apart, its ``storage.serialize`` bytes.
The corpus: every registry op at its default and alternative shapes, in
both directions; 40 seeded random relations; the ``kernel`` benchmark's
ingest mix. Two checkouts compress identically iff their table digests
match, and write identical files iff their file digests match, so a
file-format change shows as moved file digests under unchanged table
ones.

Usage: PYTHONPATH=src python jobs/compress_digest.py [--total-only]
prints ``<table sha> <file sha>  <case>`` per case (unless
``--total-only``), then ``<sha>  tables`` and ``<sha>  files``.
"""
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np
import pandas as pd

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.workloads import Ingest  # noqa: E402
from repro.capture import numpy_ops as nops  # noqa: E402
from repro.core import provrc, storage  # noqa: E402
from repro.core.model import backward_schema, forward_schema  # noqa: E402


def cases():
    for spec in nops.ALL_OPS:
        for tag, shapes in (("default", spec.default_shapes), ("alt", spec.alt_shapes)):
            for r, rel in enumerate(spec.capture(shapes, np.random.default_rng(0)).relations):
                yield f"{spec.name}/{tag}/{r}", rel
    for seed in range(40):
        g = np.random.default_rng(seed)
        n_b, n_a = g.integers(1, 3, size=2)
        cols = [f"b{j}" for j in range(n_b)] + [f"a{i}" for i in range(n_a)]
        yield f"random/{seed}", pd.DataFrame(g.integers(0, 4, (int(g.integers(1, 200)), len(cols))), columns=cols)
    with tempfile.TemporaryDirectory() as tmp:
        yield from ((f"ingest/{k}", rel) for k, rel in Ingest("bench", 1, Path(tmp)).setup().items())


def main() -> None:
    tables, files = hashlib.sha256(), hashlib.sha256()
    for name, rel in cases():
        n_b = sum(c.startswith("b") for c in rel.columns)
        for schema in (backward_schema(n_b, rel.shape[1] - n_b), forward_schema(n_b, rel.shape[1] - n_b)):
            cdf = provrc.compress(rel, schema)
            t = hashlib.sha256(repr((list(cdf.columns), list(map(str, cdf.dtypes)), list(cdf.index))).encode())
            t.update(np.ascontiguousarray(cdf.to_numpy()).tobytes())
            f = hashlib.sha256(storage.serialize(cdf, schema))
            tables.update(t.digest())
            files.update(f.digest())
            if "--total-only" not in sys.argv:
                print(f"{t.hexdigest()} {f.hexdigest()}  {name}/{schema.direction}")
    print(f"{tables.hexdigest()}  tables")
    print(f"{files.hexdigest()}  files")


if __name__ == "__main__":
    main()
