"""Which sort orderings ProvRC's step-2 key passes scan, and which win.

Over the ``jobs/compress_digest.py`` corpus (every registry op at both
shapes and in both directions, 40 seeded random relations, the ``kernel``
benchmark's ingest mix), runs each compression's key passes as
``provrc.compress`` does and reports, per ordering (0 is target-first):
the key passes that scanned it, and the key passes in which it gave some
group fewer rows than every ordering before it. It also counts the
groups still above their run floor after ordering 0 (only those are
scanned again), and the scans a pass would make if it stopped only once
every group is one row.

Usage: PYTHONPATH=src python jobs/ordering_stats.py
"""
import sys
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from jobs.compress_digest import cases  # noqa: E402
from repro.core import provrc  # noqa: E402
from repro.core import ranges as rg  # noqa: E402
from repro.core.model import backward_schema, forward_schema  # noqa: E402


def group_rows(out: np.ndarray, target: int, n_key: int) -> np.ndarray:
    """Rows per group of the other keys in one scan's output."""
    return np.bincount(np.cumsum(rg.changed(out, provrc._pairs(k for k in range(n_key) if k != target))) - 1)


class Stats:
    def __init__(self):
        self.scanned, self.won = Counter(), Counter()
        self.passes = self.open_passes = self.open_groups = self.one_row_scans = 0

    def add(self, other: "Stats") -> None:
        self.scanned += other.scanned
        self.won += other.won
        for k in ("passes", "open_passes", "open_groups", "one_row_scans"):
            setattr(self, k, getattr(self, k) + getattr(other, k))

    def report(self, name: str) -> None:
        print(f"{name}: {self.passes} key passes")
        print("  ordering  scanned  won a group")
        for i in sorted(self.scanned.keys() | self.won.keys()):
            print(f"  {i:8d}  {self.scanned[i]:7d}  {self.won[i] if i else '-':>11}")
        print(f"  scans: {sum(self.scanned.values())}"
              f" (stopping only at one row per group: {self.one_row_scans})")
        print(f"  groups above their floor after ordering 0: {self.open_groups},"
              f" in {self.open_passes} key passes")


def main() -> None:
    parts = {"registry": Stats(), "random": Stats(), "ingest": Stats()}
    orderings = {}
    scan = provrc._scan_key_pass

    def counting(m, coded, target, order, mode, *args):
        st.scanned[orderings[order, mode]] += 1
        return scan(m, coded, target, order, mode, *args)

    provrc._scan_key_pass = counting
    for name, rel in cases():
        st = parts.get(name.split("/")[0], parts["registry"])
        n_b = sum(c.startswith("b") for c in rel.columns)
        for schema in (backward_schema(n_b, rel.shape[1] - n_b), forward_schema(n_b, rel.shape[1] - n_b)):
            n_key, n_val = schema.n_key, schema.n_val
            orderings = {o: i for i, o in enumerate(provrc._orderings(n_val))}
            work = provrc._encode_values(rel, schema)
            for j in range(n_key - 1, -1, -1):
                st.passes += 1
                coded = provrc._codes(work)
                best = None
                for i, (order, mode) in enumerate(orderings):
                    rows = group_rows(scan(work, coded, j, order, mode, n_key, n_val), j, n_key)
                    if best is None:
                        floor = provrc._run_floor(work, coded, j, n_key, n_val)[0]
                        above = int((rows > floor).sum())
                        st.open_passes += above > 0
                        st.open_groups += above
                    elif (rows < best).any():
                        st.won[i] += 1
                    if best is None or (best > 1).any():
                        st.one_row_scans += 1
                    best = rows if best is None else np.minimum(best, rows)
                work = provrc._encode_key_pass(work, j, n_key, n_val)
    provrc._scan_key_pass = scan

    total = Stats()
    for name, st in parts.items():
        st.report(name)
        total.add(st)
    total.report("total")


if __name__ == "__main__":
    main()
