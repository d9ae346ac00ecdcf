"""ProvRC's output is pinned: ``jobs/compress_digest.py`` hashes 780
compressions (every registry op at both shapes and in both directions,
40 seeded random relations, the ``kernel`` benchmark's ingest mix) into
two totals, one over the compressed tables and one over their
serialized files.

A change that is meant to leave every compressed table and file as it
was keeps both totals. A change that alters ProvRC's output on purpose
updates the pin and says which cases changed and why. A file-format
change, such as format v3's per-stream widths, moves ``FILES`` only.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TABLES = "e5f952f91359b87ce1f1fc1187e0fddaaced5df47dd47efcefd4754c06617bdd"
FILES = "0dc1fffa5c090e155766b68d256a7e4b922c42c58ccd8cabeb836aa68140f8ed"


def test_compress_digest_total_is_pinned():
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, str(ROOT / "jobs" / "compress_digest.py"), "--total-only"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=300,
    ).stdout
    assert out.split() == [TABLES, "tables", FILES, "files"]
