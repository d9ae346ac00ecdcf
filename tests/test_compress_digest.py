"""ProvRC's output is pinned: ``jobs/compress_digest.py`` hashes 780
compressions (every registry op at both shapes and in both directions,
40 seeded random relations, the ``kernel`` benchmark's ingest mix), table
and serialized bytes, into one total.

A change that is meant to leave every compressed table and file as it
was keeps this total. A change that alters ProvRC's output on purpose
updates the pin and says which cases changed and why.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOTAL = "d5ac49b4cdfb4bd29a5a674a04a1fe0b1c816b4136f5ef1ea29b90d54aa7c868"


def test_compress_digest_total_is_pinned():
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, str(ROOT / "jobs" / "compress_digest.py"), "--total-only"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=300,
    ).stdout
    assert out.split() == [TOTAL, "total"]
