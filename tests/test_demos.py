"""Each demo runs on its own and prints exactly its recorded stdout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
EXPECTED = Path(__file__).parent / "data" / "demos"


def test_every_demo_has_a_recording():
    assert [d.name[:2] for d in DEMOS] == sorted(
        p.stem for p in EXPECTED.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_stdout_is_byte_identical(demo):
    path = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (EXPECTED / f"{demo.name[:2]}.txt").read_bytes()
