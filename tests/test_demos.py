"""The quick demos run clean as scripts: each exits 0 and ends with its
summary line. They call the autodiff ops and model passes directly, so a
change to those signatures breaks them."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_demo(name: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_gradient_checking_demo():
    last = _run_demo("01_gradient_checking.py")[-1]
    prefix = "  worst gap across all parameters: "
    assert last.startswith(prefix)
    assert float(last[len(prefix):]) < 1e-6


def test_receptive_fields_demo():
    last = _run_demo("02_receptive_fields.py")[-1]
    assert last.startswith("  claims q=8 instead of 9: FAILED: leakage ")
