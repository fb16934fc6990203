"""The quick demos run clean as scripts: each exits 0 and ends with its
summary line. They call the autodiff ops and model passes directly, so a
change to those signatures breaks them. The long demos (a trained model
each) are only loaded, so their imports of public names are checked."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("name", ["03_train_texture_model.py", "04_evidence_heatmaps.py",
                                  "05_locality_experiments.py"])
def test_long_demo_imports_resolve(name):
    """Loaded, not run as __main__: the imports execute and main() does not."""
    namespace = runpy.run_path(str(ROOT / "demos" / name))
    assert callable(namespace["main"])
