"""Which heavy modules a program loads, checked in a fresh interpreter.

`scipy.spatial` is loaded by `_backend` on the first distance, and the
process pool only when rate rows run on more than one worker, so the
programs that compute no distance never hold either. Module names only;
memory figures depend on the machine.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HEAVY = ("scipy.spatial", "concurrent.futures.process")


def loaded_after(script: str, tmp_path) -> dict:
    """Run `script` in a new interpreter with tsk on the path; which HEAVY modules it then holds."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    probe = f"{script}\nimport json, sys\nprint(json.dumps({{m: m in sys.modules for m in {HEAVY!r}}}))\n"
    out = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_programs_without_distances_load_neither(tmp_path):
    cfg = json.loads((ROOT / "configs" / "noise_exponent_r5.json").read_text())
    cfg.update(n_outer=40, n_inner=40)
    (tmp_path / "ne.json").write_text(json.dumps(cfg))
    script = """
from tsk.cli import main
assert main(["noise-exponent", "--config", "ne.json", "--out", "fit.json"]) == 0
assert main(["whitenoise-verify", "--dim", "2", "--gamma", "1.0", "--mc", "2000", "--seed", "3", "--checks", "1",
             "--out", "wn.json"]) == 0
"""
    assert loaded_after(script, tmp_path) == {m: False for m in HEAVY}


def test_first_distance_loads_scipy_spatial(tmp_path):
    script = """
import numpy as np
from tsk import BaseKernel, HilbertKernel
from tsk.kme import ExactBatch
from tsk.svm import build_gram
batch = ExactBatch(BaseKernel("gaussian", 1.0, 2), np.zeros((3, 2)), np.full(3, 0.5))
build_gram(HilbertKernel("gaussian", 1.0), batch)
"""
    assert loaded_after(script, tmp_path) == {"scipy.spatial": True, "concurrent.futures.process": False}
