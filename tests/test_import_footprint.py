"""Which heavy modules a program loads, checked in a fresh interpreter.

`scipy.spatial` is loaded by `_backend` only when an empirical x empirical
kernel pass runs (`cdist` in `_dist_block`); the mean distances of the exact
closed form are numpy sums. The process pool is loaded only when rate rows
run on more than one worker. So the programs that compute no distance, and
those that use exact embeddings only, hold neither. Module names only;
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


def test_exact_only_programs_do_not_load_scipy_spatial(tmp_path):
    rates = json.loads((ROOT / "configs" / "rates_hard_margin.json").read_text())
    rates.update(n_grid=[8, 16], replicates=1, test_bags=50)
    (tmp_path / "rates.json").write_text(json.dumps(rates))
    approx = json.loads((ROOT / "configs" / "approx_error_hard_margin.json").read_text())
    approx.update(big_n=20, test_n=50, seeds=[1])
    (tmp_path / "approx.json").write_text(json.dumps(approx))
    script = """
import numpy as np
from tsk import BaseKernel, HilbertKernel
from tsk.cli import main
from tsk.kme import EmpiricalBatch, ExactBatch, cross_inner
from tsk.svm import build_gram
k = BaseKernel("gaussian", 1.0, 2)
exact = ExactBatch(k, np.arange(6.0).reshape(3, 2), np.full(3, 0.5))
other = ExactBatch(k, np.ones((2, 2)), np.array([0.1, 0.4]))
bags = EmpiricalBatch(k, np.arange(8.0).reshape(4, 2), np.full(4, 0.5), [0, 2, 4])
build_gram(HilbertKernel("gaussian", 1.0), exact)
cross_inner(exact, other)
cross_inner(exact, bags)
assert main(["rates", "--config", "rates.json", "--out", "rates.csv", "--threads", "1"]) == 0
assert main(["approx-error", "--config", "approx.json", "--out", "approx.json.out"]) == 0
"""
    assert loaded_after(script, tmp_path) == {m: False for m in HEAVY}


def test_empirical_gram_loads_scipy_spatial(tmp_path):
    script = """
import numpy as np
from tsk import BaseKernel, HilbertKernel
from tsk.kme import EmpiricalBatch
from tsk.svm import build_gram
bags = EmpiricalBatch(BaseKernel("gaussian", 1.0, 2), np.arange(8.0).reshape(4, 2), np.full(4, 0.5), [0, 2, 4])
build_gram(HilbertKernel("gaussian", 1.0), bags)
"""
    assert loaded_after(script, tmp_path) == {"scipy.spatial": True, "concurrent.futures.process": False}
