"""The benchmark's own output check, one shortest traced run per workload.

Each run checks every CSV, manifest and stdout line of the workload's
command list against perfbench/reference/ (within perfbench/check.py's
tolerances), and its traced pass reads library results (cfl_limit's
rho_curve, dispersion_curve's samples, the path write_csv returns), so a
change that moves an output or one of those results fails here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["analytic", "transfer1d", "icv_warped",
                                      "large_grid"])
def test_workload_outputs_match_references(workload, tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    result = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "workload.py"),
         "--workload", workload, "--seed", "0", "--seconds", "0", "--trace", "1",
         "--outdir", str(tmp_path), "--result", str(result)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    run = json.loads(result.read_text(encoding="utf-8"))
    assert run["attempted"] > 0
    assert run["failed"] == 0, run["errors"]
    assert run["errors"] == []
