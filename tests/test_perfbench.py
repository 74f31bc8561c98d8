"""The benchmark's traced run and micro-kernels still run on this tree.

``perfbench/spans.py`` and ``perfbench/micro.py`` wrap or call package
names by string; a name pruned from the package fails here rather than
only in ``perfbench/run.py --trace 1``.
"""

import json
import math
import pathlib
import subprocess
import sys

from coopnoma.mcsim import McConfig

ROOT = pathlib.Path(__file__).resolve().parent.parent
CHILD = ROOT / "perfbench" / "child.py"
SCENARIO = ROOT / "perfbench" / "scenarios" / "snr_sweep_ref.ini"


def child_record(*args) -> dict:
    proc = subprocess.run([sys.executable, str(CHILD), *args], capture_output=True, text=True,
                          cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.strip().splitlines()[-1]
    assert last.startswith("PERFBENCH "), proc.stdout
    return json.loads(last.removeprefix("PERFBENCH "))


def test_traced_run_counts_one_estimate_and_one_evaluate(tmp_path):
    # the baseline rows reuse the relayed evaluate call; its three rank CDFs are counted
    record = child_record("run", str(SCENARIO), str(tmp_path / "spans.json"),
                          "--config", str(SCENARIO), "--sweep-gamma0-db", "0:10:5",
                          "--engine", "both", "--trials", "200000", "--baseline",
                          "--out", str(tmp_path / "sweep.csv"))
    assert record["exit"] == 0
    assert record["metrics"]["mcsim.estimate_calls"] == 1
    assert record["metrics"]["mcsim.chunks"] == math.ceil(200_000 / McConfig.chunk_size)
    assert record["metrics"]["analytic.evaluate_calls"] == 1
    assert record["metrics"]["orderstat.ordered_cdf_calls"] == 3


def test_micro_kernels_run():
    assert child_record("micro", "snr_sweep_ref")["metrics"]
