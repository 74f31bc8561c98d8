#!/usr/bin/env python3
"""sha256 of the CSV each benchmark workload and each fixed sweep writes, for a set of seeds.

    python3 tools/csv_digests.py --seeds 11-20
    python3 tools/csv_digests.py --seeds 11 12 --workload snr_sweep_ref
    python3 tools/csv_digests.py --seeds 11 --workload pair-joint

Runs ``coopnoma.cli.main(argv)`` in this process for every (run, seed),
with the CSV under a temporary directory, and prints one line per run
to standard output: run name, seed and the CSV's sha256 (what ``main``
itself prints goes to standard error).  The runs are:

- each benchmark workload, with ``Workload.argv(seed, out)``;
- three fixed sweeps (``SWEEPS``) that no workload covers, each with
  ``--engine both --baseline`` at ``SWEEP_TRIALS`` trials in each MC
  mode, named ``pair-joint``, ``pair-independent`` and so on.
  ``SWEEP_TRIALS`` is three chunks, so a fused sweep's relay groups are
  split across chunks and workers.  Their INI files are written in the
  temporary directory.
  - ``pair`` and ``distance-set`` each repeat one sweep point, so a
    scenario given twice in one ``estimate`` call is covered too.
  - ``tight-split`` puts gamma_thm a relative 2e-6 below the SINR
    ceiling a_m/a_n = 7/3, so the weak-signal stages' guard bands are
    about 5e-4 wide.  At seed 11 a few hundred trials per mode are
    decided by the direct-stage SINRs, where every other run decides
    none that way.

Two trees write byte-identical CSVs exactly where their outputs match
line for line, so the tool run on both sides of a change checks the CSV
contract.  It imports ``perfbench/workloads.py`` and writes nothing in
the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from coopnoma import cli  # noqa: E402
from coopnoma.mcsim import MODES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# The INI file of each fixed sweep, all at M = 8 (see the module notes).
SWEEPS = {
    "pair": "[system]\nM = 8\n[sweep]\nvariable = pair\n"
            "values = 1:8, 2:7, 3:8, 4:6, 7:8, 2:7\ngamma0_db = 15\n",
    "distance-set": "[system]\nM = 8\nm = 4\nn = 8\n[sweep]\nvariable = distance-set\n"
                    "values = 2:3:4, 4:6:4, 6:4:3, 9:9:1.5, 4:6:4\ngamma0_db = 25\n",
    "tight-split": "[system]\nM = 8\nm = 4\nn = 8\nR_m = 1.736963574\n[sweep]\n"
                   "values = 66,70,74,78,82\n",
}
SWEEP_TRIALS = 150_000  # three chunks of McConfig.chunk_size
RUNS = [*WORKLOADS, *(f"{variable}-{mode}" for variable in SWEEPS for mode in MODES)]


def run_argv(name: str, seed: int, out: pathlib.Path, tmp: pathlib.Path) -> list[str]:
    """The command line of one run; a fixed sweep's INI file is written in ``tmp``."""
    if name in WORKLOADS:
        return WORKLOADS[name].argv(seed, out)
    variable, mode = name.rsplit("-", 1)
    ini = tmp / f"{variable}.ini"
    ini.write_text(SWEEPS[variable])
    return ["--config", str(ini), "--engine", "both", "--baseline", "--mode", mode,
            "--trials", str(SWEEP_TRIALS), "--seed", str(seed), "--out", str(out)]


def seeds(specs: list[str]) -> list[int]:
    """Seeds from a list of integers and inclusive ranges ``A-B``."""
    out = []
    for spec in specs:
        lo, _, hi = spec.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", nargs="+", default=["11-20"], help="seeds or ranges A-B")
    ap.add_argument("--workload", choices=[*RUNS, "all"], default="all",
                    help="one run, a benchmark workload or a fixed sweep")
    args = ap.parse_args(argv)
    names = RUNS if args.workload == "all" else [args.workload]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        for name in names:
            for seed in seeds(args.seeds):
                out = tmp / f"{name}-{seed}.csv"
                with contextlib.redirect_stdout(sys.stderr):
                    code = cli.main(run_argv(name, seed, out, tmp))
                if code:
                    sys.exit(f"{name} seed {seed}: coopnoma exited with {code}")
                print(name, seed, hashlib.sha256(out.read_bytes()).hexdigest(), flush=True)


if __name__ == "__main__":
    main()
