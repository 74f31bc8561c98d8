#!/usr/bin/env python3
"""sha256 of the CSV each benchmark workload and each fixed sweep writes, for a set of seeds.

    python3 tools/csv_digests.py --seeds 11-20
    python3 tools/csv_digests.py --seeds 11 12 --workload snr_sweep_ref
    python3 tools/csv_digests.py --seeds 11 --workload pair-joint
    python3 tools/csv_digests.py --gate > tests/fixtures/csv_digests.json

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
    ceiling a_m/a_n = 7/3, so the weak-signal SINRs are ill-conditioned
    at their levels: a relative 1e-9/cond of a level is about 5e-4 wide
    in gain.  At seed 11 a few hundred trials per mode lie that close to
    a weak-signal level, where the one-comparison decision and the SINR
    expression are most likely to part; every other run has none there.

Two trees write byte-identical CSVs exactly where their outputs match
line for line, so the tool run on both sides of a change checks the CSV
contract.  It imports ``perfbench/workloads.py`` and writes nothing in
the checkout.

``--gate`` prints, as JSON, what the tier-1 byte gate
(``tests/test_csv_bytes.py``) recomputes and compares with its fixture:
every run at ``GATE_SEED``, ``single_point_m20`` at ``GATE_TRIALS``
trials instead of its 16e6, the lines of ``tools/evaluate_digests.py``,
and numpy's version and the SIMD dispatch targets this CPU runs, on
which the bytes also rest.  The dispatch is printed as a list of lists,
those the digests are known to hold on: the fixture adds the list of
each other CPU on which the same digests were seen, and the gate names
a dispatch difference only when this CPU's list is in none of them.  A
change that moves the bytes on purpose rewrites the fixture with it,
which keeps only this CPU's list, and says why.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import pathlib
import sys
import tempfile

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import evaluate_digests  # noqa: E402
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
GATE_SEED = 11
GATE_TRIALS = {"single_point_m20": 1_000_000}  # 16 chunks, about 0.1 s


def run_argv(name: str, seed: int, out: pathlib.Path, tmp: pathlib.Path) -> list[str]:
    """The command line of one run; a fixed sweep's INI file is written in ``tmp``."""
    if name in WORKLOADS:
        return WORKLOADS[name].argv(seed, out)
    variable, mode = name.rsplit("-", 1)
    ini = tmp / f"{variable}.ini"
    ini.write_text(SWEEPS[variable])
    return ["--config", str(ini), "--engine", "both", "--baseline", "--mode", mode,
            "--trials", str(SWEEP_TRIALS), "--seed", str(seed), "--out", str(out)]


def digest(name: str, seed: int, tmp: pathlib.Path, trials: int | None = None) -> str:
    """sha256 of the CSV one run writes under ``tmp``, at ``trials`` trials if given."""
    out = tmp / f"{name}-{seed}.csv"
    argv = run_argv(name, seed, out, tmp) + (["--trials", str(trials)] if trials else [])
    with contextlib.redirect_stdout(sys.stderr):
        code = cli.main(argv)
    if code:
        raise RuntimeError(f"{name} seed {seed}: coopnoma exited with {code}")
    return hashlib.sha256(out.read_bytes()).hexdigest()


def platform() -> dict:
    """numpy's version and, as a list of one list, the SIMD dispatch targets it runs here."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return {"numpy": np.__version__,
            "cpu_dispatch": [[t for t in __cpu_dispatch__ if __cpu_features__.get(t)]]}


def gate() -> dict:
    """The byte gate's digests and the platform they were made on (see the module notes)."""
    with tempfile.TemporaryDirectory() as tmp:
        csv = {name: digest(name, GATE_SEED, pathlib.Path(tmp), GATE_TRIALS.get(name))
               for name in RUNS}
    return {**platform(), "seed": GATE_SEED, "csv": csv,
            "evaluate": {f"{name} {relay}": sha for name, relay, sha in evaluate_digests.lines()}}


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
    ap.add_argument("--gate", action="store_true", help="print the byte gate's fixture instead")
    args = ap.parse_args(argv)
    if args.gate:
        print(json.dumps(gate(), indent=1))
        return
    names = RUNS if args.workload == "all" else [args.workload]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        for name in names:
            for seed in seeds(args.seeds):
                print(name, seed, digest(name, seed, tmp), flush=True)


if __name__ == "__main__":
    main()
