"""The benchmark's workloads: scenario file, command line and expected rows.

Each workload is one ``coopnoma.cli.main(argv)`` call.  The scenario file
fixes the system; the command line fixes the sweep grid, the engines and
the Monte-Carlo size.  The benchmark's ``--seed`` only chooses the
Monte-Carlo seed passed on the command line, so one seed always gives one
input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

SCENARIOS = Path(__file__).resolve().parent / "scenarios"


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str        # INI file under perfbench/scenarios
    grid: str            # --sweep-gamma0-db START:STOP:STEP
    engine: str          # --engine: analytic, mc or both
    baseline: bool       # --baseline
    trials: int | None   # --trials; None when no MC engine runs

    @property
    def scenario_path(self) -> Path:
        return SCENARIOS / self.scenario

    @property
    def engines(self) -> tuple[str, ...]:
        return ("analytic", "mc") if self.engine == "both" else (self.engine,)

    def mc_seed(self, seed: int) -> int:
        """Monte-Carlo seed for one benchmark seed; fixed per (workload, seed)."""
        return random.Random(f"{self.name}:{seed}").getrandbits(63)

    def argv(self, seed: int, out: Path) -> list[str]:
        args = ["--config", str(self.scenario_path), "--sweep-gamma0-db", self.grid,
                "--engine", self.engine, "--seed", str(self.mc_seed(seed)), "--out", str(out)]
        if self.trials is not None:
            args += ["--trials", str(self.trials)]
        if self.baseline:
            args.append("--baseline")
        return args

    def gamma_grid(self) -> list[float]:
        """SNR points in dB, generated as ``--sweep-gamma0-db`` defines them."""
        start, stop, step = (float(s) for s in self.grid.split(":"))
        values = []
        while start + len(values) * step <= stop + 1e-9:
            values.append(start + len(values) * step)
        return values

    def expected_rows(self) -> list[tuple[float, str]]:
        """(gamma0_db, engine column) of every CSV row, in file order."""
        variants = [engine + suffix for engine in self.engines
                    for suffix in (("", "-norelay") if self.baseline else ("",))]
        return [(g, v) for g in self.gamma_grid() for v in variants]

    def mc_trials(self) -> int:
        """Monte-Carlo trials summed over every MC row."""
        mc_rows = sum(1 for _, engine in self.expected_rows() if engine.startswith("mc"))
        return mc_rows * (self.trials or 0)


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="snr_sweep_ref",
        scenario="snr_sweep_ref.ini", grid="0:40:5", engine="both", baseline=True,
        trials=1_000_000),
    Workload(
        name="single_point_m20",
        scenario="single_point_m20.ini", grid="20:20:1", engine="mc", baseline=False,
        trials=16_000_000),
    Workload(
        name="analytic_dense",
        scenario="analytic_dense.ini", grid="0:40:0.005", engine="analytic", baseline=True,
        trials=None),
)}
