"""Config files, parameter sweeps, CSV output, and plot-script emission.

This is the only layer that speaks dB; everything below works in linear
scale.  Sweeps produce one CSV row per (sweep point, engine), with a
fixed header and 10-significant-digit formatting so output files diff
cleanly.  Plots are emitted as standalone matplotlib scripts rather than
images, keeping this package free of plotting dependencies and the
artifacts byte-reproducible.

A sweep is a list of groups, each a run of points that differ only in
their SNR: an SNR grid is one group, a pair or distance-set sweep one
group per point at the fixed SNR.  Every group is built and checked
before anything is computed, so a bad point is reported before any trial
is drawn.  Each group then takes one ``evaluate`` call per relay flag
over the array of its SNRs, and one ``estimate`` call draws the fading
gains once and evaluates every Monte-Carlo row on them.  Each column is
formatted once, from Python floats, and each row is built once, its
keys in CSV order.  ``write_csv`` streams the rows to the file one line
at a time; no field needs quoting, so the bytes are those of
``csv.writer``.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import operator
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .analytic import evaluate
from .linklevel import Geometry, SystemConfig
from .mcsim import MODES, McConfig, estimate

CSV_COLUMNS = ("gamma0_db", "m", "n", "engine", "mode",
               "p_out_n", "p_out_m", "stderr_n", "stderr_m", "throughput")

ENGINES = ("analytic", "mc")
OUTPUTS = ("p_out_n", "p_out_m", "throughput")

# Most points a --sweep-gamma0-db range may give.  A range of this many
# steps or more is refused before any list of it is built.
MAX_GRID_POINTS = 100_000

# Scenario defaults, which also name every key a config file may set and
# give the type its value is read as: 6 users, pair (3, 6) with the
# 0.7/0.3 power split, unit rates, free-space-like path loss, unit mean
# gains, and the node layout d_sdn=4 m, d_sdm=6 m, d_dnr=4 m with
# 40/60-degree opening angles.  Sweep values are read for their variable.
_DEFAULTS = {
    "system": {"M": 6, "m": 3, "n": 6, "a_m": 0.7, "a_n": 0.3, "theta": 2.0,
               "lambda_sd": 1.0, "lambda_dnr": 1.0, "lambda_rdm": 1.0, "R_m": 1.0, "R_n": 1.0},
    "geometry": {"d_sdn": 4.0, "d_sdm": 6.0, "d_dnr": 4.0,
                 "alpha1_deg": 40.0, "alpha2_deg": 60.0},
    "mc": {"trials": 100_000, "seed": 12345, "chunk_size": 65536, "mode": "independent"},
    "sweep": {"variable": "gamma0_db", "values": "0,5,10,15,20,25,30,35,40",
              "engines": ENGINES, "baseline": False, "outputs": OUTPUTS, "gamma0_db": 20.0},
}


def db_to_linear(db: float) -> float:
    """Power ratio from decibels; ValueError when it overflows a float or underflows to 0."""
    try:
        ratio = 10.0 ** (db / 10.0)
    except OverflowError:
        raise ValueError(f"{db} dB overflows a float power ratio") from None
    if ratio == 0.0:
        raise ValueError(f"{db} dB underflows a float power ratio to 0")
    return ratio


def _is_int(v) -> bool:
    """An int, numpy's included, and not a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_real(v) -> bool:
    """A finite int or float, numpy's included, and not a bool."""
    return (isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)
            and math.isfinite(v))


# What each sweep variable's values must be, and the test of one value.
_SWEEP_VALUES = {
    "gamma0_db": ("finite reals", _is_real),
    "pair": ("(m, n) tuples of integers",
             lambda v: isinstance(v, tuple) and len(v) == 2 and all(map(_is_int, v))),
    "distance-set": ("(d_sdn, d_sdm, d_dnr) tuples of finite reals",
                     lambda v: isinstance(v, tuple) and len(v) == 3 and all(map(_is_real, v))),
}
SWEEP_VARIABLES = tuple(_SWEEP_VALUES)


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep, with which engines, and which outputs to plot.

    values holds floats (variable="gamma0_db", the SNR grid in dB),
    (m, n) rank pairs (variable="pair"), or (d_sdn, d_sdm, d_dnr)
    triples (variable="distance-set").  Pair and distance sweeps run at
    the fixed SNR ``gamma0_db``.  ``baseline`` adds non-relaying
    companion rows per engine.
    """

    variable: str
    values: tuple
    engines: tuple[str, ...] = ENGINES
    outputs: tuple[str, ...] = OUTPUTS
    baseline: bool = False
    gamma0_db: float = 20.0

    def __post_init__(self) -> None:
        if self.variable not in SWEEP_VARIABLES:
            raise ValueError(f"sweep variable must be one of {SWEEP_VARIABLES}, "
                             f"got {self.variable!r}")
        if not self.values:
            raise ValueError("sweep values must be non-empty")
        object.__setattr__(self, "values", tuple(self.values))
        want, valid = _SWEEP_VALUES[self.variable]
        for v in self.values:
            if not valid(v):
                raise ValueError(f"{self.variable} sweep values must be {want}, got {v!r}")
        engines = tuple(e for e in ENGINES if e in self.engines)
        if len(set(self.engines)) != len(engines) or not engines:
            bad = set(self.engines) - set(ENGINES) or "empty set"
            raise ValueError(f"engines must be a non-empty subset of {ENGINES}, got {bad}")
        object.__setattr__(self, "engines", engines)
        outputs = tuple(o for o in OUTPUTS if o in self.outputs)
        if len(set(self.outputs)) != len(outputs) or not outputs:
            bad = set(self.outputs) - set(OUTPUTS) or "empty set"
            raise ValueError(f"outputs must be a non-empty subset of {OUTPUTS}, got {bad}")
        object.__setattr__(self, "outputs", outputs)
        if not _is_real(self.gamma0_db):
            raise ValueError(f"gamma0_db must be a finite real, got {self.gamma0_db!r}")


ConfigBundle = tuple[SystemConfig, Geometry, McConfig, SweepSpec]


def _parse_scalar(section: str, key: str, raw: str):
    """``raw`` read as the type of the key's default; a tuple from a comma-separated list."""
    kind = type(_DEFAULTS[section][key])
    text = raw.strip()
    try:
        if kind is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
        if kind is tuple:
            return tuple(s.strip() for s in text.split(",") if s.strip())
        return kind(text)
    except (KeyError, ValueError):
        raise ValueError(f"config key [{section}] {key}: cannot parse {raw!r} "
                         f"as {kind.__name__}") from None


def _parse_values(variable: str, raw: str) -> tuple:
    items = [s.strip() for s in raw.split(",") if s.strip()]
    if not items:
        raise ValueError("config key [sweep] values: empty value list")
    try:
        if variable == "gamma0_db":
            return tuple(float(s) for s in items)
        if variable == "pair":
            pairs = []
            for s in items:
                m_s, n_s = s.split(":")
                pairs.append((int(m_s), int(n_s)))
            return tuple(pairs)
        triples = []
        for s in items:
            a, b, c = s.split(":")
            triples.append((float(a), float(b), float(c)))
        return tuple(triples)
    except ValueError as exc:
        raise ValueError(f"config key [sweep] values: cannot parse {raw!r} "
                         f"for variable {variable!r} ({exc})") from None


def _gamma0(key: str, db) -> float:
    """``db_to_linear(db)``, its error naming the sweep key the SNR came from."""
    try:
        return db_to_linear(db)
    except ValueError as exc:
        raise ValueError(f"{key}={db!r}: {exc}") from None


def _snrs(sweep: SweepSpec) -> tuple[list, list[float]]:
    """The dB and linear SNRs of an SNR grid, or the fixed SNR of any other sweep."""
    if sweep.variable == "gamma0_db":
        dbs = [float(v) for v in sweep.values]
        return dbs, [_gamma0("sweep point gamma0_db", db) for db in dbs]
    return [sweep.gamma0_db], [_gamma0("sweep gamma0_db", sweep.gamma0_db)]


def load_config(path: str | Path | None) -> ConfigBundle:
    """Load a scenario from an INI-style file, filling defaults for omitted keys.

    ``path=None`` yields the full default scenario.  The config's SNR is
    the first sweep point's.  Unknown sections or keys, unparseable
    values, an SNR that over- or underflows a float, and invariant
    violations all raise ValueError naming the offending key; a missing
    file raises FileNotFoundError.
    """
    given = {section: {} for section in _DEFAULTS}
    if path is not None:
        path = Path(path)
        if not path.is_file():
            raise FileNotFoundError(f"config file not found: {path}")
        parser = configparser.ConfigParser()
        parser.optionxform = str  # [system] M and m are distinct keys
        try:
            parser.read_string(path.read_text(), source=str(path))
        except configparser.Error as exc:
            raise ValueError(f"config file {path}: {exc}") from None
        for section in parser.sections():
            if section not in _DEFAULTS:
                raise ValueError(f"config file {path}: unknown section [{section}]")
            for key, raw in parser.items(section):
                if key not in _DEFAULTS[section]:
                    raise ValueError(f"config file {path}: unknown key [{section}] {key}")
                given[section][key] = raw

    system, geometry, mc, sweep = (
        {key: _parse_scalar(section, key, given[section][key]) if key in given[section]
         else default for key, default in keys.items()}
        for section, keys in _DEFAULTS.items())
    sweep = SweepSpec(**sweep | {"values": _parse_values(sweep["variable"], sweep["values"])})
    cfg = SystemConfig(**system, gamma0=_snrs(sweep)[1][0])
    geo = Geometry(**{key.removesuffix("_deg"): math.radians(v) if key.endswith("_deg") else v
                      for key, v in geometry.items()})
    return cfg, geo, McConfig(**mc), sweep


# Every number in the CSV: 10 significant digits, so output files diff cleanly.
_fmt = "{:.10g}".format


def _groups(cfg: SystemConfig, geo: Geometry, sweep: SweepSpec) -> list[tuple]:
    """The sweep as groups of points that differ only in their SNR.

    A group is (cfg, geo, gamma0_db list, gamma0 list): an SNR grid is one
    group, any other sweep one group per point at the fixed SNR.  Every
    group carries its own SNRs, so ``cfg.gamma0`` is never read.
    """
    dbs, gamma0s = _snrs(sweep)
    if sweep.variable == "gamma0_db":
        return [(cfg, geo, dbs, gamma0s)]
    groups = []
    for value in sweep.values:
        try:
            if sweep.variable == "pair":
                point = replace(cfg, m=value[0], n=value[1]), geo
            else:
                point = cfg, Geometry(*value, geo.alpha1, geo.alpha2)
        except (ValueError, ArithmeticError) as exc:
            raise type(exc)(f"sweep point {sweep.variable}={value!r}: {exc}") from exc
        groups.append((*point, dbs, gamma0s))
    return groups


def run_sweep(cfg: SystemConfig, geo: Geometry, mc: McConfig, sweep: SweepSpec) -> list[dict]:
    """Evaluate every sweep point with every requested engine.

    Returns CSV-ready rows (string values, CSV_COLUMNS keys in order),
    ordered by sweep index then engine.  The SNRs come from the sweep,
    never from ``cfg.gamma0``.  An error in building a point propagates
    annotated with the offending sweep point, before any Monte-Carlo
    trial is drawn.
    """
    relays = (True, False) if sweep.baseline else (True,)
    groups = _groups(cfg, geo, sweep)

    # engine, mode, then the p_out_n, p_out_m, stderr_n, stderr_m, throughput columns
    variants = []
    if "analytic" in sweep.engines:
        blank = [""] * len(sweep.values)
        for relay in relays:
            curves = [evaluate(cfg_g, geo_g, relay=relay, gamma0=np.array(gamma0s))
                      for cfg_g, geo_g, _, gamma0s in groups]
            p_n, p_m, tau = (list(map(_fmt, np.concatenate(column).tolist())) for column in
                             zip(*((c.p_out_n, c.p_out_m, c.throughput) for c in curves)))
            variants.append(("analytic" if relay else "analytic-norelay", "", p_n, p_m,
                             blank, blank, tau))
    if "mc" in sweep.engines:
        scenarios = [(replace(cfg_g, gamma0=gamma0), geo_g)
                     for cfg_g, geo_g, _, gamma0s in groups for gamma0 in gamma0s]
        (cfg_0, geo_0, relay_0), *rest = [(*scenario, relay) for scenario in scenarios
                                          for relay in relays]
        results = estimate(cfg_0, geo_0, mc, relay=relay_0, also=rest)
        for j, relay in enumerate(relays):
            columns = zip(*((est_n.p_hat, est_m.p_hat, est_n.stderr, est_m.stderr, tau)
                            for est_n, est_m, tau in results[j::len(relays)]))
            variants.append(("mc" if relay else "mc-norelay", mc.mode,
                             *(list(map(_fmt, column)) for column in columns)))

    rows = []
    points = ((_fmt(db), str(cfg_g.m), str(cfg_g.n)) for cfg_g, _, dbs, _ in groups for db in dbs)
    for i, (db_s, m_s, n_s) in enumerate(points):
        for engine, mode, p_n, p_m, se_n, se_m, tau in variants:
            rows.append({"gamma0_db": db_s, "m": m_s, "n": n_s, "engine": engine,
                         "mode": mode, "p_out_n": p_n[i], "p_out_m": p_m[i],
                         "stderr_n": se_n[i], "stderr_m": se_m[i], "throughput": tau[i]})
    return rows


def write_csv(rows: list[dict], path: str | Path) -> None:
    """Write sweep rows under the fixed header, streamed one line per row.

    Every field is a ``%.10g`` number, a decimal integer, a fixed engine
    or mode name, or empty, so none needs quoting: the bytes are those
    ``csv.writer`` writes with ``lineterminator="\\n"``.
    """
    get = operator.itemgetter(*CSV_COLUMNS)
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        fh.writelines(",".join(get(row)) + "\n" for row in rows)


def _read_rows(csv_path: Path) -> list[dict]:
    with csv_path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{csv_path}: empty CSV, no header line") from None
        if tuple(header) != CSV_COLUMNS:
            raise ValueError(f"{csv_path} line 1: header {header!r} does not match "
                             f"{list(CSV_COLUMNS)}")
        rows = []
        for lineno, record in enumerate(reader, start=2):
            if not record:
                continue
            if len(record) != len(CSV_COLUMNS):
                raise ValueError(f"{csv_path} line {lineno}: expected "
                                 f"{len(CSV_COLUMNS)} fields, got {len(record)}")
            row = dict(zip(CSV_COLUMNS, record))
            try:
                float(row["gamma0_db"]), int(row["m"]), int(row["n"])
                for col in ("p_out_n", "p_out_m", "throughput"):
                    float(row[col])
            except ValueError:
                raise ValueError(f"{csv_path} line {lineno}: non-numeric field "
                                 f"in {record!r}") from None
            rows.append(row)
    if not rows:
        raise ValueError(f"{csv_path}: no data rows")
    return rows


_PLOT_TEMPLATE = '''\
#!/usr/bin/env python3
"""Render outage/throughput figures from the sweep CSV at CSV_PATH (auto-generated)."""

import csv
import math
from collections import defaultdict

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

CSV_PATH = {csv_path!r}
STEM = {stem!r}
OUTPUTS = {outputs!r}

series = defaultdict(list)
with open(CSV_PATH, newline="") as fh:
    for row in csv.DictReader(fh):
        key = (row["engine"], row["mode"], int(row["m"]), int(row["n"]))
        series[key].append(row)

def style(engine):
    mc_like = engine.startswith("mc")
    base = dict(linestyle="--" if engine.endswith("norelay") else "-")
    if mc_like:
        base = dict(linestyle="none", marker="s" if engine.endswith("norelay") else "o",
                    fillstyle="none")
    return base

def save(metric, ylabel, fname, logscale):
    fig, ax = plt.subplots(figsize=(6.4, 4.8))
    for key in sorted(series):
        engine, mode, m, n = key
        rows = sorted(series[key], key=lambda r: float(r["gamma0_db"]))
        x = [float(r["gamma0_db"]) for r in rows]
        y = [float(r[metric]) for r in rows]
        if logscale:
            x = [xi for xi, yi in zip(x, y) if yi > 0]
            y = [yi for yi in y if yi > 0]
        if not x:
            continue
        label = f"{{engine}} (m={{m}}, n={{n}})" + (f" [{{mode}}]" if mode else "")
        ax.plot(x, y, label=label, **style(engine))
    if logscale:
        ax.set_yscale("log")
    ax.set_xlabel("transmit SNR (dB)")
    ax.set_ylabel(ylabel)
    ax.grid(True, which="both", alpha=0.3)
    ax.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig(fname, dpi=150)
    plt.close(fig)
    print(f"wrote {{fname}}")

for metric in ("p_out_n", "p_out_m"):
    if metric in OUTPUTS:
        save(metric, f"outage probability ({{metric[-1]}})",
             STEM + "_" + metric + ".png", logscale=True)
if "throughput" in OUTPUTS:
    save("throughput", "sum throughput (bit/s/Hz)", STEM + "_throughput.png", logscale=False)
'''


def emit_plot_script(csv_path: str | Path, outputs: tuple[str, ...] = OUTPUTS) -> str:
    """Generate a standalone matplotlib script for a run_sweep CSV.

    Analytic engines render as lines, MC engines as hollow markers;
    outage axes are logarithmic.  The CSV is validated up front so a
    malformed file fails here, with a line number, rather than at plot
    time.  Names enter the script only as string literals, so any CSV
    file name yields a valid script and figures named after its stem.
    """
    csv_path = Path(csv_path)
    _read_rows(csv_path)
    return _PLOT_TEMPLATE.format(csv_path=str(csv_path), outputs=tuple(outputs),
                                 stem=csv_path.stem)


def _parse_sweep_range(text: str) -> tuple[float, ...]:
    try:
        start_s, stop_s, step_s = text.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
    except ValueError:
        raise ValueError(f"--sweep-gamma0-db expects START:STOP:STEP, got {text!r}") from None
    # a non-finite value would never end the loop below
    if not (math.isfinite(start) and start <= stop < math.inf and 0 < step < math.inf):
        raise ValueError(f"--sweep-gamma0-db needs finite values with step > 0 and "
                         f"stop >= start, got {text!r}")
    span = (stop - start) / step  # the grid has floor(span) + 1 points; inf on overflow
    if span >= MAX_GRID_POINTS:
        raise ValueError(f"--sweep-gamma0-db {text!r} gives {span + 1:.6g} grid points, "
                         f"more than {MAX_GRID_POINTS}")
    values = []
    k = 0
    while True:
        v = start + k * step
        if v > stop + 1e-9:
            break
        values.append(v)
        k += 1
    return tuple(values)


def main(argv: list[str] | None = None) -> int:
    """Console entry point; returns a process exit code."""
    ap = argparse.ArgumentParser(
        prog="coopnoma",
        description="Sweep outage probability and throughput for a relay-assisted "
                    "NOMA pairing, with analytic and Monte-Carlo engines.")
    ap.add_argument("--config", metavar="PATH", help="INI scenario file (defaults used when omitted)")
    ap.add_argument("--sweep-gamma0-db", metavar="START:STOP:STEP",
                    help="override the sweep with an SNR grid in dB")
    ap.add_argument("--trials", type=int, metavar="N", help="Monte-Carlo trials per point")
    ap.add_argument("--seed", type=int, metavar="N", help="Monte-Carlo seed")
    ap.add_argument("--engine", choices=(*ENGINES, "both"), help="engine selection")
    ap.add_argument("--mode", choices=MODES, help="MC pairing mode")
    ap.add_argument("--baseline", action="store_true",
                    help="add non-relaying baseline rows")
    ap.add_argument("--out", metavar="CSV_PATH", default="sweep.csv", help="output CSV path")
    ap.add_argument("--plot", metavar="SCRIPT_PATH", help="also emit a plot script here")
    args = ap.parse_args(argv)

    try:
        cfg, geo, mc, sweep = load_config(args.config)
        # one replace, so SweepSpec checks a long grid once
        overrides = {}
        if args.sweep_gamma0_db is not None:
            overrides |= {"variable": "gamma0_db",
                          "values": _parse_sweep_range(args.sweep_gamma0_db)}
        if args.engine is not None:
            overrides["engines"] = ENGINES if args.engine == "both" else (args.engine,)
        if args.baseline:
            overrides["baseline"] = True
        sweep = replace(sweep, **overrides)
        if args.trials is not None:
            mc = replace(mc, trials=args.trials)
        if args.seed is not None:
            mc = replace(mc, seed=args.seed)
        if args.mode is not None:
            mc = replace(mc, mode=args.mode)

        rows = run_sweep(cfg, geo, mc, sweep)
        write_csv(rows, args.out)
        print(f"wrote {args.out} ({len(rows)} rows)")
        if args.plot:
            Path(args.plot).write_text(emit_plot_script(args.out, outputs=sweep.outputs))
            print(f"wrote {args.plot}")
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
