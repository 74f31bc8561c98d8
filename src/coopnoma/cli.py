"""Config files, parameter sweeps, CSV output, and plot-script emission.

This is the only layer that speaks dB; everything below works in linear
scale.  Sweeps produce one CSV row per (sweep point, engine), with a
fixed header and 10-significant-digit formatting so output files diff
cleanly.  Plots are emitted as standalone matplotlib scripts rather than
images, keeping this package free of plotting dependencies and the
artifacts byte-reproducible.

A sweep runs in three passes.  It first builds and validates every
point, so a bad point is reported before any trial is drawn.  It then
computes the analytic columns: an SNR grid in one ``evaluate`` call per
relay flag over the array of its SNRs, pair and distance-set sweeps in
one call per point.  Last, one ``estimate`` call draws the fading gains
once and evaluates every Monte-Carlo row on them.  Each column is
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
from .mcsim import McConfig, estimate

CSV_COLUMNS = ("gamma0_db", "m", "n", "engine", "mode",
               "p_out_n", "p_out_m", "stderr_n", "stderr_m", "throughput")

SWEEP_VARIABLES = ("gamma0_db", "pair", "distance-set")
ENGINES = ("analytic", "mc")
OUTPUTS = ("p_out_n", "p_out_m", "throughput")

# Most points a --sweep-gamma0-db range may give.  A range of this many
# steps or more is refused before any list of it is built.
MAX_GRID_POINTS = 100_000

# Scenario defaults, which also name every key a config file may set:
# 6 users, pair (3, 6) with the 0.7/0.3 power split, unit rates,
# free-space-like path loss, unit mean gains, and the node layout
# d_sdn=4 m, d_sdm=6 m, d_dnr=4 m with 40/60-degree opening angles.
_DEFAULTS = {
    "system": {"M": "6", "m": "3", "n": "6", "a_m": "0.7", "a_n": "0.3", "theta": "2",
               "lambda_sd": "1", "lambda_dnr": "1", "lambda_rdm": "1", "R_m": "1", "R_n": "1"},
    "geometry": {"d_sdn": "4", "d_sdm": "6", "d_dnr": "4",
                 "alpha1_deg": "40", "alpha2_deg": "60"},
    "mc": {"trials": "100000", "seed": "12345", "chunk_size": "65536", "mode": "independent"},
    "sweep": {"variable": "gamma0_db", "values": "0,5,10,15,20,25,30,35,40",
              "engines": "analytic,mc", "baseline": "false",
              "outputs": "p_out_n,p_out_m,throughput", "gamma0_db": "20"},
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
    engines: tuple[str, ...] = ("analytic", "mc")
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


def _parse_scalar(section: str, key: str, raw: str, kind):
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is bool:
            lowered = raw.strip().lower()
            if lowered in ("true", "yes", "on", "1"):
                return True
            if lowered in ("false", "no", "off", "0"):
                return False
            raise ValueError(raw)
        return raw.strip()
    except (TypeError, ValueError):
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


def _base_gamma0(sweep: SweepSpec) -> float:
    """Linear SNR of the base config: the first grid point, or the sweep's fixed SNR."""
    if sweep.variable != "gamma0_db":
        return db_to_linear(sweep.gamma0_db)
    db = float(sweep.values[0])
    try:
        return db_to_linear(db)
    except ValueError as exc:
        raise ValueError(f"sweep point gamma0_db={db!r}: {exc}") from None


def load_config(path: str | Path | None) -> ConfigBundle:
    """Load a scenario from an INI-style file, filling defaults for omitted keys.

    ``path=None`` yields the full default scenario.  Unknown sections or
    keys, unparseable values, and invariant violations all raise
    ValueError naming the offending key; a missing file raises
    FileNotFoundError.
    """
    merged = {sec: dict(kv) for sec, kv in _DEFAULTS.items()}
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
                merged[section][key] = raw

    sy, ge, mc_s, sw = (merged[s] for s in ("system", "geometry", "mc", "sweep"))
    variable = _parse_scalar("sweep", "variable", sw["variable"], str)
    sweep = SweepSpec(
        variable=variable,
        values=_parse_values(variable, sw["values"]),
        engines=tuple(s.strip() for s in sw["engines"].split(",") if s.strip()),
        outputs=tuple(s.strip() for s in sw["outputs"].split(",") if s.strip()),
        baseline=_parse_scalar("sweep", "baseline", sw["baseline"], bool),
        gamma0_db=_parse_scalar("sweep", "gamma0_db", sw["gamma0_db"], float),
    )
    cfg = SystemConfig(
        M=_parse_scalar("system", "M", sy["M"], int),
        m=_parse_scalar("system", "m", sy["m"], int),
        n=_parse_scalar("system", "n", sy["n"], int),
        a_m=_parse_scalar("system", "a_m", sy["a_m"], float),
        a_n=_parse_scalar("system", "a_n", sy["a_n"], float),
        gamma0=_base_gamma0(sweep),
        theta=_parse_scalar("system", "theta", sy["theta"], float),
        lambda_sd=_parse_scalar("system", "lambda_sd", sy["lambda_sd"], float),
        lambda_dnr=_parse_scalar("system", "lambda_dnr", sy["lambda_dnr"], float),
        lambda_rdm=_parse_scalar("system", "lambda_rdm", sy["lambda_rdm"], float),
        R_m=_parse_scalar("system", "R_m", sy["R_m"], float),
        R_n=_parse_scalar("system", "R_n", sy["R_n"], float),
    )
    geo = Geometry(
        d_sdn=_parse_scalar("geometry", "d_sdn", ge["d_sdn"], float),
        d_sdm=_parse_scalar("geometry", "d_sdm", ge["d_sdm"], float),
        d_dnr=_parse_scalar("geometry", "d_dnr", ge["d_dnr"], float),
        alpha1=math.radians(_parse_scalar("geometry", "alpha1_deg", ge["alpha1_deg"], float)),
        alpha2=math.radians(_parse_scalar("geometry", "alpha2_deg", ge["alpha2_deg"], float)),
    )
    mc = McConfig(
        trials=_parse_scalar("mc", "trials", mc_s["trials"], int),
        seed=_parse_scalar("mc", "seed", mc_s["seed"], int),
        chunk_size=_parse_scalar("mc", "chunk_size", mc_s["chunk_size"], int),
        mode=_parse_scalar("mc", "mode", mc_s["mode"], str),
    )
    return cfg, geo, mc, sweep


# Every number in the CSV: 10 significant digits, so output files diff cleanly.
_fmt = "{:.10g}".format


def _point_scenario(cfg: SystemConfig, geo: Geometry, sweep: SweepSpec, value,
                    build_cfg: bool = True):
    """Specialize (cfg, geo) for one sweep value; returns (db, gamma0, cfg, geo).

    With ``build_cfg=False`` an SNR-grid point gets no SystemConfig of its
    own (None); db_to_linear has already checked its gamma0.
    """
    if sweep.variable == "gamma0_db":
        db = float(value)
        gamma0 = db_to_linear(db)
        return db, gamma0, replace(cfg, gamma0=gamma0) if build_cfg else None, geo
    db = sweep.gamma0_db
    cfg = replace(cfg, gamma0=db_to_linear(db))
    if sweep.variable == "pair":
        return db, cfg.gamma0, replace(cfg, m=value[0], n=value[1]), geo
    d_sdn, d_sdm, d_dnr = value
    return db, cfg.gamma0, cfg, Geometry(d_sdn, d_sdm, d_dnr, geo.alpha1, geo.alpha2)


def _point_error(sweep: SweepSpec, value, exc: Exception) -> Exception:
    return type(exc)(f"sweep point {sweep.variable}={value!r}: {exc}")


def _analytic_columns(cfg: SystemConfig, geo: Geometry, sweep: SweepSpec, points: list,
                      relays: tuple[bool, ...]) -> list[list[list[str]]]:
    """Formatted (p_out_n, p_out_m, throughput) columns over the points, one triple per relay flag.

    An SNR grid takes one ``evaluate`` call per relay flag over the array
    of its SNRs; any other sweep takes one call per point and flag.
    """
    if sweep.variable == "gamma0_db":
        grid = np.array([gamma0 for _, gamma0, _, _ in points])
        curves = [evaluate(cfg, geo, relay=relay, gamma0=grid) for relay in relays]
        columns = [(c.p_out_n.tolist(), c.p_out_m.tolist(), c.throughput.tolist())
                   for c in curves]
    else:
        lone = []
        for value, (_, _, cfg_i, geo_i) in zip(sweep.values, points):
            try:
                lone.append([evaluate(cfg_i, geo_i, relay=relay) for relay in relays])
            except (ValueError, ArithmeticError) as exc:
                raise _point_error(sweep, value, exc) from exc
        columns = [zip(*((p[j].p_out_n, p[j].p_out_m, p[j].throughput) for p in lone))
                   for j in range(len(relays))]
    return [[list(map(_fmt, column)) for column in triple] for triple in columns]


def run_sweep(cfg: SystemConfig, geo: Geometry, mc: McConfig, sweep: SweepSpec) -> list[dict]:
    """Evaluate every sweep point with every requested engine.

    Returns CSV-ready rows (string values, CSV_COLUMNS keys in order),
    ordered by sweep index then engine.  Errors in building a point or in
    its analytic rows propagate annotated with the offending sweep point,
    before any Monte-Carlo trial is drawn.
    """
    relays = (True, False) if sweep.baseline else (True,)
    build_cfg = sweep.variable != "gamma0_db" or "mc" in sweep.engines
    points = []
    for value in sweep.values:
        try:
            points.append(_point_scenario(cfg, geo, sweep, value, build_cfg=build_cfg))
        except (ValueError, ArithmeticError) as exc:
            raise _point_error(sweep, value, exc) from exc

    # engine, mode, then the p_out_n, p_out_m, stderr_n, stderr_m, throughput columns
    variants = []
    if "analytic" in sweep.engines:
        blank = [""] * len(points)
        for relay, (p_n, p_m, tau) in zip(relays, _analytic_columns(cfg, geo, sweep, points,
                                                                    relays)):
            variants.append(("analytic" if relay else "analytic-norelay", "", p_n, p_m,
                             blank, blank, tau))
    if "mc" in sweep.engines:
        (cfg_0, geo_0, relay_0), *rest = [(cfg_i, geo_i, relay)
                                          for _, _, cfg_i, geo_i in points for relay in relays]
        results = estimate(cfg_0, geo_0, mc, relay=relay_0, also=rest)
        for j, relay in enumerate(relays):
            columns = zip(*((est_n.p_hat, est_m.p_hat, est_n.stderr, est_m.stderr, tau)
                            for est_n, est_m, tau in results[j::len(relays)]))
            variants.append(("mc" if relay else "mc-norelay", mc.mode,
                             *(list(map(_fmt, column)) for column in columns)))

    rows = []
    for i, (db, _, cfg_i, _) in enumerate(points):
        ranks = cfg_i or cfg  # a grid point without a config of its own has the sweep's
        db_s, m_s, n_s = _fmt(db), str(ranks.m), str(ranks.n)
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
    ap.add_argument("--engine", choices=("analytic", "mc", "both"), help="engine selection")
    ap.add_argument("--mode", choices=("joint", "independent"), help="MC pairing mode")
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
        cfg = replace(cfg, gamma0=_base_gamma0(sweep))

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
