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
is drawn; an SNR grid is checked as one array, and only a grid that
fails is walked point by point to name its first bad point.  Each group
then takes one ``evaluate`` call over the array of its SNRs, and one
``estimate`` call draws the fading gains once and counts every
Monte-Carlo scenario on them.  Each engine's baseline rows read the
no-relay fields of the results its relay rows read.  ``run_sweep``
returns a sized view of the CSV lines that holds only the result
columns and each group's ranks.  Reading it takes the points in blocks:
in each, every column is formatted by one ``"%.10g"`` pass over its
Python floats, and the fields are zipped and joined into one CSV line (a
string) per row.  ``write_csv`` reads and writes the lines a block at a
time, one ``write`` each, so a sweep's lines are formatted as they are
written and never all held at once; no field needs quoting, so the bytes
are those of ``csv.writer``.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import sys
from bisect import bisect_right
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from itertools import accumulate, chain, islice, repeat
from operator import attrgetter, itemgetter
from pathlib import Path

import numpy as np

from .analytic import evaluate
from .linklevel import Geometry, SystemConfig, check_box, is_int
from .mcsim import MODES, McConfig, estimate

CSV_COLUMNS = ("gamma0_db", "m", "n", "engine", "mode",
               "p_out_n", "p_out_m", "stderr_n", "stderr_m", "throughput")

ENGINES = ("analytic", "mc")
OUTPUTS = ("p_out_n", "p_out_m", "throughput")

# Points formatted into lines at a time by a pass over run_sweep's view, and
# lines handed to one write by write_csv: a block's strings, not a whole
# sweep's or file's, are what either holds beside the result columns.
_BLOCK = 1024

# Most points a --sweep-gamma0-db range may give, the points its 1e-9 slack
# past STOP admits included.  No list of more than one point past it is built.
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
    "mc": {"trials": 100_000, "seed": 12345, "mode": "independent"},
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


def _is_real(v) -> bool:
    """A finite int or float, numpy's included, and not a bool."""
    return (isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)
            and math.isfinite(v))


# Each sweep variable: what its values must be, the test of one number, and
# how many numbers one value holds (0 for a bare number, the SNR in dB).
_SWEEP_VARIABLES = {
    "gamma0_db": ("finite reals", _is_real, 0),
    "pair": ("(m, n) tuples of integers", is_int, 2),
    "distance-set": ("(d_sdn, d_sdm, d_dnr) tuples of finite reals", _is_real, 3),
}
SWEEP_VARIABLES = tuple(_SWEEP_VARIABLES)


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
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError("sweep values must be non-empty")
        want, number, width = _SWEEP_VARIABLES[self.variable]
        # An SNR grid of finite Python ints and floats passes in one pass; any
        # other grid (a bad value, or a numpy number) is tested value by value.
        if not (self.variable == "gamma0_db" and set(map(type, self.values)) <= {int, float}
                and all(map(math.isfinite, self.values))):
            for v in self.values:
                if not (isinstance(v, tuple) and len(v) == width and all(map(number, v))
                        if width else number(v)):
                    raise ValueError(f"{self.variable} sweep values must be {want}, got {v!r}")
        for name, allowed in (("engines", ENGINES), ("outputs", OUTPUTS)):
            given = getattr(self, name)
            kept = tuple(x for x in allowed if x in given)  # in the order of ``allowed``
            if len(set(given)) != len(kept) or not kept:
                bad = set(given) - set(allowed) or "empty set"
                raise ValueError(f"{name} must be a non-empty subset of {allowed}, got {bad}")
            object.__setattr__(self, name, kept)
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
    """Each comma-separated item of ``raw`` as one value of ``variable``, numbers joined by ':'."""
    if variable not in _SWEEP_VARIABLES:
        raise ValueError(f"config key [sweep] variable: must be one of {SWEEP_VARIABLES}, "
                         f"got {variable!r}")
    _, number, width = _SWEEP_VARIABLES[variable]
    kind = int if number is is_int else float
    items = [s.strip() for s in raw.split(",") if s.strip()]
    if not items:
        raise ValueError("config key [sweep] values: empty value list")
    values = []
    for item in items:
        numbers = item.split(":")
        try:
            if width and len(numbers) != width:
                raise ValueError(f"expected {width} numbers, got {len(numbers)}")
            values.append(tuple(map(kind, numbers)) if width else kind(item))
        except ValueError as exc:
            raise ValueError(f"config key [sweep] values: cannot parse {item!r} "
                             f"for variable {variable!r} ({exc})") from None
    return tuple(values)


def _checked(key: str, value, name: str, convert) -> float:
    """``convert(value)``, checked against the input box as ``name``.

    Its error names the key and the value as the user wrote them.
    """
    try:
        return check_box(name, convert(value))
    except ValueError as exc:
        raise ValueError(f"{key}={value!r}: {exc}") from None


def _snrs(sweep: SweepSpec) -> tuple[list, list[float]]:
    """The dB and linear SNRs of an SNR grid, or the fixed SNR of any other sweep."""
    if sweep.variable == "gamma0_db":
        dbs = [float(v) for v in sweep.values]
        try:
            gamma0s = list(map(db_to_linear, dbs))
            check_box("gamma0", np.array(gamma0s))
        except ValueError:  # name the first bad point
            gamma0s = [_checked("sweep point gamma0_db", db, "gamma0", db_to_linear) for db in dbs]
        return dbs, gamma0s
    return [sweep.gamma0_db], [_checked("sweep gamma0_db", sweep.gamma0_db, "gamma0",
                                        db_to_linear)]


def load_config(path: str | Path | None) -> ConfigBundle:
    """Load a scenario from an INI-style file, filling defaults for omitted keys.

    ``path=None`` yields the full default scenario.  The config's SNR is
    the first sweep point's.  Unknown sections or keys, unparseable
    values, an SNR outside the input box, and invariant violations all
    raise ValueError naming the offending key; a missing file raises
    FileNotFoundError.
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
    for key in ("alpha1_deg", "alpha2_deg"):
        geometry[key[:-4]] = _checked(f"config key [geometry] {key}", geometry.pop(key),
                                      key[:-4], math.radians)
    geo = Geometry(**geometry)
    return cfg, geo, McConfig(**mc), sweep


def _format(values) -> list[str]:
    """Each number as ``"{:.10g}".format`` gives it (10 significant digits, so
    output files diff cleanly), the whole column formatted by one ``%``."""
    return ("%.10g\n" * len(values) % tuple(values)).split("\n")[:-1]


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


class SweepLines:
    """A sweep's CSV lines, formatted a block of points at a time when read.

    Holds the SNR of every point (``gamma0_db``, an array), the ranks of
    each group of points (``ranks``: the index past the group's last
    point and its m and n as text) and, per row variant, its engine, mode
    and result columns (arrays over the points, or None for a blank
    column).  ``len()`` is the number of lines.  Each pass over the view
    formats them afresh, each a string of the fields in CSV_COLUMNS order
    joined by commas (no line terminator), so it can be read any number
    of times and holds no more than one block's strings at once.
    """

    def __init__(self, gamma0_db: np.ndarray, ranks: list[tuple[int, str, str]],
                 variants: list):
        self.gamma0_db, self.ranks, self.variants = gamma0_db, ranks, variants

    def __len__(self) -> int:
        return len(self.gamma0_db) * len(self.variants)

    def __iter__(self) -> Iterator[str]:
        return chain.from_iterable(map(self._block, range(0, len(self.gamma0_db), _BLOCK)))

    def _block(self, lo: int) -> list[str]:
        """The lines of points lo to lo + _BLOCK, each point's rows together."""
        hi = min(lo + _BLOCK, len(self.gamma0_db))
        # Every column of the block is formatted in one pass, by the column's
        # id: a column that variants share is formatted once, a blank one
        # (None) is empty.
        text = {id(None): repeat("")}
        for _, _, *columns in self.variants:
            for c in columns:
                if id(c) not in text:
                    text[id(c)] = _format(c[lo:hi].tolist())
        point_fields = _format(self.gamma0_db[lo:hi].tolist()), *self._ranks(lo, hi)
        # one line iterator per variant, interleaved so each point's rows come together
        by_variant = [map(",".join, zip(*point_fields, repeat(engine), repeat(mode),
                                        *(text[id(c)] for c in columns)))
                      for engine, mode, *columns in self.variants]
        return list(chain.from_iterable(zip(*by_variant)))

    def _ranks(self, lo: int, hi: int) -> tuple[list[str], list[str]]:
        """The m and n fields of points lo to hi - 1, each group's over all its points."""
        m, n = [], []
        g = bisect_right(self.ranks, lo, key=itemgetter(0))  # the group of point lo
        while lo < hi:
            stop, m_text, n_text = self.ranks[g]
            count = min(stop, hi) - lo
            m += [m_text] * count
            n += [n_text] * count
            lo, g = lo + count, g + 1
        return m, n


def run_sweep(cfg: SystemConfig, geo: Geometry, mc: McConfig, sweep: SweepSpec) -> SweepLines:
    """Evaluate every sweep point with every requested engine.

    Every engine runs here, so an error in building a point propagates,
    annotated with the offending sweep point, before any Monte-Carlo
    trial is drawn and before any file is written.  Returns a sized view
    of the CSV lines, one per row, ordered by sweep index then engine
    (see ``SweepLines``): it holds the result columns, and a pass over
    it formats the lines a block of points at a time.  The SNRs come
    from the sweep, never from ``cfg.gamma0``.
    """
    groups = _groups(cfg, geo, sweep)

    # engine, mode, then the p_out_n, p_out_m, stderr_n, stderr_m, throughput
    # columns, each an array over the points or None for a blank column
    variants = []
    if "analytic" in sweep.engines:
        curves = [evaluate(cfg_g, geo_g, gamma0=np.array(gamma0s))
                  for cfg_g, geo_g, _, gamma0s in groups]

        def column(name):
            return np.concatenate([getattr(c, name) for c in curves])

        p_n = column("p_out_n")  # the strong user's outage, the same with the relay and without
        variants.append(("analytic", "", p_n, column("p_out_m"), None, None,
                         column("throughput")))
        if sweep.baseline:
            variants.append(("analytic-norelay", "", p_n, column("p_out_m_norelay"), None, None,
                             column("throughput_norelay")))
    if "mc" in sweep.engines:
        scenarios = [(replace(cfg_g, gamma0=gamma0), geo_g)
                     for cfg_g, geo_g, _, gamma0s in groups for gamma0 in gamma0s]
        results = estimate(*scenarios[0], mc, also=scenarios[1:])

        def column(name):  # an McPoint field, or a dotted property of one such as "p_out_m.p_hat"
            return np.array(list(map(attrgetter(name), results)), dtype=float)

        p_n, s_n = column("p_out_n.p_hat"), column("p_out_n.stderr")  # shared, as above
        variants.append(("mc", mc.mode, p_n, column("p_out_m.p_hat"), s_n,
                         column("p_out_m.stderr"), column("throughput")))
        if sweep.baseline:
            variants.append(("mc-norelay", mc.mode, p_n, column("p_out_m_norelay.p_hat"), s_n,
                             column("p_out_m_norelay.stderr"), column("throughput_norelay")))

    stops = accumulate(len(dbs) for *_, dbs, _ in groups)
    ranks = [(stop, str(cfg_g.m), str(cfg_g.n)) for stop, (cfg_g, *_) in zip(stops, groups)]
    return SweepLines(np.concatenate([dbs for *_, dbs, _ in groups]), ranks, variants)


def write_csv(rows: Iterable[str], path: str | Path) -> None:
    """Write sweep lines under the fixed header, one ``write`` per block of lines.

    ``rows`` is ``run_sweep``'s view or any other iterable of lines; it is
    read a block at a time, so a view's lines are formatted as they are
    written and no string of the whole file is built.  Every field is a
    ``%.10g`` number, a decimal integer, a fixed engine or mode name, or
    empty, so none needs quoting: the bytes are those ``csv.writer``
    writes with ``lineterminator="\\n"``.
    """
    lines = iter(rows)
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        while block := list(islice(lines, _BLOCK)):
            fh.write("\n".join(block) + "\n")


def _check_csv(csv_path: Path) -> None:
    """Raise ValueError, naming the line, unless the file is a sweep CSV with data rows."""
    with csv_path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{csv_path}: empty CSV, no header line") from None
        if tuple(header) != CSV_COLUMNS:
            raise ValueError(f"{csv_path} line 1: header {header!r} does not match "
                             f"{list(CSV_COLUMNS)}")
        data = False
        for lineno, record in enumerate(reader, start=2):
            if not record:
                continue
            if len(record) != len(CSV_COLUMNS):
                raise ValueError(f"{csv_path} line {lineno}: expected "
                                 f"{len(CSV_COLUMNS)} fields, got {len(record)}")
            gamma0_db, m, n, _, _, p_out_n, p_out_m, _, _, throughput = record
            try:
                float(gamma0_db), int(m), int(n), float(p_out_n), float(p_out_m), float(throughput)
            except ValueError:
                raise ValueError(f"{csv_path} line {lineno}: non-numeric field "
                                 f"in {record!r}") from None
            data = True
    if not data:
        raise ValueError(f"{csv_path}: no data rows")


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
    _check_csv(csv_path)
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
    # The grid takes every start + k*step up to stop + 1e-9, the slack included.
    # A grid past the cap by this estimate (inf on overflow) is refused before
    # any list of it is built; below that the points themselves are counted,
    # one past the cap at most.
    reach = (stop + 1e-9 - start) / step
    values = []
    if reach < MAX_GRID_POINTS + 1:
        for k in range(MAX_GRID_POINTS + 1):
            v = start + k * step
            if v > stop + 1e-9:
                break
            values.append(v)
    count = len(values) or reach + 1
    if count > MAX_GRID_POINTS:
        raise ValueError(f"--sweep-gamma0-db {text!r} gives {count:.6g} grid points, "
                         f"more than {MAX_GRID_POINTS}")
    return tuple(values)


def main(argv: list[str] | None = None) -> int:
    """Console entry point; returns a process exit code."""
    ap = argparse.ArgumentParser(
        prog="coopnoma",
        description="Sweep outage probability and throughput for a relay-assisted "
                    "NOMA pairing, with analytic and Monte-Carlo engines.")
    ap.add_argument("--config", metavar="PATH", help="INI scenario file (defaults used when omitted)")
    ap.add_argument("--sweep-gamma0-db", metavar="START:STOP:STEP",
                    help="override the sweep with an SNR grid in dB; a negative START "
                         "needs the = form, as in --sweep-gamma0-db=-10:20:2")
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
        mc = replace(mc, **{key: getattr(args, key) for key in ("trials", "seed", "mode")
                            if getattr(args, key) is not None})

        rows = run_sweep(cfg, geo, mc, sweep)
        write_csv(rows, args.out)
        print(f"wrote {args.out} ({len(rows)} rows)")
        if args.plot:
            Path(args.plot).write_text(emit_plot_script(args.out, outputs=sweep.outputs))
            print(f"wrote {args.plot}")
    except (ValueError, OSError) as exc:  # OSError: a path that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
