import configparser
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from coopnoma.cli import (CSV_COLUMNS, MAX_GRID_POINTS, SweepSpec, _format, _parse_sweep_range,
                          db_to_linear, emit_plot_script, load_config, main, run_sweep,
                          write_csv)
from coopnoma.linklevel import Geometry
from coopnoma.mcsim import McConfig, estimate


def test_import_leaves_out_modules_no_run_needs():
    # numpy.polynomial (the K1 rule is literal constants), concurrent.futures
    # and logging (the MC starts plain threads) and numpy.random (loaded at
    # the first draw) cost memory and set-up time in every process
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src,
                                                                  os.environ.get("PYTHONPATH")])))
    unwanted = ("numpy.polynomial", "concurrent.futures", "logging", "numpy.random")
    proc = subprocess.run([sys.executable, "-c", "import sys, coopnoma.cli; "
                           f"print(*[m for m in {unwanted!r} if m in sys.modules])"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def small_bundle(**mc_overrides):
    cfg, geo, mc, sweep = load_config(None)
    mc_kwargs = dict(trials=2_000, seed=11, mode="independent")
    mc_kwargs.update(mc_overrides)
    return cfg, geo, McConfig(**mc_kwargs), sweep


def sweep_dicts(*bundle):
    """``run_sweep``'s lines, each as a dict keyed by CSV column."""
    return [dict(zip(CSV_COLUMNS, row.split(","), strict=True)) for row in run_sweep(*bundle)]


def written_bytes(rows, tmp_path):
    """The bytes ``write_csv`` writes for ``rows``."""
    out = tmp_path / "sweep.csv"
    write_csv(rows, out)
    return out.read_bytes()


def csv_module_bytes(rows):
    """The bytes ``csv.writer`` writes for the header and ``rows``' fields, the reference."""
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(row.split(",") for row in rows)
    return want.getvalue().encode()


# Recording test double of the matplotlib surface that emitted plot
# scripts use.  Each call is appended to $MPL_DOUBLE_LOG as one JSON line
# [target, method, args, kwargs]; figure and axes handles log as "figK"
# and "axK".  Any method outside the surface raises AttributeError, and
# missing module attributes raise as usual.
_MPL_DOUBLE = {
    "matplotlib/__init__.py": """\
import json
import os


def _record(target, method, args, kwargs):
    with open(os.environ["MPL_DOUBLE_LOG"], "a") as fh:
        fh.write(json.dumps([target, method, list(args), kwargs], default=str) + "\\n")


class _Recorder:
    def __init__(self, handle, methods):
        self._handle = handle
        self._methods = methods

    def __getattr__(self, name):
        if name not in self._methods:
            raise AttributeError(f"{self._handle}.{name} is outside the matplotlib test double")
        return lambda *args, **kwargs: _record(self._handle, name, args, kwargs)

    def __str__(self):
        return self._handle


def use(*args, **kwargs):
    _record("matplotlib", "use", args, kwargs)
""",
    "matplotlib/pyplot.py": """\
from itertools import count

from matplotlib import _Recorder, _record

_record("pyplot", "import", (), {})
_figure_numbers = count(1)


def subplots(*args, **kwargs):
    k = next(_figure_numbers)
    _record("pyplot", "subplots", args, kwargs)
    return (_Recorder(f"fig{k}", {"tight_layout", "savefig"}),
            _Recorder(f"ax{k}", {"plot", "set_yscale", "set_xlabel", "set_ylabel",
                                 "grid", "legend"}))


def close(*args, **kwargs):
    _record("pyplot", "close", args, kwargs)
""",
}


def run_with_mpl_double(script_path):
    """Run a plot script against the matplotlib double; returns (proc, call log).

    The double goes first on the subprocess's PYTHONPATH only, so it
    shadows a real matplotlib there and never reaches this process.
    """
    root = script_path.parent / "mpl_double"
    for rel, source in _MPL_DOUBLE.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(source)
    log = script_path.parent / "mpl_calls.jsonl"
    env = dict(os.environ, MPL_DOUBLE_LOG=str(log),
               PYTHONPATH=os.pathsep.join(filter(None, [str(root),
                                                        os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(script_path)], cwd=script_path.parent,
                          env=env, capture_output=True, text=True, timeout=120)
    calls = [json.loads(line) for line in log.read_text().splitlines()] if log.exists() else []
    return proc, calls


def saved_names(calls):
    return [args[0] for _, method, args, _ in calls if method == "savefig"]


class TestLoadConfig:
    def test_defaults_reproduce_reference_scenario(self, tmp_path):
        empty = tmp_path / "empty.ini"
        empty.write_text("")
        cfg, geo, mc, sweep = load_config(empty)
        assert (cfg.M, cfg.m, cfg.n) == (6, 3, 6)
        assert (cfg.a_m, cfg.a_n) == (0.7, 0.3)
        assert cfg.theta == 2.0
        assert cfg.lambda_sd == cfg.lambda_dnr == cfg.lambda_rdm == 1.0
        assert cfg.R_m == cfg.R_n == 1.0
        assert cfg.gamma_thm == cfg.gamma_thn == 1.0
        assert (geo.d_sdn, geo.d_sdm, geo.d_dnr) == (4.0, 6.0, 4.0)
        assert geo.alpha1 == math.radians(40.0)
        assert geo.alpha2 == math.radians(60.0)
        assert geo.d_dndm == pytest.approx(math.sqrt(28.0), rel=1e-12)
        assert mc.mode == "independent"
        assert sweep.variable == "gamma0_db"
        assert sweep.engines == ("analytic", "mc")
        # the config's SNR comes from the first sweep value
        assert cfg.gamma0 == db_to_linear(sweep.values[0])

    def test_none_path_equals_empty_file(self, tmp_path):
        empty = tmp_path / "empty.ini"
        empty.write_text("")
        assert load_config(None) == load_config(empty)

    def test_partial_override(self, tmp_path):
        path = tmp_path / "scen.ini"
        path.write_text("[system]\nM = 8\nm = 2\nn = 8\n\n[mc]\ntrials = 777\n")
        cfg, _, mc, _ = load_config(path)
        assert (cfg.M, cfg.m, cfg.n) == (8, 2, 8)
        assert cfg.a_m == 0.7  # untouched default
        assert mc.trials == 777

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_config("/nonexistent/scenario.ini")

    def test_equal_power_split_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[system]\na_m = 0.5\na_n = 0.5\n")
        with pytest.raises(ValueError, match="a_m"):
            load_config(path)

    def test_swapped_ranks_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[system]\nm = 6\nn = 3\n")
        with pytest.raises(ValueError, match=re.escape("m must be an integer in [1, 5], got 6")):
            load_config(path)

    def test_unknown_key_named_in_error(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[system]\npower = 3\n")
        with pytest.raises(ValueError, match="power"):
            load_config(path)

    def test_chunk_size_is_no_longer_a_key(self, tmp_path, capsys):
        path = tmp_path / "chunked.ini"
        path.write_text("[mc]\nchunk_size = 4096\n")
        assert main(["--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config file ") and "unknown key [mc] chunk_size" in err

    @pytest.mark.parametrize("sweep, item", [
        ("variable = pair\nvalues = 1:2, 3\n", "3"),
        ("variable = pair\nvalues = 1:2:3\n", "1:2:3"),
        ("variable = distance-set\nvalues = 2:3:4, 4:6\n", "4:6"),
        ("variable = distance-set\nvalues = 2:x:4\n", "2:x:4"),
        ("variable = pair\nvalues = 1:2.5\n", "1:2.5"),
        ("variable = gamma0_db\nvalues = 10, ten\n", "ten"),
        ("variable = pair\n", "0"),  # the default SNR list
    ])
    def test_unparseable_sweep_value_names_the_item(self, tmp_path, sweep, item):
        path = tmp_path / "sweep.ini"
        path.write_text("[sweep]\n" + sweep)
        variable = sweep.split("\n")[0].split(" = ")[1]
        with pytest.raises(ValueError, match=rf"^config key \[sweep\] values: cannot parse "
                                             rf"{re.escape(repr(item))} for variable "
                                             rf"'{variable}' \("):
            load_config(path)

    def test_unknown_sweep_variable_named(self, tmp_path):
        path = tmp_path / "sweep.ini"
        path.write_text("[sweep]\nvariable = bandwidth\n")
        with pytest.raises(ValueError, match=r"^config key \[sweep\] variable: must be one of "
                                             r".*, got 'bandwidth'$"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[antenna]\ncount = 3\n")
        with pytest.raises(ValueError, match="antenna"):
            load_config(path)

    def test_unparseable_value_names_key(self, tmp_path):
        path = tmp_path / "bad.ini"
        for config, message in [
            ("[mc]\ntrials = many\n", "config key [mc] trials: cannot parse 'many' as int"),
            ("[system]\ntheta = steep\n",
             "config key [system] theta: cannot parse 'steep' as float"),
            ("[sweep]\nbaseline = maybe\n",
             "config key [sweep] baseline: cannot parse 'maybe' as bool"),
        ]:
            path.write_text(config)
            with pytest.raises(ValueError) as info:
                load_config(path)
            assert str(info.value) == message

    # every key of every section, each set to a value other than its default
    EVERY_KEY = {
        "system": {"M": "8", "m": "2", "n": "5", "a_m": "0.8", "a_n": "0.2", "theta": "3",
                   "lambda_sd": "2", "lambda_dnr": "3", "lambda_rdm": "4", "R_m": "0.5",
                   "R_n": "2"},
        "geometry": {"d_sdn": "3", "d_sdm": "7", "d_dnr": "5", "alpha1_deg": "30",
                     "alpha2_deg": "75"},
        "mc": {"trials": "1234", "seed": "99", "mode": "joint"},
        "sweep": {"variable": "pair", "values": "1:2, 2:5", "engines": "mc", "baseline": "yes",
                  "outputs": "throughput", "gamma0_db": "17.5"},
    }

    def test_every_key_lands_on_its_field(self, tmp_path):
        import coopnoma.cli as cli
        from dataclasses import fields
        from coopnoma.linklevel import SystemConfig
        assert ({s: list(keys) for s, keys in self.EVERY_KEY.items()}
                == {s: list(keys) for s, keys in cli._DEFAULTS.items()})
        path = tmp_path / "every.ini"
        path.write_text("".join(f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                                for s, keys in self.EVERY_KEY.items()))
        loaded = load_config(path)
        assert loaded == (
            SystemConfig(M=8, m=2, n=5, a_m=0.8, a_n=0.2, gamma0=db_to_linear(17.5), theta=3.0,
                         lambda_sd=2.0, lambda_dnr=3.0, lambda_rdm=4.0, R_m=0.5, R_n=2.0),
            Geometry(3.0, 7.0, 5.0, math.radians(30.0), math.radians(75.0)),
            McConfig(trials=1234, seed=99, mode="joint"),
            SweepSpec("pair", ((1, 2), (2, 5)), engines=("mc",), outputs=("throughput",),
                      baseline=True, gamma0_db=17.5))
        # and no field kept its default
        for got, default in zip(loaded, load_config(None)):
            assert [f.name for f in fields(got)
                    if getattr(got, f.name) == getattr(default, f.name)] == []

    @pytest.mark.parametrize("spelling", sorted(configparser.ConfigParser.BOOLEAN_STATES))
    def test_every_boolean_spelling_parses(self, tmp_path, spelling):
        path = tmp_path / "flag.ini"
        for text in (spelling, spelling.upper(), spelling.capitalize()):
            path.write_text(f"[sweep]\nbaseline = {text}\n")
            baseline = load_config(path)[3].baseline
            assert baseline is configparser.ConfigParser.BOOLEAN_STATES[spelling]

    @pytest.mark.parametrize("bad", ["4000", "-4000"])
    def test_fixed_sweep_snr_out_of_range_names_its_key(self, tmp_path, capsys, bad):
        path = tmp_path / "pairs.ini"
        path.write_text(f"[sweep]\nvariable = pair\nvalues = 1:2\ngamma0_db = {bad}\n")
        with pytest.raises(ValueError, match=rf"^sweep gamma0_db={bad}\.0: {bad}\.0 dB "):
            load_config(path)
        assert main(["--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err.startswith(f"error: sweep gamma0_db={bad}.0: ")

    @pytest.mark.parametrize("key", ["alpha1_deg", "alpha2_deg"])
    @pytest.mark.parametrize("deg", ["0", "200"])
    def test_bad_angle_names_its_key_and_degrees(self, tmp_path, key, deg):
        path = tmp_path / "angle.ini"
        path.write_text(f"[geometry]\n{key} = {deg}\n")
        with pytest.raises(ValueError, match=rf"^config key \[geometry\] {key}={deg}\.0: "
                                             rf"{key[:-4]} must lie in "):
            load_config(path)

    def test_pair_sweep_values(self, tmp_path):
        path = tmp_path / "pairs.ini"
        path.write_text("[sweep]\nvariable = pair\nvalues = 1:2, 2:4, 3:6\n"
                        "gamma0_db = 25\n")
        cfg, _, _, sweep = load_config(path)
        assert sweep.values == ((1, 2), (2, 4), (3, 6))
        assert cfg.gamma0 == db_to_linear(25.0)


class TestSweepSpec:
    def test_rejects_unknown_variable(self):
        with pytest.raises(ValueError):
            SweepSpec(variable="bandwidth", values=(1.0,))

    def test_rejects_empty_values(self):
        with pytest.raises(ValueError):
            SweepSpec(variable="gamma0_db", values=())

    @pytest.mark.parametrize("values, listed", [(iter([]), None),
                                                (np.array([10.0, 20.0]), [10.0, 20.0])],
                             ids=["empty-iterator", "numpy-array"])
    def test_reads_the_values_before_checking_them(self, values, listed):
        if listed is None:  # refused, not run to an engine with no points
            with pytest.raises(ValueError, match="^sweep values must be non-empty$"):
                SweepSpec(variable="gamma0_db", values=values)
            return
        cfg, geo, mc, _ = small_bundle()
        got, want = (run_sweep(cfg, geo, mc, SweepSpec(variable="gamma0_db", values=v))
                     for v in (values, listed))
        assert list(got) == list(want)

    def test_rejects_nonfinite_snr(self):
        with pytest.raises(ValueError):
            SweepSpec(variable="gamma0_db", values=(0.0, math.inf))

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            SweepSpec(variable="gamma0_db", values=(0.0,), engines=("fpga",))

    @pytest.mark.parametrize("variable, values", [
        ("pair", ((1,),)),
        ("pair", ((1, 2, 3),)),
        ("pair", ((True, 2),)),
        ("pair", ((1.0, 2),)),
        ("distance-set", ((4.0, 6.0),)),
        ("distance-set", ((4.0, 6.0, 4.0, 1.0),)),
        ("distance-set", ((4.0, True, 4.0),)),
        ("distance-set", ((4.0, 6.0, math.nan),)),
        ("gamma0_db", (True,)),
    ])
    def test_rejects_malformed_values(self, variable, values):
        with pytest.raises(ValueError, match="sweep values"):
            SweepSpec(variable=variable, values=values)

    def test_rejects_bool_fixed_snr(self):
        with pytest.raises(ValueError, match="gamma0_db must be a finite real"):
            SweepSpec(variable="pair", values=((1, 2),), gamma0_db=True)

    def test_numpy_numbers_run_as_their_values(self):
        cfg, geo, mc, _ = small_bundle()
        sweep = SweepSpec(variable="gamma0_db", values=(np.int64(3), np.float64(4.5)),
                          engines=("analytic",))
        assert [r["gamma0_db"] for r in sweep_dicts(cfg, geo, mc, sweep)] == ["3", "4.5"]
        sweep = SweepSpec(variable="pair", values=((np.int64(2), np.int64(5)),),
                          engines=("analytic",))
        assert [(r["m"], r["n"]) for r in sweep_dicts(cfg, geo, mc, sweep)] == [("2", "5")]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, True, "5"])
    def test_long_grid_names_its_bad_value(self, bad):
        grid = tuple(0.005 * k for k in range(8_000))
        with pytest.raises(ValueError, match=rf"^gamma0_db sweep values must be finite reals, "
                                             rf"got {re.escape(repr(bad))}$"):
            SweepSpec(variable="gamma0_db", values=grid + (bad,))
        # with two bad values, the first is named
        with pytest.raises(ValueError, match=rf"got {re.escape(repr(bad))}$"):
            SweepSpec(variable="gamma0_db", values=grid[:3] + (bad,) + grid[3:] + (-math.inf,))

    def test_canonicalizes_order(self):
        s = SweepSpec(variable="gamma0_db", values=[0.0, 5.0],
                      engines=("mc", "analytic"), outputs=("throughput", "p_out_n"))
        assert s.engines == ("analytic", "mc")
        assert s.outputs == ("p_out_n", "throughput")
        assert s.values == (0.0, 5.0)


class TestRunSweep:
    def test_row_count_and_schema(self):
        cfg, geo, mc, sweep = small_bundle()
        rows = run_sweep(cfg, geo, mc, sweep)
        assert len(rows) == 2 * len(sweep.values)  # both engines, no baseline
        for row in rows:
            # one CSV line, its fields in CSV_COLUMNS order, with no line terminator
            assert type(row) is str and "\n" not in row
            assert row.count(",") == len(CSV_COLUMNS) - 1
            fields = dict(zip(CSV_COLUMNS, row.split(",")))
            assert fields["engine"] in ("analytic", "mc")
            assert fields["mode"] == ("" if fields["engine"] == "analytic" else mc.mode)
            assert (int(fields["m"]), int(fields["n"])) == (cfg.m, cfg.n)
            assert float(fields["gamma0_db"]) in sweep.values

    def test_baseline_doubles_rows(self):
        from dataclasses import replace
        cfg, geo, mc, sweep = small_bundle()
        sweep = replace(sweep, values=(10.0, 20.0), baseline=True)
        rows = sweep_dicts(cfg, geo, mc, sweep)
        assert len(rows) == 8
        assert [r["engine"] for r in rows[:4]] == [
            "analytic", "analytic-norelay", "mc", "mc-norelay"]

    def test_analytic_rows_have_empty_mc_fields(self):
        from dataclasses import replace
        cfg, geo, mc, sweep = small_bundle()
        sweep = replace(sweep, values=(20.0,))
        rows = sweep_dicts(cfg, geo, mc, sweep)
        analytic = [r for r in rows if r["engine"] == "analytic"][0]
        mc_row = [r for r in rows if r["engine"] == "mc"][0]
        assert analytic["stderr_n"] == analytic["stderr_m"] == analytic["mode"] == ""
        assert mc_row["mode"] == "independent"
        assert float(mc_row["stderr_n"]) >= 0.0

    def test_pair_sweep_orderings(self):
        # higher-ranked pairings do better on both outage and throughput
        from dataclasses import replace
        cfg, geo, mc, sweep = small_bundle()
        sweep = replace(sweep, variable="pair", values=((1, 2), (2, 4), (3, 6)),
                        engines=("analytic",), gamma0_db=20.0)
        rows = sweep_dicts(cfg, geo, mc, sweep)
        p_n = [float(r["p_out_n"]) for r in rows]
        p_m = [float(r["p_out_m"]) for r in rows]
        tau = [float(r["throughput"]) for r in rows]
        assert p_n[0] >= p_n[1] >= p_n[2]
        assert p_m[0] >= p_m[1] >= p_m[2]
        assert tau[0] <= tau[1] <= tau[2]

    def test_distance_sweep_runs(self):
        from dataclasses import replace
        cfg, geo, mc, sweep = small_bundle()
        sweep = replace(sweep, variable="distance-set",
                        values=((4.0, 6.0, 4.0), (6.0, 9.0, 6.0)),
                        engines=("analytic",))
        rows = sweep_dicts(cfg, geo, mc, sweep)
        assert len(rows) == 2
        # farther nodes, worse outage
        assert float(rows[1]["p_out_m"]) >= float(rows[0]["p_out_m"])

    def test_engine_error_names_sweep_point(self):
        from dataclasses import replace
        cfg, geo, mc, sweep = small_bundle()
        sweep = replace(sweep, variable="pair", values=((5, 3),), engines=("analytic",))
        with pytest.raises(ValueError, match=r"pair=\(5, 3\)"):
            run_sweep(cfg, geo, mc, sweep)

    def test_bad_point_draws_no_trials(self, monkeypatch):
        # every point is built before the first chunk is drawn
        from dataclasses import replace
        import coopnoma.mcsim as mcsim
        streams = []
        real_stream = mcsim.trial_stream

        def counting_stream(*args, **kwargs):
            streams.append(args)
            return real_stream(*args, **kwargs)

        monkeypatch.setattr(mcsim, "trial_stream", counting_stream)
        monkeypatch.setattr(McConfig, "chunk_size", 512)
        cfg, geo, mc, sweep = small_bundle()
        sweep = replace(sweep, variable="pair", values=((1, 2), (3, 6), (5, 3)),
                        engines=("mc",))
        with pytest.raises(ValueError, match=r"pair=\(5, 3\)"):
            run_sweep(cfg, geo, mc, sweep)
        assert len(streams) == 0
        # the counter does see the chunks of a good sweep
        run_sweep(cfg, geo, mc, replace(sweep, values=((1, 2),)))
        assert len(streams) == 4  # 2,000 trials in chunks of 512

    @pytest.mark.parametrize("bad_db", [-4000.0, 4000.0])
    def test_bad_grid_point_draws_no_trials(self, monkeypatch, bad_db):
        # -4000 dB underflows gamma0 to 0 and 4000 dB overflows it
        from dataclasses import replace
        import coopnoma.mcsim as mcsim
        streams = []
        real_stream = mcsim.trial_stream
        monkeypatch.setattr(mcsim, "trial_stream",
                            lambda *a, **k: streams.append(a) or real_stream(*a, **k))
        cfg, geo, mc, sweep = small_bundle()
        sweep = replace(sweep, values=(10.0, bad_db, 20.0), engines=("analytic", "mc"))
        with pytest.raises(ValueError, match=rf"sweep point gamma0_db={bad_db!r}: "):
            run_sweep(cfg, geo, mc, sweep)
        with pytest.raises(ValueError, match=rf"sweep point gamma0_db={bad_db!r}: "):
            run_sweep(cfg, geo, mc, replace(sweep, engines=("analytic",)))
        assert len(streams) == 0

    @pytest.mark.parametrize("variable, values", [("gamma0_db", (0.0, 350.0, 10.0)),
                                                  ("pair", ((1, 2), (3, 6)))])
    def test_snr_outside_the_box_is_refused_before_any_engine(self, monkeypatch, variable,
                                                               values):
        # 350 dB is a float, but it lies past the box's 300 dB: the sweep key
        # is named before any evaluate call or trial
        from dataclasses import replace
        import coopnoma.cli as cli
        import coopnoma.mcsim as mcsim
        calls = []
        monkeypatch.setattr(cli, "evaluate", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(mcsim, "trial_stream", lambda *a, **k: calls.append(a))
        cfg, geo, mc, sweep = small_bundle()
        sweep = replace(sweep, variable=variable, values=values, gamma0_db=350.0)
        key = "sweep point gamma0_db" if variable == "gamma0_db" else "sweep gamma0_db"
        with pytest.raises(ValueError, match=rf"^{key}=350\.0: gamma0 must lie in "
                                             rf"\[9\.999999999999999e-31, 1e\+30\], got 1e\+35$"):
            run_sweep(cfg, geo, mc, sweep)
        assert calls == []

    @pytest.mark.parametrize("bad", [4000.0, -4000.0])
    def test_fixed_snr_out_of_range_names_its_key(self, bad):
        # the fixed SNR is at fault, not the first pair
        from dataclasses import replace
        cfg, geo, mc, sweep = small_bundle()
        sweep = replace(sweep, variable="pair", values=((1, 2), (3, 6)), gamma0_db=bad)
        with pytest.raises(ValueError, match=rf"^sweep gamma0_db={bad!r}: {bad!r} dB "):
            run_sweep(cfg, geo, mc, sweep)

    @pytest.mark.parametrize("variable, values", [
        ("gamma0_db", (0.0, 15.0)), ("pair", ((1, 2), (3, 6))),
        ("distance-set", ((4.0, 6.0, 4.0), (2.0, 9.0, 7.0)))])
    def test_rows_do_not_read_the_config_snr(self, variable, values):
        # every SNR comes from the sweep, so the config's own gamma0 changes no byte
        from dataclasses import replace
        cfg, geo, mc, sweep = small_bundle()
        sweep = replace(sweep, variable=variable, values=values, baseline=True)
        rows = list(run_sweep(cfg, geo, mc, sweep))
        assert list(run_sweep(replace(cfg, gamma0=1e-30), geo, mc, sweep)) == rows

    def test_grid_makes_one_evaluate_call_per_group(self, monkeypatch):
        # the baseline rows come from the relayed call's no-relay fields
        from dataclasses import replace
        import coopnoma.cli as cli
        calls = []
        real_evaluate = cli.evaluate
        monkeypatch.setattr(cli, "evaluate",
                            lambda *a, **k: calls.append(k) or real_evaluate(*a, **k))
        cfg, geo, mc, sweep = small_bundle()
        sweep = replace(sweep, values=tuple(0.5 * k for k in range(81)),
                        engines=("analytic",), baseline=True)
        rows = run_sweep(cfg, geo, mc, sweep)
        assert len(rows) == 162
        assert [(k.get("relay", True), len(k["gamma0"])) for k in calls] == [(True, 81)]

    def test_long_grid_names_its_first_bad_point(self, monkeypatch):
        # the grid is checked in one pass; the first bad point is still named
        from dataclasses import replace
        import coopnoma.cli as cli
        calls = []
        monkeypatch.setattr(cli, "evaluate", lambda *a, **k: calls.append(a))
        cfg, geo, mc, sweep = small_bundle()
        grid = tuple(0.005 * k for k in range(8_000))
        sweep = replace(sweep, engines=("analytic",))
        for values, named in ((grid + (301.0,), r"301\.0: gamma0 must lie in "),
                              (grid[:5] + (302.0,) + grid[5:] + (301.0,), r"302\.0: gamma0 must"),
                              (grid + (4000.0, 301.0), r"4000\.0: 4000\.0 dB overflows")):
            with pytest.raises(ValueError, match=rf"^sweep point gamma0_db={named}"):
                run_sweep(cfg, geo, mc, replace(sweep, values=values))
        assert calls == []


class TestFusedSweep:
    """Every MC row of a sweep equals a lone estimate of its own scenario."""

    SWEEPS = {
        "gamma0_db": (0.0, 15.0, 30.0),
        "pair": ((1, 2), (2, 5), (3, 6)),
        "distance-set": ((4.0, 6.0, 4.0), (2.0, 9.0, 7.0), (6.0, 3.0, 5.0)),
    }

    @staticmethod
    def scenario(cfg, geo, sweep, value):
        from dataclasses import replace
        if sweep.variable == "gamma0_db":
            return replace(cfg, gamma0=db_to_linear(value)), geo
        cfg = replace(cfg, gamma0=db_to_linear(sweep.gamma0_db))
        if sweep.variable == "pair":
            return replace(cfg, m=value[0], n=value[1]), geo
        return cfg, Geometry(*value, geo.alpha1, geo.alpha2)

    @pytest.mark.parametrize("mode", ["joint", "independent"])
    @pytest.mark.parametrize("variable", sorted(SWEEPS))
    def test_rows_equal_lone_estimates(self, monkeypatch, variable, mode):
        from dataclasses import replace
        monkeypatch.setattr(McConfig, "chunk_size", 1_024)  # three chunks
        cfg, geo, mc, sweep = small_bundle(mode=mode, trials=3_000)
        sweep = replace(sweep, variable=variable, values=self.SWEEPS[variable],
                        engines=("analytic", "mc"), baseline=True, gamma0_db=12.0)
        rows = iter(sweep_dicts(cfg, geo, mc, sweep))
        for value in sweep.values:
            cfg_i, geo_i = self.scenario(cfg, geo, sweep, value)
            point = [next(rows) for _ in range(4)]
            assert [r["engine"] for r in point] == [
                "analytic", "analytic-norelay", "mc", "mc-norelay"]
            mc_point, = estimate(cfg_i, geo_i, mc)
            est_n = mc_point.p_out_n
            for row, est_m, tau in zip(point[2:], (mc_point.p_out_m, mc_point.p_out_m_norelay),
                                       (mc_point.throughput, mc_point.throughput_norelay)):
                assert (row["m"], row["n"]) == (str(cfg_i.m), str(cfg_i.n))
                assert row["mode"] == mode
                assert [row[k] for k in ("p_out_n", "p_out_m", "stderr_n", "stderr_m",
                                         "throughput")] == [
                    f"{v:.10g}" for v in (est_n.p_hat, est_m.p_hat, est_n.stderr,
                                          est_m.stderr, tau)]
        assert next(rows, None) is None

    @pytest.mark.parametrize("variable", sorted(SWEEPS))
    def test_analytic_rows_equal_lone_evaluations(self, variable):
        from dataclasses import replace
        from coopnoma.analytic import evaluate
        cfg, geo, mc, sweep = small_bundle()
        sweep = replace(sweep, variable=variable, values=self.SWEEPS[variable],
                        engines=("analytic",), baseline=True, gamma0_db=12.0)
        rows = iter(sweep_dicts(cfg, geo, mc, sweep))
        for value in sweep.values:
            cfg_i, geo_i = self.scenario(cfg, geo, sweep, value)
            for relay in (True, False):
                row = next(rows)
                point = evaluate(cfg_i, geo_i, relay=relay)
                assert [row[k] for k in ("m", "n", "mode", "stderr_n", "stderr_m")] == [
                    str(cfg_i.m), str(cfg_i.n), "", "", ""]
                assert [row[k] for k in ("p_out_n", "p_out_m", "throughput")] == [
                    f"{v:.10g}" for v in (point.p_out_n, point.p_out_m, point.throughput)]
        assert next(rows, None) is None


class TestCsvAndPlots:
    def run_small_sweep(self, tmp_path, **kwargs):
        from dataclasses import replace
        cfg, geo, mc, sweep = small_bundle()
        sweep = replace(sweep, values=(10.0, 20.0), **kwargs)
        rows = run_sweep(cfg, geo, mc, sweep)
        out = tmp_path / "sweep.csv"
        write_csv(rows, out)
        return out

    @pytest.mark.parametrize("variable, values", [
        ("gamma0_db", (0.0, 12.5, 30.0)),
        ("pair", ((1, 2), (3, 6))),
        ("distance-set", ((4.0, 6.0, 4.0), (2.0, 9.0, 7.0))),
    ])
    def test_bytes_equal_the_csv_module(self, tmp_path, variable, values):
        # write_csv joins fields without quoting; csv.writer is the reference
        from dataclasses import replace
        cfg, geo, mc, sweep = small_bundle()
        sweep = replace(sweep, variable=variable, values=values, engines=("analytic", "mc"),
                        baseline=True)
        rows = run_sweep(cfg, geo, mc, sweep)
        assert len(rows) == 4 * len(values)
        assert all(len(row.split(",")) == len(CSV_COLUMNS) for row in rows)
        assert written_bytes(rows, tmp_path) == csv_module_bytes(rows)

    @pytest.mark.parametrize("variable, values", [
        ("gamma0_db", tuple(4.0 * k for k in range(10))),
        ("pair", ((1, 2), (2, 4), (3, 6), (1, 6), (2, 5))),
        ("distance-set", ((4.0, 6.0, 4.0), (2.0, 9.0, 7.0), (6.0, 3.0, 5.0),
                          (5.0, 5.0, 5.0))),
    ])
    def test_bytes_do_not_depend_on_the_block(self, monkeypatch, tmp_path, variable, values):
        # blocks of 3 points and 3 lines split every sweep here, mid-point and
        # mid-group included; the reference is one block written by csv.writer
        import coopnoma.cli as cli
        from dataclasses import replace
        cfg, geo, mc, sweep = small_bundle()
        sweep = replace(sweep, variable=variable, values=values, engines=("analytic", "mc"),
                        baseline=True)
        want = csv_module_bytes(run_sweep(cfg, geo, mc, sweep))
        assert len(values) <= cli._BLOCK
        monkeypatch.setattr(cli, "_BLOCK", 3)
        assert written_bytes(run_sweep(cfg, geo, mc, sweep), tmp_path) == want

    def test_write_memory_does_not_grow_with_the_rows(self):
        # 200,000 lines are about 20 MB of text; the file is written a block
        # of lines at a time, never joined whole
        line = "12.345,3,6,analytic-norelay,,0.1234567891,0.1234567891,,,1.234567891"
        rows = [line] * 200_000
        write_csv(rows[:10], os.devnull)  # warm-up
        tracemalloc.start()
        try:
            write_csv(rows, os.devnull)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20, peak

    def test_sweep_memory_is_a_few_blocks_beyond_its_columns(self):
        # A 100,000-point grid with its baseline is 200,000 lines, about 20 MiB
        # held as strings.  The result holds only its columns (numpy arrays)
        # and its one group's ranks, and writing it formats a block of points
        # at a time: past the arrays, a block's strings (about 0.6 MB) are all
        # either may add.
        from dataclasses import replace
        cfg, geo, mc, sweep = small_bundle()
        sweep = replace(sweep, values=tuple(0.002 * k - 100.0 for k in range(100_000)),
                        engines=("analytic",), baseline=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rows = run_sweep(cfg, geo, mc, sweep)
            held = tracemalloc.get_traced_memory()[0] - before
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            write_csv(rows, os.devnull)
            write_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        arrays = {id(a): a.nbytes for a in (rows.gamma0_db,
                                            *(c for _, _, *cs in rows.variants for c in cs
                                              if c is not None))}
        assert len(rows) == 200_000
        assert held - sum(arrays.values()) < 2 * 2 ** 20, (held, arrays)
        assert write_peak < 2 * 2 ** 20, write_peak

    def test_column_format_equals_str_format(self):
        values = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 0.1, 1 / 3, 1.5, 1e10,
                  12345678901.0, 1.7976931348623157e308, math.inf, -math.inf, math.nan,
                  np.float64(0.25), 3]
        assert _format(values) == list(map("{:.10g}".format, values))
        assert _format([]) == []

    def test_header_line(self, tmp_path):
        out = self.run_small_sweep(tmp_path)
        first = out.read_text().splitlines()[0]
        assert first == ",".join(CSV_COLUMNS)

    def test_emit_script_compiles_and_runs(self, tmp_path):
        out = self.run_small_sweep(tmp_path, baseline=True)
        script = emit_plot_script(out)
        assert "matplotlib" in script
        compile(script, "plot.py", "exec")  # syntactically valid
        script_path = tmp_path / "plot.py"
        script_path.write_text(script)
        proc, calls = run_with_mpl_double(script_path)
        assert proc.returncode == 0, proc.stderr

        # the backend is chosen before pyplot is imported or used
        assert calls[0] == ["matplotlib", "use", ["Agg"], {}]
        assert [c[:2] for c in calls].count(["matplotlib", "use"]) == 1

        assert saved_names(calls) == ["sweep_p_out_n.png", "sweep_p_out_m.png",
                                      "sweep_throughput.png"]
        by_figure = {}
        for target, method, args, kwargs in calls:
            if target.startswith(("fig", "ax")):
                k = target.removeprefix("fig").removeprefix("ax")
                by_figure.setdefault(k, []).append((method, args, kwargs))
        assert len(by_figure) == 3

        with out.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        for figure in by_figure.values():
            (fname,) = [args[0] for method, args, _ in figure if method == "savefig"]
            metric = fname.removeprefix("sweep_").removesuffix(".png")
            logscale = metric != "throughput"
            scales = [args for method, args, _ in figure if method == "set_yscale"]
            assert scales == ([["log"]] if logscale else [])

            expected = {}
            for row in rows:
                label = (f"{row['engine']} (m={row['m']}, n={row['n']})"
                         + (f" [{row['mode']}]" if row["mode"] else ""))
                x, y = float(row["gamma0_db"]), float(row[metric])
                if y > 0 or not logscale:
                    expected.setdefault(label, []).append([x, y])
            plotted = {kwargs["label"]: [list(p) for p in zip(*args)]
                       for method, args, kwargs in figure if method == "plot"}
            assert plotted == {label: sorted(points) for label, points in expected.items()}

    def test_emit_script_renders_png_with_matplotlib(self, tmp_path):
        pytest.importorskip("matplotlib")
        out = self.run_small_sweep(tmp_path, baseline=True)
        script_path = tmp_path / "plot.py"
        script_path.write_text(emit_plot_script(out))
        proc = subprocess.run([sys.executable, str(script_path)], cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        for metric in ("p_out_n", "p_out_m", "throughput"):
            png = (tmp_path / f"sweep_{metric}.png").read_bytes()
            assert png.startswith(b"\x89PNG\r\n\x1a\n"), metric

    @pytest.mark.parametrize("stem", ['a"b', "x\\N", "run{1}", 'tri"""q'])
    def test_emit_script_for_awkward_csv_names(self, tmp_path, stem):
        out = self.run_small_sweep(tmp_path)
        csv_path = out.rename(tmp_path / f"{stem}.csv")
        script = emit_plot_script(csv_path)
        compile(script, "plot.py", "exec")
        script_path = tmp_path / "plot.py"
        script_path.write_text(script)
        proc, calls = run_with_mpl_double(script_path)
        assert proc.returncode == 0, proc.stderr
        assert saved_names(calls) == [f"{stem}_p_out_n.png", f"{stem}_p_out_m.png",
                                      f"{stem}_throughput.png"]

    def test_outputs_filter_limits_figures(self, tmp_path):
        out = self.run_small_sweep(tmp_path)
        script = emit_plot_script(out, outputs=("throughput",))
        assert "p_out_n.png" not in script

    def test_empty_csv_rejected(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text(",".join(CSV_COLUMNS) + "\n")
        with pytest.raises(ValueError, match="no data rows"):
            emit_plot_script(empty)

    def test_malformed_line_reported_with_number(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(",".join(CSV_COLUMNS) + "\n"
                       "20,3,6,analytic,,0.1,0.2,,,1.7\n"
                       "20,3,6,analytic,,zap,0.2,,,1.7\n")
        with pytest.raises(ValueError, match="line 3"):
            emit_plot_script(bad)

    def test_wrong_header_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("snr,pn\n10,0.5\n")
        with pytest.raises(ValueError, match="line 1"):
            emit_plot_script(bad)

    def test_zero_byte_csv_rejected(self, tmp_path):
        empty = tmp_path / "zero.csv"
        empty.write_bytes(b"")
        with pytest.raises(ValueError, match="empty CSV, no header line"):
            emit_plot_script(empty)

    def test_short_row_reported_with_number(self, tmp_path):
        bad = tmp_path / "short.csv"
        bad.write_text(",".join(CSV_COLUMNS) + "\n20,3,6,analytic,\n")
        with pytest.raises(ValueError, match="line 2: expected 10 fields, got 5"):
            emit_plot_script(bad)


class TestMain:
    def test_sweep_flag_and_outputs(self, tmp_path, capsys):
        out = tmp_path / "cli.csv"
        plot = tmp_path / "plot.py"
        rc = main(["--sweep-gamma0-db", "0:40:10", "--engine", "analytic",
                   "--out", str(out), "--plot", str(plot)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 5  # header + 5 grid points, analytic only
        assert plot.exists()

    def test_trials_seed_and_mode_overrides(self, tmp_path):
        out = tmp_path / "cli.csv"
        rc = main(["--sweep-gamma0-db", "20:20:5", "--engine", "mc",
                   "--trials", "4000", "--seed", "77", "--mode", "joint",
                   "--out", str(out)])
        assert rc == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[CSV_COLUMNS.index("engine")] == "mc"
        assert row[CSV_COLUMNS.index("mode")] == "joint"
        # all three overrides reach the estimate
        from dataclasses import replace
        cfg, geo, _, _ = load_config(None)
        point, = estimate(replace(cfg, gamma0=db_to_linear(20.0)), geo,
                          McConfig(trials=4000, seed=77, mode="joint"))
        assert row[CSV_COLUMNS.index("p_out_m")] == _format([point.p_out_m.p_hat])[0]
        assert row[CSV_COLUMNS.index("stderr_m")] == _format([point.p_out_m.stderr])[0]

    def test_baseline_flag(self, tmp_path):
        out = tmp_path / "cli.csv"
        rc = main(["--sweep-gamma0-db", "20:20:5", "--engine", "analytic",
                   "--baseline", "--out", str(out)])
        assert rc == 0
        engines = [line.split(",")[3] for line in out.read_text().splitlines()[1:]]
        assert engines == ["analytic", "analytic-norelay"]

    def test_config_file_flag(self, tmp_path):
        scen = tmp_path / "scen.ini"
        scen.write_text("[sweep]\nvariable = gamma0_db\nvalues = 15\n"
                        "engines = analytic\n")
        out = tmp_path / "cli.csv"
        assert main(["--config", str(scen), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2

    @pytest.mark.parametrize("grid", ["40:0:5", "0:inf:1", "0:nan:1", "0:10:nan", "nan:10:1"])
    def test_bad_range_is_reported(self, tmp_path, capsys, grid):
        rc = main(["--sweep-gamma0-db", grid, "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --sweep-gamma0-db ") and grid in err

    def test_grid_past_the_point_cap_is_refused(self, tmp_path, capsys):
        # the count is taken before any point is built, so a grid of 1e15
        # points is refused at once rather than exhausting memory
        rc = main(["--sweep-gamma0-db", "0:1e12:1e-3", "--engine", "analytic",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"error: --sweep-gamma0-db '0:1e12:1e-3' gives 1e+15 grid points, more than "
            f"{MAX_GRID_POINTS}")
        assert len(_parse_sweep_range(f"0:{MAX_GRID_POINTS - 1}:1")) == MAX_GRID_POINTS
        with pytest.raises(ValueError, match=f"gives {MAX_GRID_POINTS + 1} grid points"):
            _parse_sweep_range(f"0:{MAX_GRID_POINTS}:1")
        # the points admitted by the 1e-9 slack past STOP count against the cap too
        assert len(_parse_sweep_range("0:99999.99999:1")) == MAX_GRID_POINTS
        for grid, count in (("0:99999.9999999999:1", "100001"), ("0:0:1e-15", "1e+06")):
            message = f"--sweep-gamma0-db '{grid}' gives {count} grid points, more than 100000"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                _parse_sweep_range(grid)

    @pytest.mark.parametrize("config", [
        "[system]\ntheta = 8\n[geometry]\nd_dnr = 1e5\n",
        "[system]\ntheta = 8\nlambda_sd = 1e30\n[geometry]\nd_sdn = 1e-4\nd_dnr = 1e-4\n",
        "[system]\na_m = 0.999999999999999\na_n = 1e-15\nlambda_dnr = 1e-30\n",
    ], ids=["far-relay", "near-links", "least-a_n"])
    def test_box_corner_configs_run_both_engines(self, tmp_path, config):
        # the box's ends: both engines evaluate every point from -300 to
        # +300 dB and agree
        scen = tmp_path / "corner.ini"
        scen.write_text(config)
        out = tmp_path / "cli.csv"
        rc = main(["--config", str(scen), "--sweep-gamma0-db=-300:300:150", "--engine", "both",
                   "--trials", "20000", "--baseline", "--out", str(out)])
        assert rc == 0
        with out.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["engine"] for r in rows] == ["analytic", "analytic-norelay", "mc",
                                               "mc-norelay"] * 5
        for analytic, analytic_norelay, mc_row, mc_norelay in (rows[k:k + 4]
                                                               for k in range(0, 20, 4)):
            for exact, est in ((analytic, mc_row), (analytic_norelay, mc_norelay)):
                for c, se in (("p_out_n", "stderr_n"), ("p_out_m", "stderr_m")):
                    assert abs(float(exact[c]) - float(est[c])) <= max(5.0 * float(est[se]),
                                                                       1e-4)
        # -300 dB: the weak user is certainly in outage in both engines
        assert {r["p_out_m"] for r in rows[:4]} == {"1"}

    @pytest.mark.parametrize("config, key", [
        ("[system]\ntheta = 400\n", "theta"), ("[geometry]\nd_dnr = 1e200\n", "d_dnr"),
        ("[geometry]\nd_sdn = 1e-200\n", "d_sdn"), ("[system]\nlambda_sd = 1e31\n", "lambda_sd"),
        ("[system]\nR_m = 100\n", "R_m=100.0 gives gamma_thm = 2**R_m - 1, which"),
    ], ids=["theta", "d_dnr", "d_sdn", "lambda_sd", "R_m"])
    def test_config_outside_the_box_is_reported_by_key(self, tmp_path, capsys, config, key):
        scen = tmp_path / "far.ini"
        scen.write_text(config)
        rc = main(["--config", str(scen), "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {key} must lie in [")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv, config, error", [
        ([], "[sweep]\nvariable = pair\nvalues = 1:2, 5:3\n", "sweep point pair=(5, 3): "),
        (["--sweep-gamma0-db", "260:320:20"], "",
         "sweep point gamma0_db=320.0: gamma0 must lie in ["),
    ], ids=["pair", "gamma0_db"])
    def test_bad_sweep_point_leaves_no_csv(self, tmp_path, capsys, argv, config, error):
        # every engine runs before the CSV is opened, so a bad point writes nothing
        scen = tmp_path / "bad.ini"
        scen.write_text(config)
        rc = main(["--config", str(scen), *argv, "--engine", "both", "--trials", "1000",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {error}")
        assert not (tmp_path / "x.csv").exists()

    def test_out_path_that_is_a_directory_is_reported(self, tmp_path, capsys):
        rc = main(["--sweep-gamma0-db", "0:10:10", "--engine", "analytic",
                   "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err

    def test_plot_path_that_is_a_directory_is_reported(self, tmp_path, capsys):
        out = tmp_path / "cli.csv"
        rc = main(["--sweep-gamma0-db", "0:10:10", "--engine", "analytic",
                   "--out", str(out), "--plot", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err
        assert len(out.read_text().splitlines()) == 3  # the CSV was written first

    def test_snr_overflowing_a_float_is_reported(self, tmp_path, capsys):
        rc = main(["--sweep-gamma0-db", "4000:4000:1", "--engine", "analytic",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "4000.0 dB overflows a float" in capsys.readouterr().err

    def test_negative_start_is_read_in_the_equals_form_that_the_help_names(self, tmp_path,
                                                                          capsys):
        # argparse takes a separate "-10:20:2" for an option, so the help
        # names the = form, and main reads it
        out = tmp_path / "x.csv"
        assert main(["--sweep-gamma0-db=-10:20:2", "--engine", "analytic", "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert [float(r["gamma0_db"]) for r in rows] == list(range(-10, 21, 2))
        capsys.readouterr()
        with pytest.raises(SystemExit) as done:
            main(["--help"])
        assert done.value.code == 0
        # the help is wrapped to the terminal, possibly at a hyphen
        assert "--sweep-gamma0-db=-10:20:2" in re.sub(r"\s+", "", capsys.readouterr().out)

    def test_help_at_80_columns_keeps_the_equals_form_on_one_line(self, monkeypatch, capsys):
        # wrapped at spaces only, the example stays one token a user can copy
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as done:
            main(["--help"])
        assert done.value.code == 0
        lines = capsys.readouterr().out.splitlines()
        assert max(map(len, lines)) <= 80
        assert any("--sweep-gamma0-db=-10:20:2" in line.split() for line in lines)

    def test_snr_underflowing_a_float_is_reported(self, tmp_path, capsys):
        rc = main(["--sweep-gamma0-db=-4000:-4000:1", "--engine", "analytic",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "-4000.0 dB underflows a float" in capsys.readouterr().err

    @pytest.mark.parametrize("grid, bad", [("-4000:0:10", "-4000.0"), ("4000:5000:10", "4000.0")])
    def test_bad_first_grid_snr_names_its_sweep_point(self, tmp_path, capsys, grid, bad):
        # the first grid value becomes the base config's SNR before the sweep
        # runs; its error names the point as a later value's would
        rc = main([f"--sweep-gamma0-db={grid}", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: sweep point gamma0_db={bad}: {bad} dB ")
        config = tmp_path / "first.ini"
        config.write_text(f"[sweep]\nvalues = {bad},0\n")
        with pytest.raises(ValueError, match=rf"^sweep point gamma0_db={bad}: "):
            load_config(config)

    @pytest.mark.parametrize("text, error", [
        ("[sweep]\nvalues = ,\n", "error: config key [sweep] values: empty value list"),
        ("M = 6\n", "error: config file "),  # no section header
    ])
    def test_bad_config_file_is_reported(self, tmp_path, capsys, text, error):
        config = tmp_path / "bad.ini"
        config.write_text(text)
        assert main(["--config", str(config), "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err.startswith(error)

    def test_range_without_a_step_is_reported(self, tmp_path, capsys):
        assert main(["--sweep-gamma0-db", "0:40", "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err.startswith(
            "error: --sweep-gamma0-db expects START:STOP:STEP, got '0:40'")

    def test_missing_config_is_reported(self, tmp_path, capsys):
        rc = main(["--config", str(tmp_path / "ghost.ini"),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "not found" in capsys.readouterr().err
