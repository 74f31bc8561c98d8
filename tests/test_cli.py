import configparser
import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from coopnoma.cli import (CSV_COLUMNS, MAX_GRID_POINTS, SweepSpec, _parse_sweep_range,
                          db_to_linear, emit_plot_script, load_config, main, run_sweep,
                          write_csv)
from coopnoma.linklevel import Geometry
from coopnoma.mcsim import McConfig, estimate


def small_bundle(**mc_overrides):
    cfg, geo, mc, sweep = load_config(None)
    mc_kwargs = dict(trials=2_000, seed=11, chunk_size=512, mode="independent")
    mc_kwargs.update(mc_overrides)
    return cfg, geo, McConfig(**mc_kwargs), sweep


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
        with pytest.raises(ValueError, match="m < n"):
            load_config(path)

    def test_unknown_key_named_in_error(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[system]\npower = 3\n")
        with pytest.raises(ValueError, match="power"):
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
        "mc": {"trials": "1234", "seed": "99", "chunk_size": "256", "mode": "joint"},
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
            McConfig(trials=1234, seed=99, chunk_size=256, mode="joint"),
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
        assert [r["gamma0_db"] for r in run_sweep(cfg, geo, mc, sweep)] == ["3", "4.5"]
        sweep = SweepSpec(variable="pair", values=((np.int64(2), np.int64(5)),),
                          engines=("analytic",))
        assert [(r["m"], r["n"]) for r in run_sweep(cfg, geo, mc, sweep)] == [("2", "5")]

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
            assert tuple(row) == CSV_COLUMNS

    def test_baseline_doubles_rows(self):
        from dataclasses import replace
        cfg, geo, mc, sweep = small_bundle()
        sweep = replace(sweep, values=(10.0, 20.0), baseline=True)
        rows = run_sweep(cfg, geo, mc, sweep)
        assert len(rows) == 8
        assert [r["engine"] for r in rows[:4]] == [
            "analytic", "analytic-norelay", "mc", "mc-norelay"]

    def test_analytic_rows_have_empty_mc_fields(self):
        from dataclasses import replace
        cfg, geo, mc, sweep = small_bundle()
        sweep = replace(sweep, values=(20.0,))
        rows = run_sweep(cfg, geo, mc, sweep)
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
        rows = run_sweep(cfg, geo, mc, sweep)
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
        rows = run_sweep(cfg, geo, mc, sweep)
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
        rows = run_sweep(cfg, geo, mc, sweep)
        assert run_sweep(replace(cfg, gamma0=1e-300), geo, mc, sweep) == rows

    def test_grid_makes_one_evaluate_call_per_relay_flag(self, monkeypatch):
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
        assert [(k["relay"], len(k["gamma0"])) for k in calls] == [(True, 81), (False, 81)]


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
    def test_rows_equal_lone_estimates(self, variable, mode):
        from dataclasses import replace
        cfg, geo, mc, sweep = small_bundle(mode=mode, trials=3_000, chunk_size=1_024)
        sweep = replace(sweep, variable=variable, values=self.SWEEPS[variable],
                        engines=("analytic", "mc"), baseline=True, gamma0_db=12.0)
        rows = iter(run_sweep(cfg, geo, mc, sweep))
        for value in sweep.values:
            cfg_i, geo_i = self.scenario(cfg, geo, sweep, value)
            point = [next(rows) for _ in range(4)]
            assert [r["engine"] for r in point] == [
                "analytic", "analytic-norelay", "mc", "mc-norelay"]
            for row, relay in zip(point[2:], (True, False)):
                est_n, est_m, tau = estimate(cfg_i, geo_i, mc, relay=relay)
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
        rows = iter(run_sweep(cfg, geo, mc, sweep))
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
        # write_csv joins fields without quoting; csv.DictWriter is the reference
        from dataclasses import replace
        cfg, geo, mc, sweep = small_bundle()
        sweep = replace(sweep, variable=variable, values=values, engines=("analytic", "mc"),
                        baseline=True)
        rows = run_sweep(cfg, geo, mc, sweep)
        assert len(rows) == 4 * len(values)
        assert all(tuple(row) == CSV_COLUMNS for row in rows)
        out = tmp_path / "sweep.csv"
        write_csv(rows, out)
        want = io.StringIO()
        writer = csv.DictWriter(want, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        assert out.read_bytes() == want.getvalue().encode()

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

    @pytest.mark.parametrize("config", ["[system]\ntheta = 400\n", "[geometry]\nd_dnr = 1e200\n"],
                             ids=["theta", "d_dnr"])
    def test_overflowing_path_loss_runs_both_engines(self, tmp_path, config):
        # theta = 400 overflows d_sdm**theta, d_dnr = 1e200 overflows
        # d_dnr**2: such a link always fails, in both engines alike
        scen = tmp_path / "far.ini"
        scen.write_text(config)
        out = tmp_path / "cli.csv"
        rc = main(["--config", str(scen), "--sweep-gamma0-db", "0:40:20", "--engine", "both",
                   "--trials", "20000", "--baseline", "--out", str(out)])
        assert rc == 0
        with out.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["engine"] for r in rows] == ["analytic", "analytic-norelay", "mc",
                                               "mc-norelay"] * 3
        cols = ("p_out_n", "p_out_m", "throughput")
        for point in (rows[k:k + 4] for k in range(0, 12, 4)):
            analytic, analytic_norelay, mc_row, mc_norelay = point
            for row in point:
                assert all(0.0 <= float(row[c]) <= 1.0 for c in ("p_out_n", "p_out_m"))
            for c, se in (("p_out_n", "stderr_n"), ("p_out_m", "stderr_m")):
                tol = max(5.0 * float(mc_row[se]), 1e-4)
                assert abs(float(analytic[c]) - float(mc_row[c])) <= tol
            # the relayed copy is dead, so relaying changes no row
            assert [analytic[c] for c in cols] == [analytic_norelay[c] for c in cols]
            assert [mc_row[c] for c in cols] == [mc_norelay[c] for c in cols]
            if "theta" in config:  # every link is dead: certain outage
                assert {analytic[c] for c in cols[:2]} | {mc_row[c] for c in cols[:2]} == {"1"}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("config", [
        "[geometry]\nd_sdn = 1e-200\n",
        "[geometry]\nd_dnr = 1e-200\n",
        "[system]\ntheta = 2000\n[geometry]\nd_sdn = 0.5\nd_sdm = 0.5\nd_dnr = 0.5\n",
    ], ids=["d_sdn", "d_dnr", "every-link"])
    def test_underflowing_path_loss_runs_both_engines(self, tmp_path, config):
        # the path loss underflows to 0: a noise-free link, on which every
        # gain above 0 gets through, in both engines alike
        scen = tmp_path / "near.ini"
        scen.write_text(config)
        out = tmp_path / "cli.csv"
        # -3200 dB is a subnormal gamma0, where the gain levels are inf
        rc = main(["--config", str(scen), "--sweep-gamma0-db=-3200:40:1620", "--engine", "both",
                   "--trials", "20000", "--baseline", "--out", str(out)])
        assert rc == 0
        with out.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["engine"] for r in rows] == ["analytic", "analytic-norelay", "mc",
                                               "mc-norelay"] * 3
        for analytic, analytic_norelay, mc_row, mc_norelay in (rows[k:k + 4]
                                                               for k in range(0, 12, 4)):
            for exact, est in ((analytic, mc_row), (analytic_norelay, mc_norelay)):
                for c, se in (("p_out_n", "stderr_n"), ("p_out_m", "stderr_m")):
                    assert abs(float(exact[c]) - float(est[c])) <= max(5.0 * float(est[se]),
                                                                       1e-4)
            if "d_sdn" in config or "theta" in config:  # the strong user never fails
                assert analytic["p_out_n"] == mc_row["p_out_n"] == "0"
            if "theta" in config:  # and neither does the weak user
                assert analytic["p_out_m"] == mc_row["p_out_m"] == "0"

    def test_snr_past_float_square_runs_both_engines(self, tmp_path):
        # gamma0**2 overflows above about 1541 dB; both engines must still agree
        out = tmp_path / "cli.csv"
        rc = main(["--sweep-gamma0-db", "1500:1600:50", "--engine", "both",
                   "--trials", "1000", "--out", str(out)])
        assert rc == 0
        with out.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["gamma0_db"], r["engine"]) for r in rows] == [
            (db, e) for db in ("1500", "1550", "1600") for e in ("analytic", "mc")]
        for analytic, mc_row in zip(rows[::2], rows[1::2]):
            for col in ("p_out_n", "p_out_m", "throughput"):
                assert abs(float(analytic[col]) - float(mc_row[col])) <= 1e-4

    def test_snr_overflowing_a_float_is_reported(self, tmp_path, capsys):
        rc = main(["--sweep-gamma0-db", "4000:4000:1", "--engine", "analytic",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "4000.0 dB overflows a float" in capsys.readouterr().err

    def test_snr_below_float_square_runs_both_engines(self, tmp_path):
        # gamma0**2 underflows below about -1541 dB; outage is certain for both
        out = tmp_path / "cli.csv"
        rc = main(["--sweep-gamma0-db=-3200:-1600:800", "--engine", "both",
                   "--trials", "1000", "--out", str(out)])
        assert rc == 0
        with out.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["gamma0_db"] for r in rows] == ["-3200", "-3200", "-2400", "-2400",
                                                  "-1600", "-1600"]
        assert {(r["p_out_n"], r["p_out_m"], r["throughput"]) for r in rows} == {("1", "1", "0")}

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

    def test_missing_config_is_reported(self, tmp_path, capsys):
        rc = main(["--config", str(tmp_path / "ghost.ini"),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "not found" in capsys.readouterr().err
