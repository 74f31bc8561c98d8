"""One child process of the benchmark; ``run.py`` starts one at a time.

    child.py setup SCENARIO              import coopnoma.cli and load the scenario file
    child.py run SCENARIO SPANS ARGV...  the above, then coopnoma.cli.main(ARGV);
                                         SPANS names a file to trace into, "-" runs untraced
    child.py check WORKLOAD SEED CSV     correctness check of one CSV
    child.py micro WORKLOAD              per-layer micro-kernels

The last line of standard output is ``PERFBENCH <json record>``.
``setup_mark`` is a ``time.monotonic()`` reading, which on Linux is
CLOCK_MONOTONIC and so comparable with the parent's clock.
"""

import os
import sys
import time

sys.path.insert(1, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))


def _emit(record: dict) -> None:
    import json
    print("PERFBENCH " + json.dumps(record), flush=True)


def _setup(scenario: str, traced: bool):
    import coopnoma.cli as cli
    tracer = None
    if traced:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    cli.load_config(scenario)
    return cli, tracer, time.monotonic()


def main(argv: list[str]) -> int:
    command = argv[0]
    if command == "setup":
        _, _, mark = _setup(argv[1], traced=False)
        _emit({"setup_mark": mark})
        return 0
    if command == "run":
        spans_path = argv[2]
        cli, tracer, mark = _setup(argv[1], traced=spans_path != "-")
        t0 = time.perf_counter()
        code = cli.main(argv[3:])
        wall = time.perf_counter() - t0
        import resource
        record = {"setup_mark": mark, "wall_s": wall, "exit": code,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        if tracer is not None:
            import json
            from spans import layer_metrics
            record["metrics"] = layer_metrics(tracer.spans)
            with open(spans_path, "w") as fh:
                json.dump([s._asdict() for s in tracer.spans], fh)
        _emit(record)
        return code

    from workloads import WORKLOADS
    workload = WORKLOADS[argv[1]]
    if command == "check":
        from check import check_csv
        _emit({"errors": check_csv(workload, argv[3], int(argv[2]))})
        return 0
    if command == "micro":
        from coopnoma.cli import load_config
        from micro import micro_metrics
        cfg, geo, mc, _ = load_config(workload.scenario_path)
        metrics, info = micro_metrics(cfg, geo, mc)
        _emit({"metrics": metrics, "info": info})
        return 0
    raise SystemExit(f"unknown command {command!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
