"""One benchmark run: the spinsplit CLI in this fresh process, then what the
checks need written to a JSON file.

usage: python3 child.py STATS_JSON TRACE RABI -- SPINSPLIT_ARGS...

TRACE=1 wraps each layer's entry points in spans (see spans.py); RABI=1 fits
the Rabi frequency on the stage plateau after the CLI returns, as a user
checking C3 would.  ``spinsplit`` must be importable (PYTHONPATH=src).
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
import traceback


def _result_record(result) -> dict:
    ts = result.timeseries
    rep = result.final_report
    return {
        "backend": result.backend,
        "pop_plus": rep.pop_plus,
        "pop_minus": rep.pop_minus,
        "sy_plus": rep.sy_plus,
        "sy_minus": rep.sy_minus,
        "max_norm_drift": float(abs(ts.norm_drift).max()),
        "max_sy_drift": float(abs(ts.sy_total - ts.sy_total[0]).max()),
        "observations": int(ts.t.size),
    }


def _plateau_fit(observables, result) -> float:
    stage = result.scenario.stages[0]
    ts = result.timeseries
    lo = stage.start + stage.envelope.rise
    mask = (ts.t >= lo) & (ts.t <= lo + stage.envelope.plateau)
    return observables.fit_rabi(ts.t[mask] - lo, ts.pop_minus[mask]).omega


def main(argv: list[str]) -> int:
    stats_path, trace, rabi = argv[0], argv[1] == "1", argv[2] == "1"
    cli_args = argv[argv.index("--") + 1:]
    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer()
    stats: dict = {}

    with tracer.span("spinsplit.import") if tracer else contextlib.nullcontext():
        import spinsplit
        import spinsplit.cli as cli

    run = cli.run_scenario
    results = []

    def run_and_keep(scenario):
        stats.setdefault("t_first_run", time.monotonic())
        result = run(scenario)
        results.append(result)
        return result

    cli.run_scenario = run_and_keep
    if tracer:
        spans.install(tracer, cli, spinsplit)

    try:
        rc = cli.main(cli_args)
        if rc == 0 and rabi:
            stats["rabi_omega"] = _plateau_fit(spinsplit.observables, results[0])
        stats["t_done"] = time.monotonic()
    except Exception:  # reported to the benchmark as a failed run
        stats["error"] = traceback.format_exc()
        rc = 1
    finally:
        import numpy
        import scipy
        stats["versions"] = {"python": sys.version.split()[0],
                             "numpy": numpy.__version__, "scipy": scipy.__version__}
        stats["results"] = [_result_record(r) for r in results]
        if tracer:
            stats["spans"] = tracer.spans
            stats["counts"] = dict(tracer.counts)
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(stats, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
