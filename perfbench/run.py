"""spinsplit benchmark: real CLI commands, one fresh single-threaded process
after another (a closed loop with one client), with every run checked.

usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N

One workload starts runs until S seconds have passed (at least three), then
prints the medians of the end-to-end metrics (--trace 0) or runs once more
with every layer traced and prints the per-layer split (--trace 1).  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.  The
exit status is nonzero if any run failed a check.  ``all`` runs every
workload and prints a table with fail_frac per workload.

Run records, outputs and provenance go under .perfbench_out/ in the current
directory.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import spans
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_RUNS = 3
LAST_START_S = 110.0  # no run starts later, so the benchmark ends well within 180 s
DEADLINE_S = 170.0    # a run still going then is killed and counts as failed


@dataclass
class Run:
    stats: dict
    stdout: str
    digests: dict
    files: int
    bytes: int
    wall_s: float = float("nan")
    setup_s: float = float("nan")
    peak_rss_mb: float = float("nan")
    speed_scale: float = float("nan")  # REFERENCE_PROBE_S / probe time next to this run
    failures: list = field(default_factory=list)

    def scaled(self, metric: str) -> float:
        value = getattr(self, metric)
        return value * self.speed_scale if metric in ("wall_s", "setup_s") else value


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap proc and return its own resource usage (killed after timeout)."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = None
            return usage
        time.sleep(0.01)


def _outputs(out_dir: Path, stdout: bytes) -> tuple[dict, int, int]:
    """sha256 of stdout and of every file written, and the files' count and size."""
    digests = {"<stdout>": hashlib.sha256(stdout).hexdigest()}
    files = size = 0
    if out_dir.is_dir():
        for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
            data = path.read_bytes()
            digests[str(path.relative_to(out_dir))] = hashlib.sha256(data).hexdigest()
            files += 1
            size += len(data)
    return digests, files, size


def run_once(work: workloads.Workload, scenario: Path, run_dir: Path, trace: bool,
             timeout: float = DEADLINE_S) -> Run:
    """One CLI command in a fresh process; checks are applied by the caller."""
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    out_dir, stats_path = run_dir / "out", run_dir / "stats.json"
    argv = [sys.executable, str(HERE / "child.py"), str(stats_path), str(int(trace)),
            str(int(work.name == "rabi-trace")), "--",
            *work.cli_argv(str(scenario), str(out_dir))]
    env = {**os.environ, **THREAD_CAPS, "PYTHONPATH": str(SRC)}
    with open(run_dir / "stdout", "wb") as so, open(run_dir / "stderr", "wb") as se:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(argv, stdout=so, stderr=se, env=env, cwd=ROOT)
        usage = _wait(proc, timeout)
    stdout = (run_dir / "stdout").read_bytes()
    digests, files, size = _outputs(out_dir, stdout)
    shutil.rmtree(out_dir, ignore_errors=True)
    try:
        stats = json.loads(stats_path.read_text())
    except (OSError, ValueError):
        stats = {}
    run = Run(stats, stdout.decode(errors="replace"), digests, files, size)
    if proc.returncode != 0:
        tail = (run_dir / "stderr").read_text(errors="replace").strip().splitlines()[-3:]
        run.failures.append(f"exit status {proc.returncode}: {' | '.join(tail)}")
    if "t_done" in stats and "t_first_run" in stats:
        run.wall_s = stats["t_done"] - t_spawn
        run.setup_s = stats["t_first_run"] - t_spawn
    else:
        run.failures.append(stats.get("error", "run recorded no timings").strip())
    run.peak_rss_mb = usage.ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB on Linux
    return run


def layer_values(run: Run, untraced_wall: float) -> dict:
    """Per-layer figures of a traced run: self times, except propagation.run_s,
    which is the inclusive time of run_scenario; counts are exact."""
    totals = spans.layer_totals(run.stats["spans"])
    counts = run.stats["counts"]

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    results = run.stats["results"]
    steps = counts.get("potential_applies", 0) + calls("propagation.gl2")
    run_s = totals.get(spans.RUN, (0, 0.0, 0.0))[2]
    return {
        "spinsplit.import_s": self_s("spinsplit.import"),
        "scenario.load_s": self_s("scenario.load"),
        "propagation.run_s": run_s,
        "propagation.steps": steps,
        "propagation.step_us": 1e6 * run_s / steps if steps else 0.0,
        "propagation.kinetic_fft_s": self_s("propagation.kinetic_fft"),
        "propagation.kinetic_fft_calls": calls("propagation.kinetic_fft"),
        "propagation.self_s": self_s(spans.RUN),
        "propagation.gl2_s": self_s("propagation.gl2"),
        "propagation.gl2_steps": calls("propagation.gl2"),
        "propagation.harmonics_s": self_s("propagation.harmonics"),
        "propagation.harmonics_calls": calls("propagation.harmonics"),
        "fields.eval_s": self_s("fields.eval"),
        "fields.eval_calls": calls("fields.eval"),
        "fields.envelope_s": self_s("fields.envelope"),
        "fields.envelope_calls": calls("fields.envelope"),
        "states.momentum_fft_s": self_s("states.momentum_fft"),
        "observables.entropy_s": self_s("observables.entropy"),
        "observables.fit_rabi_s": self_s("observables.fit_rabi"),
        "observables.snapshots": sum(r["observations"] for r in results),
        "analytic.predict_s": self_s("analytic.predict"),
        "cli.write_s": self_s("cli.write"),
        "cli.bytes_written": run.bytes,
        "cli.files_written": run.files,
        "propagation.max_norm_drift": max(r["max_norm_drift"] for r in results),
        "propagation.max_sy_drift": max(r["max_sy_drift"] for r in results),
        "tracing.overhead_s": run.wall_s - untraced_wall,
    }


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=False)
    return done.stdout.strip() or None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def bench(name: str, seed: int, seconds: float, trace: bool, units: dict) -> tuple[dict, dict]:
    """Runs one workload; returns (result line with the metrics named in units,
    provenance)."""
    started = time.monotonic()
    work = workloads.WORKLOADS[name]
    reference = json.loads(REFERENCE.read_text())
    if name in reference and reference[name]["template_sha256"] != work.template_sha256():
        raise SystemExit(f"{REFERENCE.name} is stale for {name}; rerun make_reference.py")
    spin = workloads.seeded_spin(seed)
    weights = workloads.sigma_y_weights(spin)
    bench_dir = OUT_ROOT / f"{name}-seed{seed}"
    if bench_dir.exists():
        shutil.rmtree(bench_dir)
    bench_dir.mkdir(parents=True)
    scenario = bench_dir / "bench.scenario"
    scenario.write_text(work.scenario_text(spin), encoding="utf-8")

    def checked(run_dir: Path, traced: bool) -> Run:
        run = run_once(work, scenario, run_dir, traced,
                       max(1.0, DEADLINE_S - (time.monotonic() - started)))
        if not run.failures:
            run.failures += checks.check_run(name, run.stats, run.stdout, weights, reference)
        if runs and not run.failures:
            run.failures += checks.check_outputs(runs[0].digests, run.digests)
        return run

    runs: list[Run] = []
    probes = [speed.probe()]
    while len(runs) < MIN_RUNS or (time.monotonic() - started < seconds
                                   and time.monotonic() - started < LAST_START_S):
        runs.append(checked(bench_dir / f"run{len(runs)}", False))
        probes.append(speed.probe())
    for run, before, after in zip(runs, probes, probes[1:]):
        run.speed_scale = 2.0 * speed.REFERENCE_PROBE_S / (before + after)
    timed = [r for r in runs if math.isfinite(r.wall_s)]
    values = {m: statistics.median(r.scaled(m) for r in timed)
              for m in ("wall_s", "setup_s", "peak_rss_mb")} if timed else {}
    every = runs
    if trace:
        traced = checked(bench_dir / "traced", True)
        every = runs + [traced]
        values = {}
        if timed and "spans" in traced.stats and math.isfinite(traced.wall_s):
            values = layer_values(traced, statistics.median(r.wall_s for r in timed))
    failed = sum(1 for r in every if r.failures)
    metrics = {m: {"value": values[m], "unit": unit} for m, unit in units.items() if m in values}
    line = {"correct": failed == 0 and len(metrics) == len(units), "attempted": len(every),
            "failed": failed, "metrics": metrics}
    provenance = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": _git_commit(), "source_sha256": _source_sha256(),
        **runs[0].stats.get("versions", {}),
        "nproc": os.cpu_count(), "thread_caps": THREAD_CAPS,
    }
    record = {"provenance": provenance, "result": line,
              "runs": [{"wall_s": r.wall_s, "setup_s": r.setup_s, "peak_rss_mb": r.peak_rss_mb,
                        "speed_scale": r.speed_scale, "failures": r.failures} for r in every]}
    (bench_dir / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for i, r in enumerate(every):
        for msg in r.failures:
            print(f"{name} run {i}: FAILED {msg}", file=sys.stderr)
    return line, provenance


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spinsplit" / "__init__.py").is_file():
        print(f"no spinsplit sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    if args.workload != "all":
        line, provenance = bench(args.workload, args.seed, seconds, bool(args.trace), units)
        print("provenance " + json.dumps(provenance, sort_keys=True))
        print(json.dumps(line))
        return 0 if line["correct"] else 1

    ok = True
    print(f"{'workload':<18} {'wall_s [s]':>11} {'setup_s [s]':>12} "
          f"{'peak_rss_mb [MB]':>17} {'fail_frac':>10}")
    for name in workloads.WORKLOADS:
        line, _ = bench(name, args.seed, seconds, False, units)
        m = line["metrics"]
        ok &= line["correct"]
        print(f"{name:<18} {m['wall_s']['value']:>11.3f} {m['setup_s']['value']:>12.3f} "
              f"{m['peak_rss_mb']['value']:>17.1f} "
              f"{line['failed'] / line['attempted']:>10.3f}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
