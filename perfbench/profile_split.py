"""Cross-check of the traced split on fullfield-bichrom against cProfile.

Both measure the share of the grid-propagation time (run_scenario minus the
observation layers) spent in kinetic FFTs; the rest is the runner's own time
(potential apply and field formulas) plus the envelope.

usage (from the repository root): python3 perfbench/profile_split.py [--seed N]
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import io
import os
import pstats
import statistics
import sys

import run
import workloads

NAME = "fullfield-bichrom"
REPEATS = 3


def traced_share(scenario, work_dir) -> float:
    traced = run.run_once(workloads.WORKLOADS[NAME], scenario, work_dir / "traced", True)
    m = run.layer_values(traced, traced.wall_s)
    kinetic = m["propagation.kinetic_fft_s"]
    return kinetic / (kinetic + m["propagation.self_s"] + m["fields.envelope_s"])


def profiled_share(scenario, work_dir) -> float:
    import spinsplit.cli as cli

    argv = workloads.WORKLOADS[NAME].cli_argv(str(scenario), str(work_dir / "profiled"))
    profile = cProfile.Profile()
    with contextlib.redirect_stdout(io.StringIO()):
        profile.runcall(cli.main, argv)
    stats = pstats.Stats(profile).stats

    def cumulative(name, caller=None):
        total = 0.0
        for (_, _, func), (_, _, _, ct, callers) in stats.items():
            if func != name:
                continue
            if caller is None:
                total += ct
            else:
                total += sum(edge[3] for (_, _, f), edge in callers.items() if f == caller)
        return total

    kinetic = cumulative("fft", "_apply_kinetic") + cumulative("ifft", "_apply_kinetic")
    observation = cumulative("momentum_amplitudes") + cumulative("eigvalsh", "observe")
    return kinetic / (cumulative("run_scenario") - observation)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    work_dir = run.OUT_ROOT / "profile-split"
    work_dir.mkdir(parents=True, exist_ok=True)
    scenario = work_dir / "bench.scenario"
    scenario.write_text(workloads.WORKLOADS[NAME].scenario_text(workloads.seeded_spin(args.seed)))
    os.environ.update(run.THREAD_CAPS)
    sys.path.insert(0, str(run.SRC))
    # alternate the two, since this machine's speed drifts between runs
    pairs = [(traced_share(scenario, work_dir), profiled_share(scenario, work_dir))
             for _ in range(REPEATS)]
    traced = statistics.median(t for t, _ in pairs)
    profiled = statistics.median(p for _, p in pairs)
    print(f"kinetic FFT share of grid propagation, median of {REPEATS}: traced {traced:.1%}, "
          f"cProfile {profiled:.1%}, difference {abs(traced - profiled) * 100:.1f} points")
    return 0


if __name__ == "__main__":
    sys.exit(main())
