"""Correctness checks applied to every benchmark run.  Each returns a list of
failure messages; an empty list means the run passed."""

from __future__ import annotations

DRIFT_BOUND = 1e-8       # acceptance criterion C4
ANALYTIC_BOUND = 0.05    # C6: numerical against analytic channel populations
RABI_BOUND = 0.02        # C3: fitted against closed-form Rabi frequency

MC2_EV = 510998.95
# mono-rabi quotes a0 = 100 eV per traveling wave: a 200 eV standing wave.
RABI_OMEGA = 200.0**2 / (8.0 * MC2_EV)

# Channel quantities linear in the sigma_y weights of the initial spin.
MIX_KEYS = ("pop_plus", "pop_minus", "sy_pop_plus", "sy_pop_minus")


def mix_quantities(result: dict) -> dict:
    return {
        "pop_plus": result["pop_plus"],
        "pop_minus": result["pop_minus"],
        "sy_pop_plus": result["pop_plus"] * result["sy_plus"],
        "sy_pop_minus": result["pop_minus"] * result["sy_minus"],
    }


def check_drifts(results: list) -> list[str]:
    out = []
    for r in results:
        for key in ("max_norm_drift", "max_sy_drift"):
            if not r[key] <= DRIFT_BOUND:
                out.append(f"{r['backend']}: {key} {r[key]:.3e} > {DRIFT_BOUND:g}")
    return out


def check_mix(result: dict, weights, reference: dict) -> list[str]:
    """[sigma_y, H] = 0, so each channel quantity is the sigma_y-weighted mix
    of the stored y+ and y- runs, up to the timestep-convergence error."""
    w_plus, w_minus = weights
    got = mix_quantities(result)
    tol = reference["tolerance"]
    out = []
    for key in MIX_KEYS:
        want = w_plus * reference["y+"][key] + w_minus * reference["y-"][key]
        if not abs(got[key] - want) <= tol:
            out.append(f"{key} {got[key]:.12g} differs from the y+/y- mix {want:.12g} "
                       f"by more than {tol:.3g}")
    return out


def check_compare_table(stdout: str) -> list[str]:
    """The dev_pop_* columns that `spinsplit compare` prints, per backend row."""
    rows = [line.split(",") for line in stdout.splitlines()
            if line and not line.startswith("#")]
    if len(rows) < 3:
        return ["compare printed no backend rows"]
    header = rows[0]
    out = []
    for row in rows[2:]:
        rec = dict(zip(header, row))
        for key in ("dev_pop_plus", "dev_pop_minus"):
            dev = float(rec[key])
            if not abs(dev) <= ANALYTIC_BOUND:
                out.append(f"{rec['backend']}: {key} {dev:.4g} beyond {ANALYTIC_BOUND}")
    return out


def check_rabi(omega: float) -> list[str]:
    dev = abs(omega - RABI_OMEGA) / RABI_OMEGA
    if not dev <= RABI_BOUND:
        return [f"fitted Rabi frequency {omega:.6g} eV is {dev:.2%} from {RABI_OMEGA:.6g} eV"]
    return []


def check_outputs(reference: dict, got: dict) -> list[str]:
    """Output digests (relative path -> sha256) against an earlier run."""
    if got == reference:
        return []
    changed = sorted(k for k in reference.keys() | got.keys() if reference.get(k) != got.get(k))
    return [f"outputs differ from an earlier run with the same seed: {', '.join(changed[:5])}"]


def check_run(workload: str, stats: dict, stdout: str, weights, reference: dict) -> list[str]:
    """All checks for one run of one workload."""
    results = stats.get("results", [])
    if len(results) != 1:
        return [f"expected one propagation, got {len(results)}"]
    out = check_drifts(results)
    if workload in reference:
        out += check_mix(results[0], weights, reference[workload])
    if workload == "modes-mono":
        out += check_compare_table(stdout)
    if workload == "rabi-trace":
        out += check_rabi(stats["rabi_omega"])
    return out
