"""Command-line front end: simulate / analytic / design / compare.

All emitted files are deterministic for fixed inputs: fixed float formatting,
no timestamps, and a metadata header (tool version, scenario hash, units) on
every file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import ID4, block_spin_expectations, stage_unitary
from .design import LaserSpec, ToleranceBudget, full_design_report
from .observables import spin_momentum_entanglement
from .propagation import run_scenario, stage_pulse_areas, with_backend
from .scenario import OutputSpec, ScenarioFileError, load_scenario
from .states import BraggState, unpolarized_density
from .units import natural_to_fs, natural_to_um


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


def _header(scenario_hash: str | None) -> str:
    return (
        f"# spinsplit {__version__}\n"
        f"# scenario-sha256: {scenario_hash or 'none'}\n"
        "# units: time=fs length=um energy=eV momentum=eV/c intensity=W/cm^2 energy_pulse=mJ\n"
    )


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


TIMESERIES_COLUMNS = (
    "t_fs,pop_plus,pop_minus,sy_plus,sy_minus,poldeg_plus,poldeg_minus,entropy,norm_drift"
)


def timeseries_csv(result, scenario_hash) -> str:
    ts = result.timeseries
    lines = [_header(scenario_hash) + TIMESERIES_COLUMNS]
    for i in range(ts.t.size):
        row = (
            natural_to_fs(ts.t[i]), ts.pop_plus[i], ts.pop_minus[i],
            ts.sy_plus[i], ts.sy_minus[i], ts.poldeg_plus[i], ts.poldeg_minus[i],
            ts.entropy[i], ts.norm_drift[i],
        )
        lines.append(",".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"


SNAPSHOT_COLUMNS = ("z_um", "re_up", "im_up", "re_dn", "im_dn")


def _snapshot_block(psi) -> np.ndarray:
    """The float64 rows SNAPSHOT_COLUMNS of a snapshot, shape (5, N)."""
    return np.vstack([
        natural_to_um(psi.grid.z),
        psi.psi[0].real, psi.psi[0].imag, psi.psi[1].real, psi.psi[1].imag,
    ]).astype(np.float64)


def snapshot_binary(t, psi, scenario_hash) -> bytes:
    grid = psi.grid
    header = {
        "version": __version__,
        "scenario_sha256": scenario_hash or "none",
        "time_fs": round(natural_to_fs(t), 12),
        "norm": psi.norm(),
        "points": grid.points,
        "length_um": natural_to_um(grid.length),
        "layout": "float64 rows: " + ", ".join(SNAPSHOT_COLUMNS),
    }
    return (json.dumps(header, sort_keys=True).encode() + b"\n"
            + _snapshot_block(psi).tobytes(order="C"))


def read_snapshot_binary(data: bytes):
    head, _, rest = data.partition(b"\n")
    header = json.loads(head.decode())
    block = np.frombuffer(rest, dtype=np.float64).reshape(5, header["points"])
    return header, block


def snapshot_csv(t, psi, scenario_hash) -> str:
    block = _snapshot_block(psi)
    # one row per grid point, each value as _fmt writes a float
    rows = (",".join(["%.12g"] * len(SNAPSHOT_COLUMNS)) + "\n") * block.shape[1]
    return (_header(scenario_hash)
            + f"# time_fs={_fmt(natural_to_fs(t))} norm={_fmt(psi.norm())}\n"
            + ",".join(SNAPSHOT_COLUMNS) + "\n"
            + rows % tuple(block.T.ravel().tolist()))


def _report_row(report, entropy) -> list:
    return [report.pop_plus, report.pop_minus, report.sy_plus, report.sy_minus,
            report.poldeg_plus, report.poldeg_minus, entropy]


def analytic_prediction(scenario):
    """Compose the closed-form stage unitaries for a scenario's pulse areas."""
    u = ID4.copy()
    table = []
    for s, om, teff, theta in stage_pulse_areas(scenario.stages):
        chi = getattr(s, "chi", 0.0)
        u = stage_unitary(s.kind, theta, chi).matrix @ u
        table.append((s.label or s.kind, s.kind, om, teff, theta, chi))
    mode = +2 if scenario.packet.momentum >= 0 else -2
    vec = BraggState.from_spin(scenario.packet.spin, mode=mode)
    out_vec = BraggState(u @ vec.amplitudes)

    def row(rho, entropy):
        blocks = block_spin_expectations(rho)
        (pop_plus, sy_plus), (pop_minus, sy_minus) = blocks["plus"], blocks["minus"]
        return [pop_plus, pop_minus, sy_plus, sy_minus, abs(sy_plus), abs(sy_minus), entropy]

    pure_row = row(out_vec.density(),
                   spin_momentum_entanglement(out_vec) if out_vec.norm() > 0 else 0.0)
    unpol_row = row(u @ unpolarized_density(mode) @ u.conj().T, 0.0)
    return u, table, pure_row, unpol_row


PREDICTION_COLUMNS = "input,pop_plus,pop_minus,sy_plus,sy_minus,poldeg_plus,poldeg_minus,entropy"


def analytic_csv(scenario) -> str:
    _, table, pure_row, unpol_row = analytic_prediction(scenario)
    lines = [_header(scenario.source_hash)
             + "stage,kind,hbar_rabi_eV,effective_duration_fs,pulse_area_rad,chi_rad"]
    for label, kind, om, teff, theta, chi in table:
        lines.append(",".join([label, kind] + [_fmt(x) for x in
                                               (om, natural_to_fs(teff), theta, chi)]))
    lines.append("")
    lines.append(PREDICTION_COLUMNS)
    lines.append(",".join(["scenario-spin"] + [_fmt(x) for x in pure_row]))
    lines.append(",".join(["unpolarized"] + [_fmt(x) for x in unpol_row]))
    return "\n".join(lines) + "\n"


def design_text(report) -> str:
    lines = [_header(None).rstrip()]
    for key, value in report.as_pairs():
        lines.append(f"{key} = {_fmt(value)}")
    if report.flags:
        lines.append("flags:")
        lines.extend(f"  - {f}" for f in report.flags)
    else:
        lines.append("flags: none")
    return "\n".join(lines) + "\n"


def design_csv(report) -> str:
    pairs = report.as_pairs()
    head = ",".join(k for k, _ in pairs)
    row = ",".join(_fmt(v) for _, v in pairs)
    return _header(None) + head + "\n" + row + "\n"


def compare_csv(scenario, backends) -> str:
    _, _, pure_row, _ = analytic_prediction(scenario)
    rows = [("analytic", pure_row)]
    for backend in backends:
        result = run_scenario(with_backend(scenario, backend))
        r = result.final_report
        rows.append((backend, _report_row(r, result.timeseries.entropy[-1])))
    lines = [_header(scenario.source_hash) + PREDICTION_COLUMNS.replace("input", "backend")
             + ",dev_pop_plus,dev_pop_minus"]
    ref = rows[0][1]
    for name, row in rows:
        devs = [row[0] - ref[0], row[1] - ref[1]]
        lines.append(",".join([name] + [_fmt(x) for x in row] + [_fmt(d) for d in devs]))
    return "\n".join(lines) + "\n"


def _add_common(p):
    p.add_argument("--scenario", required=True,
                   help="scenario file path or bundled name (fig2, fig2-ideal, ...)")
    p.add_argument("--backend", choices=("full-field", "effective", "mode-lattice"),
                   help="override the scenario's backend")
    p.add_argument("--out", help="output directory (default: print a summary)")
    p.add_argument("--snapshot-every", type=float, metavar="FS",
                   help="snapshot cadence in femtoseconds")
    p.add_argument("--grid-points", type=int)
    p.add_argument("--dt", type=float, metavar="AS", help="timestep in attoseconds")
    p.add_argument("--convention", choices=("standing", "traveling"),
                   help="monochromatic amplitude convention override")
    p.add_argument("--mode-halfwidth", type=int)
    p.add_argument("--format", choices=("csv", "binary"), dest="fmt",
                   help="snapshot format override")


def _load(args):
    try:
        return load_scenario(
            args.scenario,
            convention=args.convention,
            backend=args.backend,
            dt_as=args.dt,
            snapshot_every_fs=args.snapshot_every,
            grid_points=args.grid_points,
            mode_halfwidth=args.mode_halfwidth,
        )
    except (ScenarioFileError, FileNotFoundError) as exc:
        print(exc, file=sys.stderr)
        raise SystemExit(1)


def cmd_simulate(args) -> int:
    scenario, out_spec = _load(args)
    if args.fmt:
        out_spec = OutputSpec(format=args.fmt, timeseries=out_spec.timeseries,
                              snapshots=out_spec.snapshots)
    write_snaps = args.out is not None and not args.no_snapshots
    if write_snaps:
        scenario.config.keep_snapshots = True
    result = run_scenario(scenario)
    summary = result.final_report
    if args.out:
        out = Path(args.out)
        _write(out / out_spec.timeseries, timeseries_csv(result, scenario.source_hash))
        # wavefunction dumps exist only for the grid backends; mode-lattice
        # snapshots are amplitude vectors already summarized in the series
        if write_snaps and result.snapshots and result.final_psi is not None:
            snap_dir = out / out_spec.snapshots
            snap_dir.mkdir(parents=True, exist_ok=True)
            for i, (t, psi) in enumerate(result.snapshots):
                if out_spec.format == "binary":
                    (snap_dir / f"{i:06d}.snap").write_bytes(
                        snapshot_binary(t, psi, scenario.source_hash))
                else:
                    _write(snap_dir / f"{i:06d}.csv",
                           snapshot_csv(t, psi, scenario.source_hash))
        report_lines = [_header(scenario.source_hash).rstrip()]
        for key, value in zip(PREDICTION_COLUMNS.split(",")[1:],
                              _report_row(summary, result.timeseries.entropy[-1])):
            report_lines.append(f"{key} = {_fmt(value)}")
        report_lines.append(f"norm_drift = {_fmt(result.timeseries.norm_drift[-1])}")
        for w in result.warnings:
            report_lines.append(f"warning: {w}")
        _write(out / "final-report.txt", "\n".join(report_lines) + "\n")
    print(f"pop_plus={summary.pop_plus:.6f} pop_minus={summary.pop_minus:.6f} "
          f"poldeg_plus={summary.poldeg_plus:.6f} poldeg_minus={summary.poldeg_minus:.6f} "
          f"norm_drift={result.timeseries.norm_drift[-1]:.3e}")
    return 0


def cmd_analytic(args) -> int:
    scenario, _ = _load(args)
    text = analytic_csv(scenario)
    if args.out:
        _write(Path(args.out) / "analytic.csv", text)
    else:
        print(text, end="")
    return 0


def cmd_compare(args) -> int:
    scenario, _ = _load(args)
    backends = [b.strip() for b in args.backends.split(",") if b.strip()]
    text = compare_csv(scenario, backends)
    if args.out:
        _write(Path(args.out) / "compare.csv", text)
    else:
        print(text, end="")
    return 0


def cmd_design(args) -> int:
    if args.ea1 is not None:
        spec1 = LaserSpec.from_amplitude(args.ea1, args.photon_energy)
        spec2 = LaserSpec.from_amplitude(args.ea2 if args.ea2 is not None else args.ea1,
                                         args.photon_energy)
    else:
        spec1 = LaserSpec(photon_energy=args.photon_energy, xi=args.xi1)
        spec2 = LaserSpec(photon_energy=args.photon_energy,
                          xi=args.xi2 if args.xi2 is not None else args.xi1)
    mono = args.mono_a0 * (2.0 if args.convention != "standing" else 1.0)
    tol = ToleranceBudget(dp_z_rel=args.dpz_rel, dp_y_rel=args.dpy_rel,
                          dp_x=args.dpx, dL_rel=args.dl_rel)
    report = full_design_report((spec1, spec2), mono_amplitude=mono,
                                electron_energy=args.electron_energy, tolerances=tol)
    if args.out:
        out = Path(args.out)
        _write(out / "design-report.txt", design_text(report))
        _write(out / "design-report.csv", design_csv(report))
    else:
        print(design_text(report), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinsplit",
        description="Spin-polarizing interferometric electron beam splitter toolkit",
    )
    parser.add_argument("--version", action="version", version=f"spinsplit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="propagate a scenario and write time series + snapshots")
    _add_common(p)
    p.add_argument("--no-snapshots", action="store_true",
                   help="skip wavefunction snapshot files")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analytic", help="closed-form stage-unitary predictions for a scenario")
    _add_common(p)
    p.set_defaults(func=cmd_analytic)

    p = sub.add_parser("compare", help="side-by-side analytic vs numerical channel table")
    _add_common(p)
    p.add_argument("--backends", default="effective,full-field",
                   help="comma-separated numerical backends to run")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("design", help="feasibility numbers for a parameter point")
    p.add_argument("--xi1", type=float, default=2.35e4 / 5.110e5)
    p.add_argument("--xi2", type=float, default=None)
    p.add_argument("--ea1", type=float, default=None, help="e*a1 in eV (overrides xi)")
    p.add_argument("--ea2", type=float, default=None)
    p.add_argument("--photon-energy", type=float, default=200.0)
    p.add_argument("--mono-a0", type=float, default=100.0)
    p.add_argument("--convention", choices=("standing", "traveling"), default="traveling")
    p.add_argument("--electron-energy", type=float, default=30.0)
    p.add_argument("--dpz-rel", type=float, default=0.0)
    p.add_argument("--dpy-rel", type=float, default=0.0)
    p.add_argument("--dpx", type=float, default=0.0)
    p.add_argument("--dl-rel", type=float, default=0.0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_design)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except Exception as exc:  # propagate failures as a nonzero exit status
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
