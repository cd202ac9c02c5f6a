"""Command-line front end: simulate / analytic / design / compare.

All emitted files are deterministic for fixed inputs: fixed float formatting,
no timestamps, and a metadata header (tool version, scenario hash, units) on
every file.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import ID4, stage_unitary
from .design import LaserSpec, ToleranceBudget, full_design_report
from .observables import REPORT_COLUMNS, bragg_channel_report
from .propagation import BACKENDS, run_scenario, stage_pulse_areas, with_backend
from .scenario import CONVENTIONS, FORMATS, ScenarioFileError, load_scenario, standing_amplitude
from .states import MINUS_BLOCK, PLUS_BLOCK, BraggState, SpatialGrid
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


def _write(path: Path, content):
    """Write content to path, making its directory: a str, bytes, or an
    iterable of str chunks, each written as it comes."""
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(content, bytes):
        path.write_bytes(content)
        return
    with path.open("w", encoding="utf-8") as fh:
        fh.writelines([content] if isinstance(content, str) else content)


TIMESERIES_COLUMNS = ",".join(("t_fs",) + REPORT_COLUMNS + ("norm_drift",))
PREDICTION_COLUMNS = ",".join(("input",) + REPORT_COLUMNS)


def timeseries_csv(result, scenario_hash) -> str:
    ts = result.timeseries
    columns = ([natural_to_fs(ts.t)] + [getattr(ts, name) for name in REPORT_COLUMNS]
               + [ts.norm_drift])
    lines = [_header(scenario_hash) + TIMESERIES_COLUMNS]
    lines.extend(",".join(_fmt(x) for x in row) for row in zip(*columns))
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


# rows per chunk of snapshot_csv, so that no snapshot file is ever whole in memory
_CSV_BLOCK_ROWS = 1024


@functools.lru_cache(maxsize=4)
def _snapshot_row_templates(length: float, points: int) -> tuple:
    """The data rows of a snapshot CSV on the grid (length, points), in
    blocks of _CSV_BLOCK_ROWS: each row's z_um value written in as _fmt
    writes a float, then a %.12g slot per psi column.  z is the same in
    every snapshot of a run, so it is formatted once."""
    slots = ",%.12g" * (len(SNAPSHOT_COLUMNS) - 1) + "\n"
    rows = ["%.12g" % z + slots for z in natural_to_um(SpatialGrid(length, points).z).tolist()]
    return tuple("".join(rows[i:i + _CSV_BLOCK_ROWS]) for i in range(0, points, _CSV_BLOCK_ROWS))


def snapshot_csv(t, psi, scenario_hash):
    """The snapshot's CSV text in chunks: the header lines, then blocks of
    _CSV_BLOCK_ROWS rows, one row per grid point."""
    yield (_header(scenario_hash)
           + f"# time_fs={_fmt(natural_to_fs(t))} norm={_fmt(psi.norm())}\n"
           + ",".join(SNAPSHOT_COLUMNS) + "\n")
    templates = _snapshot_row_templates(psi.grid.length, psi.grid.points)
    for lo, template in zip(range(0, psi.grid.points, _CSV_BLOCK_ROWS), templates):
        # rows (re_up, im_up, re_dn, im_dn): each point's spinor as float pairs
        values = np.ascontiguousarray(psi.psi[:, lo:lo + _CSV_BLOCK_ROWS].T).view(np.float64)
        yield template % tuple(values.ravel().tolist())


def _snapshot_writer(snap_dir: Path, fmt: str, scenario_hash):
    """The runner's snapshot sink for ``simulate --out``: snapshot i goes to
    its file in snap_dir as soon as it is observed, and the first write
    makes snap_dir."""

    def write(i, t, psi):
        if fmt == "binary":
            _write(snap_dir / f"{i:06d}.snap", snapshot_binary(t, psi, scenario_hash))
        else:
            _write(snap_dir / f"{i:06d}.csv", snapshot_csv(t, psi, scenario_hash))

    return write


def analytic_prediction(scenario):
    """Compose the closed-form stage unitaries for a scenario's pulse areas:
    (U, stage table, channel reports of the scenario's spin and of the
    unpolarized ensemble in the same mode).  The entropy column is the
    entanglement made from a pure input, so the ensemble's reads 0."""
    u = ID4.copy()
    table = []
    for s, om, teff, theta in stage_pulse_areas(scenario.stages):
        chi = getattr(s, "chi", 0.0)
        u = stage_unitary(s.kind, theta, chi).matrix @ u
        table.append((s.label or s.kind, s.kind, om, teff, theta, chi))
    mode = +2 if scenario.packet.momentum >= 0 else -2
    vec = BraggState.from_spin(scenario.packet.spin, mode=mode)
    pure = bragg_channel_report(u @ vec.amplitudes)
    # the ensemble's members are the two spin states of the mode, weight 1/2
    members = u[:, PLUS_BLOCK if mode == +2 else MINUS_BLOCK] / np.sqrt(2.0)
    unpolarized = dataclasses.replace(bragg_channel_report(members), entropy=0.0)
    return u, table, pure, unpolarized


def analytic_csv(scenario) -> str:
    _, table, pure, unpolarized = analytic_prediction(scenario)
    lines = [_header(scenario.source_hash)
             + "stage,kind,hbar_rabi_eV,effective_duration_fs,pulse_area_rad,chi_rad"]
    for label, kind, om, teff, theta, chi in table:
        lines.append(",".join([label, kind] + [_fmt(x) for x in
                                               (om, natural_to_fs(teff), theta, chi)]))
    lines.append("")
    lines.append(PREDICTION_COLUMNS)
    lines.append(",".join(["scenario-spin"] + [_fmt(x) for x in pure.row()]))
    lines.append(",".join(["unpolarized"] + [_fmt(x) for x in unpolarized.row()]))
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
    _, _, ref, _ = analytic_prediction(scenario)
    reports = [("analytic", ref)]
    for backend in backends:
        reports.append((backend, run_scenario(with_backend(scenario, backend)).final_report))
    lines = [_header(scenario.source_hash) + PREDICTION_COLUMNS.replace("input", "backend")
             + ",dev_pop_plus,dev_pop_minus"]
    for name, r in reports:
        devs = [r.pop_plus - ref.pop_plus, r.pop_minus - ref.pop_minus]
        lines.append(",".join([name] + [_fmt(x) for x in r.row() + tuple(devs)]))
    return "\n".join(lines) + "\n"


# load_scenario's overrides, each the dest of the flag that sets it, if any
_OVERRIDES = ("convention", "backend", "dt_as", "snapshot_every_fs", "grid_points",
              "mode_halfwidth", "fmt")


def _add_scenario(p):
    p.add_argument("--scenario", required=True,
                   help="scenario file path or bundled name (fig2, fig2-ideal, ...)")
    p.add_argument("--out", help="output directory (default: print a summary)")
    p.add_argument("--convention", choices=sorted(CONVENTIONS),
                   help="monochromatic amplitude convention override")


def _add_run(p):
    _add_scenario(p)
    p.add_argument("--snapshot-every", type=float, metavar="FS", dest="snapshot_every_fs",
                   help="snapshot cadence in femtoseconds")
    p.add_argument("--grid-points", type=int)
    p.add_argument("--dt", type=float, metavar="AS", dest="dt_as",
                   help="timestep in attoseconds")
    p.add_argument("--mode-halfwidth", type=int)


def _load(args):
    try:
        return load_scenario(args.scenario,
                             **{name: getattr(args, name, None) for name in _OVERRIDES})
    except (ScenarioFileError, FileNotFoundError) as exc:
        print(exc, file=sys.stderr)
        raise SystemExit(1)


def cmd_simulate(args) -> int:
    scenario, out_spec = _load(args)
    # wavefunction dumps exist only for the grid backends; mode-lattice
    # snapshots are amplitude vectors already summarized in the series
    if args.out and not args.no_snapshots and scenario.config.backend != "mode-lattice":
        scenario.config.on_snapshot = _snapshot_writer(
            Path(args.out) / out_spec.snapshots, out_spec.format, scenario.source_hash)
    result = run_scenario(scenario)
    summary = result.final_report
    if args.out:
        out = Path(args.out)
        _write(out / out_spec.timeseries, timeseries_csv(result, scenario.source_hash))
        report_lines = [_header(scenario.source_hash).rstrip()]
        for key, value in zip(REPORT_COLUMNS, summary.row()):
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
    def wave(ea, xi):   # one wave from its own flags: --eaN over --xiN
        return (LaserSpec(photon_energy=args.photon_energy, xi=xi) if ea is None
                else LaserSpec.from_amplitude(ea, args.photon_energy))

    spec1 = wave(args.ea1, args.xi1)
    # wave 2 is wave 1 unless one of its own flags is given
    spec2 = spec1 if args.ea2 is None and args.xi2 is None else wave(args.ea2, args.xi2)
    mono = standing_amplitude(args.mono_a0, args.convention)
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
    _add_run(p)
    p.add_argument("--backend", choices=BACKENDS,
                   help="override the scenario's backend")
    p.add_argument("--format", choices=FORMATS, dest="fmt",
                   help="snapshot format override")
    p.add_argument("--no-snapshots", action="store_true",
                   help="skip wavefunction snapshot files")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analytic", help="closed-form stage-unitary predictions for a scenario")
    _add_scenario(p)
    p.set_defaults(func=cmd_analytic)

    p = sub.add_parser("compare", help="side-by-side analytic vs numerical channel table")
    _add_run(p)
    p.add_argument("--backends", default="effective,full-field",
                   help="comma-separated numerical backends to run")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("design", help="feasibility numbers for a parameter point")
    p.add_argument("--xi1", type=float, default=2.35e4 / 5.110e5)
    p.add_argument("--xi2", type=float, default=None)
    p.add_argument("--ea1", type=float, default=None, help="e*a1 in eV (overrides --xi1)")
    p.add_argument("--ea2", type=float, default=None, help="e*a2 in eV (overrides --xi2)")
    p.add_argument("--photon-energy", type=float, default=200.0)
    p.add_argument("--mono-a0", type=float, default=100.0)
    p.add_argument("--convention", choices=sorted(CONVENTIONS), default=CONVENTIONS[0])
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
