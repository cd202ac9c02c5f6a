"""Command-line front end: simulate / analytic / design / compare.

All emitted files are deterministic for fixed inputs: fixed float formatting,
no timestamps, and a metadata header (tool version, scenario hash, units) on
every file.  Every table and report goes through three writers: ``_table``
(a CSV block), ``_pairs`` (``key = value`` lines) and ``_emit`` (a file under
``--out``, else stdout).  Snapshots keep their own streaming encoders, which
``simulate --out`` runs in one private writer process (``_SnapshotWriter``),
so that the encoding overlaps the propagation on a second core; the command
reaps the writer before it returns, whether the run succeeds or fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import signal
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import ID4, stage_unitary
from .observables import REPORT_COLUMNS, bragg_channel_report
from .propagation import BACKENDS, run_scenario, stage_pulse_areas, with_backend
from .scenario import (CONVENTIONS, FINAL_REPORT, FORMATS, ScenarioFileError, load_scenario,
                       standing_amplitude)
from .states import MINUS_BLOCK, PLUS_BLOCK, BraggState, SpatialGrid, SpinorWavefunction
from .units import natural_to_fs, natural_to_um


def _fmt(x) -> str:
    if isinstance(x, str):      # a column name, stage label or row name
        return x
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


def _table(columns, rows) -> str:
    """A CSV block: the column line, then one line per row, each value as
    _fmt writes it."""
    return "".join(",".join(map(_fmt, line)) + "\n" for line in (columns, *rows))


def _pairs(pairs) -> str:
    """One ``key = value`` line per pair, each value as _fmt writes it."""
    return "".join(f"{key} = {_fmt(value)}\n" for key, value in pairs)


def _emit(out, name: str, text: str):
    """text to the file out/name, or to stdout when there is no out."""
    if out:
        _write(Path(out) / name, text)
    else:
        print(text, end="")


TIMESERIES_COLUMNS = ("t_fs",) + REPORT_COLUMNS + ("norm_drift",)
STAGE_COLUMNS = ("stage", "kind", "hbar_rabi_eV", "effective_duration_fs", "pulse_area_rad",
                 "chi_rad")
PREDICTION_COLUMNS = ("input",) + REPORT_COLUMNS
COMPARE_COLUMNS = ("backend",) + REPORT_COLUMNS + ("dev_pop_plus", "dev_pop_minus")


def timeseries_csv(result, scenario_hash) -> str:
    ts = result.timeseries
    columns = ([natural_to_fs(ts.t)] + [getattr(ts, name) for name in REPORT_COLUMNS]
               + [ts.norm_drift])
    return _header(scenario_hash) + _table(TIMESERIES_COLUMNS, zip(*columns))


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


class _SnapshotWriter:
    """The runner's snapshot sink for ``simulate --out``: snapshot i goes to
    its file in snap_dir, encoded and written by one private writer process
    while the runner propagates on, and the first write makes snap_dir.

    The first call forks the writer: the runner makes it at snapshot 0,
    before any ``advance``, so no factor helper thread is alive to be
    copied.  Each call sends the snapshot's (i, t) and the bytes of its
    spinor, after waiting for the previous snapshot's file and raising the
    error its write met, if any; so at most one snapshot is in flight.
    ``close`` waits for the file in flight, then stops and reaps the
    writer."""

    def __init__(self, snap_dir: Path, fmt: str, scenario_hash):
        self._args = (snap_dir, fmt, scenario_hash)
        self._conn = self._writer = None
        self._in_flight = False

    def __call__(self, i, t, psi):
        if self._writer is None:
            import multiprocessing  # loaded only by runs that write snapshots
            ctx = multiprocessing.get_context(
                "fork" if "fork" in multiprocessing.get_all_start_methods() else None)
            self._conn, child_end = ctx.Pipe()
            self._writer = ctx.Process(target=_write_snapshots, name="spinsplit-snapshots",
                                       args=(child_end, self._conn, psi.grid, *self._args),
                                       daemon=True)
            self._writer.start()
            child_end.close()
        self._settle()
        self._conn.send((i, t))
        self._conn.send_bytes(np.ascontiguousarray(psi.psi))
        self._in_flight = True

    def _settle(self):
        """Wait for the file in flight, if any; raise the error its write met."""
        if not self._in_flight:
            return
        self._in_flight = False
        try:
            error = self._conn.recv()
        except EOFError:
            error = OSError("the snapshot writer stopped before its file was written")
        if error is not None:
            raise error

    def close(self):
        """Wait for the file in flight, then stop the writer and reap it."""
        if self._writer is None:
            return
        try:
            self._settle()
        finally:
            self._conn.close()
            self._writer.join()
            self._writer = None


def _write_snapshots(conn, parent_end, grid: SpatialGrid, snap_dir: Path, fmt: str,
                     scenario_hash):
    """The writer process of ``_SnapshotWriter``: each snapshot received on
    conn goes to its file, and the reply is None, or the exception its write
    raised, after which the writer stops.  It stops quietly when the parent
    closes its end or dies."""
    parent_end.close()  # a fork's copy of it would keep the pipe open past the parent
    # an interrupt reaches the parent, which waits for the file in flight
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    encode, suffix = (snapshot_binary, "snap") if fmt == "binary" else (snapshot_csv, "csv")
    try:
        while True:
            i, t = conn.recv()
            psi = SpinorWavefunction(
                grid, np.frombuffer(conn.recv_bytes(), dtype=complex).reshape(2, -1))
            try:
                _write(snap_dir / f"{i:06d}.{suffix}", encode(t, psi, scenario_hash))
            except Exception as exc:  # reported by the parent, which exits with it
                conn.send(exc)
                return
            conn.send(None)
    except (EOFError, ConnectionError):  # the parent closed its end or died
        return


def analytic_prediction(scenario):
    """Compose the closed-form stage unitaries for a scenario's pulse areas:
    (stage rows under STAGE_COLUMNS, channel reports of the scenario's spin
    and of the unpolarized ensemble in the same mode).  The entropy column is
    the entanglement made from a pure input, so the ensemble's reads 0."""
    u = ID4.copy()
    table = []
    for s, om, teff, theta in stage_pulse_areas(scenario.stages):
        chi = getattr(s, "chi", 0.0)
        u = stage_unitary(s.kind, theta, chi).matrix @ u
        table.append((s.label or s.kind, s.kind, om, natural_to_fs(teff), theta, chi))
    mode = +2 if scenario.packet.momentum >= 0 else -2
    vec = BraggState.from_spin(scenario.packet.spin, mode=mode)
    pure = bragg_channel_report(u @ vec.amplitudes)
    # the ensemble's members are the two spin states of the mode, weight 1/2
    members = u[:, PLUS_BLOCK if mode == +2 else MINUS_BLOCK] / np.sqrt(2.0)
    unpolarized = dataclasses.replace(bragg_channel_report(members), entropy=0.0)
    return table, pure, unpolarized


def analytic_csv(scenario) -> str:
    table, pure, unpolarized = analytic_prediction(scenario)
    predictions = [("scenario-spin", *pure.row()), ("unpolarized", *unpolarized.row())]
    return (_header(scenario.source_hash) + _table(STAGE_COLUMNS, table) + "\n"
            + _table(PREDICTION_COLUMNS, predictions))


def design_text(report) -> str:
    flags = "".join(f"  - {f}\n" for f in report.flags)
    return (_header(None) + _pairs(report.as_pairs())
            + (f"flags:\n{flags}" if flags else "flags: none\n"))


def design_csv(report) -> str:
    keys, values = zip(*report.as_pairs())
    return _header(None) + _table(keys, [values])


def compare_csv(scenario, backends) -> str:
    _, ref, _ = analytic_prediction(scenario)
    reports = [("analytic", ref)] + [
        (backend, run_scenario(with_backend(scenario, backend)).final_report)
        for backend in backends]
    rows = [(name, *r.row(), r.pop_plus - ref.pop_plus, r.pop_minus - ref.pop_minus)
            for name, r in reports]
    return _header(scenario.source_hash) + _table(COMPARE_COLUMNS, rows)


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
    writer = None
    if args.out and not args.no_snapshots and scenario.config.backend != "mode-lattice":
        writer = scenario.config.on_snapshot = _SnapshotWriter(
            Path(args.out) / out_spec.snapshots, out_spec.format, scenario.source_hash)
    try:
        result = run_scenario(scenario)
    finally:
        if writer is not None:
            writer.close()
    summary = result.final_report
    if args.out:
        out = Path(args.out)
        _write(out / out_spec.timeseries, timeseries_csv(result, scenario.source_hash))
        pairs = [*zip(REPORT_COLUMNS, summary.row()),
                 ("norm_drift", result.timeseries.norm_drift[-1])]
        _write(out / FINAL_REPORT, _header(scenario.source_hash) + _pairs(pairs)
               + "".join(f"warning: {w}\n" for w in result.warnings))
    print(f"pop_plus={summary.pop_plus:.6f} pop_minus={summary.pop_minus:.6f} "
          f"poldeg_plus={summary.poldeg_plus:.6f} poldeg_minus={summary.poldeg_minus:.6f} "
          f"norm_drift={result.timeseries.norm_drift[-1]:.3e}")
    return 0


def cmd_analytic(args) -> int:
    scenario, _ = _load(args)
    _emit(args.out, "analytic.csv", analytic_csv(scenario))
    return 0


def cmd_compare(args) -> int:
    scenario, _ = _load(args)
    backends = [b.strip() for b in args.backends.split(",") if b.strip()]
    _emit(args.out, "compare.csv", compare_csv(scenario, backends))
    return 0


def cmd_design(args) -> int:
    # the calculator loads here only: no other command runs it
    from .design import LaserSpec, ToleranceBudget, full_design_report

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
    _emit(args.out, "design-report.txt", design_text(report))
    if args.out:
        _emit(args.out, "design-report.csv", design_csv(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinsplit",
        description="Spin-polarizing interferometric electron beam splitter toolkit",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"spinsplit {__version__}")
    # no prefixes, so a removed or misspelt flag cannot parse as another; the
    # top-level allow_abbrev does not reach the subparsers
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", allow_abbrev=False,
                       help="propagate a scenario and write time series + snapshots")
    _add_run(p)
    p.add_argument("--backend", choices=BACKENDS,
                   help="override the scenario's backend")
    p.add_argument("--format", choices=FORMATS, dest="fmt",
                   help="snapshot format override")
    p.add_argument("--no-snapshots", action="store_true",
                   help="skip wavefunction snapshot files")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analytic", allow_abbrev=False,
                       help="closed-form stage-unitary predictions for a scenario")
    _add_scenario(p)
    p.set_defaults(func=cmd_analytic)

    p = sub.add_parser("compare", allow_abbrev=False,
                       help="side-by-side analytic vs numerical channel table")
    _add_run(p)
    p.add_argument("--backends", default="effective,full-field",
                   help="comma-separated numerical backends to run")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("design", allow_abbrev=False,
                       help="feasibility numbers for a parameter point")
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
