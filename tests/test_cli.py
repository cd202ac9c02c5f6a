import gc
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from spinsplit.cli import _fmt, _header, main, read_snapshot_binary, snapshot_csv
from spinsplit.states import SpatialGrid, SpinorWavefunction
from spinsplit.units import natural_to_fs, natural_to_um, um_to_natural

TOY = """
label: toy-cli
electron:
  width: 0.05
  momentum: 400.0
  spin: up
stages:
  - kind: monochromatic
    label: splitter
    a0: 100.0
    photon_energy: 200.0
    chi: 0.0
    start: 1.0
    rise: 0.5
    plateau: 105.29131
    fall: 0.5
duration: 110.0
propagation:
  backend: effective
  snapshot_every: 10.0
  grid_points: 2048
  grid_length: 0.75
"""
# plateau chosen for a pi/2 area: (pi/2)/Omega_m(200 eV) - 0.375 fs of edges

# a free packet on a 1024-point grid
FREE_1024 = """
label: free-1024
electron: {width: 0.01, momentum: 0.0, spin: up}
duration: 64.0
propagation: {backend: full-field, grid_points: 1024, grid_length: 0.3}
"""

# desk-mono's field and packet on the mode lattice with a 0.008 fs pulse
TINY_MODES = """
label: tiny-modes
units: {time: fs, length: um}
electron: {center: 0.0, width: 0.008, momentum: 2400.0, spin: x+}
stages:
  - {kind: monochromatic, label: splitter, a0: 4952.57508777, photon_energy: 1200.0,
     chi: 0.0, start: 0.002, rise: 0.002, plateau: 0.004, fall: 0.002}
duration: 0.012
propagation:
  {backend: mode-lattice, snapshot_every: 0.004, mode_halfwidth: 8,
   mono_convention: standing}
"""


@pytest.fixture()
def toy_path(tmp_path):
    p = tmp_path / "toy.scenario"
    p.write_text(TOY)
    return str(p)


def read_csv_rows(path):
    lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestSimulate:
    def test_writes_timeseries_and_snapshots(self, toy_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", toy_path, "--out", str(out)]) == 0
        header, rows = read_csv_rows(out / "timeseries.csv")
        assert header == ["t_fs", "pop_plus", "pop_minus", "sy_plus", "sy_minus",
                          "poldeg_plus", "poldeg_minus", "entropy", "norm_drift"]
        assert len(rows) == 12  # duration 110 fs at 10 fs cadence + t=0
        assert float(rows[0]["pop_plus"]) == pytest.approx(1.0, abs=1e-9)
        final = rows[-1]
        assert float(final["pop_plus"]) == pytest.approx(0.5, abs=0.02)
        assert abs(float(final["norm_drift"])) < 1e-8
        snaps = sorted((out / "snapshots").glob("*.csv"))
        assert len(snaps) == 12
        assert (out / "final-report.txt").exists()

    def test_deterministic_outputs(self, toy_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--scenario", toy_path, "--out", str(out1)])
        main(["simulate", "--scenario", toy_path, "--out", str(out2)])
        for name in ("timeseries.csv", "final-report.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for s1, s2 in zip(sorted((out1 / "snapshots").iterdir()),
                          sorted((out2 / "snapshots").iterdir())):
            assert s1.read_bytes() == s2.read_bytes()

    def test_binary_snapshots_round_trip(self, toy_path, tmp_path):
        out = tmp_path / "run"
        main(["simulate", "--scenario", toy_path, "--out", str(out),
              "--format", "binary"])
        snap = sorted((out / "snapshots").glob("*.snap"))[0]
        header, block = read_snapshot_binary(snap.read_bytes())
        assert header["points"] == 2048
        assert block.shape == (5, 2048)
        from spinsplit.units import LENGTH_UNIT_UM

        norm = np.sum(block[1] ** 2 + block[2] ** 2 + block[3] ** 2 + block[4] ** 2)
        norm *= (block[0][1] - block[0][0]) / LENGTH_UNIT_UM  # dz in natural units
        assert norm == pytest.approx(header["norm"], rel=1e-9)

    def test_metadata_header_present(self, toy_path, tmp_path):
        out = tmp_path / "run"
        main(["simulate", "--scenario", toy_path, "--out", str(out), "--no-snapshots"])
        text = (out / "timeseries.csv").read_text()
        assert text.startswith("# spinsplit ")
        assert "# scenario-sha256: " in text
        assert "# units: " in text

    def test_snapshot_csv_matches_per_row_format(self):
        # the one-format-string CSV against the per-row _fmt join it
        # replaced, on magnitudes from 1e-150 to 1e150 with -0.0 and 1e-300
        # entries
        rng = np.random.default_rng(11)
        grid = SpatialGrid(um_to_natural(0.5), 8192)
        psi = (rng.normal(size=(2, 8192)) + 1j * rng.normal(size=(2, 8192))) \
            * 10.0 ** rng.integers(-150, 150, size=(2, 8192))
        psi[0, :3] = complex(-0.0, -0.0)
        psi[1, 3:6] = complex(1e-300, -0.0)
        wf = SpinorWavefunction(grid, psi)
        lines = [_header("abc") + f"# time_fs={_fmt(natural_to_fs(0.3))} norm={_fmt(wf.norm())}\n"
                 + "z_um,re_up,im_up,re_dn,im_dn"]
        z_um = natural_to_um(1.0) * grid.z
        for i in range(grid.points):
            lines.append(",".join(_fmt(v) for v in (
                z_um[i], psi[0, i].real, psi[0, i].imag, psi[1, i].real, psi[1, i].imag)))
        assert "".join(snapshot_csv(0.3, wf, "abc")) == "\n".join(lines) + "\n"

    def test_snapshot_memory_does_not_grow_with_their_count(self, tmp_path):
        # snapshots go to their files as they are observed, so a run with
        # 64 of them peaks less than one snapshot array above one with 8
        # (numpy reports its buffers to tracemalloc); the collection clears
        # the last run's garbage cycles, which would otherwise be freed at
        # a random point of the next run and shift its peak
        scenario = tmp_path / "free.scenario"
        scenario.write_text(FREE_1024)

        def peak(count):
            gc.collect()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert main(["simulate", "--scenario", str(scenario), "--out",
                         str(tmp_path / f"run{count}"),
                         "--snapshot-every", str(64.0 / count)]) == 0
            return tracemalloc.get_traced_memory()[1] - base

        tracemalloc.start()
        try:
            peak(8)     # warm-up: imports and per-grid caches
            few, many = peak(8), peak(64)
        finally:
            tracemalloc.stop()
        assert len(list((tmp_path / "run64" / "snapshots").glob("*.csv"))) == 65
        assert many - few < 2 * 1024 * 16

    def test_mode_lattice_writes_no_snapshot_directory(self, tmp_path):
        scenario = tmp_path / "tiny.scenario"
        scenario.write_text(TINY_MODES)
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 0
        assert (out / "timeseries.csv").exists()
        assert not (out / "snapshots").exists()

    def test_dt_override_and_ceiling(self, toy_path, capsys):
        # 10^6 as = 1 ps timestep violates the effective-backend bound
        assert main(["simulate", "--scenario", toy_path, "--dt", "1e6"]) == 1
        err = capsys.readouterr().err
        assert "violates" in err

    def test_missing_scenario_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--scenario", "nope-not-here"])


class TestAnalytic:
    def test_fig2_ideal_predictions(self, tmp_path):
        out = tmp_path / "an"
        assert main(["analytic", "--scenario", "fig2-ideal", "--out", str(out)]) == 0
        text = (out / "analytic.csv").read_text()
        # unpolarized row reproduces the spin-filter density matrix:
        # pops 0.5/0.5 and per-channel <sigma_y> = +1 / -1
        lines = [l for l in text.splitlines() if l.startswith("unpolarized")]
        vals = lines[0].split(",")
        assert float(vals[1]) == pytest.approx(0.5, abs=1e-9)
        assert float(vals[2]) == pytest.approx(0.5, abs=1e-9)
        assert float(vals[3]) == pytest.approx(1.0, abs=1e-9)
        assert float(vals[4]) == pytest.approx(-1.0, abs=1e-9)

    def test_pure_input_prints_entropy_zero(self, capsys):
        # desk-mono's output is a product state; its entropy used to print as -0
        assert main(["analytic", "--scenario", "desk-mono"]) == 0
        rows = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        assert rows and all("-0" not in l.split(",") for l in rows)

    def test_stage_table_lists_areas(self, tmp_path):
        out = tmp_path / "an"
        main(["analytic", "--scenario", "fig2", "--out", str(out)])
        text = (out / "analytic.csv").read_text()
        assert "pulse_area_rad" in text
        rows = [l for l in text.splitlines() if l.startswith(("spin-splitter", "mirror"))]
        area = float(rows[0].split(",")[4])
        assert area == pytest.approx(np.pi / 2, rel=1e-6)


@pytest.mark.parametrize("argv", [
    ["analytic", "--backend", "effective"], ["analytic", "--dt", "5"],
    ["analytic", "--snapshot-every", "1"], ["analytic", "--grid-points", "64"],
    ["analytic", "--mode-halfwidth", "8"], ["analytic", "--format", "csv"],
    ["compare", "--format", "csv"],
], ids=lambda argv: " ".join(argv))
def test_commands_reject_flags_they_do_not_read(argv, capsys):
    # analytic propagates nothing, and compare writes no snapshot; each such
    # flag used to be parsed and ignored, and an ignored --format hid an
    # invalid outputs.format.  (compare --backend now abbreviates --backends.)
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--scenario", "desk-mono", *argv[1:]])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


class TestCompare:
    def test_toy_effective_vs_analytic(self, toy_path, tmp_path):
        out = tmp_path / "cmp"
        assert main(["compare", "--scenario", toy_path,
                     "--backends", "effective", "--out", str(out)]) == 0
        header, rows = read_csv_rows(out / "compare.csv")
        assert [r["backend"] for r in rows] == ["analytic", "effective"]
        for row in rows:
            assert float(row["pop_plus"]) == pytest.approx(0.5, abs=0.02)
        # deviations against the analytic prediction stay below 2%
        assert abs(float(rows[1]["dev_pop_plus"])) < 0.02
        assert abs(float(rows[1]["dev_pop_minus"])) < 0.02


class TestDesign:
    def test_stdout_table(self, capsys):
        assert main(["design"]) == 0
        out = capsys.readouterr().out
        assert "I1_W_cm2" in out
        i1 = float([l for l in out.splitlines() if l.startswith("I1_W_cm2")][0].split("=")[1])
        assert i1 == pytest.approx(7.6e19, rel=0.03)

    def test_files_written(self, tmp_path):
        out = tmp_path / "design"
        assert main(["design", "--dpy-rel", "0.01", "--dl-rel", "0.01",
                     "--out", str(out)]) == 0
        txt = (out / "design-report.txt").read_text()
        csv = (out / "design-report.csv").read_text()
        assert "dpz_over_pz" in txt and "dpz_over_pz" in csv
        row = csv.splitlines()[-1].split(",")
        head = csv.splitlines()[-2].split(",")
        table = dict(zip(head, row))
        assert float(table["dpz_over_pz"]) == pytest.approx(0.031, abs=5e-4)

    def test_determinism(self, tmp_path):
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        main(["design", "--out", str(out1)])
        main(["design", "--out", str(out2)])
        assert (out1 / "design-report.csv").read_bytes() == (
            out2 / "design-report.csv").read_bytes()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "spinsplit" in capsys.readouterr().out


def test_runs_as_a_module():
    # python -m spinsplit runs the CLI
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "spinsplit", "--version"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "spinsplit 0.1.0"
