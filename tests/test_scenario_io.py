import numpy as np
import pytest

from spinsplit.fields import BichromaticWave, MonoStandingWave
from spinsplit.scenario import (
    ScenarioFileError,
    bundled_scenario_names,
    bundled_scenario_path,
    load_scenario,
    parse_scenario_text,
)
from spinsplit.units import fs_to_natural, um_to_natural

MINIMAL = """
label: toy
electron:
  width: 0.05
  momentum: 400.0
stages: []
duration: 100.0
propagation:
  backend: effective
  grid_points: 1024
  grid_length: 0.8
"""


class TestBundled:
    def test_names_present(self):
        names = bundled_scenario_names()
        for expected in ("fig2", "fig2-ideal", "mono-rabi", "bichrom-rabi",
                         "desk-mono", "desk-bichrom"):
            assert expected in names

    def test_fig2_matches_published_parameters(self):
        scn, _ = load_scenario("fig2")
        assert scn.packet.momentum == 400.0
        assert scn.packet.width == pytest.approx(um_to_natural(0.11), rel=1e-12)
        assert len(scn.stages) == 3
        s1, s2, s3 = scn.stages
        assert isinstance(s1, BichromaticWave)
        assert s1.ea1 == s1.ea2 == 2.35e4
        assert s1.photon_energy == 200.0
        assert s1.envelope.rise == pytest.approx(fs_to_natural(5.0), rel=1e-12)
        for s in (s2, s3):
            assert isinstance(s, MonoStandingWave)
            # per-traveling-wave convention: quoted 100 eV -> standing 200 eV
            assert s.ea0 == pytest.approx(200.0, rel=1e-12)
            assert s.chi == pytest.approx(-np.pi / 10, rel=1e-12)
        # quoted effective durations: 106 fs, 212 fs, 106 fs at full amplitude
        from spinsplit.propagation import stage_pulse_areas
        from spinsplit.units import natural_to_fs

        areas = stage_pulse_areas(scn.stages)
        assert natural_to_fs(areas[0][2]) == pytest.approx(106.3, abs=0.1)
        assert natural_to_fs(areas[1][2]) == pytest.approx(211.3, abs=0.1)
        assert areas[0][3] == pytest.approx(np.pi / 2, rel=1e-6)
        assert areas[1][3] == pytest.approx(np.pi, rel=1e-6)
        assert areas[2][3] == pytest.approx(np.pi / 2, rel=1e-6)

    def test_standing_convention_override(self):
        scn, _ = load_scenario("fig2", convention="standing")
        assert scn.stages[1].ea0 == pytest.approx(100.0, rel=1e-12)

    def test_all_bundled_parse(self):
        for name in bundled_scenario_names():
            scn, _ = load_scenario(name)
            assert scn.duration > 0


class TestParsing:
    def test_minimal_free_scenario(self):
        scn, out = parse_scenario_text(MINIMAL)
        assert scn.stages == []
        assert scn.duration == pytest.approx(fs_to_natural(100.0), rel=1e-12)
        assert out.format == "csv"

    def test_unknown_key_rejected(self):
        bad = MINIMAL + "\nwavelength: 3.0\n"
        with pytest.raises(ScenarioFileError) as err:
            parse_scenario_text(bad)
        assert "unknown key" in str(err.value)
        assert "wavelength" in str(err.value)

    def test_negative_duration_names_field_and_line(self):
        bad = MINIMAL.replace("duration: 100.0", "duration: -5.0")
        with pytest.raises(ScenarioFileError) as err:
            parse_scenario_text(bad)
        msg = str(err.value)
        assert "duration" in msg and "line" in msg

    def test_missing_width_reported(self):
        bad = MINIMAL.replace("  width: 0.05\n", "")
        with pytest.raises(ScenarioFileError) as err:
            parse_scenario_text(bad)
        assert "electron.width" in str(err.value)

    def test_negative_plateau_rejected(self):
        text = MINIMAL + """
"""
        text = MINIMAL.replace("stages: []", """stages:
  - kind: monochromatic
    a0: 100.0
    photon_energy: 200.0
    plateau: -3.0
""")
        with pytest.raises(ScenarioFileError) as err:
            parse_scenario_text(text)
        assert "plateau" in str(err.value)

    def test_error_reports_line_of_the_offending_stage(self):
        # fig2's second plateau is on line 31; the first, on line 22, is fine
        lines = bundled_scenario_path("fig2").read_text().splitlines(keepends=True)
        assert lines[30].strip().startswith("plateau:")
        lines[30] = "    plateau: -3.0\n"
        with pytest.raises(ScenarioFileError) as err:
            parse_scenario_text("".join(lines))
        assert err.value.errors == ["line 31: stages[1].plateau: must be >= 0.0, got -3.0"]

    @pytest.mark.parametrize("key,value,error", [
        ("plateau", ".nan", "stages[0].plateau: must be finite, got nan"),
        ("duration", ".nan", "scenario.duration: must be finite, got nan"),
        ("snapshot_every", "nan", "propagation.snapshot_every: must be finite, got nan"),
        ("a0", ".inf", "stages[0].a0: must be finite, got inf"),
        ("grid_points", "true", "propagation.grid_points: bad value True"),
    ], ids=["plateau", "duration", "snapshot_every", "a0", "grid_points"])
    def test_nonfinite_numbers_and_boolean_counts_rejected(self, key, value, error):
        # each used to parse: a nan plateau gave a stage that never acts, a
        # nan duration or snapshot_every failed later in the runner, an
        # infinite a0 failed mid-run, and true was read as 1 grid point
        lines = bundled_scenario_path("desk-mono").read_text().splitlines(keepends=True)
        (row,) = [i for i, line in enumerate(lines) if line.strip().startswith(f"{key}:")]
        lines[row] = f"{lines[row].split(':')[0]}: {value}\n"
        with pytest.raises(ScenarioFileError) as err:
            parse_scenario_text("".join(lines), backend="mode-lattice")
        assert err.value.errors == [f"line {row + 1}: {error}"]

    def test_zero_overrides_reach_the_checks(self):
        # a zero override used to fall back to the file's 4096 points and N = 8
        with pytest.raises(ScenarioFileError) as err:
            load_scenario("desk-mono", grid_points=0, mode_halfwidth=0)
        assert err.value.errors == [
            "line 28: propagation.grid_points: bad value 0",
            "line 30: propagation.mode_halfwidth: must be an integer >= 4, got 0",
        ]

    def test_chi_conflict_rejected(self):
        text = MINIMAL.replace("stages: []", """stages:
  - kind: monochromatic
    a0: 100.0
    photon_energy: 200.0
    plateau: 3.0
    chi: 0.1
    chi_pi: 0.5
""")
        with pytest.raises(ScenarioFileError) as err:
            parse_scenario_text(text)
        assert "chi" in str(err.value)

    def test_spin_components(self):
        text = MINIMAL.replace("  momentum: 400.0",
                               "  momentum: 400.0\n  spin: [[0.0, 0.0], [1.0, 0.0]]")
        scn, _ = parse_scenario_text(text)
        np.testing.assert_allclose(scn.packet.spin, [0.0, 1.0])

    @pytest.mark.parametrize("spin", ["[true, false]", "[.nan, 0]", "[[1, .inf], 0]"])
    def test_bad_spin_components_rejected(self, spin):
        # [true, false] used to run as spin up, and a non-finite component
        # stopped the run at t = 0 without a line
        text = MINIMAL.replace("  momentum: 400.0", f"  momentum: 400.0\n  spin: {spin}")
        with pytest.raises(ScenarioFileError) as err:
            parse_scenario_text(text)
        assert len(err.value.errors) == 1
        assert err.value.errors[0].startswith("line 6: electron.spin: bad spin component")

    def test_spin_name(self):
        text = MINIMAL.replace("  momentum: 400.0", "  momentum: 400.0\n  spin: y-")
        scn, _ = parse_scenario_text(text)
        np.testing.assert_allclose(scn.packet.spin, [1 / np.sqrt(2), -1j / np.sqrt(2)])

    def test_unknown_spin_name(self):
        text = MINIMAL.replace("  momentum: 400.0", "  momentum: 400.0\n  spin: sideways")
        with pytest.raises(ScenarioFileError):
            parse_scenario_text(text)

    def test_numeric_strings_accepted(self):
        # YAML 1.1 reads 2.35e4 as a string; the loader must still take it
        text = MINIMAL.replace("stages: []", """stages:
  - kind: bichromatic
    a1: 2.35e4
    a2: 2.35e4
    photon_energy: 200.0
    plateau: 3.0
""")
        scn, _ = parse_scenario_text(text)
        assert scn.stages[0].ea1 == 2.35e4

    def test_overlapping_same_kind_reported(self):
        text = MINIMAL.replace("stages: []", """stages:
  - kind: monochromatic
    a0: 100.0
    photon_energy: 200.0
    start: 1.0
    plateau: 50.0
  - kind: monochromatic
    a0: 100.0
    photon_energy: 200.0
    start: 20.0
    plateau: 50.0
""")
        with pytest.raises(ScenarioFileError) as err:
            parse_scenario_text(text)
        assert "overlap" in str(err.value)

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_scenario("no-such-scenario")

    def test_load_from_path(self, tmp_path):
        p = tmp_path / "toy.scenario"
        p.write_text(MINIMAL)
        scn, _ = load_scenario(str(p))
        assert scn.label == "toy"
        assert scn.source_hash != ""

    def test_parse_is_deterministic(self):
        a, _ = parse_scenario_text(MINIMAL)
        b, _ = parse_scenario_text(MINIMAL)
        assert a.source_hash == b.source_hash
        assert a.duration == b.duration
