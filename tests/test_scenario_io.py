import hashlib

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spinsplit.fields import BichromaticWave, MonoStandingWave
from spinsplit import scenario as scenario_module
from spinsplit.scenario import (
    ScenarioFileError,
    bundled_scenario_names,
    bundled_scenario_path,
    load_scenario,
    parse_scenario_text,
)
from spinsplit.states import normalize_spin
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

# fig2 with an outputs mapping: a file with every level of mapping
FULL = bundled_scenario_path("fig2").read_text() + "outputs:\n  format: csv\n"
KNOWN_KEYS = set().union(*(getattr(scenario_module, name) for name in (
    "_TOP_KEYS", "_UNIT_KEYS", "_ELECTRON_KEYS", "_STAGE_KEYS_MONO", "_STAGE_KEYS_BI",
    "_PROP_KEYS", "_OUTPUT_KEYS")))


def _key_slots(text: str) -> dict:
    """Mapping path -> (indent, 0-based rows of its keys) for every block
    mapping of the file, top level included, where a new key can go on a row
    of its own right before the key of that row: the key starts its row (so
    not the first key of a list item)."""
    rows = text.splitlines()
    slots = {}

    def visit(node, path):
        if isinstance(node, yaml.MappingNode):
            keys = [k.start_mark for k, _ in node.value]
            free = [m.line for m in keys if not rows[m.line][:m.column].strip()]
            slots[path or "scenario"] = (keys[-1].column, free)
            for key, value in node.value:
                visit(value, f"{path}.{key.value}" if path else key.value)
        elif isinstance(node, yaml.SequenceNode):
            for i, item in enumerate(node.value):
                visit(item, f"{path}[{i}]")

    visit(yaml.compose(text), "")
    return slots


FULL_SLOTS = _key_slots(FULL)


@pytest.fixture(params=["libyaml", "pure-python"])
def yaml_parser(request, monkeypatch):
    """Each input parsed twice: by libyaml, where PyYAML has it, and by the
    pure-Python parser that stands in where it does not."""
    if request.param == "pure-python":
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)


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

    @pytest.mark.parametrize("path", ["scenario", "units", "electron", "stages[0]", "stages[1]",
                                      "stages[2]", "propagation", "outputs"])
    @settings(derandomize=True, database=None, deadline=None, max_examples=25)
    @given(key=st.from_regex(r"[a-z][a-z0-9_]{0,11}", fullmatch=True).filter(
               lambda k: k not in KNOWN_KEYS and yaml.safe_load(k) == k),
           value=st.sampled_from(["1", "2.5e3", "x", "[1, 2]", "{a: 1}", "null"]),
           choice=st.integers(0, 20))
    def test_unknown_key_reported_at_its_own_line(self, path, key, value, choice):
        # a key no mapping knows, put before any key of the mapping at path
        indent, rows = FULL_SLOTS[path]
        row = rows[choice % len(rows)]
        lines = FULL.splitlines(keepends=True)
        lines.insert(row, f"{' ' * indent}{key}: {value}\n")
        with pytest.raises(ScenarioFileError) as err:
            parse_scenario_text("".join(lines))
        assert err.value.errors == [f"line {row + 1}: {path}.{key}: unknown key"]

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

    @pytest.mark.usefixtures("yaml_parser")
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
        ("a0", "1" + "0" * 400, "stages[0].a0: must be finite, got inf"),
        ("grid_points", "true", "propagation.grid_points: must be an integer >= 1, got True"),
        ("grid_points", "3000", "propagation.grid_points: must be a power of two, got 3000"),
    ], ids=["plateau", "duration", "snapshot_every", "a0", "a0-int", "grid_points",
            "grid_points-3000"])
    def test_nonfinite_numbers_and_boolean_counts_rejected(self, key, value, error):
        # each used to parse: a nan plateau gave a stage that never acts, a
        # nan duration or snapshot_every failed later in the runner, an
        # infinite a0 failed mid-run, true was read as 1 grid point, 3000
        # grid points failed later in the grid constructor without a line,
        # and an integer beyond the float range raised OverflowError without
        # a line
        lines = bundled_scenario_path("desk-mono").read_text().splitlines(keepends=True)
        (row,) = [i for i, line in enumerate(lines) if line.strip().startswith(f"{key}:")]
        lines[row] = f"{lines[row].split(':')[0]}: {value}\n"
        with pytest.raises(ScenarioFileError) as err:
            parse_scenario_text("".join(lines), backend="mode-lattice")
        assert err.value.errors == [f"line {row + 1}: {error}"]

    @pytest.mark.usefixtures("yaml_parser")
    def test_zero_overrides_reach_the_checks(self):
        # a zero override used to fall back to the file's 4096 points and N = 8
        with pytest.raises(ScenarioFileError) as err:
            load_scenario("desk-mono", grid_points=0, mode_halfwidth=0)
        assert err.value.errors == [
            "line 28: propagation.grid_points: must be an integer >= 1, got 0",
            "line 30: propagation.mode_halfwidth: must be an integer >= 4, got 0",
        ]

    def test_null_counts_take_the_defaults(self):
        # null used to be rejected as "bad value None" and "got None"
        scn, _ = parse_scenario_text(MINIMAL.replace("grid_points: 1024", "grid_points: null")
                                     + "  mode_halfwidth: null\n")
        assert (scn.config.grid_points, scn.config.mode_halfwidth) == (16384, 8)

    @pytest.mark.parametrize("units", ["fs", "natural"])
    def test_step_overrides_replace_a_bad_file_value(self, units):
        # the command line's dt and cadence replace the file's before the
        # reader runs, as every other override does
        text = (MINIMAL.replace("label: toy", f"label: toy\nunits: {{time: {units}}}")
                + "  dt: -1.0\n  snapshot_every: .nan\n")
        scn, _ = parse_scenario_text(text, dt_as=5.0, snapshot_every_fs=2.5)
        assert scn.config.dt == fs_to_natural(0.005)
        assert scn.config.snapshot_every == fs_to_natural(2.5)

    @pytest.mark.parametrize("units, got", [("fs", "-0.005"), ("natural", "-0.00759")])
    def test_bad_step_overrides_reported_at_the_file_line(self, units, got):
        # --dt -5 used to fail after the reader, without a line; it is read
        # in the units of the file, at the line of the value it replaces
        text = (MINIMAL.replace("label: toy", f"label: toy\nunits: {{time: {units}}}")
                + "  dt: 1.0\n")
        rows = text.splitlines()
        with pytest.raises(ScenarioFileError) as err:
            parse_scenario_text(text, dt_as=-5.0, snapshot_every_fs=0.0)
        dt, snap = err.value.errors
        assert dt.startswith(f"line {rows.index('  dt: 1.0') + 1}: propagation.dt: "
                             f"must be positive, got {got}")
        # a key the file lacks is reported at its section's line
        assert snap == (f"line {rows.index('propagation:') + 1}: "
                        "propagation.snapshot_every: must be positive, got 0.0")

    @pytest.mark.parametrize("name", ["../escaped.csv", "/tmp/escaped", "runs/../../up"])
    @pytest.mark.parametrize("key", ["timeseries", "snapshots"])
    def test_output_names_leaving_the_output_directory_rejected(self, key, name):
        # the CLI joins these names to --out: a ".." part used to write beside
        # it, and an absolute name replaced it
        text = MINIMAL + f"outputs:\n  {key}: {name}\n"
        with pytest.raises(ScenarioFileError) as err:
            parse_scenario_text(text)
        line = text.splitlines().index(f"  {key}: {name}") + 1
        assert err.value.errors == [f"line {line}: outputs.{key}: must stay inside the "
                                    f"output directory, got {name!r}"]

    def test_plain_output_names_accepted(self):
        _, out = parse_scenario_text(
            MINIMAL + "outputs: {timeseries: runs/series.csv, snapshots: snaps..old}\n")
        assert (out.timeseries, out.snapshots) == ("runs/series.csv", "snaps..old")

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

    @pytest.mark.usefixtures("yaml_parser")
    @pytest.mark.parametrize("spin, message", [
        ("sideways", "unknown spin label 'sideways'; known: "
                     "['down', 'up', 'x+', 'x-', 'y+', 'y-']"),
        ("[0, 0]", "spin vector must be nonzero"),
        ("[[0, 0.0], 0e3]", "spin vector must be nonzero"),
    ])
    def test_invalid_spin_reported_with_line(self, spin, message):
        # both used to surface from PacketSpec, outside the validator, without a line
        text = MINIMAL.replace("  momentum: 400.0", f"  momentum: 400.0\n  spin: {spin}")
        with pytest.raises(ScenarioFileError) as err:
            parse_scenario_text(text)
        assert err.value.errors == [f"line 6: electron.spin: {message}"]

    @settings(derandomize=True, database=None, deadline=None)
    @given(x=st.floats(allow_nan=False, allow_infinity=False),
           y=st.floats(allow_nan=False, allow_infinity=False))
    def test_exponent_string_spin_components(self, x, y):
        # "%e" (1.234560e-05) is a YAML 1.1 float; the same digits without the
        # point (1234560e-11) are a string to YAML, and must parse the same
        def bare(value):
            mantissa, exponent = ("%e" % value).split("e")
            return f"{mantissa.replace('.', '')}e{int(exponent) - 6}"

        def spinor(a, b):
            text = MINIMAL.replace("  momentum: 400.0",
                                   f"  momentum: 400.0\n  spin: [{a}, [0, {b}]]")
            return parse_scenario_text(text)[0].packet.spin

        assume(float("%e" % x) != 0.0 or float("%e" % y) != 0.0)
        assert isinstance(yaml.safe_load(bare(x)), str)
        a, b = float("%e" % x), float("%e" % y)
        want = normalize_spin([a, complex(0.0, b)])
        np.testing.assert_array_equal(spinor("%e" % x, "%e" % y), want)
        np.testing.assert_array_equal(spinor(bare(x), bare(y)), want)

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

    def test_same_kind_overlap_across_another_stage_reported(self):
        # the two standing waves overlap on [50, 60] fs although a
        # bichromatic stage lies between them in the list
        text = MINIMAL.replace("stages: []", """stages:
  - {kind: monochromatic, label: first, a0: 100.0, photon_energy: 200.0, plateau: 100.0}
  - {kind: bichromatic, label: middle, a1: 2.35e4, a2: 2.35e4, photon_energy: 200.0,
     start: 10.0, plateau: 10.0}
  - {kind: monochromatic, label: last, a0: 100.0, photon_energy: 200.0, start: 50.0,
     plateau: 10.0}
""")
        with pytest.raises(ScenarioFileError) as err:
            parse_scenario_text(text)
        assert "stages 'first' and 'last' of kind monochromatic overlap in time" in str(err.value)

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_scenario("no-such-scenario")

    def test_directory_does_not_hide_a_bundled_name(self, tmp_path, monkeypatch):
        # a directory named desk-mono used to be opened as the scenario file
        # ("Is a directory"); a directory of no bundled name is still not found
        monkeypatch.chdir(tmp_path)
        (tmp_path / "desk-mono").mkdir()
        (tmp_path / "no-such-scenario").mkdir()
        scn, _ = load_scenario("desk-mono")
        text = bundled_scenario_path("desk-mono").read_text()
        assert scn.source_hash == hashlib.sha256(text.encode()).hexdigest()
        with pytest.raises(FileNotFoundError, match="no scenario file 'no-such-scenario'"):
            load_scenario("no-such-scenario")

    def test_load_from_path(self, tmp_path):
        p = tmp_path / "toy.scenario"
        p.write_text(MINIMAL)
        scn, _ = load_scenario(str(p))
        assert scn.label == "toy"
        assert scn.source_hash != ""

    def test_source_hash_is_the_sha256_of_the_text(self):
        scn, _ = parse_scenario_text(MINIMAL)
        assert scn.source_hash == hashlib.sha256(MINIMAL.encode()).hexdigest()

    def test_parse_is_deterministic(self):
        a, _ = parse_scenario_text(MINIMAL)
        b, _ = parse_scenario_text(MINIMAL)
        assert a.source_hash == b.source_hash
        assert a.duration == b.duration
