"""Scenario files: a small YAML schema covering the electron packet, the
ordered laser stages, propagation settings and output choices.

Unknown keys are rejected.  Validation failures raise ScenarioFileError
carrying the full list of problems, each with the line of the offending
entry (or of its enclosing mapping when the entry is missing).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np
import yaml

from .fields import BichromaticWave, Envelope, MonoStandingWave
from .propagation import BACKENDS, PacketSpec, PropagationConfig, Scenario
from .units import attoseconds_to_natural, fs_to_natural, nm_to_natural, um_to_natural

CONVENTIONS = ("traveling", "standing")

_TIME_UNITS = {"fs": fs_to_natural, "natural": lambda x: x}
_LENGTH_UNITS = {"um": um_to_natural, "nm": nm_to_natural, "natural": lambda x: x}

_TOP_KEYS = {"label", "units", "electron", "stages", "propagation", "duration", "outputs"}
_UNIT_KEYS = {"time", "length"}
_ELECTRON_KEYS = {"center", "width", "momentum", "spin"}
_STAGE_KEYS_COMMON = {"kind", "label", "photon_energy", "start", "rise", "plateau", "fall"}
_STAGE_KEYS_MONO = _STAGE_KEYS_COMMON | {"a0", "chi", "chi_pi"}
_STAGE_KEYS_BI = _STAGE_KEYS_COMMON | {"a1", "a2"}
_PROP_KEYS = {
    "backend", "dt", "snapshot_every", "grid_points", "grid_length",
    "mode_halfwidth", "mono_convention",
}
_OUTPUT_KEYS = {"format", "timeseries", "snapshots"}


class ScenarioFileError(ValueError):
    def __init__(self, path, errors):
        self.errors = list(errors)
        lines = "\n".join(f"  - {e}" for e in self.errors)
        super().__init__(f"invalid scenario {path}:\n{lines}")


@dataclass
class OutputSpec:
    format: str = "csv"
    timeseries: str = "timeseries.csv"
    snapshots: str = "snapshots"


def _node_lines(node, path: str, lines: dict) -> dict:
    """path ("stages[1].plateau") -> 1-based line, from the YAML node marks."""
    lines[path] = node.start_mark.line + 1
    if isinstance(node, yaml.MappingNode):
        for key, value in node.value:
            child = f"{path}.{key.value}" if path else str(key.value)
            _node_lines(value, child, lines)
            lines[child] = key.start_mark.line + 1
    elif isinstance(node, yaml.SequenceNode):
        for i, item in enumerate(node.value):
            _node_lines(item, f"{path}[{i}]", lines)
    return lines


class _Validator:
    def __init__(self, lines: dict):
        self.lines = lines
        self.errors: list[str] = []

    def _line_of(self, path: str) -> str:
        # top-level scalars are reported as "scenario.<key>"; a missing entry
        # is reported at the nearest enclosing node that exists
        path = path.removeprefix("scenario.")
        while path:
            if path in self.lines:
                return f"line {self.lines[path]}"
            path = path[:path.rindex("[")] if path.endswith("]") else path.rpartition(".")[0]
        return "line ?"

    def error(self, path: str, message: str):
        self.errors.append(f"{self._line_of(path)}: {path}: {message}")

    def check_keys(self, mapping: dict, allowed: set, path: str):
        for key in mapping:
            if key not in allowed:
                self.error(f"{path}.{key}", "unknown key")

    def number(self, mapping: dict, key: str, path: str, *, required=False,
               default=None, minimum=None, positive=False):
        if key not in mapping or mapping[key] is None:
            if required:
                self.error(f"{path}.{key}", "missing required field")
            return default
        value = mapping[key]
        if isinstance(value, str):
            # YAML 1.1 reads exponents like 2.35e4 as strings; accept them.
            try:
                value = float(value)
            except ValueError:
                self.error(f"{path}.{key}", f"expected a number, got {value!r}")
                return default
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            self.error(f"{path}.{key}", f"expected a number, got {value!r}")
            return default
        value = float(value)
        if not math.isfinite(value):
            self.error(f"{path}.{key}", f"must be finite, got {value}")
            return default
        if positive and value <= 0:
            self.error(f"{path}.{key}", f"must be positive, got {value}")
            return default
        if minimum is not None and value < minimum:
            self.error(f"{path}.{key}", f"must be >= {minimum}, got {value}")
            return default
        return value


def _parse_spin(raw, val: _Validator):
    if raw is None:
        return "up"
    if isinstance(raw, str):
        return raw
    if isinstance(raw, (list, tuple)) and len(raw) == 2:
        comps = []
        for item in raw:
            # a component is a real number or a [re, im] pair of them
            parts = item if isinstance(item, (list, tuple)) and len(item) == 2 else [item]
            if not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                       and math.isfinite(x) for x in parts):
                val.error("electron.spin", f"bad spin component {item!r}: expected a finite "
                                           "number or a [re, im] pair of them")
                return "up"
            comps.append(complex(*parts))
        return np.array(comps, dtype=complex)
    val.error("electron.spin", f"expected a name or two components, got {raw!r}")
    return "up"


def _build_stage(raw: dict, idx: int, to_time, convention: str, val: _Validator):
    path = f"stages[{idx}]"
    if not isinstance(raw, dict):
        val.error(path, "each stage must be a mapping")
        return None
    kind = raw.get("kind")
    if kind not in ("monochromatic", "bichromatic"):
        val.error(f"{path}.kind", f"must be monochromatic or bichromatic, got {kind!r}")
        return None
    allowed = _STAGE_KEYS_MONO if kind == "monochromatic" else _STAGE_KEYS_BI
    val.check_keys(raw, allowed, path)

    photon = val.number(raw, "photon_energy", path, required=True, positive=True)
    start = val.number(raw, "start", path, default=0.0, minimum=0.0)
    rise = val.number(raw, "rise", path, default=0.0, minimum=0.0)
    plateau = val.number(raw, "plateau", path, required=True, minimum=0.0)
    fall = val.number(raw, "fall", path, default=0.0, minimum=0.0)
    label = str(raw.get("label", f"stage-{idx}"))
    if photon is None or plateau is None:
        return None
    env = Envelope(rise=to_time(rise), plateau=to_time(plateau), fall=to_time(fall))

    if kind == "monochromatic":
        a0 = val.number(raw, "a0", path, required=True, minimum=0.0)
        if "chi" in raw and "chi_pi" in raw:
            val.error(f"{path}.chi", "give chi or chi_pi, not both")
        chi = val.number(raw, "chi", path, default=None)
        chi_pi = val.number(raw, "chi_pi", path, default=None)
        if chi is None:
            chi = np.pi * chi_pi if chi_pi is not None else 0.0
        if a0 is None:
            return None
        # Per-traveling-wave quotes mean the standing wave has amplitude 2 a0.
        standing = 2.0 * a0 if convention == "traveling" else a0
        return MonoStandingWave(ea0=standing, photon_energy=photon, chi=chi,
                                envelope=env, start=to_time(start), label=label)
    a1 = val.number(raw, "a1", path, required=True, minimum=0.0)
    a2 = val.number(raw, "a2", path, required=True, minimum=0.0)
    if a1 is None or a2 is None:
        return None
    return BichromaticWave(ea1=a1, ea2=a2, photon_energy=photon,
                           envelope=env, start=to_time(start), label=label)


def parse_scenario_text(text: str, path: str = "<string>", *,
                        convention: str | None = None, backend: str | None = None,
                        dt_as: float | None = None, snapshot_every_fs: float | None = None,
                        grid_points: int | None = None,
                        mode_halfwidth: int | None = None) -> tuple[Scenario, OutputSpec]:
    loader = yaml.SafeLoader(text)
    try:
        node = loader.get_single_node()
        raw = loader.construct_document(node) if node is not None else None
    except yaml.YAMLError as exc:
        raise ScenarioFileError(path, [f"YAML parse error: {exc}"]) from exc
    finally:
        loader.dispose()
    val = _Validator(_node_lines(node, "", {}) if node is not None else {})
    if not isinstance(raw, dict):
        raise ScenarioFileError(path, ["scenario must be a mapping"])

    val.check_keys(raw, _TOP_KEYS, "scenario")
    units = raw.get("units") or {}
    if not isinstance(units, dict):
        val.error("units", "must be a mapping")
        units = {}
    val.check_keys(units, _UNIT_KEYS, "units")
    time_unit = units.get("time", "fs")
    length_unit = units.get("length", "um")
    if time_unit not in _TIME_UNITS:
        val.error("units.time", f"unknown time unit {time_unit!r}")
        time_unit = "fs"
    if length_unit not in _LENGTH_UNITS:
        val.error("units.length", f"unknown length unit {length_unit!r}")
        length_unit = "um"
    to_time = _TIME_UNITS[time_unit]
    to_length = _LENGTH_UNITS[length_unit]

    electron = raw.get("electron")
    if not isinstance(electron, dict):
        val.error("electron", "missing or not a mapping")
        electron = {}
    val.check_keys(electron, _ELECTRON_KEYS, "electron")
    center = val.number(electron, "center", "electron", default=0.0)
    width = val.number(electron, "width", "electron", required=True, positive=True)
    momentum = val.number(electron, "momentum", "electron", default=0.0)
    spin = _parse_spin(electron.get("spin"), val)

    prop = raw.get("propagation") or {}
    if not isinstance(prop, dict):
        val.error("propagation", "must be a mapping")
        prop = {}
    val.check_keys(prop, _PROP_KEYS, "propagation")
    backend_name = backend or prop.get("backend", "full-field")
    if backend_name not in BACKENDS:
        val.error("propagation.backend", f"must be one of {BACKENDS}")
        backend_name = "full-field"
    convention_name = convention or prop.get("mono_convention", "traveling")
    if convention_name not in CONVENTIONS:
        val.error("propagation.mono_convention",
                  f"must be one of {CONVENTIONS}")
        convention_name = "traveling"
    dt_file = val.number(prop, "dt", "propagation", default=None, positive=True)
    snap_file = val.number(prop, "snapshot_every", "propagation", default=None, positive=True)
    points = grid_points if grid_points is not None else prop.get("grid_points", 16384)
    if not isinstance(points, int) or isinstance(points, bool) or points <= 0:
        val.error("propagation.grid_points", f"bad value {points!r}")
        points = 16384
    glen = val.number(prop, "grid_length", "propagation", default=None, positive=True)
    halfwidth = mode_halfwidth if mode_halfwidth is not None else prop.get("mode_halfwidth", 8)
    if not isinstance(halfwidth, int) or halfwidth < 4:
        val.error("propagation.mode_halfwidth",
                  f"must be an integer >= 4, got {halfwidth!r}")
        halfwidth = 8

    duration = val.number(raw, "duration", "scenario", required=True, positive=True)

    stages_raw = raw.get("stages", [])
    if stages_raw is None:
        stages_raw = []
    if not isinstance(stages_raw, list):
        val.error("stages", "must be a list")
        stages_raw = []
    stages = []
    for i, item in enumerate(stages_raw):
        st = _build_stage(item, i, to_time, convention_name, val)
        if st is not None:
            stages.append(st)

    outputs_raw = raw.get("outputs") or {}
    if not isinstance(outputs_raw, dict):
        val.error("outputs", "must be a mapping")
        outputs_raw = {}
    val.check_keys(outputs_raw, _OUTPUT_KEYS, "outputs")
    fmt = outputs_raw.get("format", "csv")
    if fmt not in ("csv", "binary"):
        val.error("outputs.format", f"must be csv or binary, got {fmt!r}")
        fmt = "csv"
    out_spec = OutputSpec(
        format=fmt,
        timeseries=str(outputs_raw.get("timeseries", "timeseries.csv")),
        snapshots=str(outputs_raw.get("snapshots", "snapshots")),
    )

    if val.errors:
        raise ScenarioFileError(path, val.errors)

    dt = attoseconds_to_natural(dt_as) if dt_as is not None else (
        to_time(dt_file) if dt_file is not None else None)
    snap = fs_to_natural(snapshot_every_fs) if snapshot_every_fs is not None else (
        to_time(snap_file) if snap_file is not None else None)
    try:
        config = PropagationConfig(
            backend=backend_name,
            dt=dt,
            snapshot_every=snap,
            mode_halfwidth=halfwidth,
            grid_points=points,
            grid_length=to_length(glen) if glen is not None else PropagationConfig.grid_length,
        )
        scenario = Scenario(
            packet=PacketSpec(center=to_length(center), width=to_length(width),
                              momentum=momentum, spin=spin),
            stages=stages,
            duration=to_time(duration),
            config=config,
            label=str(raw.get("label", "")),
            source_hash=hashlib.sha256(text.encode()).hexdigest(),
        )
        scenario.validate()
    except ValueError as exc:
        raise ScenarioFileError(path, [str(exc)]) from exc
    return scenario, out_spec


def bundled_scenario_path(name: str):
    base = name if name.endswith(".scenario") else f"{name}.scenario"
    return resources.files("spinsplit").joinpath("scenarios", base)


def bundled_scenario_names() -> list[str]:
    root = resources.files("spinsplit").joinpath("scenarios")
    return sorted(p.name.removesuffix(".scenario") for p in root.iterdir()
                  if p.name.endswith(".scenario"))


def load_scenario(name_or_path: str, **overrides) -> tuple[Scenario, OutputSpec]:
    """Load a scenario from a filesystem path or a bundled name like 'fig2'."""
    import os

    if os.path.exists(name_or_path):
        with open(name_or_path, "r", encoding="utf-8") as fh:
            text = fh.read()
        return parse_scenario_text(text, path=name_or_path, **overrides)
    candidate = bundled_scenario_path(name_or_path)
    if candidate.is_file():
        return parse_scenario_text(candidate.read_text(), path=str(candidate), **overrides)
    raise FileNotFoundError(
        f"no scenario file {name_or_path!r}; bundled: {bundled_scenario_names()}"
    )
