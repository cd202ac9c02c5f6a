"""Scenario files: a small YAML schema covering the electron packet, the
ordered laser stages, propagation settings and output choices.

Unknown keys and values of the wrong kind are rejected, each kind of value
by one reader of ``_Validator``.  Validation failures raise ScenarioFileError
carrying the full list of problems, each with the line of the offending
entry (or of its enclosing mapping when the entry is missing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import PurePath

import numpy as np
import yaml

from .fields import BichromaticWave, Envelope, MonoStandingWave
from .propagation import BACKENDS, PacketSpec, PropagationConfig, Scenario
from .states import PacketError, normalize_spin
from .units import fs_to_natural, nm_to_natural, um_to_natural

# CPython's built-in SHA-256, the module hashlib falls back on: hashlib itself
# loads OpenSSL's _hashlib, about 4 MB of resident memory for one header line
try:
    from _sha2 import sha256 as _sha256          # 3.12+
except ImportError:
    from _sha256 import sha256 as _sha256        # 3.10, 3.11

# the choices of the file, each with its default first
CONVENTIONS = ("traveling", "standing")     # the monochromatic amplitude conventions
FORMATS = ("csv", "binary")
FINAL_REPORT = "final-report.txt"    # simulate --out writes it beside the outputs named here
_STAGE_KINDS = (MonoStandingWave.kind, BichromaticWave.kind)

# per time unit: (a value in the unit -> in natural units, a value in fs -> in the unit)
_TIME_UNITS = {"fs": (fs_to_natural, lambda x: x), "natural": (lambda x: x, fs_to_natural)}
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
    format: str = FORMATS[0]
    timeseries: str = "timeseries.csv"
    snapshots: str = "snapshots"


def standing_amplitude(a0: float, convention: str) -> float:
    """Per-traveling-wave quotes mean the standing wave has amplitude 2 a0."""
    return 2.0 * a0 if convention == "traveling" else a0


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


def _as_number(value) -> float | None:
    """A YAML scalar as a float, or None if it is not a number.  YAML 1.1
    reads exponents like 2.35e4 as strings; those are accepted."""
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:   # an integer beyond the float range
            return math.inf
    return None


class _Validator:
    def __init__(self, lines: dict):
        self.lines = lines
        self.errors: list[str] = []
        self.outputs = {FINAL_REPORT: None}   # output name read so far -> the key giving it

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

    def mapping(self, parent: dict, key: str, allowed: set, **overrides) -> dict:
        """The section parent[key] with its keys checked ({} if absent or
        null, {} and one error if not a mapping), then each override that is
        not None in place of the file's value, so that it is read, and
        reported at the file's line, as that value would be."""
        section = parent.get(key)
        if section is not None and not isinstance(section, dict):
            self.error(key, "must be a mapping")
        section = section if isinstance(section, dict) else {}
        self.check_keys(section, allowed, key)
        return section | {name: value for name, value in overrides.items() if value is not None}

    def choice(self, mapping: dict, key: str, path: str, options: tuple, *, required=False):
        """One of options, options[0] if absent or null (None and an error if
        required).  A tuple compares, so a value of any kind is safe here."""
        value = mapping.get(key)
        if value in options:
            return value
        if value is not None or required:
            self.error(f"{path}.{key}", "missing required field" if value is None else
                       f"must be one of {', '.join(options)}, got {value!r}")
        return None if required else options[0]

    def text(self, mapping: dict, key: str, path: str, default: str) -> str:
        """A label: a string, or a number as str() writes it; default if
        absent or null."""
        value = mapping.get(key)
        if isinstance(value, (str, int, float)) and not isinstance(value, bool):
            return str(value)
        if value is not None:
            self.error(f"{path}.{key}", f"expected a string or number, got {value!r}")
        return default

    def file_name(self, mapping: dict, key: str, path: str, default: str) -> str:
        """A ``text`` naming a file under the output directory: neither empty,
        ".", absolute nor with a ".." part, and neither the same as, inside
        nor around an output name read before it (blamed on a key the file gave)."""
        name = self.text(mapping, key, path, default)
        parts = PurePath(name).parts
        if not parts or PurePath(name).is_absolute() or ".." in parts:
            self.error(f"{path}.{key}", f"must stay inside the output directory, got {name!r}")
            return default
        for other, given in self.outputs.items():
            if PurePath(name).is_relative_to(other) or PurePath(other).is_relative_to(name):
                at, msg = f"{path}.{key}", f"overlaps the output {other!r}, got {name!r}"
                if mapping.get(key) is None and given:  # this key took its default
                    at, msg = given, f"overlaps the default output {name!r} of {at}, got {other!r}"
                self.error(at, msg)
                return default
        self.outputs[name] = f"{path}.{key}"
        return name

    def number(self, mapping: dict, key: str, path: str, *, required=False,
               default=None, minimum=None, positive=False):
        if key not in mapping or mapping[key] is None:
            if required:
                self.error(f"{path}.{key}", "missing required field")
            return default
        value = _as_number(mapping[key])
        if value is None:
            self.error(f"{path}.{key}", f"expected a number, got {mapping[key]!r}")
            return default
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

    def integer(self, mapping: dict, key: str, path: str, default: int, minimum: int, *,
                power_of_two=False) -> int:
        """An integer >= minimum, and a power of two if asked; default if
        absent or null."""
        value = mapping.get(key)
        if value is None:
            return default
        if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
            self.error(f"{path}.{key}", f"must be an integer >= {minimum}, got {value!r}")
            return default
        if power_of_two and value & (value - 1):
            self.error(f"{path}.{key}", f"must be a power of two, got {value}")
            return default
        return value


def _parse_spin(raw, val: _Validator):
    if raw is None:
        return "up"
    if isinstance(raw, str):
        spin = raw
    elif isinstance(raw, (list, tuple)) and len(raw) == 2:
        comps = []
        for item in raw:
            # a component is a real number or a [re, im] pair of them
            parts = item if isinstance(item, (list, tuple)) and len(item) == 2 else [item]
            numbers = [_as_number(x) for x in parts]
            if not all(x is not None and math.isfinite(x) for x in numbers):
                val.error("electron.spin", f"bad spin component {item!r}: expected a finite "
                                           "number or a [re, im] pair of them")
                return "up"
            comps.append(complex(*numbers))
        spin = np.array(comps, dtype=complex)
    else:
        val.error("electron.spin", f"expected a name or two components, got {raw!r}")
        return "up"
    try:
        normalize_spin(spin)   # checked here for the line; PacketSpec normalizes
    except PacketError as exc:
        val.error("electron.spin", str(exc))
        return "up"
    return spin


def _build_stage(raw: dict, idx: int, to_time, convention: str, val: _Validator):
    path = f"stages[{idx}]"
    if not isinstance(raw, dict):
        val.error(path, "each stage must be a mapping")
        return None
    kind = val.choice(raw, "kind", path, _STAGE_KINDS, required=True)
    if kind is None:
        return None
    allowed = _STAGE_KEYS_MONO if kind == MonoStandingWave.kind else _STAGE_KEYS_BI
    val.check_keys(raw, allowed, path)

    photon = val.number(raw, "photon_energy", path, required=True, positive=True)
    start = val.number(raw, "start", path, default=0.0, minimum=0.0)
    rise = val.number(raw, "rise", path, default=0.0, minimum=0.0)
    plateau = val.number(raw, "plateau", path, required=True, minimum=0.0)
    fall = val.number(raw, "fall", path, default=0.0, minimum=0.0)
    label = val.text(raw, "label", path, f"stage-{idx}")
    if photon is None or plateau is None:
        return None
    env = Envelope(rise=to_time(rise), plateau=to_time(plateau), fall=to_time(fall))

    if kind == MonoStandingWave.kind:
        a0 = val.number(raw, "a0", path, required=True, minimum=0.0)
        chi = val.number(raw, "chi", path, default=None)
        chi_pi = val.number(raw, "chi_pi", path, default=None)
        if chi is not None and chi_pi is not None:
            val.error(f"{path}.chi", "give chi or chi_pi, not both")
        if chi is None:
            chi = np.pi * chi_pi if chi_pi is not None else 0.0
        if a0 is None:
            return None
        return MonoStandingWave(ea0=standing_amplitude(a0, convention), photon_energy=photon,
                                chi=chi, envelope=env, start=to_time(start), label=label)
    a1 = val.number(raw, "a1", path, required=True, minimum=0.0)
    a2 = val.number(raw, "a2", path, required=True, minimum=0.0)
    if a1 is None or a2 is None:
        return None
    return BichromaticWave(ea1=a1, ea2=a2, photon_energy=photon,
                           envelope=env, start=to_time(start), label=label)


def parse_scenario_text(text: str, path: str = "<string>", *,
                        convention: str | None = None, backend: str | None = None,
                        dt_as: float | None = None, snapshot_every_fs: float | None = None,
                        grid_points: int | None = None, mode_halfwidth: int | None = None,
                        fmt: str | None = None) -> tuple[Scenario, OutputSpec]:
    # libyaml's parser where PyYAML has it: the same nodes and marks, parsed in C
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)(text)
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
    units = val.mapping(raw, "units", _UNIT_KEYS)
    to_time, from_fs = _TIME_UNITS[val.choice(units, "time", "units", tuple(_TIME_UNITS))]
    to_length = _LENGTH_UNITS[val.choice(units, "length", "units", tuple(_LENGTH_UNITS))]

    electron = val.mapping(raw, "electron", _ELECTRON_KEYS)
    center = val.number(electron, "center", "electron", default=0.0)
    width = val.number(electron, "width", "electron", required=True, positive=True)
    momentum = val.number(electron, "momentum", "electron", default=0.0)
    spin = _parse_spin(electron.get("spin"), val)

    prop = val.mapping(raw, "propagation", _PROP_KEYS, backend=backend,
                       mono_convention=convention, grid_points=grid_points,
                       mode_halfwidth=mode_halfwidth,
                       dt=None if dt_as is None else from_fs(dt_as * 1e-3),
                       snapshot_every=None if snapshot_every_fs is None
                       else from_fs(snapshot_every_fs))
    default = PropagationConfig()
    backend_name = val.choice(prop, "backend", "propagation", BACKENDS)
    convention_name = val.choice(prop, "mono_convention", "propagation", CONVENTIONS)
    dt = val.number(prop, "dt", "propagation", default=None, positive=True)
    snap = val.number(prop, "snapshot_every", "propagation", default=None, positive=True)
    points = val.integer(prop, "grid_points", "propagation", default.grid_points, 1,
                         power_of_two=True)
    glen = val.number(prop, "grid_length", "propagation", default=None, positive=True)
    halfwidth = val.integer(prop, "mode_halfwidth", "propagation", default.mode_halfwidth, 4)

    duration = val.number(raw, "duration", "scenario", required=True, positive=True)

    stages_raw = raw.get("stages")
    if stages_raw is not None and not isinstance(stages_raw, list):
        val.error("stages", "must be a list")
    built = [_build_stage(item, i, to_time, convention_name, val)
             for i, item in enumerate(stages_raw if isinstance(stages_raw, list) else [])]
    stages = [st for st in built if st is not None]

    outputs = val.mapping(raw, "outputs", _OUTPUT_KEYS, format=fmt)
    out_spec = OutputSpec(
        format=val.choice(outputs, "format", "outputs", FORMATS),
        timeseries=val.file_name(outputs, "timeseries", "outputs", OutputSpec.timeseries),
        snapshots=val.file_name(outputs, "snapshots", "outputs", OutputSpec.snapshots),
    )
    label = val.text(raw, "label", "scenario", "")

    if val.errors:
        raise ScenarioFileError(path, val.errors)

    try:
        config = PropagationConfig(
            backend=backend_name,
            dt=to_time(dt) if dt is not None else None,
            snapshot_every=to_time(snap) if snap is not None else None,
            mode_halfwidth=halfwidth,
            grid_points=points,
            grid_length=to_length(glen) if glen is not None else default.grid_length,
        )
        scenario = Scenario(
            packet=PacketSpec(center=to_length(center), width=to_length(width),
                              momentum=momentum, spin=spin),
            stages=stages,
            duration=to_time(duration),
            config=config,
            label=label,
            source_hash=_sha256(text.encode()).hexdigest(),
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

    # a file only: a directory of a bundled scenario's name must not hide it
    if os.path.isfile(name_or_path):
        with open(name_or_path, "r", encoding="utf-8") as fh:
            text = fh.read()
        return parse_scenario_text(text, path=name_or_path, **overrides)
    candidate = bundled_scenario_path(name_or_path)
    if candidate.is_file():
        return parse_scenario_text(candidate.read_text(), path=str(candidate), **overrides)
    raise FileNotFoundError(
        f"no scenario file {name_or_path!r}; bundled: {bundled_scenario_names()}"
    )
