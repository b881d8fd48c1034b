"""Line-oriented experiment configuration files.

Grammar (one statement per line):

    # comment                      blank lines and '#' comments are ignored
    [section]                      one of SECTIONS
    key = value

``TARGETS`` maps each section to the parts of ``ExperimentConfig`` its keys
set; ``[sweep]`` sets the ``SweepSpec``. A value is parsed by its field's type
hint: bool, int, float, str, ``T | None`` (``none``), ``float | str`` (a
number, else the text) or ``list[T]`` (comma-separated). An unknown key, a
value of the wrong type, non-finite or out of the dataclass's range, and a
key in ``RUN_INPUTS`` are ConfigErrors naming section and key; an unknown
section is one naming the file and line. Keys before the first section are
ignored. The lines are read by ``io_files.read_sections``, the artifact
reader's, and ``ConfigError`` is ``io_files.DataFormatError``.
"""

from __future__ import annotations

import functools
import math
import types
import typing
from dataclasses import dataclass, field, replace
from typing import Any

from .evaluate import METHODS, ExperimentConfig
from .io_files import DataFormatError, read_sections

ConfigError = DataFormatError


# section -> the attribute paths in ExperimentConfig its keys set, in the order
# the sections apply: [optimizer] sets its keys on both SGD configs, each
# keeping its other values, and the per-target sections after it win
TARGETS: dict[str, tuple[tuple[str, ...], ...]] = {
    "toy": (("toy",),),
    "experiment": ((),),
    "jse": (("jse",),),
    "inlp": (("inlp",),),
    "rlace": (("rlace",),),
    "optimizer": (("downstream",), ("inlp", "optimizer")),
    "inlp.optimizer": (("inlp", "optimizer"),),
    "downstream.optimizer": (("downstream",),),
}
SECTIONS = (*TARGETS, "sweep")

# fields that every run sets itself, so a configured value would be ignored
RUN_INPUTS = {
    ("toy", "seed"): "set by --seed or the sweep's derived run seeds, not by the config",
    ("experiment", "method"): "set by --method or [sweep] methods, not by the config",
}


@dataclass(frozen=True)
class SweepSpec:
    methods: list[str] = field(default_factory=lambda: ["jse"])
    x_name: str = "rho"
    x_values: list[float] = field(default_factory=lambda: [0.0])
    seeds: int = 100
    base_seed: int = 0

    def __post_init__(self) -> None:
        if not self.methods:
            raise ValueError("no methods given")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")
        if self.x_name not in ("rho", "n", "angle_deg"):
            raise ValueError("x_name must be rho, n or angle_deg")
        if self.seeds < 1:
            raise ValueError("seeds must be >= 1")


def parse_config_lines(lines: list[str], path: str = "<config>") -> dict[str, dict[str, str]]:
    _, body = read_sections(path, (raw.split("#", 1)[0] for raw in lines), SECTIONS)
    sections: dict[str, dict[str, str]] = {}
    for name, entries in body.items():
        values = sections[name] = {}
        for lineno, line in entries:
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value' or '[section]'")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return sections


_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _coerce(raw: str, typ: Any) -> Any:
    """``raw`` parsed as a value of type ``typ``; ValueError if it is not one."""
    args = typing.get_args(typ)
    if typing.get_origin(typ) is list:
        return [_coerce(v.strip(), args[0]) for v in raw.split(",") if v.strip()]
    if typing.get_origin(typ) in (typing.Union, types.UnionType):
        if type(None) in args and raw in ("none", ""):
            return None
        *first, last = (a for a in args if a is not type(None))
        for arm in first:  # float | str: a number if it parses as one
            try:
                return _coerce(raw, arm)
            except ValueError:
                pass
        return _coerce(raw, last)
    if typ is bool:
        if raw.lower() not in _BOOLS:
            raise ValueError(f"not a boolean: {raw!r}")
        return _BOOLS[raw.lower()]
    if typ is float and not math.isfinite(float(raw)):
        raise ValueError(f"non-finite value {float(raw)!r}")
    if typ in (int, float, str):
        return typ(raw)
    raise ValueError("not settable here; it has its own section")


def _apply(obj, section: str, values: dict[str, str]):
    """obj with every key replaced by its parsed value in one ``replace``, so
    fields checked against each other load in any order. A value the dataclass
    rejects is reported under its own key: the first key that fails when
    applied alone, else every key of the section."""
    types_ = typing.get_type_hints(type(obj))
    updates = {}
    for key, raw in values.items():
        if key not in types_:
            raise ConfigError(f"[{section}] unknown key {key!r}")
        if (section, key) in RUN_INPUTS:
            raise ConfigError(f"[{section}] {key}: {RUN_INPUTS[section, key]}")
        try:
            updates[key] = _coerce(raw, types_[key])
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from exc
    try:
        return replace(obj, **updates)
    except ValueError as exc:
        for key, value in updates.items():
            try:
                replace(obj, **{key: value})
            except ValueError as alone:
                raise ConfigError(f"[{section}] {key}: {alone}") from exc
        raise ConfigError(f"[{section}] {', '.join(updates)}: {exc}") from exc


def _set(obj, path: tuple[str, ...], value):
    """obj with the attribute at ``path`` replaced by ``value``."""
    if not path:
        return value
    return replace(obj, **{path[0]: _set(getattr(obj, path[0]), path[1:], value)})


def build_experiment(
    sections: dict[str, dict[str, str]], base: ExperimentConfig | None = None
) -> tuple[ExperimentConfig, SweepSpec]:
    """Assemble an ExperimentConfig plus sweep grid from parsed sections.

    The sweep's ``seeds`` and ``base_seed`` start from the experiment's (the
    ``base`` config, then ``[experiment]``); ``[sweep]`` overrides them. The
    ``[toy]`` field named by the sweep's ``x_name`` is set by each run's x
    value, so setting it in ``[toy]`` is an error, and an x value the
    ``ToyConfig`` rejects is one here.
    """
    cfg = base or ExperimentConfig(method="jse")
    for section, paths in TARGETS.items():
        if section in sections:
            for path in paths:
                sub = functools.reduce(getattr, path, cfg)
                cfg = _set(cfg, path, _apply(sub, section, sections[section]))

    sweep = SweepSpec(seeds=cfg.seeds, base_seed=cfg.base_seed)
    sweep = _apply(sweep, "sweep", sections.get("sweep", {}))
    if sweep.x_name in sections.get("toy", {}):
        raise ConfigError(f"[toy] {sweep.x_name}: set by the sweep's x values "
                          f"([sweep] x_name = {sweep.x_name}), not by the config")
    for x in sweep.x_values:  # each run sets its x value on the [toy] config
        try:
            replace(cfg.toy, **{sweep.x_name: x})
        except ValueError as exc:
            raise ConfigError(f"[sweep] x_values: {sweep.x_name} = {x}: {exc}") from exc
    cfg = replace(cfg, seeds=sweep.seeds, base_seed=sweep.base_seed)
    return cfg, sweep


def load_config(path: str, base: ExperimentConfig | None = None):
    with open(path, "r", encoding="utf-8") as fh:
        sections = parse_config_lines(fh.readlines(), path)
    return build_experiment(sections, base)
