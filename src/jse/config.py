"""Line-oriented experiment configuration files.

Grammar (one statement per line):

    # comment                      blank lines and '#' comments are ignored
    [section]                      one of SECTIONS
    key = value

Values are parsed by the target dataclass field type; lists (sweep methods,
x values) are comma-separated. Every ToyConfig, ExperimentConfig, JseConfig,
InlpConfig, RlaceConfig, OptimizerConfig and SweepSpec field is addressable.
A value the dataclass rejects (its range checks) is a ConfigError naming
section and key; an unknown section is one naming the file and line. Keys
before the first section are ignored.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from typing import Any

from .algorithm import JseConfig
from .baselines import InlpConfig, RlaceConfig
from .evaluate import METHODS, ExperimentConfig
from .sgd import OptimizerConfig
from .toy import ToyConfig


class ConfigError(ValueError):
    """Bad configuration file; the message names the line."""


# [optimizer] is shared by ERM, INLP, RLACE and the downstream fit; the
# dotted sections override it per method
SECTIONS = ("toy", "experiment", "jse", "inlp", "rlace", "optimizer", "sweep",
            "inlp.optimizer", "rlace.optimizer", "downstream.optimizer")


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
    sections: dict[str, dict[str, str]] = {}
    current = "global"  # keys before the first section land here, unused
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in SECTIONS:
                raise ConfigError(f"{path}:{lineno}: unknown section [{current}]; "
                                  f"expected one of {', '.join(SECTIONS)}")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value' or '[section]'")
        key, _, value = line.partition("=")
        sections.setdefault(current, {})[key.strip()] = value.strip()
    return sections


def _coerce(value: str, typ: Any, key: str, section: str) -> Any:
    try:
        if typ is bool:
            if value.lower() in ("true", "1", "yes"):
                return True
            if value.lower() in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {value!r}")
        if typ is int:
            return int(value)
        if typ is float:
            return float(value)
        return value
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc


def _apply(obj, section: str, values: dict[str, str]):
    """obj with every key replaced by its parsed value in one ``replace``, so
    fields checked against each other load in any order. A value the dataclass
    rejects is reported under its own key: the first key that fails when
    applied alone, else every key of the section."""
    fields = {f.name for f in dataclasses.fields(obj)}
    updates = {}
    for key, raw in values.items():
        if key not in fields:
            raise ConfigError(f"[{section}] unknown key {key!r}")
        current = getattr(obj, key)
        if key == "delta":
            updates[key] = "auto" if raw == "auto" else _coerce(raw, float, key, section)
        elif key == "max_dim" or key == "max_rounds" or key == "test_n":
            updates[key] = None if raw in ("none", "") else _coerce(raw, int, key, section)
        elif isinstance(current, list):  # comma-separated, typed like the default's items
            updates[key] = [_coerce(v.strip(), type(current[0]), key, section)
                            for v in raw.split(",") if v.strip()]
        else:
            typ = type(current) if current is not None else str
            if typ not in (bool, int, float, str):
                raise ConfigError(f"[{section}] {key}: unsupported nested assignment")
            updates[key] = _coerce(raw, typ, key, section)
    try:
        return replace(obj, **updates)
    except ValueError as exc:
        for key, value in updates.items():
            try:
                replace(obj, **{key: value})
            except ValueError as alone:
                raise ConfigError(f"[{section}] {key}: {alone}") from exc
        raise ConfigError(f"[{section}] {', '.join(updates)}: {exc}") from exc


def build_experiment(
    sections: dict[str, dict[str, str]], base: ExperimentConfig | None = None
) -> tuple[ExperimentConfig, SweepSpec]:
    """Assemble an ExperimentConfig plus sweep grid from parsed sections.

    The sweep's ``seeds`` and ``base_seed`` start from the experiment's (the
    ``base`` config, then ``[experiment]``); ``[sweep]`` overrides them.
    """
    cfg = base or ExperimentConfig(method="jse")
    if "toy" in sections:
        cfg = replace(cfg, toy=_apply(cfg.toy, "toy", sections["toy"]))
    if "experiment" in sections:
        cfg = _apply(cfg, "experiment", sections["experiment"])
    if "jse" in sections:
        cfg = replace(cfg, jse=_apply(cfg.jse, "jse", sections["jse"]))
    if "inlp" in sections:
        cfg = replace(cfg, inlp=_apply(cfg.inlp, "inlp", sections["inlp"]))
    if "rlace" in sections:
        cfg = replace(cfg, rlace=_apply(cfg.rlace, "rlace", sections["rlace"]))
    if "optimizer" in sections:
        opt = _apply(cfg.downstream, "optimizer", sections["optimizer"])
        cfg = replace(
            cfg,
            downstream=opt,
            inlp=replace(cfg.inlp, optimizer=opt),
            rlace=replace(cfg.rlace, optimizer=opt),
        )
    for name in ("inlp", "rlace", "downstream"):
        section = f"{name}.optimizer"
        if section in sections:
            if name == "downstream":
                cfg = replace(cfg, downstream=_apply(cfg.downstream, section, sections[section]))
            else:
                sub = getattr(cfg, name)
                sub = replace(sub, optimizer=_apply(sub.optimizer, section, sections[section]))
                cfg = replace(cfg, **{name: sub})

    sweep = SweepSpec(seeds=cfg.seeds, base_seed=cfg.base_seed)
    sweep = _apply(sweep, "sweep", sections.get("sweep", {}))
    cfg = replace(cfg, seeds=sweep.seeds, base_seed=sweep.base_seed)
    return cfg, sweep


def load_config(path: str, base: ExperimentConfig | None = None):
    with open(path, "r", encoding="utf-8") as fh:
        sections = parse_config_lines(fh.readlines(), path)
    return build_experiment(sections, base)
