import dataclasses
import functools
import importlib.util
import re
from pathlib import Path

import pytest

from jse.config import SECTIONS, TARGETS, ConfigError, SweepSpec, build_experiment, parse_config_lines
from jse.evaluate import ExperimentConfig

TOOL = Path(__file__).resolve().parents[1] / "tools" / "config_keys.py"
spec = importlib.util.spec_from_file_location("config_keys", TOOL)
config_keys = importlib.util.module_from_spec(spec)
spec.loader.exec_module(config_keys)

KEYS = config_keys.settable_keys()


def _owner(section: str):
    if section == "sweep":
        return SweepSpec()
    return functools.reduce(getattr, TARGETS[section], ExperimentConfig(method="jse"))


def _text(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, list):
        return ", ".join(map(str, value))
    return str(value)


def _load(section: str, key: str):
    """Build a config that sets ``key`` to its default; a [toy] key other
    than n is set under ``x_name = n``, since the x name's key is the sweep's."""
    value = _text(getattr(_owner(section), key))
    lines = [f"[{section}]", f"{key} = {value}"]
    if section == "toy" and key != "n":
        lines += ["[sweep]", "x_name = n", "x_values = 600"]
    return build_experiment(parse_config_lines(lines))


# every settable key, pinned: adding or removing one is a reviewed edit here
# (and of README's total)
OPTIMIZER_KEYS = ["learning_rate", "weight_decay", "batch_size", "max_epochs",
                  "early_stop_patience", "balance_sampling"]
PINNED = {
    "toy": ["n", "d", "rho", "gamma_sp", "gamma_mt", "angle_deg"],
    "experiment": ["test_n", "demean"],
    "jse": ["alpha", "delta", "max_dim", "transform_mode", "group_weighted_tests",
            "relative_test_scale"],
    "inlp": ["alpha", "group_weighted_test"],
    "rlace": ["rank", "max_iters", "stop_accuracy", "eval_every", "batch_size", "weight_decay"],
    "inlp.optimizer": OPTIMIZER_KEYS,
    "downstream.optimizer": OPTIMIZER_KEYS,
    "sweep": ["methods", "x_name", "x_values", "seeds", "base_seed"],
}


def test_sections_follow_the_loader():
    assert list(KEYS) == list(SECTIONS)
    assert KEYS == PINNED


@pytest.mark.parametrize("section,key", [(s, k) for s, keys in KEYS.items() for k in keys])
def test_every_counted_key_loads(section, key):
    _load(section, key)


@pytest.mark.parametrize("section,key", [
    (s, f.name) for s in SECTIONS for f in dataclasses.fields(_owner(s)) if f.name not in KEYS[s]
])
def test_every_other_field_is_rejected(section, key):
    """Fields holding a dataclass of their own and the run inputs are not counted,
    and the loader rejects them."""
    with pytest.raises(ConfigError, match=rf"^\[{section}\] "):
        _load(section, key)


def test_prints_sections_and_total(capsys):
    assert config_keys.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(SECTIONS) + 1
    assert lines[-1].split() == [str(sum(map(len, KEYS.values()))), "total"]
    assert lines[2].split()[:2] == ["6", "[jse]"]


def test_readme_states_the_total():
    readme = (TOOL.parents[1] / "README.md").read_text(encoding="utf-8")
    (stated,) = re.findall(r"and\s+their\s+total\s+\((\d+)\)", readme)
    assert int(stated) == sum(map(len, KEYS.values()))
