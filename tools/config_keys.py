"""Count the keys a config file can set: per section, then their total.

A section's keys are the fields of the dataclass ``config.TARGETS`` names
for it, less the fields that hold a dataclass of their own (those have
their own section) and less ``config.RUN_INPUTS`` (set by each run, so the
loader rejects them). ``[sweep]`` sets the fields of ``config.SweepSpec``.
The ``[toy]`` key that ``[sweep] x_name`` names counts: another x name
leaves it settable. Prints one line per section, its key count and its
keys, then the total. It imports ``jse`` from ``src/`` of the same checkout:

    python tools/config_keys.py
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import typing
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from jse.config import RUN_INPUTS, TARGETS, SweepSpec  # noqa: E402
from jse.evaluate import ExperimentConfig  # noqa: E402


def settable_keys() -> dict[str, list[str]]:
    """Section -> the keys a config file can set in it, in field order."""
    base = ExperimentConfig(method="jse")
    owners = {section: type(functools.reduce(getattr, path, base))
              for section, path in TARGETS.items()} | {"sweep": SweepSpec}
    keys = {}
    for section, owner in owners.items():
        hints = typing.get_type_hints(owner)
        keys[section] = [f.name for f in dataclasses.fields(owner)
                         if not dataclasses.is_dataclass(hints[f.name])
                         and (section, f.name) not in RUN_INPUTS]
    return keys


def main(argv: list[str]) -> int:
    if argv:
        print("usage: python tools/config_keys.py", file=sys.stderr)
        return 2
    keys = settable_keys()
    for section, names in keys.items():
        print(f"{len(names):6d}  [{section}] {' '.join(names)}")
    print(f"{sum(map(len, keys.values())):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
