import dataclasses
import functools
import os
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jse.config import (
    TARGETS,
    ConfigError,
    SweepSpec,
    build_experiment,
    load_config,
    parse_config_lines,
)
from jse.evaluate import ExperimentConfig
from jse.sgd import OptimizerConfig

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


GOOD = """
# benchmark grid
[toy]
n = 2000
d = 20
gamma_sp = 6
gamma_mt = 2

[jse]
alpha = 0.05
delta = auto
transform_mode = keep-mt

[inlp.optimizer]
learning_rate = 0.005

[optimizer]
learning_rate = 0.2
momentum = 0.5

[rlace]
rank = 2
stop_accuracy = 0.52
learning_rate = 0.05

[sweep]
methods = jse, erm, rlace
x_name = rho
x_values = 0.0, 0.5, 0.9
seeds = 7
base_seed = 11
"""


def test_parse_and_build():
    sections = parse_config_lines(GOOD.splitlines())
    cfg, sweep = build_experiment(sections)
    assert cfg.toy.n == 2000 and cfg.toy.gamma_sp == 6.0
    assert cfg.jse.delta == "auto"
    assert cfg.jse.transform_mode == "keep-mt"
    assert cfg.inlp.optimizer.learning_rate == 0.005  # overrides [optimizer]
    assert cfg.inlp.optimizer.momentum == 0.5  # [optimizer] propagates
    assert cfg.inlp.optimizer.balance_sampling == "none"  # and keeps INLP's own values
    assert cfg.downstream.learning_rate == 0.2 and cfg.downstream.momentum == 0.5
    assert cfg.downstream.balance_sampling == "class-balanced"
    assert cfg.rlace.rank == 2 and cfg.rlace.stop_accuracy == 0.52
    assert cfg.rlace.learning_rate == 0.05
    assert cfg.rlace.momentum == 0.9  # [optimizer] does not reach RLACE
    assert sweep.methods == ["jse", "erm", "rlace"]
    assert sweep.x_values == [0.0, 0.5, 0.9]
    assert cfg.seeds == 7 and cfg.base_seed == 11


def test_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        build_experiment(parse_config_lines(["[toy]", "banana = 3"]))


def test_bad_value_types():
    with pytest.raises(ConfigError, match="n:"):
        build_experiment(parse_config_lines(["[toy]", "n = lots"]))
    with pytest.raises(ConfigError, match="boolean"):
        build_experiment(parse_config_lines(["[jse]", "group_weighted_tests = maybe"]))


def test_missing_equals_names_line():
    with pytest.raises(ConfigError, match=":2:"):
        parse_config_lines(["[toy]", "what is this"])


def test_unknown_method_in_sweep():
    with pytest.raises(ConfigError, match="unknown method"):
        build_experiment(parse_config_lines(["[sweep]", "methods = jse, svm"]))


def test_bad_x_name():
    with pytest.raises(ConfigError, match="x_name"):
        build_experiment(parse_config_lines(["[sweep]", "x_name = moon_phase"]))


def test_comments_and_blanks_ignored():
    sections = parse_config_lines(["", "# note", "[toy]", "n = 100  # inline", ""])
    cfg, _ = build_experiment(sections)
    assert cfg.toy.n == 100


def test_load_config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(GOOD)
    cfg, sweep = load_config(str(path))
    assert cfg.toy.gamma_mt == 2.0
    assert sweep.seeds == 7


# (config text, line named in the error, text named): sections outside
# config.SECTIONS are rejected, not ignored, and a key given twice in its
# section is rejected, not overwritten (a repeated section continues the first)
BAD_SECTIONS = [
    ("[jse.optimizer]\nlearning_rate = 5\n", 1, "[jse.optimizer]"),  # the jse fits have no SGD
    ("[toy]\nn = 300\n[jse.optimiser]\nlearning_rate = 5\n", 3, "[jse.optimiser]"),
    ("# grid\n[bogus]\n", 2, "[bogus]"),
    ("[rlace.optimizer]\nlearning_rate = 0.005\n", 1, "[rlace.optimizer]"),  # keys in [rlace]
    ("[toy]\nn = 100\nn = 300\n", 3, "'n' repeats line 2"),
    ("[toy]\nn = 100\n[sweep]\nseeds = 1\n[toy]\nn = 300\n", 6, "'n' repeats line 2"),
]


@pytest.mark.parametrize("text,line,named", BAD_SECTIONS)
def test_unknown_section_exits_3_naming_file_and_line(tmp_path, capsys, text, line, named):
    from jse.cli import main

    path = tmp_path / "bad.cfg"
    path.write_text(text)
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "sweep"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:{line}: ") and named in err
    assert not (tmp_path / "out").exists()


# (config lines, --seed of the CLI, expected seeds, expected base_seed)
SEED_SOURCES = [
    (["[experiment]", "seeds = 3", "base_seed = 9"], 0, 3, 9),
    (["[experiment]", "seeds = 3", "base_seed = 9", "[sweep]", "seeds = 4", "base_seed = 2"],
     0, 4, 2),  # [sweep] wins
    (["[toy]", "n = 300"], 5, 100, 5),  # --seed reaches the sweep
    (["[sweep]", "base_seed = 7"], 5, 100, 7),
]


@pytest.mark.parametrize("lines,cli_seed,seeds,base_seed", SEED_SOURCES)
def test_sweep_seeds_follow_experiment_and_cli(lines, cli_seed, seeds, base_seed):
    from jse.evaluate import ExperimentConfig

    base = ExperimentConfig(method="jse", base_seed=cli_seed)
    cfg, sweep = build_experiment(parse_config_lines(lines), base)
    assert (sweep.seeds, sweep.base_seed) == (seeds, base_seed)
    assert (cfg.seeds, cfg.base_seed) == (seeds, base_seed)


def test_delta_numeric():
    cfg, _ = build_experiment(parse_config_lines(["[jse]", "delta = -0.25"]))
    assert cfg.jse.delta == -0.25


def test_max_dim_none():
    cfg, _ = build_experiment(parse_config_lines(["[jse]", "max_dim = none"]))
    assert cfg.jse.max_dim is None
    cfg, _ = build_experiment(parse_config_lines(["[jse]", "max_dim = 3"]))
    assert cfg.jse.max_dim == 3


@pytest.mark.parametrize("section,key", [
    ("jse", "max_dim"), ("inlp", "max_rounds"), ("experiment", "test_n"),
])
def test_optional_int_keys_name_section_and_key(section, key):
    with pytest.raises(ConfigError, match=rf"^\[{section}\] {key}: invalid literal for int"):
        build_experiment(parse_config_lines([f"[{section}]", f"{key} = abc"]))
    cfg, _ = build_experiment(parse_config_lines([f"[{section}]", f"{key} = none"]))
    sub = cfg if section == "experiment" else getattr(cfg, section)
    assert getattr(sub, key) is None


def test_bad_optional_int_exits_3(tmp_path, capsys):
    from jse.cli import main

    path = tmp_path / "bad.cfg"
    path.write_text("[jse]\nmax_dim = abc\n")
    assert main(["--config", str(path), "--out", str(tmp_path), "sweep"]) == 3
    assert "[jse] max_dim:" in capsys.readouterr().err


# (section, key, value, subcommand): values out of the field's range or of the
# wrong type; each must exit 3 naming section and key
BAD_VALUES = [
    ("inlp", "alpha", "1.5", "fit"),
    ("inlp", "alpha", "0", "fit"),
    ("inlp", "max_rounds", "0", "fit"),
    ("rlace", "eval_every", "0", "fit"),
    ("rlace", "max_iters", "0", "fit"),
    ("rlace", "stop_accuracy", "2", "fit"),
    ("rlace", "stop_accuracy", "0", "fit"),
    ("jse", "max_dim", "0", "fit"),
    ("jse", "max_dim", "-3", "fit"),
    ("jse", "delta", "nan", "fit"),
    ("jse", "delta", "-inf", "fit"),
    ("sweep", "seeds", "0", "sweep"),
    ("sweep", "seeds", "abc", "sweep"),
    ("sweep", "base_seed", "-3", "sweep"),  # SeedSequence takes no negative seed
    ("experiment", "seeds", "0", "sweep"),
    ("experiment", "base_seed", "-2", "sweep"),
    ("sweep", "methods", ",", "sweep"),
    ("sweep", "methods", "erm, erm", "sweep"),  # every cell would run twice
    ("sweep", "x_values", "", "sweep"),
    ("sweep", "x_values", "0.5, 0.5", "sweep"),
    ("sweep", "x_values", "0.0, -0.0", "sweep"),  # one micro-unit, so one data draw
    ("sweep", "x_values", "0.1, 0.1000001", "sweep"),
    ("sweep", "x_values", "0.5, high", "sweep"),
    ("sweep", "x_values", "0.0, 1.5", "sweep"),  # rho 1.5, checked at load
    ("toy", "n", "1", "sweep"),
    ("experiment", "test_n", "0", "sweep"),
    ("optimizer", "max_epochs", "3", "sweep"),  # below the default patience 5
    ("optimizer", "momentum", "1.5", "sweep"),
    ("downstream.optimizer", "momentum", "-0.1", "sweep"),
    ("inlp.optimizer", "batch_size", "0", "sweep"),
    ("rlace", "momentum", "1", "fit"),
    ("rlace", "learning_rate", "0", "fit"),
    ("rlace", "batch_size", "0", "fit"),
    ("rlace", "weight_decay", "-1", "fit"),
    ("rlace", "subspace_lr", "0", "fit"),
    ("toy", "gamma_sp", "nan", "sweep"),  # non-finite numbers: no range check catches them
    ("optimizer", "learning_rate", "nan", "sweep"),
    ("rlace", "learning_rate", "inf", "fit"),
]


@pytest.fixture(scope="module")
def small_toy(tmp_path_factory):
    from jse.cli import main

    out = tmp_path_factory.mktemp("toy")
    assert main(["--out", str(out), "gen-toy", "--n", "200", "--d", "6", "--rho", "0.8"]) == 0
    return out


@pytest.mark.parametrize("section,key,value,command", BAD_VALUES,
                         ids=lambda v: {",": "empty", "": "blank"}.get(v, str(v)))
def test_out_of_range_value_exits_3_naming_key(small_toy, tmp_path, capsys, section, key,
                                               value, command):
    from jse.cli import main

    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[{section}]\n{key} = {value}\n")
    out = tmp_path / "out"
    argv = ["--config", str(cfg), "--out", str(out), command]
    if command == "fit":
        argv += ["--method", section, "--train", str(small_toy / "toy_train.csv"),
                 "--val", str(small_toy / "toy_val.csv")]
    capsys.readouterr()
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: [{section}] {key}: ")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("lines", [
    ["max_epochs = 3", "early_stop_patience = 2"],
    ["early_stop_patience = 80", "max_epochs = 100"],
])
def test_dependent_keys_load_in_either_order(lines):
    cfg, _ = build_experiment(parse_config_lines(["[optimizer]", *lines]))
    expected = dict(line.split(" = ") for line in lines)
    for opt in (cfg.downstream, cfg.inlp.optimizer):
        assert opt.max_epochs == int(expected["max_epochs"])
        assert opt.early_stop_patience == int(expected["early_stop_patience"])


def test_keys_only_bad_together_are_all_named():
    # each is valid against the defaults (patience 5, max_epochs 50); together 10 > 8
    lines = ["[optimizer]", "early_stop_patience = 10", "max_epochs = 8"]
    with pytest.raises(ConfigError, match=r"^\[optimizer\] early_stop_patience, max_epochs: "
                                          r"early_stop_patience must be <= max_epochs"):
        build_experiment(parse_config_lines(lines))


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(OptimizerConfig)])
def test_optimizer_section_sets_only_its_own_keys(name):
    """[optimizer] <key> = <OptimizerConfig default> sets that key on the
    downstream and INLP configs and nothing else, so at every key but
    balance_sampling (the downstream default is class-balanced) the config is
    the one built without a file."""
    value = getattr(OptimizerConfig(), name)
    cfg, _ = build_experiment(parse_config_lines(["[optimizer]", f"{name} = {value}"]))
    base, _ = build_experiment({})
    assert cfg == replace(
        base,
        downstream=replace(base.downstream, **{name: value}),
        inlp=replace(base.inlp, optimizer=replace(base.inlp.optimizer, **{name: value})),
    )
    if name != "balance_sampling":
        assert cfg == base


# (section, key, value): keys a run would overwrite or never read; each exits
# 3 naming section and key
IGNORED_KEYS = [
    ("toy", "seed", "3"),  # set by --seed or the sweep's derived run seeds
    ("experiment", "method", "erm"),  # set by --method or [sweep] methods
    ("jse", "seed", "3"),
    ("jse", "estimate_mt_basis", "false"),  # removed: the mt basis is always estimated
    ("jse", "loop_order", "sp-inner"),  # removed: the inner loop always proposes main-task
    ("optimizer", "seed", "3"),
    ("inlp.optimizer", "seed", "3"),
    ("downstream.optimizer", "seed", "3"),
    ("optimizer", "early_stop_metric", "bce"),  # always validation accuracy
    ("toy", "rho", "0.5"),  # set by the sweep's x values (x_name defaults to rho)
]


@pytest.mark.parametrize("section,key,value", IGNORED_KEYS)
def test_ignored_key_exits_3_naming_it(tmp_path, capsys, section, key, value):
    from jse.cli import main

    path = tmp_path / "bad.cfg"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "sweep"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: [{section}] ") and key in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("x_name,key,value,ok", [
    ("n", "n", 300, False), ("angle_deg", "angle_deg", 60, False), ("n", "rho", 0.5, True),
])
def test_toy_key_named_by_x_name_is_rejected(x_name, key, value, ok):
    # x value 60 is in range for both n and angle_deg
    lines = ["[toy]", f"{key} = {value}", "[sweep]", f"x_name = {x_name}", "x_values = 60"]
    if ok:
        cfg, _ = build_experiment(parse_config_lines(lines))
        assert getattr(cfg.toy, key) == value
    else:
        with pytest.raises(ConfigError, match=rf"^\[toy\] {key}: set by the sweep's x values"):
            build_experiment(parse_config_lines(lines))


# (x_name, x values with one out of the ToyConfig's range, the message, the
# x values without it)
@pytest.mark.parametrize("x_name,bad,msg,good", [
    ("rho", "0.0, 1.5", "rho = 1.5: |rho| must be < 1", "0.0"),
    ("n", "1, 200", "n = 1.0: n must be >= 2, got 1.0", "200"),
    ("n", "200.5, 2.9", "n = 200.5: n must be an integer, got 200.5", "200"),
    ("angle_deg", "45, 0", "angle_deg = 0.0: angle_deg must be in (0, 90]", "45"),
], ids=["rho", "n", "n-fractional", "angle_deg"])
def test_x_values_are_checked_against_the_toy_config(x_name, bad, msg, good):
    lines = ["[sweep]", f"x_name = {x_name}"]
    with pytest.raises(ConfigError) as err:
        build_experiment(parse_config_lines([*lines, f"x_values = {bad}"]))
    assert str(err.value) == f"[sweep] x_values: {msg}"
    _, sweep = build_experiment(parse_config_lines([*lines, f"x_values = {good}"]))
    assert sweep.x_values == [float(good)]


def test_unknown_sweep_key():
    with pytest.raises(ConfigError, match=r"^\[sweep\] unknown key 'seed'"):
        build_experiment(parse_config_lines(["[sweep]", "seed = 3"]))


CONFIGS = sorted(
    os.path.join(CONFIG_DIR, name) for name in os.listdir(CONFIG_DIR) if name.endswith(".cfg")
)


# the grid each shipped config documents: (methods, x_name, x_values, and the
# attribute path and value of the setting it is named after)
SHIPPED_GRIDS = {
    "toy_angle75.cfg": (["jse", "erm", "inlp", "rlace"], "rho", [0.0, 0.3, 0.6, 0.9],
                        "toy.angle_deg", 75.0),
    "toy_benchmark.cfg": (["jse", "erm", "inlp", "rlace", "gw-erm"], "rho",
                          [i / 10 for i in range(10)], "toy.gamma_sp", 3.0),
    "toy_delta_auto.cfg": (["jse"], "rho", [0.0, 0.5, 0.8, 0.9], "jse.delta", "auto"),
    "toy_delta_zero.cfg": (["jse"], "rho", [0.0, 0.5, 0.8, 0.9], "jse.delta", 0.0),
    "toy_size_sweep.cfg": (["jse", "inlp"], "n", [500.0, 1000.0, 2000.0, 5000.0],
                           "test_n", None),
}


@pytest.mark.parametrize("path", CONFIGS, ids=os.path.basename)
def test_shipped_configs_load(path):
    """Each file under configs/ loads to the grid it documents, at 100 seeds."""
    cfg, sweep = load_config(path)
    methods, x_name, x_values, setting, value = SHIPPED_GRIDS[os.path.basename(path)]
    assert (sweep.methods, sweep.x_name, sweep.x_values) == (methods, x_name, x_values)
    assert sweep.seeds == cfg.seeds == 100 and sweep.base_seed == cfg.base_seed == 0
    assert functools.reduce(getattr, setting.split("."), cfg) == value


def _keys(obj) -> list[str]:
    return [f.name for f in dataclasses.fields(obj)]


# each section's keys: the fields of the dataclass it sets
_FIELDS = {section: _keys(functools.reduce(getattr, paths[0], ExperimentConfig("jse")))
           for section, paths in TARGETS.items()} | {"sweep": _keys(SweepSpec)}
_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"),
                max_size=12)
_VALUES = st.one_of(
    st.sampled_from(["0", "1", "-1", "0.5", "2", "20", "1e400", "-1e-400", "nan", "inf", "-inf",
                     "none", "", "true", "no", "auto", "rho", "n", "angle_deg", "jse", "erm",
                     "inlp, rlace", "0.0, 0.9", "sp-inner", "keep-mt", "se", "variance",
                     "class-balanced", "1, 2, x"]),
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    _TEXT,
)


@st.composite
def _config_lines(draw) -> list[str]:
    """Sections holding their own keys; about one choice in twenty draws an
    unknown section or key, or a line that is no statement."""
    def rarely(usual, odd):
        return draw(odd) if draw(st.sampled_from([False] * 19 + [True])) else usual

    lines = []
    for _ in range(draw(st.integers(0, 5))):
        section = draw(st.sampled_from(list(_FIELDS)))
        lines.append(f"[{rarely(section, _TEXT)}]")
        for _ in range(draw(st.integers(0, 4))):
            key = rarely(draw(st.sampled_from(_FIELDS[section])), _TEXT)
            lines.append(rarely(f"{key} = {draw(_VALUES)}", _TEXT))
    return lines


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_config_lines())
def test_config_parser_fuzz(lines):
    """Any text ends in an experiment config or a ConfigError, never another
    exception."""
    try:
        cfg, sweep = build_experiment(parse_config_lines(lines))
    except ConfigError:
        return
    assert cfg.seeds == sweep.seeds and cfg.base_seed == sweep.base_seed
