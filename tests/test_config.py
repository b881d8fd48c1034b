import pytest

from jse.config import ConfigError, build_experiment, load_config, parse_config_lines


GOOD = """
# benchmark grid
[toy]
n = 2000
d = 20
rho = 0.8
gamma_sp = 6
gamma_mt = 2

[jse]
alpha = 0.05
delta = auto
loop_order = sp-inner

[jse.optimizer]
learning_rate = 0.005
seed = 3

[optimizer]
learning_rate = 0.1
balance_sampling = class-balanced

[rlace]
rank = 2
stop_accuracy = 0.52

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
    assert cfg.jse.loop_order == "sp-inner"
    assert cfg.jse.optimizer.learning_rate == 0.005
    assert cfg.jse.optimizer.seed == 3
    assert cfg.downstream.learning_rate == 0.1
    assert cfg.downstream.balance_sampling == "class-balanced"
    assert cfg.inlp.optimizer.learning_rate == 0.1  # [optimizer] propagates
    assert cfg.rlace.rank == 2 and cfg.rlace.stop_accuracy == 0.52
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
    assert cfg.toy.rho == 0.8
    assert sweep.seeds == 7


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
