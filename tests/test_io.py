import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from jse.cli import main
from jse.data import LabeledEmbeddings
from jse.evaluate import ACCURACIES, EvalSummary, RunRecord
from jse.io_files import (
    _BLOCK_ROWS,
    RESULTS_COLUMNS,
    Artifact,
    DataFormatError,
    eval_summary_jsonl,
    format_report,
    load_artifact,
    load_embeddings,
    read_results_csv,
    save_artifact,
    save_embeddings,
    write_plot_tsv,
    write_results_csv,
)
from jse.sgd import LinearModel
from jse.stats import SIDES, TestReport
from jse.toy import ToyConfig, gen_toy


def test_embeddings_round_trip(tmp_path):
    cfg = ToyConfig(n=200, rho=0.6, seed=1)
    train, _ = gen_toy(cfg)
    path = tmp_path / "emb.csv"
    save_embeddings(str(path), train)
    loaded = load_embeddings(str(path))
    np.testing.assert_array_equal(loaded.y_mt, train.y_mt)
    np.testing.assert_array_equal(loaded.y_sp, train.y_sp)
    np.testing.assert_array_equal(loaded.Z, train.Z)  # repr round-trips float64 exactly
    np.testing.assert_array_equal(loaded.group, train.group)
    assert (train.source, loaded.source) == ("", str(path))  # drawn in memory, then read


def test_small_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("y_mt,y_sp,z_0,z_1\n0,1,0.5,-1.25\n1,0,2.0,3.5\n1,1,0.0,0.0\n")
    data = load_embeddings(str(path))
    assert data.n == 3 and data.d == 2


def test_bad_label_names_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("y_mt,y_sp,z_0\n0,1,0.5\n2,0,1.0\n")
    with pytest.raises(DataFormatError, match=":3:"):
        load_embeddings(str(path))


def test_ragged_row_names_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("y_mt,y_sp,z_0,z_1\n0,1,0.5,1.0\n0,1,0.5\n")
    with pytest.raises(DataFormatError, match=":3:"):
        load_embeddings(str(path))


def test_bad_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b,c\n0,1,0.5\n")
    with pytest.raises(DataFormatError, match=":1:"):
        load_embeddings(str(path))


def test_unparsable_value(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("y_mt,y_sp,z_0\n0,1,zebra\n")
    with pytest.raises(DataFormatError, match=":2:"):
        load_embeddings(str(path))


# --- embedding CSV codec contract ---------------------------------------------

# save_embeddings' output for this matrix, recorded from the per-element writer
GOLDEN = (
    "y_mt,y_sp,z_0,z_1,z_2,z_3\n"
    "0,1,-0.0,1e-05,1e+16,5e-324\n"
    "1,0,nan,inf,0.1,-inf\n"
    "1,1,1.0,-2.5,123456789.125,2.2250738585072014e-308\n"
)


def test_save_embeddings_golden_bytes(tmp_path):
    Z = np.array([
        [-0.0, 1e-05, 1e16, 5e-324],
        [np.nan, np.inf, 0.1, -np.inf],
        [1.0, -2.5, 123456789.125, 2.2250738585072014e-308],
    ])
    path = tmp_path / "g.csv"
    save_embeddings(str(path), LabeledEmbeddings(Z, np.array([0, 1, 1]), np.array([1, 0, 1])))
    assert path.read_bytes() == GOLDEN.encode()
    with pytest.raises(DataFormatError, match=r"g\.csv:3: non-finite value nan in z_0$"):
        load_embeddings(str(path))
    finite = tmp_path / "f.csv"  # the rows the loader accepts round-trip
    save_embeddings(str(finite), LabeledEmbeddings(Z[[0, 2]], np.array([0, 1]), np.array([1, 1])))
    assert load_embeddings(str(finite)).Z.tobytes() == Z[[0, 2]].tobytes()


def test_loader_accepted_syntax(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(
        b"y_mt,y_sp,z_0,z_1\r\n\r\n0,1, 0.5 ,1E+2\r\n   \n\t\n"
        b"1,0,-7,\t.25 \r\n1,1,+1e-3,-0.0\n\n"
    )
    data = load_embeddings(str(path))
    assert data.y_mt.tolist() == [0, 1, 1] and data.y_sp.tolist() == [1, 0, 1]
    want = np.array([[0.5, 100.0], [-7.0, 0.25], [1e-3, -0.0]])
    assert data.Z.tobytes() == want.tobytes()


@pytest.mark.parametrize("text,shown", [
    ("nan", "nan"), ("-NaN", "nan"), (" inf", "inf"), ("+Infinity", "inf"), ("-inf", "-inf"),
    ("1e400", "inf"),  # parses, but overflows
])
def test_loader_rejects_non_finite(tmp_path, text, shown):
    """Non-finite values end at the boundary, naming file:line (blank lines counted)."""
    path = tmp_path / "t.csv"
    path.write_text(f"y_mt,y_sp,z_0,z_1\n0,1,0.5,1.0\n\n  \n1,0,2.0,{text}\n1,1,3.0,4.0\n")
    with pytest.raises(DataFormatError, match=rf"t\.csv:5: non-finite value {shown} in z_1$"):
        load_embeddings(str(path))


def test_loader_under_numpy1_bytes_default(tmp_path, monkeypatch):
    # numpy < 2.0 defaults loadtxt to encoding="bytes", which hands converters
    # latin1 bytes; the loader must not depend on numpy 2's default
    real = np.loadtxt

    def loadtxt_numpy1(*args, encoding="bytes", **kwargs):
        return real(*args, encoding=encoding, **kwargs)

    monkeypatch.setattr(np, "loadtxt", loadtxt_numpy1)
    path = tmp_path / "t.csv"
    path.write_text("y_mt,y_sp,z_0\n0,1,0.5\n1,0,-2.0\n")
    data = load_embeddings(str(path))
    assert data.y_mt.tolist() == [0, 1] and data.Z.ravel().tolist() == [0.5, -2.0]
    path.write_text("y_mt,y_sp,z_0\n0,1,0.5\n1,0,zebra\n")
    with pytest.raises(DataFormatError, match=":3: .*'zebra'"):
        load_embeddings(str(path))


def _thousand_rows_with(tmp_path, lineno: int, bad: str) -> str:
    lines = ["y_mt,y_sp,z_0,z_1"] + ["0,1,0.5,-1.25"] * 1000
    lines[lineno - 1] = bad
    path = tmp_path / "big.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


_BAD_LINES = [
    ("2,0,0.5,1.0", "labels must be 0 or 1, got '2','0'"),
    ("1.0,0,0.5,1.0", "labels must be 0 or 1, got '1.0','0'"),
    ("0,1,0.5", "expected 4 fields, got 3"),
    ("0,1,0.5,1.0,", "expected 4 fields, got 5"),
    ("0,1,0.5,zebra", "'zebra'"),
    ("0,1,1_0,1.0", "'1_0'"),  # float() accepts digit separators; the codec does not
]


# the bad line at the first and last line of the first block of 256 body
# lines, the first of the second, mid-file (ids without a line) and last
@pytest.mark.parametrize("lineno,bad,msg", [
    pytest.param(lineno, bad, msg, id=f"{bad}-{msg}" + ("" if lineno == 700 else f"-line{lineno}"))
    for lineno in (2, 257, 258, 700, 1001) for bad, msg in _BAD_LINES
])
def test_bad_line_is_named(tmp_path, lineno, bad, msg):
    path = _thousand_rows_with(tmp_path, lineno, bad)
    with pytest.raises(DataFormatError, match=f":{lineno}: .*" + re.escape(msg)):
        load_embeddings(path)


@pytest.mark.parametrize("bad_row", [_BLOCK_ROWS, _BLOCK_ROWS + 2])
def test_blank_lines_across_a_block_edge_count_in_the_named_line(tmp_path, bad_row):
    """Blank lines inside the first block and between it and the second are
    numbered; the bad line is the last row of the first block or the second
    of the next."""
    rows = ["0,1,0.5,-1.25"] * (_BLOCK_ROWS + 3)
    rows[bad_row - 1] = "0,1,0.5,zebra"
    lines = ["y_mt,y_sp,z_0,z_1", *rows[:200], "", "  ", *rows[200:_BLOCK_ROWS], "", "\t", "",
             *rows[_BLOCK_ROWS:]]
    path = tmp_path / "blank.csv"
    path.write_text("\n".join(lines) + "\n")
    lineno = lines.index("0,1,0.5,zebra") + 1
    assert lineno == bad_row + 1 + (2 if bad_row <= _BLOCK_ROWS else 5)
    with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}:{lineno}: .*'zebra'"):
        load_embeddings(str(path))


@pytest.mark.parametrize("n", [_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
def test_block_sized_files_round_trip(tmp_path, n):
    rng = np.random.default_rng(n)
    data = LabeledEmbeddings(rng.standard_normal((n, 3)), rng.integers(0, 2, n),
                             rng.integers(0, 2, n))
    path = tmp_path / "e.csv"
    save_embeddings(str(path), data)
    got = load_embeddings(str(path))
    assert got.Z.tobytes() == data.Z.tobytes()
    assert got.y_mt.tobytes() == data.y_mt.tobytes()
    assert got.y_sp.tobytes() == data.y_sp.tobytes()


def _count_parses(monkeypatch) -> list:
    """The list that gets the number of lines handed to each ``_parse_rows`` call."""
    import jse.io_files as io_files

    calls = []
    real = io_files._parse_rows

    def counted(lines):
        lines = list(lines)
        calls.append(len(lines))
        return real(lines)

    monkeypatch.setattr(io_files, "_parse_rows", counted)
    return calls


def test_non_utf8_byte_is_named_without_reparsing(tmp_path, monkeypatch):
    """A byte that is not UTF-8 past the decoder's first 8 KB is named by the
    opener with no line parsed twice: at most the body lines before it, plus
    two blocks, reach the parser."""
    calls = _count_parses(monkeypatch)
    lines = ["y_mt,y_sp,z_0,z_1"] + ["0,1,0.5,-1.25"] * 3000
    lines[2500] = "0,1,0.5\xe9,-1.25"
    path = tmp_path / "late.csv"
    path.write_bytes(("\n".join(lines) + "\n").encode("latin-1"))
    assert path.stat().st_size > 3 * 8192
    with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}:2501: not UTF-8 text "
                                              r"\(byte 0xe9\)$"):
        load_embeddings(str(path))
    assert sum(calls) <= 2500 + 2 * _BLOCK_ROWS


@pytest.mark.parametrize("bad,msg", [
    ("0,1,0.5,zebra", "could not convert string 'zebra' to float64 at column 4."),
    ("0,1,0.5,inf", "non-finite value inf in z_1"),
    ("0,1,0.5", "expected 4 fields, got 3"),
], ids=["zebra", "inf", "field-short"])
def test_late_bad_line_is_named_in_few_parses(tmp_path, monkeypatch, bad, msg):
    """A bad line after 3000 good ones is named with the blocks before it parsed
    once, and its own block once whole and once line by line."""
    calls = _count_parses(monkeypatch)
    lines = ["y_mt,y_sp,z_0,z_1"] + ["0,1,0.5,-1.25"] * 3000 + [bad, "1,0,2.0,3.0"]
    path = tmp_path / "late.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError) as err:
        load_embeddings(str(path))
    assert str(err.value) == f"{path}:3002: {msg}"
    assert sum(calls) <= 3001 + 2 * _BLOCK_ROWS


def test_every_row_one_field_too_many(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("y_mt,y_sp,z_0\n\n0,1,0.5,1.0\n1,0,0.5,1.0\n")
    with pytest.raises(DataFormatError, match=":3: expected 3 fields, got 4"):
        load_embeddings(str(path))


@pytest.mark.parametrize("body", ["", "\n  \n\n"])
def test_empty_body_is_no_samples_without_warning(tmp_path, body):
    path = tmp_path / "t.csv"
    path.write_text("y_mt,y_sp,z_0\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataFormatError, match="no samples"):
            load_embeddings(str(path))


def _oracle_save(path, data):
    """The per-element writer the block-streamed codec replaced."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("y_mt,y_sp," + ",".join(f"z_{j}" for j in range(data.d)) + "\n")
        for i in range(data.n):
            row = [str(int(data.y_mt[i])), str(int(data.y_sp[i]))]
            row += [repr(float(v)) for v in data.Z[i]]
            fh.write(",".join(row) + "\n")


def _oracle_load(path):
    """The per-element reader the numpy parser replaced (well-formed files only)."""
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        rows = [line.strip().split(",") for line in fh if line.strip()]
    Z = np.array([[float(v) for v in r[2:]] for r in rows])
    return Z, np.array([int(r[0]) for r in rows]), np.array([int(r[1]) for r in rows])


_CODEC_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 0.1, 1e16, 1e-05,
                     np.nan, np.inf, -np.inf]),
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_codec_matches_per_element_oracle(data):
    Z = data.draw(hnp.arrays(np.float64, st.tuples(st.integers(1, 30), st.integers(1, 12)),
                             elements=_CODEC_FLOATS))
    labels = hnp.arrays(np.int64, Z.shape[0], elements=st.integers(0, 1))
    emb = LabeledEmbeddings(Z, data.draw(labels), data.draw(labels))
    finite = np.isfinite(Z).all(axis=1)
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp) / "new.csv", Path(tmp) / "old.csv"
        save_embeddings(str(new), emb)
        _oracle_save(str(old), emb)
        assert new.read_bytes() == old.read_bytes()
        if not finite.all():  # rejected at the first non-finite row; the finite rows load
            with pytest.raises(DataFormatError, match=f":{np.argmin(finite) + 2}: non-finite"):
                load_embeddings(str(new))
            if not finite.any():
                return
            save_embeddings(str(new), LabeledEmbeddings(Z[finite], emb.y_mt[finite],
                                                        emb.y_sp[finite]))
        got = load_embeddings(str(new))
        Z_want, y_mt, y_sp = _oracle_load(str(new))
    assert got.Z.tobytes() == Z_want.tobytes()
    assert got.y_mt.tobytes() == y_mt.tobytes() and got.y_sp.tobytes() == y_sp.tobytes()


def test_artifact_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    q, _ = np.linalg.qr(rng.standard_normal((6, 3)))
    tests = [
        TestReport("sp_vs_random", -4.25, 1.6448536269514722, 0.05, 0.0, True),
        TestReport("sp_vs_mt_on_vmt", 2.0, 1.6448536269514722, 0.05, -0.3, True),
    ]
    art = Artifact(
        "jse", 6, q[:, :2], q[:, 2:3], tests,
        LinearModel(rng.standard_normal(6), -0.75),
        termination="test-rejected", delta=-0.3,
        pre_mean=rng.standard_normal(6),
    )
    path = tmp_path / "a.artifact"
    save_artifact(str(path), art)
    back = load_artifact(str(path))
    assert back.method == "jse" and back.d == 6
    np.testing.assert_array_equal(back.sp_basis, art.sp_basis)
    np.testing.assert_array_equal(back.mt_basis, art.mt_basis)
    np.testing.assert_array_equal(back.model.w, art.model.w)
    assert back.model.b == art.model.b
    np.testing.assert_array_equal(back.pre_mean, art.pre_mean)
    assert back.termination == "test-rejected"
    assert back.delta == -0.3
    assert [t.kind for t in back.tests] == [t.kind for t in tests]
    assert [t.statistic for t in back.tests] == [t.statistic for t in tests]
    assert SIDES[back.tests[1].kind] == "greater"
    assert [t.decision for t in back.tests] == [True, True]


def test_artifact_delta_is_the_header_not_the_last_test_row(tmp_path):
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 1)))
    tests = [TestReport("sp_vs_mt_on_vsp", -2.0, 1.6448536269514722, 0.05, -0.3, False)]
    path = tmp_path / "a.artifact"
    save_artifact(str(path), Artifact("jse", 4, q, np.zeros((4, 0)), tests, None, delta=0.7))
    back = load_artifact(str(path))
    assert back.delta == 0.7 and back.tests[0].delta == -0.3
    assert SIDES[back.tests[0].kind] == "less" and back.tests[0].decision is False


def _drop_last_value(line: str) -> str:
    return line.rsplit(" ", 1)[0]


@pytest.mark.parametrize("section,edit,msg", [
    ("sp_basis", _drop_last_value, "{path}:{lineno}: expected 6 values, got 5"),
    ("pre_mean", _drop_last_value, "{path}:{lineno}: expected 6 values, got 5"),
    ("pre_mean", lambda line: "", "{path}: [pre_mean] holds no values"),
    ("tests", lambda line: line.rsplit(",", 1)[0],
     "{path}:{lineno}: expected 6 test-report fields, got 5"),
    ("mt_basis", lambda line: "0.5x" + line[line.index(" "):],
     "{path}:{lineno}: could not convert string to float: '0.5x'"),
    ("model", lambda line: "v" + line[1:], "{path}: [model] needs a 'w' and a 'b' line"),
    ("tests", lambda line: "sp_vs_nothing" + line[line.index(","):],
     "{path}:{lineno}: unknown test kind 'sp_vs_nothing'"),
    ("tests", lambda line: line.rsplit(",", 1)[0] + ",true",
     "{path}:{lineno}: decision must be True or False, got 'true'"),
    ("pre_mean", lambda line: "nan" + line[line.index(" "):],
     "{path}:{lineno}: non-finite value nan"),
    ("pre_mean", lambda line: line.rsplit(" ", 1)[0] + " -inf",
     "{path}:{lineno}: non-finite value -inf"),
    ("model", lambda line: "w = inf" + line[line.index(" ", 4):],
     "{path}:{lineno}: non-finite value inf"),
    ("sp_basis", lambda line: "nan" + line[line.index(" "):],
     "{path}:{lineno}: non-finite value nan"),
    ("tests", lambda line: "sp_vs_random,nan" + line[line.index(",", 13):],
     "{path}:{lineno}: non-finite value nan"),
    ("model", lambda line: line.replace(" = ", " ", 1),
     "{path}:{lineno}: expected 'key = value' or '[section]'"),
])
def test_malformed_artifact_exits_3_naming_line(tmp_path, capsys, section, edit, msg):
    _assert_edit_exits_3(tmp_path, capsys, f"[{section}]", 1, edit, msg)


def test_unknown_method_header_exits_3_naming_line(tmp_path, capsys):
    _assert_edit_exits_3(tmp_path, capsys, "method = erm", 0, lambda line: "method = svm",
                         "{path}:{lineno}: unknown method 'svm'; expected one of jse, erm")


def test_non_finite_delta_header_exits_3_naming_line(tmp_path, capsys):
    _assert_edit_exits_3(tmp_path, capsys, "delta = 0.0", 0, lambda line: "delta = nan",
                         "{path}:{lineno}: non-finite value nan")


_SECTIONS = "pre_mean, pre_components, sp_basis, mt_basis, tests, model"
_FIELDS = "schema_version, method, d, termination, delta"


@pytest.mark.parametrize("anchor,edit,msg", [
    pytest.param("[sp_basis]", "[sp_bassis]",
                 "{path}:{lineno}: unknown section [sp_bassis]; expected one of " + _SECTIONS,
                 id="section"),
    pytest.param("delta = 0.0", "detla = 0.0",
                 "{path}:{lineno}: unknown header field 'detla'; expected one of " + _FIELDS,
                 id="header-field"),
    pytest.param("method = erm", "mehtod = erm",
                 "{path}:{lineno}: unknown header field 'mehtod'; expected one of " + _FIELDS,
                 id="header-field-required"),
    pytest.param("delta = 0.0", "d = 6", "{path}:{lineno}: 'd' repeats line 3",
                 id="header-field-repeated"),
    pytest.param("b = 0.5", "w = 0.5", "{path}:{lineno}: 'w' repeats line {prev}",
                 id="model-key-repeated"),
])
def test_misspelled_artifact_name_exits_3_naming_line(tmp_path, capsys, anchor, edit, msg):
    """A misspelled section or header field is an error, not an empty basis or
    a default value, and a repeated key is one, not the last value."""
    _assert_edit_exits_3(tmp_path, capsys, anchor, 0, lambda line: edit, msg)


def test_d_too_large_for_an_array_names_line(tmp_path):
    path = tmp_path / "a.artifact"
    path.write_text("schema_version = 1\nmethod = inlp\nd = 99999999999999999999\n[tests]\n")
    with pytest.raises(DataFormatError, match=r"a\.artifact:3: "):
        load_artifact(str(path))


@pytest.mark.parametrize("edit,msg", [
    pytest.param(lambda line: "schema_version = 99",
                 "{path}:{lineno}: schema_version is '99', not 1", id="other"),
    pytest.param(lambda line: "", "{path}: missing header field 'schema_version'", id="missing"),
])
def test_other_schema_version_exits_3(tmp_path, capsys, edit, msg):
    _assert_edit_exits_3(tmp_path, capsys, "schema_version = 1", 0, edit, msg)


def test_pca_components_without_mean_rejected_naming_line(tmp_path):
    """Artifact.preprocess applies PCA as (Z - pre_mean) @ pre_components, so a
    file holding components but no mean is a data error, not a traceback."""
    path = tmp_path / "m.artifact"
    save_artifact(str(path), Artifact("erm", 6, np.zeros((6, 0)), np.zeros((6, 0)), [],
                                      LinearModel(np.ones(6), 0.0), pre_components=np.eye(6)))
    lineno = path.read_text().split("\n").index("[pre_components]") + 2
    msg = f"{path}:{lineno}: [pre_components] needs a [pre_mean]"
    with pytest.raises(DataFormatError, match=re.escape(msg)):
        load_artifact(str(path))


def test_pca_component_count_other_than_d_rejected_naming_line(tmp_path):
    """PCA maps the input to d coordinates, so [pre_components] holds d vectors."""
    path = tmp_path / "m.artifact"
    save_artifact(str(path), Artifact("inlp", 3, np.zeros((3, 0)), np.zeros((3, 0)), [], None,
                                      pre_mean=np.zeros(5), pre_components=np.eye(5)[:, :3]))
    lines = path.read_text().split("\n")
    lines[lines.index("d = 3")] = "d = 2"
    path.write_text("\n".join(lines))
    lineno = lines.index("[pre_components]") + 2
    msg = f"{path}:{lineno}: [pre_components] holds 3 components, expected d = 2"
    with pytest.raises(DataFormatError, match=re.escape(msg)):
        load_artifact(str(path))


def _assert_edit_exits_3(tmp_path, capsys, anchor, offset, edit, msg):
    """Save an erm artifact, apply edit to the line ``offset`` after the line
    ``anchor``, and check that ``jse eval`` exits 3 printing msg, formatted
    with the edited line's number as ``lineno`` and the one before as ``prev``."""
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((6, 2)))
    tests = [TestReport("sp_vs_random", -4.25, 1.6448536269514722, 0.05, 0.0, True)]
    art = Artifact("erm", 6, q[:, :1], q[:, 1:], tests, LinearModel(rng.standard_normal(6), 0.5),
                   pre_mean=rng.standard_normal(6))
    path = tmp_path / "m.artifact"
    save_artifact(str(path), art)
    lines = path.read_text().split("\n")
    i = lines.index(anchor) + offset
    lines[i] = edit(lines[i])
    path.write_text("\n".join(lines))
    data = tmp_path / "test.csv"
    save_embeddings(str(data), LabeledEmbeddings(rng.standard_normal((8, 6)),
                                                 np.arange(8) % 2, np.arange(8) // 4))
    assert main(["eval", "--model", str(path), "--test-file", str(data)]) == 3
    assert msg.format(path=path, lineno=i + 1, prev=i) in capsys.readouterr().err


def _records():
    s = EvalSummary(np.array([80.0, 81.0, 82.0, 83.0]), 80.0, 81.5, 81.5,
                    np.array([500, 500, 500, 500]))
    return [
        RunRecord("jse", "rho", 0.8, 0, s, 1, 1, 123.0),
        RunRecord("jse", "rho", 0.8, 1, None, 0, 0, 5.0, "ValueError('x')"),
    ]


def test_results_csv_round_trip(tmp_path):
    path = tmp_path / "results.csv"
    write_results_csv(str(path), _records())
    rows = read_results_csv(str(path))
    assert len(rows) == 2
    assert rows[0]["method"] == "jse"
    assert float(rows[0]["average"]) == 81.5
    assert rows[0]["error"] == ""
    assert rows[1]["error"] != "" and rows[1]["average"] == ""


def test_results_columns_follow_the_run_record():
    """RESULTS_COLUMNS is RunRecord's fields in order, the accuracies in place
    of the summary, without data_error, and schema_version last: a field
    added to the record without a column fails here."""
    from dataclasses import fields

    names = [f.name for f in fields(RunRecord) if f.name != "data_error"]
    i = names.index("summary")
    assert RESULTS_COLUMNS == [*names[:i], *ACCURACIES, *names[i + 1:], "schema_version"]


def test_results_csv_writes_an_integer_x_value_as_a_float(tmp_path):
    path = tmp_path / "results.csv"
    write_results_csv(str(path), [RunRecord("erm", "n", 1000, 0, _records()[0].summary,
                                            0, 0, 1.0)])
    (row,) = read_results_csv(str(path))
    assert row["x_value"] == "1000.0"
    assert path.read_text().splitlines()[1].startswith("erm,n,1000.0,0,")


def _sweep_records():
    """A 2-seed cell, a 1-seed cell and a failed run, as a sweep writes them."""
    n = np.array([500, 480, 520, 500])
    return [
        RunRecord("jse", "rho", 0.8, 0, EvalSummary(np.array([80.1, 81.3, 82.7, 83.9]),
                                                    80.1, 81.85, 82.0, n), 1, 1, 123.25),
        RunRecord("jse", "rho", 0.8, 1, EvalSummary(np.array([78.4, 84.6, 79.2, 85.0]),
                                                    78.4, 81.7, 81.8, n), 1, 0, 98.5),
        RunRecord("erm", "rho", 0.8, 0, EvalSummary(np.array([90.0, 60.2, 55.8, 91.4]),
                                                    55.8, 74.35, 74.35, n), 0, 0, 7.125),
        RunRecord("erm", "rho", 0.0, 0, None, 0, 0, 5.0, "ValueError('x, y')"),
    ]


def test_plot_tsv(tmp_path):
    """plot.tsv byte for byte: the band is mean -/+ 1.96 SE, blank for one seed."""
    from jse.evaluate import aggregate_cell

    recs = _sweep_records()
    cells = [aggregate_cell("jse", "rho", 0.8, recs[:2]),
             aggregate_cell("erm", "rho", 0.8, recs[2:3])]
    path = tmp_path / "plot.tsv"
    write_plot_tsv(str(path), cells)
    assert path.read_bytes().decode() == (
        "x\tmethod\tmean\tci_low\tci_high\tmetric\n"
        "0.8\tjse\t81.775\t81.62800000000001\t81.922\taverage\n"
        "0.8\tjse\t79.25\t77.58400000000002\t80.91599999999998\tworst_group\n"
        "0.8\term\t74.35\t\t\taverage\n"
        "0.8\term\t55.8\t\t\tworst_group\n"
    )


def test_eval_summary_jsonl():
    import json

    s = EvalSummary(np.array([1.0, 2.0, 3.0, 4.0]), 1.0, 2.5, 2.5, np.array([1, 1, 1, 1]))
    payload = json.loads(eval_summary_jsonl(s))
    assert payload["schema_version"] == 1
    assert payload["worst_group"] == 1.0
    assert payload["group_acc"] == [1.0, 2.0, 3.0, 4.0]


def test_format_report_smoke(tmp_path):
    """results.csv and the report byte for byte: a failed run's accuracies are
    blank, a cell with no successful run prints '-', one seed prints (nan)."""
    path = tmp_path / "results.csv"
    write_results_csv(str(path), _sweep_records())
    assert path.read_bytes().decode() == (
        "method,x_name,x_value,seed,acc_g1,acc_g2,acc_g3,acc_g4,worst_group,average,"
        "macro_average,d_sp_hat,d_mt_hat,runtime_ms,error,schema_version\r\n"
        "jse,rho,0.8,0,80.1,81.3,82.7,83.9,80.1,81.85,82.0,1,1,123.25,,1\r\n"
        "jse,rho,0.8,1,78.4,84.6,79.2,85.0,78.4,81.7,81.8,1,0,98.5,,1\r\n"
        "erm,rho,0.8,0,90.0,60.2,55.8,91.4,55.8,74.35,74.35,0,0,7.125,,1\r\n"
        "erm,rho,0.0,0,,,,,,,,0,0,5.0,\"ValueError('x, y')\",1\r\n"
    )
    assert format_report(read_results_csv(str(path))) == (
        "Method   Accuracy        rho=0           rho=0.8\n"
        "---------------------------------------------------------\n"
        "erm      y_mt=0, y_sp=0  -              90.00 (nan)\n"
        "         y_mt=0, y_sp=1  -              60.20 (nan)\n"
        "         y_mt=1, y_sp=0  -              55.80 (nan)\n"
        "         y_mt=1, y_sp=1  -              91.40 (nan)\n"
        "         Worst-group     -              55.80 (nan)\n"
        "         Average         -              74.35 (nan)\n"
        "\n"
        "jse      y_mt=0, y_sp=0  -              79.25 (0.85)\n"
        "         y_mt=0, y_sp=1  -              82.95 (1.65)\n"
        "         y_mt=1, y_sp=0  -              80.95 (1.75)\n"
        "         y_mt=1, y_sp=1  -              84.45 (0.55)\n"
        "         Worst-group     -              79.25 (0.85)\n"
        "         Average         -              81.78 (0.07)\n"
        "\n"
    )


def test_report_header_keeps_close_x_values_apart(tmp_path):
    """Column labels use .15g: n = 1000000 and 1000001 get a column each
    (``g`` printed both as n=1e+06), and x values a micro-unit apart stay apart."""
    summary = _sweep_records()[0].summary
    for xs, labels in [((1000000.0, 1000001.0), ("n=1000000 ", "n=1000001")),
                       ((0.1, 0.100001), ("n=0.1 ", "n=0.100001"))]:
        path = tmp_path / "results.csv"
        write_results_csv(str(path), [RunRecord("erm", "n", x, 0, summary, 0, 0, 1.0)
                                      for x in xs])
        header = format_report(read_results_csv(str(path))).splitlines()[0]
        assert all(label in header for label in labels), header


_RESULTS_FIELDS = st.one_of(
    st.sampled_from(["", "erm", "jse", "rho", "angle_deg", "0", "1", "-3", "0.5", "75.0", "nan",
                     "inf", "1e400", "1.5", "abc", "ValueError('x, y')", '"a,b"', '"', "1\n2",
                     "x" * 140_000]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(max_size=8),
)


@st.composite
def _results_text(draw) -> str:
    """A results CSV: a header that usually names every column, then rows of
    about the right width built from plausible and implausible fields."""
    header = list(RESULTS_COLUMNS)
    if draw(st.sampled_from([False] * 4 + [True])):
        header = draw(st.permutations(header))[:draw(st.integers(0, len(header)))]
    lines = [",".join(header)]
    good = ["erm", "rho", "0.5", "0", *["75.0"] * 7, "0", "0", "12.5", "", "1"]
    for _ in range(draw(st.integers(0, 4))):
        row = list(good)
        for _ in range(draw(st.integers(0, 3))):
            row[draw(st.integers(0, len(row) - 1))] = draw(_RESULTS_FIELDS)
        lines.append(",".join(row[:draw(st.sampled_from([len(row)] * 9 + [len(row) - 1]))]))
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n"]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_results_text())
def test_results_reader_fuzz(text):
    """Any text ends in the runs of one grid or a DataFormatError, never
    another exception."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "results.csv"
        path.write_text(text, encoding="utf-8")
        try:
            rows = read_results_csv(str(path))
        except DataFormatError:
            return
    assert rows and len({r["x_name"] for r in rows}) == 1
    assert len({(r["method"], float(r["x_value"]), int(r["seed"])) for r in rows}) == len(rows)


_CSV_FIELDS = st.one_of(
    st.sampled_from(["0", "1", "2", "-1", "0.5", "1.0", "1e400", "nan", "-inf", "Infinity", "",
                     " ", "1_0", "0x1p3", '"1"', "abc", "\t.25 ", "1e-320", "-0.0", "+1", "z_0"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(max_size=6),
)


@st.composite
def _embedding_text(draw) -> str:
    """An embedding CSV: a header that usually names d columns, then rows of
    about the right width, some fields replaced by plausible and implausible
    text, with blank lines between them."""
    d = draw(st.integers(1, 4))
    header = ["y_mt", "y_sp", *(f"z_{j}" for j in range(d))]
    if draw(st.sampled_from([False] * 9 + [True])):
        header[draw(st.integers(0, len(header) - 1))] = draw(_CSV_FIELDS)
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 5))):
        row = [draw(st.sampled_from(["0", "1"])) for _ in range(2)]
        row += [repr(draw(st.floats(-1e3, 1e3))) for _ in range(d)]
        for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
            row[draw(st.integers(0, len(row) - 1))] = draw(_CSV_FIELDS)
        lines.append(",".join(row[:draw(st.sampled_from([len(row)] * 9 + [len(row) - 1]))]))
        lines += [""] * draw(st.sampled_from([0] * 4 + [1]))
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\r\n", "\n  \n"]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_embedding_text())
def test_embeddings_reader_fuzz(text):
    """Any text ends in finite embeddings with 0/1 labels or a DataFormatError,
    never another exception."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "z.csv"
        path.write_text(text, encoding="utf-8")
        try:
            data = load_embeddings(str(path))
        except DataFormatError:
            return
    assert data.n >= 1 and np.isfinite(data.Z).all()
    assert set(data.y_mt.tolist()) <= {0, 1} and set(data.y_sp.tolist()) <= {0, 1}


def _artifact_texts() -> list[str]:
    """Saved artifacts covering every section and header field: erm with a mean
    and a model, jse with both bases and test rows, inlp after PCA."""
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.standard_normal((4, 3)))
    tests = [TestReport("sp_vs_random", -4.25, 1.6448536269514722, 0.05, 0.0, True),
             TestReport("sp_vs_mt_on_vsp", 2.0, 1.6448536269514722, 0.05, -0.3, False)]
    arts = [
        Artifact("erm", 4, np.zeros((4, 0)), np.zeros((4, 0)), [],
                 LinearModel(rng.standard_normal(4), 0.5), pre_mean=rng.standard_normal(4)),
        Artifact("jse", 4, q[:, :2], q[:, 2:], tests, None, termination="test-rejected",
                 delta=-0.3),
        Artifact("inlp", 2, np.eye(2)[:, :1], np.zeros((2, 0)), [], None,
                 pre_mean=rng.standard_normal(4), pre_components=q[:, :2]),
    ]
    texts = []
    with tempfile.TemporaryDirectory() as tmp:
        for art in arts:
            path = Path(tmp) / "a.artifact"
            save_artifact(str(path), art)
            texts.append(path.read_text(encoding="utf-8"))
    return texts


_ARTIFACT_TEXTS = _artifact_texts()
_ARTIFACT_FIELDS = st.one_of(
    st.sampled_from(["", "0", "1", "2", "4", "-1", "0.5", "1_0", "nan", "inf", "-inf", "1e400",
                     "99999999999999999999", "abc", "True", "false", "sp_vs_random", "jse",
                     "svm", "=", "[", "]", "[]", "[tests]", "[sp_bassis]", "w =", "b = 1",
                     "d = 4", "detla = 0.0", "schema_version = 2", "method = erm"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(max_size=8),
)


@st.composite
def _mutated_artifact(draw) -> str:
    """A saved artifact with one to three lines replaced, dropped, repeated,
    inserted, or with one field replaced."""
    lines = draw(st.sampled_from(_ARTIFACT_TEXTS)).split("\n")
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["replace", "drop", "repeat", "insert", "field", "field"]))
        if op == "replace":
            lines[i] = draw(_ARTIFACT_FIELDS)
        elif op == "drop":
            del lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        elif op == "insert":
            lines.insert(i, draw(_ARTIFACT_FIELDS))
        else:
            sep = "," if lines[i].count(",") else " "
            fields = lines[i].split(sep)
            fields[draw(st.integers(0, len(fields) - 1))] = draw(_ARTIFACT_FIELDS)
            lines[i] = sep.join(fields)
        if not lines:
            break
    return "\n".join(lines)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_mutated_artifact())
def test_artifact_reader_fuzz(text):
    """Any mutation of a saved artifact ends in an artifact that is consistent
    with its own header or a DataFormatError, never another exception."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.artifact"
        path.write_text(text, encoding="utf-8")
        try:
            art = load_artifact(str(path))
        except DataFormatError:
            return
    for V in (art.sp_basis, art.mt_basis):
        assert V.shape[0] == art.d and np.isfinite(V).all()
    if art.model is not None:
        assert art.model.w.shape == (art.d,)
    if art.pre_components is not None:
        assert art.pre_components.shape == (len(art.pre_mean), art.d)
