"""File formats: embedding CSV, fitted-artifact files, results CSV, plot TSV.

Embedding CSV: header ``y_mt,y_sp,z_0,...,z_{d-1}``, one sample per line,
labels as 0/1, coordinates as decimal text with full float64 precision.
Both directions keep per-token work in C: the writer formats blocks of rows
with ``repr`` and streams them out; the reader parses the whole body with
numpy's ``loadtxt`` (each token converts exactly as ``float()`` converts it)
and only when that fails re-reads the file line by line to name the line.

Artifact files are line-oriented ``key = value`` headers followed by
bracketed sections holding basis vectors (one vector per line), test-report
CSV rows, and model coefficients. All floats use repr precision so a
round-trip is bit-exact. Artifacts and config files share one reader,
``read_sections``.

Every reader, the config's included, opens its file with ``open_text``, so a
byte that is not UTF-8 is a data error naming the file and line.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import warnings
from typing import NoReturn

import numpy as np

from .data import ORTHO_TOL, LabeledEmbeddings, orthonormal_check
from .evaluate import ACCURACIES, METHODS, Artifact, CellAggregate, EvalSummary, RunRecord, mean_se
from .sgd import LinearModel
from .stats import TestReport

SCHEMA_VERSION = 1


class DataFormatError(ValueError):
    """Malformed input: a data, artifact or config file, or a config value;
    the message names the file and line, or the config section and key."""


@contextlib.contextmanager
def open_text(path: str, newline: str | None = None):
    """``path`` opened to read as UTF-8 text. A byte that is not UTF-8, met
    anywhere in the ``with`` block, raises ``DataFormatError`` naming the file
    and the line that holds it."""
    with open(path, "r", encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            # the decoder's offset is into its buffer, not the file: find the line
            # again, split as above; latin-1 maps each byte to one character
            with open(path, "r", encoding="latin-1", newline=newline) as raw:
                for lineno, line in enumerate(raw, start=1):
                    try:
                        line.encode("latin-1").decode("utf-8")
                    except UnicodeDecodeError as exc:
                        raise DataFormatError(f"{path}:{lineno}: not UTF-8 text "
                                              f"(byte {ord(line[exc.start]):#04x})") from None
            raise


def _fmt(x: float) -> str:
    return repr(float(x))


def _check_schema_version(path: str, lineno: int, value: str) -> None:
    if value != str(SCHEMA_VERSION):
        raise DataFormatError(f"{path}:{lineno}: schema_version is {value!r}, not {SCHEMA_VERSION}")


# rows per writelines call when saving: large enough to amortise the call,
# small enough that a file's text is never held in memory at once
_BLOCK_ROWS = 256


def save_embeddings(path: str, data: LabeledEmbeddings) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("y_mt,y_sp," + ",".join(f"z_{j}" for j in range(data.d)) + "\n")
        for start in range(0, data.n, _BLOCK_ROWS):
            blk = slice(start, start + _BLOCK_ROWS)
            fh.writelines(
                f"{a},{b},{','.join(map(repr, z))}\n"
                for a, b, z in zip(
                    data.y_mt[blk].tolist(), data.y_sp[blk].tolist(), data.Z[blk].tolist()
                )
            )


_LABELS = {"0": 0.0, "1": 1.0}
_LABEL_CONVERTERS = {0: _LABELS.__getitem__, 1: _LABELS.__getitem__}


def _parse_rows(lines) -> np.ndarray:
    """Embedding CSV body lines -> (rows, fields) float64 array, via numpy's C
    parser: floats convert as ``float()`` does (no ``_`` separators), labels
    must be the exact text 0 or 1. Raises ValueError on any bad field. The
    explicit encoding makes numpy hand the converters str, not latin1 bytes
    (numpy < 2.0 defaults to ``encoding="bytes"``)."""
    return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=np.float64,
                      converters=_LABEL_CONVERTERS, encoding="utf-8")


def _raise_at_bad_line(path: str, d: int, exc: ValueError) -> NoReturn:
    """Re-read the body line by line to name the first line that does not
    parse or holds a non-finite value."""
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        for lineno, line in enumerate(fh, start=2):
            if line.isspace():
                continue
            parts = line.split(",")
            if len(parts) != d + 2:
                raise DataFormatError(
                    f"{path}:{lineno}: expected {d + 2} fields, got {len(parts)}"
                )
            if parts[0] not in _LABELS or parts[1] not in _LABELS:
                raise DataFormatError(
                    f"{path}:{lineno}: labels must be 0 or 1, got {parts[0]!r},{parts[1]!r}"
                )
            try:
                (row,) = _parse_rows([line]).tolist()
            except ValueError as err:
                # numpy counts rows of the one line it was given; the line is named above
                msg = re.sub(r" at row \d+,", " at", str(err))
                raise DataFormatError(f"{path}:{lineno}: {msg}") from err
            for j, value in enumerate(row[2:]):
                if not math.isfinite(value):
                    raise DataFormatError(f"{path}:{lineno}: non-finite value {value!r} in z_{j}")
    raise DataFormatError(f"{path}: {exc}") from exc


def load_embeddings(path: str) -> LabeledEmbeddings:
    with open_text(path) as fh:
        header = fh.readline().rstrip("\n")
        cols = header.split(",")
        if cols[:2] != ["y_mt", "y_sp"] or len(cols) < 3:
            raise DataFormatError(
                f"{path}:1: expected header 'y_mt,y_sp,z_0,...', got {header!r}"
            )
        d = len(cols) - 2
        if cols[2:] != [f"z_{j}" for j in range(d)]:
            raise DataFormatError(f"{path}:1: malformed embedding column names")
        try:
            with warnings.catch_warnings():
                # an empty body is reported below as "no samples"
                warnings.simplefilter("ignore", UserWarning)
                rows = _parse_rows(line for line in fh if not line.isspace())
        except UnicodeDecodeError:
            raise  # a ValueError too, but open_text names its line without re-parsing
        except ValueError as exc:
            _raise_at_bad_line(path, d, exc)
    if rows.shape[0] == 0:
        raise DataFormatError(f"{path}: no samples")
    if rows.shape[1] != d + 2 or not np.isfinite(rows).all():
        _raise_at_bad_line(path, d, ValueError(f"expected {d + 2} fields, got {rows.shape[1]}"))
    return LabeledEmbeddings(
        rows[:, 2:], rows[:, 0].astype(np.int64), rows[:, 1].astype(np.int64)
    )


def save_artifact(path: str, art: Artifact) -> None:
    def vectors(M: np.ndarray) -> str:  # one line per column
        return "".join(" ".join(map(repr, col)) + "\n" for col in M.T.tolist())

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"schema_version = {SCHEMA_VERSION}\n")
        fh.write(f"method = {art.method}\n")
        fh.write(f"d = {art.d}\n")
        if art.termination:
            fh.write(f"termination = {art.termination}\n")
        fh.write(f"delta = {_fmt(art.delta)}\n")
        if art.pre_mean is not None:
            fh.write("[pre_mean]\n")
            fh.write(" ".join(map(repr, art.pre_mean.tolist())) + "\n")
        if art.pre_components is not None:
            fh.write("[pre_components]\n" + vectors(art.pre_components))
        for name, basis in (("sp_basis", art.sp_basis), ("mt_basis", art.mt_basis)):
            fh.write(f"[{name}]\n" + vectors(basis))
        fh.write("[tests]\n")
        for rep in art.tests:
            fh.write(rep.csv_row() + "\n")
        if art.model is not None:
            fh.write("[model]\n")
            fh.write("w = " + " ".join(map(repr, art.model.w.tolist())) + "\n")
            fh.write(f"b = {_fmt(art.model.b)}\n")


def read_sections(path: str, lines, sections, keyed=()) -> tuple[dict, dict]:
    """The grammar configs and artifacts share: ``key = value`` lines, then
    ``[section]`` headers each followed by its lines.

    Returns ``header``, the lines before the first section, and ``body``, each
    section's lines; a repeated section continues the first. The header and
    the sections in ``keyed`` hold ``key = value`` lines, returned as key ->
    (line number, value); the other sections' non-blank stripped lines are
    returned as (line number, text). A section not in ``sections``, a keyed
    line without ``=`` and a key already given in its section (or header)
    raise ``DataFormatError`` naming ``path`` and the line.
    """
    header: dict[str, tuple[int, str]] = {}
    body: dict[str, dict | list] = {}
    current: dict | list = header
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in sections:
                raise DataFormatError(f"{path}:{lineno}: unknown section [{name}]; "
                                      f"expected one of {', '.join(sections)}")
            current = body.setdefault(name, {} if name in keyed else [])
        elif isinstance(current, list):
            current.append((lineno, line))
        else:
            key, eq, value = (part.strip() for part in line.partition("="))
            if not eq:
                raise DataFormatError(f"{path}:{lineno}: expected 'key = value' or '[section]'")
            if key in current:
                raise DataFormatError(f"{path}:{lineno}: {key!r} repeats line {current[key][0]}")
            current[key] = (lineno, value)
    return header, body


ARTIFACT_FIELDS = ("schema_version", "method", "d", "termination", "delta")
ARTIFACT_SECTIONS = ("pre_mean", "pre_components", "sp_basis", "mt_basis", "tests", "model")


def load_artifact(path: str) -> Artifact:
    with open_text(path) as fh:
        header, sections = read_sections(path, fh, ARTIFACT_SECTIONS, ("model",))
    for key, (lineno, _) in header.items():
        if key not in ARTIFACT_FIELDS:
            raise DataFormatError(f"{path}:{lineno}: unknown header field {key!r}; "
                                  f"expected one of {', '.join(ARTIFACT_FIELDS)}")
    for key in ("schema_version", "d", "method"):
        if key not in header:
            raise DataFormatError(f"{path}: missing header field {key!r}")
    _check_schema_version(path, *header["schema_version"])

    def at_line(lineno: int, value, convert):
        """convert(value), with a ValueError reported as a data error at the line."""
        try:
            return convert(value)
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from exc

    def floats(lineno: int, fields: list[str], n: int | None = None) -> np.ndarray:
        if n is not None and len(fields) != n:
            raise DataFormatError(f"{path}:{lineno}: expected {n} values, got {len(fields)}")
        values = at_line(lineno, fields, lambda vs: np.array([float(v) for v in vs]))
        finite = np.isfinite(values)
        if not finite.all():
            bad = float(values[np.argmin(finite)])
            raise DataFormatError(f"{path}:{lineno}: non-finite value {bad!r}")
        return values

    method_line, method = header["method"]
    if method not in METHODS:
        raise DataFormatError(f"{path}:{method_line}: unknown method {method!r}; expected one "
                              f"of {', '.join(METHODS)}")
    d = at_line(*header["d"], int)
    if d < 1:
        raise DataFormatError(f"{path}:{header['d'][0]}: d must be positive, got {d}")
    lineno, value = header.get("delta", (0, "0.0"))
    delta = float(floats(lineno, [value])[0])

    # the preprocessing acts on the input coordinates: d of them, or with PCA
    # as many as each component has
    comps = sections.get("pre_components")
    n_in = len(comps[0][1].split()) if comps else d
    if comps and "pre_mean" not in sections:
        raise DataFormatError(f"{path}:{comps[0][0]}: [pre_components] needs a [pre_mean]")
    if comps and len(comps) != d:
        raise DataFormatError(f"{path}:{comps[0][0]}: [pre_components] holds {len(comps)} "
                              f"components, expected d = {d}")

    def basis(name: str, n: int) -> np.ndarray:
        lines = sections.get(name, [])
        if not lines:  # numpy rejects a d too large for an array
            return at_line(header["d"][0], (d, 0), np.zeros)
        V = np.column_stack([floats(lineno, ln.split(), n) for lineno, ln in lines])
        if not orthonormal_check(V, ORTHO_TOL):
            raise DataFormatError(f"{path}:{lines[0][0]}: [{name}] columns are not "
                                  f"orthonormal within {ORTHO_TOL}")
        return V

    tests = []
    for lineno, ln in sections.get("tests", []):
        fields = ln.split(",")
        if len(fields) != 6:
            raise DataFormatError(
                f"{path}:{lineno}: expected 6 test-report fields, got {len(fields)}"
            )
        t, thr, alpha, test_delta = floats(lineno, fields[1:5]).tolist()
        decision = {"True": True, "False": False}.get(fields[5])
        if decision is None:
            raise DataFormatError(f"{path}:{lineno}: decision must be True or False, "
                                  f"got {fields[5]!r}")
        # TestReport rejects a kind outside stats.SIDES
        tests.append(at_line(lineno, fields[0],
                             lambda kind: TestReport(kind, t, thr, alpha, test_delta, decision)))
    model = None
    if "model" in sections:
        if not {"w", "b"} <= sections["model"].keys():
            raise DataFormatError(f"{path}: [model] needs a 'w' and a 'b' line")
        (w_line, w), (b_line, b) = sections["model"]["w"], sections["model"]["b"]
        model = LinearModel(floats(w_line, w.split(), d), float(floats(b_line, b.split(), 1)[0]))
    pre_mean = None
    if "pre_mean" in sections:
        if not sections["pre_mean"]:
            raise DataFormatError(f"{path}: [pre_mean] holds no values")
        lineno, line = sections["pre_mean"][0]
        pre_mean = floats(lineno, line.split(), n_in)
    pre_components = basis("pre_components", n_in) if comps else None
    return Artifact(
        method,
        d,
        basis("sp_basis", d),
        basis("mt_basis", d),
        tests,
        model,
        header.get("termination", (0, ""))[1],
        delta,
        pre_mean,
        pre_components,
    )


# every results.csv column in file order, and its kind: "text", "number" (a
# finite float), "integer", or "accuracy" (a number, blank in a failed run's row)
RESULTS_TABLE = (
    ("method", "text"), ("x_name", "text"), ("x_value", "number"), ("seed", "integer"),
    *((name, "accuracy") for name in ACCURACIES),
    ("d_sp_hat", "integer"), ("d_mt_hat", "integer"), ("runtime_ms", "number"),
    ("error", "text"), ("schema_version", "integer"),
)
RESULTS_COLUMNS = [name for name, _ in RESULTS_TABLE]


def write_results_csv(path: str, records: list[RunRecord]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_COLUMNS)
        for r in records:
            # a failed run has no summary, so its accuracies are missing and written blank
            fields = {**vars(r), "schema_version": SCHEMA_VERSION,
                      **dict(zip(ACCURACIES, r.summary.accuracies() if r.summary else ()))}
            writer.writerow([_fmt(fields[name]) if kind in ("number", "accuracy") and name in fields
                             else fields.get(name, "") for name, kind in RESULTS_TABLE])


def read_results_csv(path: str) -> list[dict]:
    """The runs of a results CSV as dicts of the raw field strings.

    The header must hold every ``RESULTS_COLUMNS`` name, and each row one field
    per header column, and its ``schema_version`` must be ``SCHEMA_VERSION``.
    Each field must be of its ``RESULTS_TABLE`` kind; a failed run's
    accuracies are empty. No (method, x value, seed) run may appear twice.
    Violations, and a file with no runs, raise ``DataFormatError`` naming the
    file and line.
    """
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            lines = [(reader.line_num, fields) for fields in reader]
        except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
            raise DataFormatError(f"{path}:{reader.line_num}: {exc}") from None
    header = lines[0][1] if lines else []
    if not header:
        raise DataFormatError(f"{path}: no runs")
    missing = [c for c in RESULTS_COLUMNS if c not in header]
    if missing:
        raise DataFormatError(f"{path}:1: missing columns {', '.join(missing)}")
    rows = []
    seen: dict[tuple, int] = {}  # (method, x value, seed) -> the line it is first on
    for line_num, fields in lines[1:]:
        if not fields:  # a blank line
            continue
        where = f"{path}:{line_num}"
        if len(fields) != len(header):
            raise DataFormatError(f"{where}: expected {len(header)} fields, got {len(fields)}")
        row = dict(zip(header, fields))
        _check_schema_version(path, line_num, row["schema_version"])
        if rows and row["x_name"] != rows[0]["x_name"]:
            raise DataFormatError(
                f"{where}: x_name is {row['x_name']!r}, not {rows[0]['x_name']!r}")
        for col, kind in RESULTS_TABLE:
            if kind == "text" or (kind == "accuracy" and row["error"] and not row[col]):
                continue  # a failed run has no accuracies
            try:
                value = int(row[col]) if kind == "integer" else float(row[col])
            except ValueError:
                what = "an integer" if kind == "integer" else "a number"
                raise DataFormatError(f"{where}: {col} is not {what}: {row[col]!r}") from None
            if kind != "integer" and not math.isfinite(value):  # an int of any size is finite
                raise DataFormatError(f"{where}: non-finite value {row[col]} in {col}")
        run = (row["method"], float(row["x_value"]), int(row["seed"]))
        if seen.setdefault(run, line_num) != line_num:
            raise DataFormatError(f"{where}: same (method, x_value, seed) as line {seen[run]}")
        rows.append(row)
    if not rows:
        raise DataFormatError(f"{path}: no runs")
    return rows


PLOT_COLUMNS = ["x", "method", "mean", "ci_low", "ci_high", "metric"]


def write_plot_tsv(path: str, cells: list[CellAggregate]) -> None:
    """One row per cell and metric: the mean and its 95% band, mean -/+ 1.96 SE,
    left blank for a one-seed cell."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(PLOT_COLUMNS) + "\n")
        for cell in cells:
            for metric in ("average", "worst_group"):
                m, se = cell.mean[metric], cell.se[metric]
                lo = "" if se is None else _fmt(m - 1.96 * se)
                hi = "" if se is None else _fmt(m + 1.96 * se)
                fh.write(
                    f"{_fmt(cell.x_value)}\t{cell.method}\t{_fmt(m)}\t{lo}\t{hi}\t{metric}\n"
                )


def eval_summary_jsonl(summary: EvalSummary) -> str:
    payload = {"schema_version": SCHEMA_VERSION}
    payload.update(summary.as_dict())
    return json.dumps(payload)


def format_report(rows: list[dict]) -> str:
    """Tables 4/5-style text report from results-CSV rows: mean (SE) per cell."""
    methods = sorted({r["method"] for r in rows})
    xs = sorted({float(r["x_value"]) for r in rows})
    x_name = rows[0]["x_name"] if rows else "x"
    metrics = [
        ("acc_g1", "y_mt=0, y_sp=0"), ("acc_g2", "y_mt=0, y_sp=1"),
        ("acc_g3", "y_mt=1, y_sp=0"), ("acc_g4", "y_mt=1, y_sp=1"),
        ("worst_group", "Worst-group"), ("average", "Average"),
    ]
    out = io.StringIO()
    header = f"{'Method':8s} {'Accuracy':16s}" + "".join(f"{x_name}={x:<12.15g}" for x in xs)
    out.write(header.rstrip() + "\n")
    out.write("-" * len(header) + "\n")
    cells: dict[tuple[str, float], list[dict]] = {}
    for r in rows:
        cells.setdefault((r["method"], float(r["x_value"])), []).append(r)
    for method in methods:
        for metric, label in metrics:
            cellstr = []
            for x in xs:
                vals = [float(r[metric]) for r in cells.get((method, x), []) if r[metric] != ""]
                if not vals:
                    cellstr.append(f"{'-':<14s}")
                    continue
                mean, se = mean_se(vals)
                se_text = "nan" if se is None else f"{se:.2f}"
                cellstr.append(f"{mean:6.2f} ({se_text}) ")
            name = method if metric == "acc_g1" else ""
            out.write(f"{name:8s} {label:16s}" + "".join(cellstr).rstrip() + "\n")
        out.write("\n")
    return out.getvalue()
