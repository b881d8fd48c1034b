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
"""

from __future__ import annotations

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
    with open(path, "r", encoding="utf-8") as fh:
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


def read_sections(path: str, lines, sections) -> tuple[dict, dict]:
    """The grammar configs and artifacts share: ``key = value`` lines, then
    ``[section]`` headers each followed by its lines.

    Returns ``header``, the lines before the first section as key ->
    (line number, value), and ``body``, each section's non-blank stripped
    lines as (line number, text); a repeated section continues the first. A
    section not in ``sections`` and a line before the first section without
    ``=`` raise ``DataFormatError`` naming ``path`` and the line.
    """
    header: dict[str, tuple[int, str]] = {}
    body: dict[str, list[tuple[int, str]]] = {}
    current: list[tuple[int, str]] | None = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in sections:
                raise DataFormatError(f"{path}:{lineno}: unknown section [{name}]; "
                                      f"expected one of {', '.join(sections)}")
            current = body.setdefault(name, [])
        elif current is None:
            if "=" not in line:
                raise DataFormatError(f"{path}:{lineno}: expected 'key = value' or '[section]'")
            key, _, value = line.partition("=")
            header[key.strip()] = (lineno, value.strip())
        else:
            current.append((lineno, line))
    return header, body


ARTIFACT_FIELDS = ("schema_version", "method", "d", "termination", "delta")
ARTIFACT_SECTIONS = ("pre_mean", "pre_components", "sp_basis", "mt_basis", "tests", "model")


def load_artifact(path: str) -> Artifact:
    with open(path, "r", encoding="utf-8") as fh:
        header, sections = read_sections(path, fh, ARTIFACT_SECTIONS)
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
    delta = 0.0
    if "delta" in header:
        lineno, value = header["delta"]
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
        entries = {}
        for lineno, ln in sections["model"]:
            key, _, value = ln.partition("=")
            entries[key.strip()] = (lineno, value.split())
        if "w" not in entries or "b" not in entries:
            raise DataFormatError(f"{path}: [model] needs a 'w' and a 'b' line")
        (b,) = floats(*entries["b"], 1)
        model = LinearModel(floats(*entries["w"], d), float(b))
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


RESULTS_COLUMNS = [
    "method", "x_name", "x_value", "seed", *ACCURACIES,
    "d_sp_hat", "d_mt_hat", "runtime_ms", "error", "schema_version",
]


def write_results_csv(path: str, records: list[RunRecord]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_COLUMNS)
        for r in records:
            accs = ([""] * len(ACCURACIES) if r.summary is None
                    else map(_fmt, r.summary.accuracies()))
            writer.writerow(
                [r.method, r.x_name, _fmt(r.x_value), r.seed, *accs,
                 r.d_sp_hat, r.d_mt_hat, _fmt(r.runtime_ms), r.error, SCHEMA_VERSION]
            )


def read_results_csv(path: str) -> list[dict]:
    """The runs of a results CSV as dicts of the raw field strings.

    The header must hold every ``RESULTS_COLUMNS`` name, and each row one field
    per header column, and its ``schema_version`` must be ``SCHEMA_VERSION``.
    Numeric fields must be finite numbers (``seed`` and the dimensions
    integers); a failed run's accuracies are empty. Violations, and a file with
    no runs, raise ``DataFormatError`` naming the file and line.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
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
        for col in ("x_value", "runtime_ms", *ACCURACIES):
            if col in ACCURACIES and row["error"] and not row[col]:
                continue  # a failed run has no accuracies
            try:
                value = float(row[col])
            except ValueError:
                raise DataFormatError(f"{where}: {col} is not a number: {row[col]!r}") from None
            if not np.isfinite(value):
                raise DataFormatError(f"{where}: non-finite value {row[col]} in {col}")
        for col in ("seed", "d_sp_hat", "d_mt_hat"):
            try:
                int(row[col])
            except ValueError:
                raise DataFormatError(
                    f"{where}: {col} is not an integer: {row[col]!r}") from None
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
    header = f"{'Method':8s} {'Accuracy':16s}" + "".join(f"{x_name}={x:<12g}" for x in xs)
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
