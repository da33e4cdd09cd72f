"""File formats: space documents, witness exports, report serialization.

Space files are JSON objects {"name"?, "labels"?, "d"} where matrix
entries are integers or lowest-terms "p/q" strings; loading and saving
round-trips bit-exactly. Report rationals are always written as "p/q"
(denominator included). All writers are deterministic: sorted keys, no
timestamps, newline-terminated, written atomically.
"""

from __future__ import annotations

import csv
import io as _io
import json
import os
import tempfile
from fractions import Fraction
from typing import Any

from .correspondence import distortion
from .errors import InvalidParameterError
from .experiments import SweepReport, TableReport
from .gh import GhResult
from .hyperspace import Hyperspace
from .rational import format_rational
from .spaces import FiniteMetricSpace, parse_square_matrix, validate_matrix

__all__ = [
    "space_to_doc",
    "space_from_doc",
    "load_space",
    "save_space",
    "members_doc",
    "save_hyperspace",
    "gh_result_doc",
    "sweep_report_doc",
    "sweep_report_csv",
    "table_report_doc",
    "table_report_csv",
    "dumps",
    "atomic_write_text",
]


def _entry(v: Fraction) -> int | str:
    return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def space_to_doc(space: FiniteMetricSpace) -> dict:
    doc: dict[str, Any] = {
        "d": [[_entry(v) for v in row] for row in space.d]}
    if space.name is not None:
        doc["name"] = space.name
    if space.labels is not None:
        doc["labels"] = list(space.labels)
    return doc


def space_from_doc(
    doc: Any, *, pseudometric: bool = False, unchecked: bool = False
) -> FiniteMetricSpace:
    if not isinstance(doc, dict) or "d" not in doc:
        raise InvalidParameterError('space document must carry a "d" matrix')
    rows = doc["d"]
    if not isinstance(rows, list) or not all(
            isinstance(row, list) for row in rows):
        raise InvalidParameterError('"d" must be a list of lists')
    labels = doc.get("labels")
    if labels is not None:
        if not isinstance(labels, list):
            raise InvalidParameterError('"labels" must be a list')
        labels = tuple(str(x) for x in labels)
    name = doc.get("name")
    if unchecked:
        # a square matrix of rationals, no metric axioms checked
        return FiniteMetricSpace(parse_square_matrix(rows), pseudometric=True,
                                 labels=labels, name=name)
    return validate_matrix(
        rows, pseudometric=pseudometric, labels=labels, name=name)


def load_space(
    path: str, *, pseudometric: bool = False, unchecked: bool = False
) -> FiniteMetricSpace:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            # JSONDecodeError, undecodable bytes, over-long integer literals
            raise InvalidParameterError(f"{path}: not valid JSON: {exc}") from None
    return space_from_doc(doc, pseudometric=pseudometric, unchecked=unchecked)


def dumps(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def atomic_write_text(path: str, text: str) -> None:
    """Write once: temp file in the target directory, then rename over."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".mslab-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def save_space(space: FiniteMetricSpace, path: str) -> None:
    atomic_write_text(path, dumps(space_to_doc(space)))


def members_doc(h: Hyperspace) -> dict:
    """Sidecar mapping member index -> bitmask (decimal, by position)."""
    return {"members": [s.bits for s in h.members]}


def save_hyperspace(h: Hyperspace, path: str) -> str:
    """Write the metric as a space file plus a members sidecar.

    Returns the sidecar path (the space path with ".members.json"
    appended).
    """
    save_space(h.metric, path)
    sidecar = f"{path}.members.json"
    atomic_write_text(sidecar, dumps(members_doc(h)))
    return sidecar


def gh_result_doc(
    result: GhResult,
    x_space: FiniteMetricSpace,
    y_space: FiniteMetricSpace,
) -> dict:
    """Witness export: [x, y] pairs plus the distortion as "p/q"."""
    return {
        "distance": format_rational(result.distance),
        "distortion": format_rational(
            distortion(result.witness, x_space, y_space)),
        "witness": [[x, y] for x, y in result.witness.sorted_pairs()],
        "nodes_explored": result.nodes_explored,
        "status": result.status,
    }


def _jsonable(value: Any) -> Any:
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def sweep_report_doc(report: SweepReport) -> dict:
    doc = {
        "kind": report.kind,
        "params": _jsonable(report.params),
        "rows": [
            {
                "pair_id": r.pair_id,
                "seed": r.seed,
                "n_x": r.n_x,
                "n_y": r.n_y,
                "d_xy": format_rational(r.d_xy),
                "d_hxhy": format_rational(r.d_hxhy),
                "gap": format_rational(r.gap),
                "status": r.status,
                "witness_xy": [[a, b] for a, b in r.witness_xy],
                "witness_hxhy": [[a, b] for a, b in r.witness_hxhy],
            }
            for r in report.rows
        ],
        "summary": {
            "min_gap": None if report.summary.min_gap is None
            else format_rational(report.summary.min_gap),
            "max_gap": None if report.summary.max_gap is None
            else format_rational(report.summary.max_gap),
            "violations": report.summary.violations,
        },
    }
    witness = report.largest_gap_witness
    doc["largest_gap_witness"] = None if witness is None else {
        "pair_id": witness.pair_id,
        "x": space_to_doc(witness.x),
        "y": space_to_doc(witness.y),
    }
    return doc


_SWEEP_COLUMNS = [
    "pair_id", "seed", "n_x", "n_y", "d_xy", "d_hxhy", "gap", "status"]


def sweep_report_csv(report: SweepReport) -> str:
    """Summary rows only; witnesses live in the JSON form."""
    out = _io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_SWEEP_COLUMNS)
    for r in report.rows:
        writer.writerow([
            r.pair_id, r.seed, r.n_x, r.n_y,
            format_rational(r.d_xy), format_rational(r.d_hxhy),
            format_rational(r.gap), r.status,
        ])
    return out.getvalue()


def table_report_doc(report: TableReport) -> dict:
    return {
        "params": _jsonable(report.params),
        "simplex_rows": _jsonable(list(report.simplex_rows)),
        "finite_rows": _jsonable(list(report.finite_rows)),
        "spot_rows": _jsonable(list(report.spot_rows)),
        "all_equal": report.all_equal,
    }


def table_report_csv(report: TableReport) -> str:
    out = _io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([
        "section", "name", "p", "q", "m", "t", "s",
        "base", "lifted", "exact_base", "exact_lifted", "equal"])
    for r in report.simplex_rows:
        writer.writerow([
            "simplex", "", r["p"], r["q"], "",
            format_rational(r["t"]), format_rational(r["s"]),
            format_rational(r["base"]), format_rational(r["lifted"]),
            "", "", r["equal"]])
    for r in report.finite_rows:
        writer.writerow([
            "finite", r["name"], "", "", r["m"],
            format_rational(r["t"]), "",
            format_rational(r["base"]), format_rational(r["lifted"]),
            "", "", r["equal"]])
    for r in report.spot_rows:
        writer.writerow([
            "spot", r["name"], "", "", "",
            format_rational(r["t"]), "",
            format_rational(r["formula_base"]),
            format_rational(r["formula_lifted"]),
            format_rational(r["exact_base"]),
            format_rational(r["exact_lifted"]),
            r["equal"]])
    return out.getvalue()
