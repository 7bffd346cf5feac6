"""File formats: sparse functions, sets, reports, traces, summaries and the
groups of an enumeration's proof.

Function files:  {"dim": n, "entries": [{"z": [int, ...], "v": "p/q"}, ...]}
Set files:       {"dim": n, "points": [[int, ...], ...]}

Files are UTF-8 JSON.  This module checks only a file's shape (an object
whose `entries` or `points` is a list, each entry an object with `z` and
`v`) and hands the raw dim, points and values to the `SparseFunction` and
`LatticeSet` constructors, core being the one validator of outside input.
Both test a list at once and walk it in file order only to name a fault.
Values are exact: rational strings ("3/4"), decimal strings ("0.25",
parsed as scaled integers) or JSON integers.  JSON floats are rejected — a
binary float cannot round-trip the exact track.  Serialization is canonical
(entries sorted by point), so equal objects produce identical bytes.
"""

from __future__ import annotations

import json
from operator import itemgetter
from typing import TYPE_CHECKING, Union

from .core import LatticeSet, SparseFunction
from .errors import InvalidInputError

if TYPE_CHECKING:
    from .certify import ExactCertificate, InequalityReport
    from .fuzzing import FuzzSummary
    from .lab import RigidityReport
    from .search import SearchTrace

REPORT_CSV_HEADER = "inequality,n,p,lhs,rhs,deficit,relation,extremal_class"


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def function_to_dict(f: SparseFunction) -> dict:
    return {
        "dim": f.dim,
        "entries": [{"z": list(z), "v": str(v)} for z, v in f.items()],
    }


def _listed(obj: dict, field: str):
    """The raw items of a list field.  A generator, so that the constructor
    it is passed to checks 'dim' before this checks the field."""
    items = obj.get(field)
    if not isinstance(items, list):
        raise InvalidInputError(f"field '{field}' must be a list")
    yield from items


def _entry_pairs(obj: dict):
    for item in _listed(obj, "entries"):
        if not isinstance(item, dict) or "z" not in item or "v" not in item:
            raise InvalidInputError(f"entry {item!r} must have fields 'z' and 'v'")
        yield item["z"], item["v"]


def function_from_dict(obj: dict) -> SparseFunction:
    items, pairs = obj.get("entries"), None
    if type(items) is list and set(map(type, items)) <= {dict}:
        try:
            pairs = list(map(itemgetter("z", "v"), items))
        except KeyError:  # an entry lacks 'z' or 'v': the walk names it
            pass
    return SparseFunction(obj.get("dim"), _entry_pairs(obj) if pairs is None else pairs)


def set_to_dict(A: LatticeSet) -> dict:
    return {"dim": A.dim, "points": [list(z) for z in A.sorted_points()]}


def input_to_dict(x: Union[SparseFunction, LatticeSet]) -> dict:
    """A function or a set as the object of its file."""
    return function_to_dict(x) if isinstance(x, SparseFunction) else set_to_dict(x)


def set_from_dict(obj: dict) -> LatticeSet:
    points = obj.get("points")
    return LatticeSet(obj.get("dim"), points if type(points) is list else _listed(obj, "points"))


def load_input(path: str) -> Union[SparseFunction, LatticeSet]:
    """Read a function or set file, detected by its fields."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    except RecursionError as exc:
        raise InvalidInputError(f"malformed JSON in {path}: nested too deeply") from exc
    except ValueError as exc:  # bad JSON or UTF-8, or an int over the digit limit
        raise InvalidInputError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise InvalidInputError(f"{path}: top level must be an object")
    if "entries" in obj:
        return function_from_dict(obj)
    if "points" in obj:
        return set_from_dict(obj)
    raise InvalidInputError(f"{path}: expected field 'entries' (function) or 'points' (set)")


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def certificate_to_dict(cert: ExactCertificate) -> dict:
    return {
        "reduction": cert.reduction.value,
        "lhs_integer": str(cert.lhs_integer),
        "rhs_integer": str(cert.rhs_integer),
        "equal": cert.equal,
    }


def report_to_dict(report: InequalityReport) -> dict:
    out = {
        "inequality": report.inequality.value,
        "n": report.n,
        "p": None if report.p is None else str(report.p),
        "lhs": report.lhs,
        "rhs": report.rhs,
        "deficit": report.deficit,
        "relation": report.relation.value,
        "extremal_class": None if report.extremal_class is None else report.extremal_class.value,
    }
    if report.exact_certificate is not None:
        out["exact_certificate"] = certificate_to_dict(report.exact_certificate)
    if report.input_echo is not None:
        out["input_echo"] = report.input_echo
    return out


def report_csv_row(report: InequalityReport) -> str:
    return ",".join(
        [
            report.inequality.value,
            str(report.n),
            "" if report.p is None else str(report.p),
            format_float(report.lhs),
            format_float(report.rhs),
            format_float(report.deficit),
            report.relation.value,
            "" if report.extremal_class is None else report.extremal_class.value,
        ]
    )


# ---------------------------------------------------------------------------
# traces and summaries
# ---------------------------------------------------------------------------


def rigidity_to_dict(report: RigidityReport) -> dict:
    return {
        "n": report.n,
        "box_side": report.box_side,
        "max_size": report.max_size,
        "total_checked": report.total_checked,
        "mismatches": report.mismatch_count,
        "mismatches_by_reduction": report.mismatches,
        "shape_counts": report.shape_counts,
        "canonical_shape_counts": report.canonical_shape_counts,
        "equality_counts": report.equality_counts,
    }


def rigidity_rows_csv(report: RigidityReport) -> str:
    """The `enumerate --report` CSV: a row per group of report.groups.  A
    crossings or shadows key is its per-axis counts, space-separated; a
    class key is its coordinate sets, space-separated, axis by axis with
    "/" between axes.  A field the group does not decide is empty."""
    lines = ["group,key,size,count,shape_class,gn_equal,iso_equal,lw_equal"]
    for row in report.groups:
        if row.group == "class":
            key = "/".join(" ".join(map(str, coords)) for coords in row.key)
        else:
            key = " ".join(map(str, row.key))
        flags = ("" if flag is None else str(int(flag))
                 for flag in (row.gn_equal, row.iso_equal, row.lw_equal))
        shape = "" if row.shape_class is None else row.shape_class.value
        lines.append(",".join([row.group, key, str(row.size), str(row.count), shape, *flags]))
    return "\n".join(lines)


def trace_to_dict(trace: SearchTrace) -> dict:
    return {
        "seed": trace.seed,
        "objective": trace.objective.value,
        "iterations": trace.iterations,
        "best_value": trace.best_value,
        "best_input": input_to_dict(trace.best_input),
        "history": [[k, v] for k, v in trace.history],
    }


def summary_to_dict(summary: FuzzSummary) -> dict:
    return {
        "seed": summary.seed,
        "n": summary.n,
        "count": summary.count,
        "window": summary.window,
        "q": summary.q,
        "denominator": summary.denominator,
        "tol": summary.tol,
        "violations": summary.violations,
        # each instance runs one line-bound and one chain check
        "line_bound": {
            "checks": summary.count,
            "failures": summary.line_bound_failures,
        },
        "chain": {
            "checks": summary.count,
            "failures": summary.chain_failures,
        },
        "per_inequality": {
            name: {
                "count": stats.count,
                "violations": stats.violations,
                "min_deficit": stats.min_deficit,
                "max_deficit": stats.max_deficit,
                "worst_index": stats.worst_index,
                "worst_input": stats.worst_input,
            }
            for name, stats in sorted(summary.per_inequality.items())
        },
    }


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False)
