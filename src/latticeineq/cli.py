"""Command-line surface: check, fuzz, search, enumerate, table.

Exit codes: 0 all checks hold, 1 a violation was found (a theorem
counterexample, i.e. an implementation bug — the offending input is echoed
in the report), 2 input or configuration error (one-line diagnostic naming
the offending field), 3 internal error (one-line diagnostic naming the
exception; nothing is written to stdout).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys
from fractions import Fraction
from typing import Optional

from . import fileio
from .certify import (
    DEFAULT_TOL,
    LOG_INEQUALITIES,
    NONNEGATIVE_INEQUALITIES,
    Inequality,
    Relation,
    check,
)
from .core import Cuboid, SparseFunction, as_fraction, check_box, indicator
from .errors import InvalidInputError, LatticeError
from .fuzzing import fuzz
from .lab import DEFAULT_ENUM_BUDGET, enumerate_rigidity
from .search import anneal_sets, ascend_function

INEQ_TOKENS = {
    "gn": Inequality.GN,
    "sobolev": Inequality.SOBOLEV,
    "iso": Inequality.ISOPERIMETRIC,
    "isoperimetric": Inequality.ISOPERIMETRIC,
    "logsob-dir": Inequality.LOG_SOBOLEV_DIR,
    "logsob": Inequality.LOG_SOBOLEV,
    "bl": Inequality.BL,
    "logbl": Inequality.LOG_BL,
    "lw": Inequality.LW,
    "loomis-whitney": Inequality.LW,
}


def _parse_ineqs(raw: Optional[str]):
    if raw is None:
        return None
    out = []
    for token in raw.split(","):
        token = token.strip().lower()
        if not token:
            continue
        if token == "all":
            return list(Inequality)
        if token not in INEQ_TOKENS:
            raise InvalidInputError(
                f"unknown inequality {token!r}; choose from {', '.join(sorted(INEQ_TOKENS))}"
            )
        out.append(INEQ_TOKENS[token])
    if not out:
        raise InvalidInputError("empty --ineq selection")
    return out


def _parse_p(raw: str) -> Fraction:
    try:
        p = as_fraction(raw)
    except InvalidInputError as exc:
        raise InvalidInputError(f"invalid p: {exc}") from exc
    if p <= 0:
        raise InvalidInputError(f"p must be positive, got {raw}")
    return p


def _write(text: str, out: Optional[str]):
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def cmd_check(args) -> int:
    tol = args.tol
    p = _parse_p(args.p)
    obj = fileio.load_input(args.input)

    selected = _parse_ineqs(args.ineq)
    if selected is None:
        # default: everything applicable that cannot fail a precondition;
        # log inequalities need unit p-norm, so a function gets them only
        # with --normalize, and a signed function skips the nonnegative ones
        if not isinstance(obj, SparseFunction):
            skip = LOG_INEQUALITIES
        elif not obj.is_nonnegative():
            skip = NONNEGATIVE_INEQUALITIES
        else:
            skip = frozenset() if args.normalize else LOG_INEQUALITIES
        selected = [i for i in Inequality if i not in skip]

    reports = [check(i, obj, p, tol, args.normalize) for i in selected]
    if args.exact:
        for report in reports:
            if report.exact_certificate is None:
                raise InvalidInputError(
                    f"--exact: no integer certificate applies to {report.inequality.value} "
                    "on this input (not a scaled indicator)"
                )

    if args.format == "csv":
        lines = [f"# tol={tol!r}", fileio.REPORT_CSV_HEADER]
        lines += [fileio.report_csv_row(r) for r in reports]
        _write("\n".join(lines), args.out)
    else:
        _write(
            fileio.dumps(
                {"tol": tol, "reports": [fileio.report_to_dict(r) for r in reports]}
            ),
            args.out,
        )
    return 1 if any(r.relation is Relation.VIOLATED for r in reports) else 0


def cmd_fuzz(args) -> int:
    summary = fuzz(
        count=args.count,
        n=args.n,
        seed=args.seed,
        window=args.window,
        q=args.q,
        denominator=args.denominator,
        tol=args.tol,
        threads=args.threads,
    )
    _write(fileio.dumps(fileio.summary_to_dict(summary)), args.out)
    return 1 if summary.violations else 0


def cmd_search(args) -> int:
    if args.mode == "anneal":
        if args.size is None:
            raise InvalidInputError("--size is required for --mode anneal")
        trace = anneal_sets(
            n=args.n,
            size=args.size,
            iters=args.iters,
            seed=args.seed,
            t0=args.t0,
            alpha=args.alpha,
            box_side=args.box_side,
        )
    else:
        if args.window_side is None:
            raise InvalidInputError("--window-side is required for --mode ascend")
        trace = ascend_function(
            n=args.n,
            window=args.window_side,
            iters=args.iters,
            seed=args.seed,
            start=args.start,
        )
    _write(fileio.dumps(fileio.trace_to_dict(trace)), args.out)
    return 0


def cmd_enumerate(args) -> int:
    report = enumerate_rigidity(
        n=args.n,
        box_side=args.box,
        max_size=args.max_size,
        budget=args.budget,
    )
    if args.report is not None:
        _write(fileio.rigidity_rows_csv(report), args.report)
    _write(fileio.dumps(fileio.rigidity_to_dict(report)), args.out)
    return 1 if report.mismatch_count else 0


TABLE_INEQS = tuple(i for i in Inequality if i not in LOG_INEQUALITIES)

# the column prefix of each inequality is its first --ineq token
SHORT_NAME = {
    ineq: token.replace("-", "_") for token, ineq in reversed(INEQ_TOKENS.items())
}


def emit_table(
    n: int,
    min_side: int,
    max_side: int,
    ineqs,
    p: Fraction,
    tol: float,
    dedup: bool = False,
) -> tuple:
    """CSV sweep over cuboid shapes: per selected inequality the two sides,
    the certificate integers and the relation; and whether any relation is
    VIOLATED."""
    if n < 2:
        raise InvalidInputError(f"table needs ambient dimension >= 2, got n={n}")
    if min_side < 1 or max_side < min_side:
        raise InvalidInputError(
            f"invalid side range {min_side}..{max_side}; need 1 <= min <= max"
        )
    # the rows' cuboids together have (min_side + ... + max_side)^n cells
    check_box((min_side + max_side) * (max_side - min_side + 1) // 2, n, "table")
    columns = ["sides", "size"]
    for ineq in ineqs:
        tok = SHORT_NAME[ineq]
        columns += [
            f"{tok}_lhs", f"{tok}_rhs", f"{tok}_cert_lhs", f"{tok}_cert_rhs",
            f"{tok}_relation",
        ]
    lines = [f"# tol={tol!r}", ",".join(columns)]
    violated = False
    for sides in itertools.product(range(min_side, max_side + 1), repeat=n):
        if dedup and list(sides) != sorted(sides):
            continue
        cuboid = Cuboid.from_sides(sides)
        f = indicator(cuboid)
        row = ["x".join(str(s) for s in sides), str(cuboid.size())]
        for ineq in ineqs:
            report = check(ineq, f, p, tol, normalize=True)
            cert = report.exact_certificate
            row += [
                fileio.format_float(report.lhs),
                fileio.format_float(report.rhs),
                "" if cert is None else str(cert.lhs_integer),
                "" if cert is None else str(cert.rhs_integer),
                report.relation.value,
            ]
            violated |= report.relation is Relation.VIOLATED
        lines.append(",".join(row))
    return "\n".join(lines), violated


def cmd_table(args) -> int:
    p = _parse_p(args.p)
    selected = _parse_ineqs(args.ineq) or list(TABLE_INEQS)
    text, violated = emit_table(
        n=args.n,
        min_side=args.min_side,
        max_side=args.max_side,
        ineqs=selected,
        p=p,
        tol=args.tol,
        dedup=args.dedup,
    )
    _write(text, args.out)
    return 1 if violated else 0


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticeineq",
        description="Verify sharp discrete functional inequalities on integer lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("check", help="run inequality checks on a function or set file")
    pc.add_argument("--input", required=True, help="JSON function or set file")
    pc.add_argument("--ineq", help="comma list: gn,sobolev,iso,logsob-dir,logsob,bl,logbl,lw or 'all'")
    pc.add_argument("--p", default="2", help="exponent for log inequalities (rational, default 2)")
    pc.add_argument("--tol", type=float, default=DEFAULT_TOL)
    pc.add_argument("--normalize", action="store_true",
                    help="rescale to unit p-norm for log inequalities")
    pc.add_argument("--exact", action="store_true",
                    help="require the integer certificate path on every check")
    pc.add_argument("--format", choices=("json", "csv"), default="json")
    pc.add_argument("--out", help="write the report here instead of stdout")
    pc.set_defaults(func=cmd_check)

    pf = sub.add_parser("fuzz", help="random soundness sweep over all checkers")
    pf.add_argument("--count", type=int, required=True)
    pf.add_argument("--n", type=int, required=True)
    pf.add_argument("--seed", type=int, default=0)
    pf.add_argument("--window", type=int, default=5)
    pf.add_argument("--q", type=float, default=0.4)
    pf.add_argument("--denominator", type=int, default=64)
    pf.add_argument("--tol", type=float, default=DEFAULT_TOL)
    pf.add_argument("--threads", type=int, default=1,
                    help="worker processes, at most the CPU count (default: 1)")
    pf.add_argument("--out")
    pf.set_defaults(func=cmd_fuzz)

    ps = sub.add_parser("search", help="stochastic extremal search")
    ps.add_argument("--mode", choices=("anneal", "ascend"), required=True)
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--size", type=int, help="set cardinality (anneal)")
    ps.add_argument("--iters", type=int, default=100_000)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--t0", type=float, default=0.05)
    ps.add_argument("--alpha", type=float, default=0.999)
    ps.add_argument("--box-side", type=int, default=None)
    ps.add_argument("--window-side", type=int, help="window side (ascend)")
    ps.add_argument("--start", choices=("random", "indicator"), default="random")
    ps.add_argument("--out")
    ps.set_defaults(func=cmd_search)

    pe = sub.add_parser("enumerate", help="exhaustive rigidity check on a small box")
    pe.add_argument("--n", type=int, required=True)
    pe.add_argument("--box", type=int, required=True, help="box side length")
    pe.add_argument("--max-size", type=int, default=None)
    pe.add_argument("--budget", type=int, default=DEFAULT_ENUM_BUDGET)
    pe.add_argument("--report", help="write the proof here as CSV: one row per "
                                     "histogram key and per canonical product set")
    pe.add_argument("--out")
    pe.set_defaults(func=cmd_enumerate)

    pt = sub.add_parser("table", help="cuboid sweep table with certificates")
    pt.add_argument("--n", type=int, required=True)
    pt.add_argument("--min-side", type=int, default=1)
    pt.add_argument("--max-side", type=int, required=True)
    pt.add_argument("--ineq", help="comma list (default gn,sobolev,iso,bl,lw)")
    pt.add_argument("--p", default="2")
    pt.add_argument("--tol", type=float, default=DEFAULT_TOL)
    pt.add_argument("--dedup", action="store_true",
                    help="keep one representative per side multiset")
    pt.add_argument("--out")
    pt.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LatticeError as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"overflow: input out of floating-point range: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, not a verdict: never exit 1 for it
        message = str(exc).replace("\n", " ")
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
