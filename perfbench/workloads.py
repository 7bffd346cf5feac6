"""The four benchmark workloads, the seeded `check` corpus and the validators.

A workload is a list of CLI calls made from the workload seed: one pass.
The harness repeats the pass, so every call is timed several times.  Each
call carries the number of items it does and a validator that inspects its
exit code and stdout.  Validators use closed-form counts and
theorem-predicted verdicts, never timing fields such as `elapsed_seconds`.

Import this module only after `run.prepare()` has put the checkout's `src`
on `sys.path`.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from latticeineq import lab
from latticeineq.core import LatticeSet


@dataclass(frozen=True)
class Call:
    argv: tuple
    items: int
    validate: Callable[[int, str], Optional[str]]  # (exit code, stdout) -> error or None


def _derive(seed: int, *parts) -> random.Random:
    return random.Random(":".join(str(p) for p in (seed,) + parts))


def _json(out: str):
    try:
        return json.loads(out), None
    except ValueError as exc:
        return None, f"output is not JSON: {exc}"


# ---------------------------------------------------------------------------
# fuzz
# ---------------------------------------------------------------------------


def validate_fuzz(out: str, n: int, count: int) -> Optional[str]:
    summary, err = _json(out)
    if err:
        return err
    if summary.get("n") != n or summary.get("count") != count:
        return f"fuzz summary for n={summary.get('n')} count={summary.get('count')}"
    if summary["violations"]:
        return f"{summary['violations']} violations"
    for key in ("line_bound", "chain"):
        part = summary[key]
        if part["failures"] or part["checks"] != count:
            return f"{key}: {part['failures']} failures in {part['checks']} checks"
    for name, stats in summary["per_inequality"].items():
        if stats["count"] != count or stats["violations"]:
            return f"{name}: {stats['violations']} violations in {stats['count']}"
    if len(summary["per_inequality"]) != 8:
        return f"{len(summary['per_inequality'])} inequalities, expected 8"
    return None


def fuzz_calls(seed: int, scale: float = 1.0) -> list:
    # Calls of about equal cost (n=2 x100 ~ n=3 x30), so the latency
    # percentiles sit inside one mode instead of between two.
    shapes = [(2, 5, max(1, round(100 * scale)))] * 4
    shapes += [(3, 4, max(1, round(30 * scale)))] * 2
    rng = _derive(seed, "fuzz")
    calls = []
    for n, window, count in shapes:
        argv = ("fuzz", "--n", str(n), "--window", str(window),
                "--count", str(count), "--seed", str(rng.randrange(1 << 30)),
                "--threads", "1")
        calls.append(Call(argv, count, _exit0(
            lambda out, n=n, count=count: validate_fuzz(out, n, count))))
    return calls


def _exit0(check):
    def validate(code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        return check(out)
    return validate


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


def expected_enumeration(n: int, side: int, max_size: int) -> dict:
    """Closed-form counts over the nonempty subsets of at most `max_size`
    cells of the side^n box: cuboids (GN equality), cubes (isoperimetric
    equality) and product sets (Loomis-Whitney equality)."""
    cells = side ** n
    total = sum(math.comb(cells, j) for j in range(1, min(max_size, cells) + 1))
    gn = lw = 0
    for sides in itertools.product(range(1, side + 1), repeat=n):
        if math.prod(sides) <= max_size:
            gn += math.prod(side - s + 1 for s in sides)
            lw += math.prod(math.comb(side, s) for s in sides)
    iso = sum((side - k + 1) ** n for k in range(1, side + 1) if k ** n <= max_size)
    return {"total": total, "gn": gn, "iso": iso, "lw": lw}


def validate_enumeration(out: str, n: int, side: int, max_size: int) -> Optional[str]:
    report, err = _json(out)
    if err:
        return err
    want = expected_enumeration(n, side, max_size)
    if report["total_checked"] != want["total"]:
        return f"checked {report['total_checked']} subsets, expected {want['total']}"
    if report["mismatches"]:
        return f"{report['mismatches']} mismatches"
    got = report["equality_counts"]
    if got != {k: want[k] for k in ("gn", "iso", "lw")}:
        return f"equality counts {got}, expected {want}"
    shapes = report["shape_counts"]
    if (shapes["CUBE"] != want["iso"]
            or shapes["CUBE"] + shapes["CUBOID"] != want["gn"]
            or shapes["CUBE"] + shapes["CUBOID"] + shapes["PRODUCT_SET"] != want["lw"]
            or sum(shapes.values()) != want["total"]):
        return f"shape counts {shapes} disagree with {want}"
    return None


# (n, box side, max size): the full 4x4 box (65 535 subsets), the <=5-cell
# subsets of the 5x5 box (68 405, the itertools.combinations path) and the
# 2x2x2 box (255).  Every box has at most 64 cells.
ENUMERATIONS = ((2, 4, 16), (2, 5, 5), (3, 2, 8))
TINY_ENUMERATIONS = ((2, 3, 9), (2, 4, 3), (3, 2, 8))


def enumerate_calls(seed: int, scale: float = 1.0) -> list:
    calls = []
    for n, side, max_size in ENUMERATIONS if scale >= 1 else TINY_ENUMERATIONS:
        argv = ("enumerate", "--n", str(n), "--box", str(side))
        if max_size < side ** n:
            argv += ("--max-size", str(max_size))
        items = expected_enumeration(n, side, max_size)["total"]
        calls.append(Call(argv, items, _exit0(
            lambda out, n=n, s=side, m=max_size: validate_enumeration(out, n, s, m))))
    # the boxes are fixed; the seed only orders the calls
    _derive(seed, "enumerate").shuffle(calls)
    return calls


# ---------------------------------------------------------------------------
# anneal
# ---------------------------------------------------------------------------


def validate_anneal(out: str, n: int, size: int, iters: int) -> Optional[str]:
    trace, err = _json(out)
    if err:
        return err
    if trace["iterations"] != iters:
        return f"{trace['iterations']} iterations, expected {iters}"
    best = trace["best_value"]
    if not 0 < best < 1:
        return f"best ratio {best} outside (0, 1)"
    points = trace["best_input"].get("points", [])
    A = LatticeSet(n, (tuple(z) for z in points))
    if len(A) != size or len(points) != size:
        return f"best set has {len(A)} distinct points, expected {size}"
    if lab.iso_ratio(A) != best:
        return f"iso_ratio(best_input) = {lab.iso_ratio(A)} != best_value {best}"
    return None


def anneal_calls(seed: int, scale: float = 1.0) -> list:
    # Neither 40 nor 30 is a perfect n-th power, so the ratio never reaches 1
    # and every call runs all of its proposals.
    iters = max(1, round(10_000 * scale))
    rng = _derive(seed, "anneal")
    calls = []
    for n, size in ((2, 40), (2, 40), (3, 30)):
        argv = ("search", "--mode", "anneal", "--n", str(n), "--size", str(size),
                "--iters", str(iters), "--seed", str(rng.randrange(1 << 30)))
        calls.append(Call(argv, iters, _exit0(
            lambda out, n=n, size=size: validate_anneal(out, n, size, iters))))
    return calls


# ---------------------------------------------------------------------------
# check: seeded corpus of sets, rational functions and cuboid indicators
# ---------------------------------------------------------------------------

CHECK_DEFAULT_SET = 5        # GN, SOBOLEV, ISO, BL, LW
CHECK_DEFAULT_SIGNED = 4     # GN, SOBOLEV, ISO, LW
CHECK_NORMALIZED = 8         # all eight


def _support_sizes(count: int, lo: float, hi: float) -> list:
    """Log-uniform sizes in [lo, hi], the midpoint of each of `count` equal
    strata, so every seed's corpus holds the same sizes and the seed moves
    only the points, the values and the order of the calls."""
    span = math.log(hi / lo)
    return [round(lo * math.exp(span * (j + 0.5) / count)) for j in range(count)]


def _random_points(rng: random.Random, n: int, size: int) -> list:
    side = max(2, math.ceil((2 * size) ** (1.0 / n)))
    cells = rng.sample(range(side ** n), size)
    return [[(c // side ** ax) % side for ax in range(n)] for c in cells]


def _cuboid_sides(rng: random.Random, n: int, size: int) -> list:
    sides = []
    left = size
    for ax in range(n - 1, 0, -1):
        s = max(1, round((left ** (1.0 / (ax + 1))) * math.exp(rng.uniform(-0.4, 0.4))))
        sides.append(s)
        left = max(1, round(left / s))
    sides.append(left)
    rng.shuffle(sides)
    return sides


def _value(rng: random.Random, signed: bool) -> str:
    v = Fraction(rng.randint(1, 64), rng.choice((1, 3, 64)))
    if signed and rng.random() < 0.5:
        v = -v
    return str(v)


def validate_check(code: int, out: str, fmt: str, reports: int,
                   cuboid: bool) -> Optional[str]:
    if code != 0:
        return f"exit code {code}"
    if fmt == "json":
        doc, err = _json(out)
        if err:
            return err
        rows = [(r["inequality"], r["relation"]) for r in doc["reports"]]
    else:
        lines = [line for line in out.splitlines() if not line.startswith("#")]
        rows = [(r["inequality"], r["relation"]) for r in csv.DictReader(lines)]
    if len(rows) != reports:
        return f"{len(rows)} reports, expected {reports}"
    for ineq, relation in rows:
        if relation == "VIOLATED":
            return f"{ineq} VIOLATED"
        if cuboid and ineq == "GN" and relation != "EXACT_EQUAL":
            return f"GN on a cuboid indicator is {relation}, expected EXACT_EQUAL"
    return None


def validate_table(code: int, out: str, n: int, max_side: int) -> Optional[str]:
    """Every row is a cuboid indicator: GN, BL and LW hold with equality;
    Sobolev and the isoperimetric inequality exactly on cubes."""
    if code != 0:
        return f"exit code {code}"
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    rows = list(csv.DictReader(lines))
    if len(rows) != max_side ** n:
        return f"{len(rows)} table rows, expected {max_side ** n}"
    for row in rows:
        sides = row["sides"].split("x")
        cube = len(set(sides)) == 1
        for tok, equal in (("gn", True), ("bl", True), ("lw", True),
                           ("sobolev", cube), ("iso", cube)):
            want = "EXACT_EQUAL" if equal else "STRICT"
            if row[f"{tok}_relation"] != want:
                return f"{row['sides']}: {tok} is {row[f'{tok}_relation']}, expected {want}"
    return None


def write_check_corpus(seed: int, directory: str, scale: float = 1.0) -> list:
    """Write the seeded corpus into `directory`; return one Call per file.

    Thirds of sets, random rational functions and scaled cuboid indicators,
    alternating n = 2 and 3, with supports log-uniform in [20, 3000] points.
    Functions cycle through signed, normalized (p = 1/2, 1, 2 in turn),
    signed and plain nonnegative, each at both n.  Reports go out
    alternately as JSON and CSV.
    """
    rng = _derive(seed, "check")
    per_kind = max(1, round(40 * scale))
    hi = 3000 if scale >= 1 else 60
    calls = []
    for kind in ("set", "function", "cuboid"):
        for i, size in enumerate(_support_sizes(per_kind, 20, hi)):
            n = 2 + i % 2
            argv = ["check"]
            if kind == "set":
                doc = {"dim": n, "points": _random_points(rng, n, size)}
                reports = CHECK_DEFAULT_SET
            elif kind == "function":
                variant = ("signed", "normalized", "signed", "plain")[(i // 2) % 4]
                signed = variant == "signed"
                doc = {"dim": n, "entries": [
                    {"z": z, "v": _value(rng, signed)} for z in _random_points(rng, n, size)
                ]}
                if signed:
                    reports = CHECK_DEFAULT_SIGNED
                elif variant == "normalized":
                    argv += ["--normalize", "--p", ("1/2", "1", "2")[(i // 8) % 3]]
                    reports = CHECK_NORMALIZED
                else:
                    reports = CHECK_DEFAULT_SET
            else:
                sides = _cuboid_sides(rng, n, size)
                origin = [rng.randint(-50, 50) for _ in range(n)]
                v = _value(rng, False)
                doc = {"dim": n, "entries": [
                    {"z": [o + c for o, c in zip(origin, z)], "v": v}
                    for z in itertools.product(*(range(s) for s in sides))
                ]}
                argv += ["--exact"]
                reports = CHECK_DEFAULT_SET
            path = os.path.join(directory, f"{kind}-{i:03d}.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            fmt = "json" if len(calls) % 2 == 0 else "csv"
            argv += ["--input", path, "--format", fmt]
            calls.append(Call(tuple(argv), 1, lambda code, out, f=fmt, r=reports,
                              c=kind == "cuboid": validate_check(code, out, f, r, c)))
    return calls


def check_calls(seed: int, directory: str, scale: float = 1.0) -> list:
    calls = write_check_corpus(seed, directory, scale)
    tables = ((2, 12), (3, 6)) if scale >= 1 else ((2, 3), (3, 2))
    for n, max_side in tables:
        calls.append(Call(
            ("table", "--n", str(n), "--max-side", str(max_side)), 1,
            lambda code, out, n=n, m=max_side: validate_table(code, out, n, m)))
    _derive(seed, "check-order").shuffle(calls)
    return calls


def make_calls(name: str, seed: int, workdir: str, scale: float = 1.0) -> list:
    """The calls of one pass of workload `name`; `workdir` receives the
    check corpus."""
    if name == "fuzz":
        return fuzz_calls(seed, scale)
    if name == "enumerate":
        return enumerate_calls(seed, scale)
    if name == "anneal":
        return anneal_calls(seed, scale)
    if name == "check":
        return check_calls(seed, workdir, scale)
    raise ValueError(f"unknown workload {name!r}")
