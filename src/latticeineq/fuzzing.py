"""Seeded random soundness sweep over all eight inequality checkers.

Each instance draws a signed sparse function, its nonnegative twin and an
independent random set inside a window, runs every checker plus the exact
per-line bound and the three-term projection chain, and accumulates deficits.
A violation of any relation is a theorem counterexample, i.e. an
implementation bug; either way the summary retains, per inequality, the
input its checker saw at the smallest deficit.

The random stream of instance k is derived from (seed << 32) + k, so
summaries are bit-identical no matter how instances are scheduled; the
optional process pool (`threads` workers, at most the CPU count and the
number of chunks) reduces chunks in index order.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .certify import (
    DEFAULT_TOL,
    NONNEGATIVE_INEQUALITIES,
    SET_INEQUALITIES,
    Inequality,
    Relation,
    check,
)
from .certify import _relation
from .core import LatticeSet, SparseFunction, check_box, pointwise_line_bound
from .errors import InvalidInputError
from .fileio import input_to_dict

P_CYCLE = (Fraction(1, 2), Fraction(1), Fraction(2))


@dataclass
class IneqStats:
    count: int = 0
    violations: int = 0
    min_deficit: Optional[float] = None
    max_deficit: Optional[float] = None
    worst_index: Optional[int] = None
    worst_input: Optional[dict] = None

    def update(self, deficit: float, violated: bool, index: int, checked):
        self.count += 1
        if violated:
            self.violations += 1
        if self.max_deficit is None or deficit > self.max_deficit:
            self.max_deficit = deficit
        if self.min_deficit is None or (deficit, index) < (self.min_deficit, self.worst_index):
            self.min_deficit = deficit
            self.worst_index = index
            self.worst_input = input_to_dict(checked)

    def merge(self, other: "IneqStats"):
        self.count += other.count
        self.violations += other.violations
        if other.max_deficit is not None and (
            self.max_deficit is None or other.max_deficit > self.max_deficit
        ):
            self.max_deficit = other.max_deficit
        if other.min_deficit is not None and (
            self.min_deficit is None
            or (other.min_deficit, other.worst_index) < (self.min_deficit, self.worst_index)
        ):
            self.min_deficit = other.min_deficit
            self.worst_index = other.worst_index
            self.worst_input = other.worst_input


@dataclass
class FuzzSummary:
    seed: int
    n: int
    count: int
    window: int
    q: float
    denominator: int
    tol: float
    per_inequality: dict = field(default_factory=dict)
    line_bound_failures: int = 0
    chain_failures: int = 0

    @property
    def violations(self) -> int:
        return (
            sum(s.violations for s in self.per_inequality.values())
            + self.line_bound_failures
            + self.chain_failures
        )

    def merge(self, other: "FuzzSummary"):
        self.count += other.count
        for key, stats in other.per_inequality.items():
            self.per_inequality.setdefault(key, IneqStats()).merge(stats)
        self.line_bound_failures += other.line_bound_failures
        self.chain_failures += other.chain_failures


def _sample_support(rng: random.Random, n: int, window: int, q: float) -> list:
    picked = [
        z
        for z in itertools.product(range(window), repeat=n)
        if rng.random() < q
    ]
    if not picked:
        picked = [tuple(rng.randrange(window) for _ in range(n))]
    return picked


def _sample_function(
    rng: random.Random, n: int, window: int, q: float, denominator: int, signed: bool
) -> SparseFunction:
    # each value is rng.randint(1, denominator): Random.randrange's
    # rejection draw, taken inline
    getrandbits, uniform = rng.getrandbits, rng.random
    bits = denominator.bit_length()
    nums = {}
    for z in _sample_support(rng, n, window, q):
        a = getrandbits(bits)
        while a >= denominator:
            a = getrandbits(bits)
        nums[z] = -a - 1 if signed and uniform() < 0.5 else a + 1
    return SparseFunction._from_clean(n, nums, denominator)


def run_instance(seed: int, index: int, n: int, window: int, q: float,
                 denominator: int, tol: float) -> dict:
    """All checks for one instance: each inequality's input and report, and
    the failure flags."""
    rng = random.Random((seed << 32) + index)
    f_signed = _sample_function(rng, n, window, q, denominator, signed=True)
    f = f_signed.abs()
    A = LatticeSet._from_clean(n, _sample_support(rng, n, window, q))
    p = P_CYCLE[index % len(P_CYCLE)]

    inputs = {
        ineq: A if ineq in SET_INEQUALITIES
        else f if ineq in NONNEGATIVE_INEQUALITIES else f_signed
        for ineq in Inequality
    }
    reports = {ineq: check(ineq, x, p, tol, normalize=True) for ineq, x in inputs.items()}

    line_ok = all(
        pointwise_line_bound(f_signed, i).ok for i in range(1, n + 1)
    )
    # the projection chain ||f||_{n/(n-1)} <= BL rhs of |f| <= GN rhs of f,
    # read off the reports: GN was checked on f_signed and BL on its
    # absolute value f
    gn, bl = reports[Inequality.GN], reports[Inequality.BL]
    lo, mid, hi = gn.lhs, bl.rhs, gn.rhs
    chain_ok = (_relation(lo, mid, tol, None) is not Relation.VIOLATED
                and _relation(mid, hi, tol, None) is not Relation.VIOLATED)
    return {
        "inputs": inputs,
        "reports": reports,
        "line_ok": line_ok,
        "chain_ok": chain_ok,
    }


def _fuzz_range(seed, n, window, q, denominator, tol, start, stop) -> FuzzSummary:
    summary = FuzzSummary(
        seed=seed, n=n, count=stop - start, window=window, q=q,
        denominator=denominator, tol=tol,
    )
    for key in Inequality:
        summary.per_inequality[key.value] = IneqStats()
    for index in range(start, stop):
        outcome = run_instance(seed, index, n, window, q, denominator, tol)
        for key, report in outcome["reports"].items():
            summary.per_inequality[key.value].update(
                report.deficit,
                report.relation is Relation.VIOLATED,
                index,
                outcome["inputs"][key],
            )
        summary.line_bound_failures += not outcome["line_ok"]
        summary.chain_failures += not outcome["chain_ok"]
    return summary


def _worker(args):
    return _fuzz_range(*args)


def _merged(parts) -> FuzzSummary:
    """The chunk summaries, in chunk order, folded into the first."""
    total = next(parts)
    for part in parts:
        total.merge(part)
    return total


def fuzz(
    count: int,
    n: int,
    seed: int = 0,
    window: int = 5,
    q: float = 0.4,
    denominator: int = 64,
    tol: float = DEFAULT_TOL,
    threads: int = 1,
) -> FuzzSummary:
    """Run `count` random instances at dimension n; see module docstring."""
    if count < 1:
        raise InvalidInputError("fuzz count must be >= 1")
    if n < 2:
        raise InvalidInputError("fuzzing needs ambient dimension >= 2")
    if window < 1:
        raise InvalidInputError("window side must be >= 1")
    if not 0 < q <= 1:
        raise InvalidInputError("inclusion probability must be in (0, 1]")
    if denominator < 1:
        raise InvalidInputError("denominator must be >= 1")
    check_box(window, n, "fuzz window")
    if threads < 1:
        raise InvalidInputError(f"--threads must be >= 1, got {threads}")
    # more workers than CPUs would only contend, and a huge --threads would
    # ask the OS for that many processes
    threads = min(threads, os.cpu_count() or 1)

    chunk = max(256, -(-count // (threads * 4)))
    args = [(seed, n, window, q, denominator, tol, start, min(start + chunk, count))
            for start in range(0, count, chunk)]
    if threads == 1:
        return _merged(map(_worker, args))

    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(threads, len(args))) as pool:
        return _merged(pool.map(_worker, args))  # map preserves chunk order
