"""Normalized sharpness ratios and exhaustive small-grid rigidity checks.

The three ratio objectives rescale an inequality so the theorem bound is 1;
they return exactly 1.0 on the rigidity class (decided by the integer
certificate, never by float rounding) and a value in (0, 1) otherwise.

`enumerate_rigidity` walks every subset of a small box and cross-checks the
exact equality certificates against the shape classification — the
brute-force ground truth for the equality characterizations.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from . import kernels
from .certify import (
    ShapeClass,
    bl_certificate,
    classify_counts,
    gn_certificate,
    is_scaled_indicator,
    set_counts,
)
from .core import (
    LatticeSet,
    SparseFunction,
    axis_variation,
    max_projection,
    norm,
)
from .errors import (
    BudgetExceededError,
    DegenerateInputError,
    DomainError,
    InvalidInputError,
)

DEFAULT_ENUM_BUDGET = 1 << 20


def gn_ratio(f: SparseFunction) -> float:
    """||f||_{n/(n-1)} divided by the difference-norm product bound."""
    if f.dim < 2:
        raise InvalidInputError("ratio needs ambient dimension >= 2")
    if f.is_zero():
        raise DegenerateInputError("zero function")
    n = f.dim
    ind = is_scaled_indicator(f)
    if ind is not None:
        cert = gn_certificate(set_counts(ind[1]), n)
        if cert.equal:
            return 1.0
    sigmas = math.prod(axis_variation(f, i) for i in range(1, n + 1))
    lhs = float(norm(f, Fraction(n, n - 1)))
    return lhs / (0.5 * float(sigmas) ** (1.0 / n))


def iso_ratio(A: LatticeSet) -> float:
    """2n |A|^((n-1)/n) / |bd A|, at most 1 with equality exactly on cubes."""
    if A.dim < 2:
        raise InvalidInputError("ratio needs ambient dimension >= 2")
    counts = set_counts(A)
    return iso_ratio_from_counts(counts.size, counts.boundary, A.dim)


def iso_ratio_from_counts(size: int, boundary: int, n: int) -> float:
    if size < 1:
        raise DegenerateInputError("empty set")
    if (1 << n) * n ** n * size ** (n - 1) == boundary ** n:
        return 1.0
    return 2 * n * float(size ** (n - 1)) ** (1.0 / n) / boundary


def bl_ratio(f: SparseFunction) -> float:
    """||f||_{n/(n-1)} divided by the max-projection product bound."""
    if f.dim < 2:
        raise InvalidInputError("ratio needs ambient dimension >= 2")
    if f.is_zero():
        raise DegenerateInputError("zero function")
    if not f.is_nonnegative():
        raise DomainError("bl_ratio requires a nonnegative function")
    n = f.dim
    ind = is_scaled_indicator(f)
    if ind is not None:
        cert = bl_certificate(set_counts(ind[1]), n)
        if cert.equal:
            return 1.0
    masses = math.prod(norm(max_projection(f, i), 1) for i in range(1, n + 1))
    lhs = float(norm(f, Fraction(n, n - 1)))
    return lhs / float(masses) ** (1.0 / n)


# ---------------------------------------------------------------------------
# exhaustive rigidity enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RigidityRow:
    """One enumerated subset: equality flags vs shape class."""

    set_id: int              # bitmask over the box, axis 0 fastest
    size: int
    shape_class: ShapeClass
    gn_equal: bool
    iso_equal: bool
    lw_equal: bool
    canonical: bool          # per-axis minimum at 0 (translation-class rep)

    @property
    def mismatch(self) -> bool:
        want_gn = self.shape_class in (ShapeClass.CUBE, ShapeClass.CUBOID)
        want_iso = self.shape_class is ShapeClass.CUBE
        want_lw = self.shape_class is not ShapeClass.NONE
        return (
            self.gn_equal != want_gn
            or self.iso_equal != want_iso
            or self.lw_equal != want_lw
        )


@dataclass
class RigidityReport:
    n: int
    box_side: int
    max_size: int
    total_checked: int = 0
    mismatches: list = field(default_factory=list)
    shape_counts: dict = field(default_factory=dict)
    canonical_shape_counts: dict = field(default_factory=dict)
    equality_counts: dict = field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def mismatch_count(self) -> int:
        return len(self.mismatches)


def enumeration_size(cells: int, max_size: int) -> int:
    """Number of nonempty subsets with at most max_size elements."""
    if max_size >= cells:
        return (1 << cells) - 1
    return sum(math.comb(cells, j) for j in range(1, max_size + 1))


def _masks(cells: int, max_size: int):
    if max_size >= cells:
        yield from range(1, 1 << cells)
        return
    import itertools

    for k in range(1, max_size + 1):
        for bits in itertools.combinations(range(cells), k):
            mask = 0
            for b in bits:
                mask |= 1 << b
            yield mask


def enumerate_rigidity(
    n: int,
    box_side: int,
    max_size: Optional[int] = None,
    budget: int = DEFAULT_ENUM_BUDGET,
    row_sink: Optional[Callable[[RigidityRow], None]] = None,
) -> RigidityReport:
    """Check equality <=> shape on every subset of the [0, box_side-1]^n box.

    For each nonempty subset of at most max_size points the three integer
    certificates are compared against the shape classification:
    difference-product equality <=> cuboid, isoperimetric equality <=> cube,
    projection-product equality <=> product set.  Every positioned subset is
    checked; translation classes are counted via the canonical representative
    (per-axis minimum at the origin).  Refuses upfront when the subset count
    exceeds the budget.
    """
    if n < 2:
        raise InvalidInputError("enumeration needs ambient dimension >= 2")
    if box_side < 1:
        raise InvalidInputError("box side must be >= 1")
    cells = box_side ** n
    if max_size is None:
        max_size = cells
    if max_size < 1:
        raise InvalidInputError("max size must be >= 1")
    estimate = enumeration_size(cells, max_size)
    if estimate > budget:
        raise BudgetExceededError(estimate, budget)

    dims = (box_side,) * n
    two_n = 1 << n
    iso_factor = two_n * n ** n
    report = RigidityReport(n=n, box_side=box_side, max_size=max_size)
    shape_counts = {c: 0 for c in ShapeClass}
    canonical_counts = {c: 0 for c in ShapeClass}
    equal_counts = {"gn": 0, "iso": 0, "lw": 0}

    start = time.perf_counter()
    for mask in _masks(cells, max_size):
        size, crossings, proj_size, proj_min, proj_max, shadow = kernels.subset_stats(
            mask, dims
        )
        pow_size = size ** (n - 1)
        gn_equal = two_n * pow_size == math.prod(crossings)
        iso_equal = iso_factor * pow_size == sum(crossings) ** n
        lw_equal = pow_size == math.prod(shadow)
        shape = classify_counts(size, proj_size, proj_min, proj_max)
        canonical = all(m == 0 for m in proj_min)
        row = RigidityRow(
            set_id=mask,
            size=size,
            shape_class=shape,
            gn_equal=gn_equal,
            iso_equal=iso_equal,
            lw_equal=lw_equal,
            canonical=canonical,
        )
        report.total_checked += 1
        shape_counts[shape] += 1
        if canonical:
            canonical_counts[shape] += 1
        equal_counts["gn"] += gn_equal
        equal_counts["iso"] += iso_equal
        equal_counts["lw"] += lw_equal
        if row.mismatch:
            report.mismatches.append(row)
        if row_sink is not None:
            row_sink(row)
    report.elapsed = time.perf_counter() - start
    report.shape_counts = {c.value: shape_counts[c] for c in ShapeClass}
    report.canonical_shape_counts = {c.value: canonical_counts[c] for c in ShapeClass}
    report.equality_counts = equal_counts
    return report
