"""Normalized sharpness ratios and exhaustive small-grid rigidity checks.

The ratio objectives rescale an inequality so the theorem bound is 1;
they return exactly 1.0 on the rigidity class (decided by the integer
certificate, never by float rounding) and a value in (0, 1) otherwise.

`enumerate_rigidity` cross-checks the exact equality certificates against
the shape classification on every subset of a small box — the brute-force
ground truth for the equality characterizations.  It counts the subsets by
class from kernels' transfer-matrix histograms and lists one product set
per translation class.  Its groups (`--report`) state that proof once per
histogram key and once per class: what the certificates say on each key,
and the shape, flags and number of translates of each product set.  The
mismatches, whether the theorems hold or not, follow from the same counts;
no subset is visited.  `_count_classes` builds the report once, finished.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from . import kernels
from .certify import (
    EQUALITY_CLASSES,
    Reduction,
    Relation,
    ShapeClass,
    bl_certificate,
    check_gn,
    classify_counts,
    gn_certificate,
    set_counts,
    sobolev_certificate,
)
from .core import LatticeSet, SetCounts, SparseFunction, check_box_dim
# unused here, kept: perfbench/test_perfbench.py asserts that its tracer
# patches every module binding of certify.norm, lab.norm included
from .core import norm  # noqa: F401
from .errors import BudgetExceededError, DegenerateInputError, InvalidInputError

DEFAULT_ENUM_BUDGET = 1 << 20


def gn_ratio(f: SparseFunction) -> float:
    """||f||_{n/(n-1)} divided by the difference-norm product bound, exactly
    1.0 when the certificate says equal."""
    report = check_gn(f)
    return 1.0 if report.relation is Relation.EXACT_EQUAL else report.lhs / report.rhs


def iso_ratio(A: LatticeSet) -> float:
    """2n |A|^((n-1)/n) / |bd A|, at most 1 with equality exactly on cubes."""
    if A.dim < 2:
        raise InvalidInputError("ratio needs ambient dimension >= 2")
    counts = set_counts(A)
    return iso_ratio_from_counts(counts.size, counts.boundary, A.dim)


def iso_ratio_from_counts(size: int, boundary: int, n: int) -> float:
    if size < 1:
        raise DegenerateInputError("empty set")
    # the Sobolev certificate reads |A| and the boundary, no more
    if sobolev_certificate(SetCounts(size, (boundary,), (), (), (), ()), n).equal:
        return 1.0
    return 2 * n * float(size ** (n - 1)) ** (1.0 / n) / boundary



# ---------------------------------------------------------------------------
# exhaustive rigidity enumeration
# ---------------------------------------------------------------------------


class GroupRow(NamedTuple):
    """One group of enumerated subsets and what their certificates say.

    group "crossings": the subsets of one (size, per-axis crossings) key,
    with the GN and isoperimetric flags; "shadows": those of one (size,
    per-axis shadow sizes) key, with the Loomis-Whitney flag; "class": the
    translates of one canonical product set, key its per-axis coordinate
    sets, with its shape and all three flags.  A field the group does not
    decide is None.
    """

    group: str
    key: tuple
    size: int
    count: int
    shape_class: Optional[ShapeClass]
    gn_equal: Optional[bool]
    iso_equal: Optional[bool]
    lw_equal: Optional[bool]


# (gn, iso, lw) equality flags, in Reduction order, that the rigidity
# theorems predict for each shape
_EXPECTED_FLAGS = {
    s: tuple(s in EQUALITY_CLASSES[r] for r in Reduction) for s in ShapeClass
}


@dataclass(frozen=True)
class RigidityReport:
    n: int
    box_side: int
    max_size: int
    total_checked: int
    mismatches: dict  # per reduction, the disagreeing subsets
    shape_counts: dict
    canonical_shape_counts: dict
    equality_counts: dict
    groups: list  # GroupRow, the proof's terms

    @property
    def mismatch_count(self) -> int:
        return sum(self.mismatches.values())


# a refusal quotes the exact subset count up to this many (or the budget, if
# larger); past it counting stops, so a huge box is refused at once
_EXACT_COUNT_LIMIT = 1 << 64


def enumeration_size(cells: int, max_size: int, limit: Optional[int] = None) -> int:
    """Number of nonempty subsets with at most max_size elements.

    With `limit`, counting stops once the count passes it: the result is
    then a lower bound above `limit`, and its cost is bounded by the size of
    `limit` rather than of the box.
    """
    if max_size >= cells and (limit is None or cells <= limit.bit_length()):
        return (1 << cells) - 1
    total = 0
    for j in range(1, min(max_size, cells) + 1):
        total += math.comb(cells, j)
        if limit is not None and total > limit:
            break
    return total


def enumerate_rigidity(
    n: int,
    box_side: int,
    max_size: Optional[int] = None,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> RigidityReport:
    """Check equality <=> shape on every subset of the [0, box_side-1]^n box.

    For each nonempty subset of at most max_size points the three integer
    certificates are compared against the shape classification:
    difference-product equality <=> cuboid, isoperimetric equality <=> cube,
    projection-product equality <=> product set.  Every positioned subset is
    counted; translation classes are counted via the canonical representative
    (per-axis minimum at the origin).  Refuses upfront a budget below 1 and a
    subset count over the budget.

    The subsets are counted by class, not visited (`_count_classes`),
    which also lists the terms of that count in report.groups.  A mismatch
    is a (subset, reduction) pair whose certificate disagrees with the
    subset's shape, so a subset that fails two reductions counts twice.
    """
    if n < 2:
        raise InvalidInputError("enumeration needs ambient dimension >= 2")
    if box_side < 1:
        raise InvalidInputError("box side must be >= 1")
    # the budget, not the cell limit, refuses a big box; a huge n would
    # hang in the power below
    check_box_dim(n, "enumeration box")
    cells = box_side ** n
    if max_size is None:
        max_size = cells
    if max_size < 1:
        raise InvalidInputError("max size must be >= 1")
    if budget < 1:
        raise InvalidInputError(f"budget must be >= 1, got {budget}")
    limit = max(budget, _EXACT_COUNT_LIMIT)
    estimate = enumeration_size(cells, max_size, limit)
    if estimate > budget:
        raise BudgetExceededError(estimate, budget, exact=estimate <= limit)
    # admitted, so estimate <= budget <= limit: the count did not stop early
    return _count_classes(n, box_side, max_size, estimate)


def _flags(counts: SetCounts, n: int) -> tuple:
    """(gn, iso, lw) equality of the certificates, in Reduction order."""
    return tuple(certificate(counts, n).equal
                 for certificate in (gn_certificate, sobolev_certificate, bl_certificate))


def _count_classes(n: int, side: int, max_size: int, total: int) -> RigidityReport:
    """The finished report on the `total` nonempty subsets of at most
    max_size cells of the side^n box, with a group row per key of
    kernels.subset_histograms and per canonical product set.

    The equality counts apply the certificates to the keys of
    kernels.subset_histograms.  A subset that is not a product set is NONE,
    so the shape counts come from the product sets, which
    kernels.product_sets lists once per translation class.  Statistics,
    shape and certificates are translation invariant, so they are computed
    once per class, on its canonical translate, which has
    prod_i (side - proj_max_i) translates in the box.  The mismatches of a
    reduction are the product sets whose flag is not their shape's, and
    the NONE subsets that pass it: as many as pass it beyond the product
    sets that do.  So 0 mismatches follows from two facts: every member of
    its class passes the certificate, and as many subsets pass it as the
    class has members.
    """
    dims = (side,) * n
    by_crossings, by_shadows = kernels.subset_histograms(dims, max_size)
    zeros = (0,) * n
    equal_counts = {"gn": 0, "iso": 0, "lw": 0}
    groups = []
    for (size, crossings), count in sorted(by_crossings.items()):
        counts = SetCounts(size, crossings, zeros, zeros, zeros, zeros)
        gn = gn_certificate(counts, n).equal
        iso = sobolev_certificate(counts, n).equal
        equal_counts["gn"] += count * gn
        equal_counts["iso"] += count * iso
        groups.append(GroupRow("crossings", crossings, size, count, None, gn, iso, None))
    for (size, shadow), count in sorted(by_shadows.items()):
        lw = bl_certificate(SetCounts(size, zeros, zeros, zeros, zeros, shadow), n).equal
        equal_counts["lw"] += count * lw
        groups.append(GroupRow("shadows", shadow, size, count, None, None, None, lw))

    shape_counts = {c: 0 for c in ShapeClass}
    canonical_counts = {c: 0 for c in ShapeClass}
    wrong = dict.fromkeys(equal_counts, 0)    # product sets, flag not their shape's
    passing = dict.fromkeys(equal_counts, 0)  # product sets that pass
    for sets, mask in kernels.product_sets(dims, max_size):
        stats = kernels.subset_stats(mask, dims)
        shape = classify_counts(stats)
        flags = _flags(stats, n)
        count = math.prod(side - top for top in stats.proj_max)
        groups.append(GroupRow("class", sets, stats.size, count, shape, *flags))
        shape_counts[shape] += count
        canonical_counts[shape] += 1
        for name, want, got in zip(wrong, _EXPECTED_FLAGS[shape], flags):
            wrong[name] += count * (got != want)
            passing[name] += count * got

    # canonical subsets meet every hyperplane c_i = 0: inclusion-exclusion
    # over the k axes whose hyperplane a subset misses
    canonical_total = sum(
        (-1) ** k * math.comb(n, k)
        * enumeration_size((side - 1) ** k * side ** (n - k), max_size)
        for k in range(n + 1)
    )
    shape_counts[ShapeClass.NONE] += total - sum(shape_counts.values())
    canonical_counts[ShapeClass.NONE] += canonical_total - sum(canonical_counts.values())
    return RigidityReport(
        n=n, box_side=side, max_size=max_size, total_checked=total,
        mismatches={name: wrong[name] + equal_counts[name] - passing[name]
                    for name in equal_counts},
        shape_counts={c.value: shape_counts[c] for c in ShapeClass},
        canonical_shape_counts={c.value: canonical_counts[c] for c in ShapeClass},
        equality_counts=equal_counts, groups=groups)
