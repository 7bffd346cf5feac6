"""Inequality checkers, exact equality certificates and shape classification.

Each checker evaluates one sharp inequality on a concrete input and reports
both sides, the deficit (rhs - lhs) and a relation verdict.  On scaled
indicator inputs the equality question reduces to a comparison of two exact
integers; `EXACT_EQUAL` is only ever produced by that integer path.  The
float path decides `EQUAL_WITHIN_TOL` / `STRICT` / `VIOLATED` with a
relative tolerance; a `VIOLATED` verdict on valid input signals a bug and
echoes the offending input.  `_relation` is the one reader of that
tolerance: it refuses a tol that is not finite and positive, and it decides
the log inequalities' unit-norm precondition wherever the integers do not.
GN, Sobolev and BL are homogeneous of degree 1 in f, so they are decided
on lhs / rhs against 1, and a side, or the product under GN's or BL's
root, below the normal float range is refused rather than decided.

The function checkers read only f's `FunctionCounts`
(`core.function_counts`), which core alone fills from f's line passes and
keeps on f: per-axis variations and max-projection masses as int
numerators over f's one denominator D, the counts of its support, and the
memos of core's `kept_norm` and `kept_entropy`, the latter shared by the
three log checkers; `f.abs()` is |f| with its record read off f's.
`kept_norm` is the checkers' one float p-norm, taken on p's two ints with
no Fraction built: the left side of GN, Sobolev and BL, the float unit-norm
test and norm factor of the log checkers, and `jensen_gap`.
What is decided per call, the unit-norm precondition and the tolerance, is
never kept.  The record holds no reference to f, so checking makes no
reference cycle.  Each float side divides ints once, correctly rounded,
before any power or logarithm (prod_i v_i / D^n, sum_i v_i / D or v_i / D),
which is the same double as the float of the exact rational.

All checkers require ambient dimension n >= 2 and reject the zero function /
empty set.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Optional

from .core import LatticeSet, SetCounts, SparseFunction, function_counts, indicator
# unused here, kept: perfbench's tracer test patches certify.norm
from .core import norm  # noqa: F401
from .core import _check_exponent, kept_entropy, kept_norm
from .errors import (
    DegenerateInputError,
    DomainError,
    InvalidInputError,
    PreconditionError,
)
from .fileio import input_to_dict

DEFAULT_TOL = 1e-9


class Inequality(str, Enum):
    GN = "GN"
    SOBOLEV = "SOBOLEV"
    ISOPERIMETRIC = "ISOPERIMETRIC"
    LOG_SOBOLEV_DIR = "LOG_SOBOLEV_DIR"
    LOG_SOBOLEV = "LOG_SOBOLEV"
    BL = "BL"
    LOG_BL = "LOG_BL"
    LW = "LW"


# How each inequality is called.  A set inequality reads a set; the log
# inequalities take an exponent p and need unit p-norm; the nonnegative ones
# reject a signed function.
SET_INEQUALITIES = frozenset({Inequality.ISOPERIMETRIC, Inequality.LW})
LOG_INEQUALITIES = frozenset(
    {Inequality.LOG_SOBOLEV_DIR, Inequality.LOG_SOBOLEV, Inequality.LOG_BL}
)
NONNEGATIVE_INEQUALITIES = LOG_INEQUALITIES | {Inequality.BL}
# Homogeneous of degree 1 in f: the verdict reads lhs / rhs against 1.
HOMOGENEOUS_INEQUALITIES = frozenset({Inequality.GN, Inequality.SOBOLEV, Inequality.BL})


class Relation(str, Enum):
    EXACT_EQUAL = "EXACT_EQUAL"
    EQUAL_WITHIN_TOL = "EQUAL_WITHIN_TOL"
    STRICT = "STRICT"
    VIOLATED = "VIOLATED"


class ShapeClass(str, Enum):
    CUBE = "CUBE"
    CUBOID = "CUBOID"
    PRODUCT_SET = "PRODUCT_SET"
    NONE = "NONE"


class Reduction(str, Enum):
    GN_CUBOID = "GN_CUBOID"
    SOBOLEV_ISO = "SOBOLEV_ISO"
    BL_LW = "BL_LW"


class ExactCertificate(NamedTuple):
    """Integer comparison equivalent to the equality question.

    GN_CUBOID:   2^n |A|^(n-1)      vs  prod_i s_i   (s_i = axis-i crossings)
    SOBOLEV_ISO: 2^n n^n |A|^(n-1)  vs  |bd A|^n
    BL_LW:       |A|^(n-1)          vs  prod_i |shadow_i(A)|
    """

    reduction: Reduction
    lhs_integer: int
    rhs_integer: int

    @property
    def equal(self) -> bool:
        return self.lhs_integer == self.rhs_integer


class InequalityReport(NamedTuple):
    inequality: Inequality
    n: int
    p: Optional[Fraction]
    lhs: float
    rhs: float
    deficit: float
    relation: Relation
    extremal_class: Optional[ShapeClass] = None
    exact_certificate: Optional[ExactCertificate] = None
    input_echo: Optional[dict] = None


def set_counts(A: LatticeSet) -> SetCounts:
    return function_counts(indicator(A)).support


def classify_counts(counts) -> ShapeClass:
    """Most specific shape class implied by a SetCounts."""
    size, _, proj_size, proj_min, proj_max, _ = counts
    if size != math.prod(proj_size):
        return ShapeClass.NONE
    if any(s != hi - lo + 1 for s, lo, hi in zip(proj_size, proj_min, proj_max)):
        return ShapeClass.PRODUCT_SET
    if all(s == proj_size[0] for s in proj_size):
        return ShapeClass.CUBE
    return ShapeClass.CUBOID


# ---------------------------------------------------------------------------
# relation / report plumbing
# ---------------------------------------------------------------------------


def _relation(lhs: float, rhs: float, tol: float,
              cert: Optional[ExactCertificate]) -> Relation:
    """The one tolerance rule: validates tol, then lets the certificate's
    integers decide when there is one, else compares rhs - lhs with tol
    relative to max(1, |lhs|, |rhs|).

    GN, Sobolev and BL, and the two links of fuzz's chain, pass lhs / rhs
    and 1, so their verdict does not change with the scale of f.  The log
    inequalities and the unit-norm test pass their sides: the floor of 1
    keeps a left side that is exactly 0.0 (n = 2, p = 2) from reading
    rounding error as VIOLATED."""
    if not (tol > 0 and math.isfinite(tol)):
        raise InvalidInputError(f"tol must be finite and positive, got {tol}")
    if cert is not None:
        # the two integers decide, three ways and with no tolerance
        if cert.lhs_integer > cert.rhs_integer:
            return Relation.VIOLATED
        return Relation.EXACT_EQUAL if cert.equal else Relation.STRICT
    scale = max(1.0, abs(lhs), abs(rhs))
    deficit = rhs - lhs
    if deficit < -tol * scale:
        return Relation.VIOLATED
    if abs(deficit) <= tol * scale:
        return Relation.EQUAL_WITHIN_TOL
    return Relation.STRICT


def _report(ineq, x, p, lhs, rhs, tol, cert, shape) -> InequalityReport:
    # a float sum can overflow to inf without raising; an inf or nan side
    # has no verdict, and a JSON report cannot hold it
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise OverflowError(f"{ineq.value}: a side is not finite (lhs={lhs!r}, rhs={rhs!r})")
    if ineq in HOMOGENEOUS_INEQUALITIES:  # both sides are normal floats
        relation = _relation(lhs / rhs, 1.0, tol, cert)
    else:
        relation = _relation(lhs, rhs, tol, cert)
    return InequalityReport(
        ineq, x.dim, p, lhs, rhs, rhs - lhs, relation, shape, cert,
        input_to_dict(x) if relation is Relation.VIOLATED else None,
    )


def _normal(x: float, what: str) -> float:
    """x, refused where it is below the normal float range and so has lost
    its relative precision."""
    if x < sys.float_info.min:
        raise InvalidInputError(f"{what} underflows the floating-point range")
    return x


def _require_checkable(f: SparseFunction):
    if f.dim < 2:
        raise InvalidInputError(
            f"inequalities need ambient dimension >= 2, got n={f.dim}"
        )
    if f.is_zero():
        raise DegenerateInputError("zero function")


def _require_nonnegative(f: SparseFunction):
    if not f.is_nonnegative():
        raise DomainError("this inequality requires a nonnegative function")


def _function_report(ineq, f, p, lhs, rhs, tol, certificate) -> InequalityReport:
    """Shared tail of the function checkers: certified, with its shape, when
    f is a scaled indicator."""
    cert = shape = None
    counts = function_counts(f).indicator
    if counts is not None:
        cert, shape = certificate(counts, f.dim), classify_counts(counts)
    return _report(ineq, f, p, lhs, rhs, tol, cert, shape)


def _set_report(ineq: Inequality, A, tol: float, certificate,
                divisor: int) -> InequalityReport:
    """Shared body of the set checkers, on a set or the support of a
    function: both sides are the certificate's integers over `divisor`."""
    f = indicator(A) if isinstance(A, LatticeSet) else A
    _require_checkable(f)
    counts = function_counts(f).support
    cert = certificate(counts, A.dim)
    return _report(ineq, A, None, cert.lhs_integer / divisor,
                   cert.rhs_integer / float(divisor), tol, cert, classify_counts(counts))


def gn_certificate(counts: SetCounts, n: int) -> ExactCertificate:
    return ExactCertificate(
        Reduction.GN_CUBOID,
        (1 << n) * counts.size ** (n - 1),
        math.prod(counts.crossings),
    )


def sobolev_certificate(counts: SetCounts, n: int) -> ExactCertificate:
    return ExactCertificate(
        Reduction.SOBOLEV_ISO,
        (1 << n) * n ** n * counts.size ** (n - 1),
        counts.boundary ** n,
    )


def bl_certificate(counts: SetCounts, n: int) -> ExactCertificate:
    return ExactCertificate(
        Reduction.BL_LW,
        counts.size ** (n - 1),
        math.prod(counts.shadow_size),
    )


# The rigidity theorems: each certificate is an equality exactly on the
# indicators of sets in its class.
EQUALITY_CLASSES = {
    Reduction.GN_CUBOID: frozenset({ShapeClass.CUBE, ShapeClass.CUBOID}),
    Reduction.SOBOLEV_ISO: frozenset({ShapeClass.CUBE}),
    Reduction.BL_LW: frozenset(ShapeClass) - {ShapeClass.NONE},
}


# ---------------------------------------------------------------------------
# the eight checkers
# ---------------------------------------------------------------------------


def check_gn(f: SparseFunction, tol: float = DEFAULT_TOL) -> InequalityReport:
    """||f||_{n/(n-1)} <= (1/2) prod_i ||d_i f||_1^{1/n}; equality exactly on
    scaled cuboid indicators."""
    _require_checkable(f)
    n = f.dim
    q = math.prod(function_counts(f).variations) / f._den ** n
    rhs = 0.5 * _normal(q, "GN: prod_i ||d_i f||_1") ** (1.0 / n)
    lhs = _normal(kept_norm(f, n, n - 1), "GN: ||f||_{n/(n-1)}")
    return _function_report(Inequality.GN, f, None, lhs, rhs, tol, gn_certificate)


def check_sobolev(f: SparseFunction, tol: float = DEFAULT_TOL) -> InequalityReport:
    """||f||_{n/(n-1)} <= (1/2n) ||df||_1; equality exactly on scaled cube
    indicators."""
    _require_checkable(f)
    n = f.dim
    rhs = _normal(sum(function_counts(f).variations) / f._den / (2 * n),
                  "SOBOLEV: ||df||_1 / 2n")
    lhs = _normal(kept_norm(f, n, n - 1), "SOBOLEV: ||f||_{n/(n-1)}")
    return _function_report(Inequality.SOBOLEV, f, None, lhs, rhs, tol,
                            sobolev_certificate)


def check_isoperimetric(A, tol: float = DEFAULT_TOL) -> InequalityReport:
    """|A|^(n-1) <= |bd A|^n / (2^n n^n); equality exactly on cubes.  A is a
    LatticeSet, or a SparseFunction read by its support."""
    return _set_report(Inequality.ISOPERIMETRIC, A, tol, sobolev_certificate,
                       (2 * A.dim) ** A.dim)


def check_bl(f: SparseFunction, tol: float = DEFAULT_TOL) -> InequalityReport:
    """||f||_{n/(n-1)} <= (prod_i ||f_i||_1)^{1/n} with f_i the axis-i max
    projection; equality exactly on scaled product-set indicators."""
    _require_checkable(f)
    _require_nonnegative(f)
    n = f.dim
    q = math.prod(function_counts(f).masses) / f._den ** n
    rhs = _normal(q, "BL: prod_i ||f_i||_1") ** (1.0 / n)
    lhs = _normal(kept_norm(f, n, n - 1), "BL: ||f||_{n/(n-1)}")
    return _function_report(Inequality.BL, f, None, lhs, rhs, tol, bl_certificate)


def check_loomis_whitney(A, tol: float = DEFAULT_TOL) -> InequalityReport:
    """|A|^(n-1) <= prod_i |shadow_i(A)|; equality exactly on product sets.
    A is a LatticeSet, or a SparseFunction read by its support."""
    return _set_report(Inequality.LW, A, tol, bl_certificate, 1)


# -- logarithmic variants ----------------------------------------------------


# above this many bits, |a|^k and D^k are not worth computing, or printing
_EXACT_POWER_BITS = 10_000


def _norm_factor(f: SparseFunction, p: Fraction, tol: float, normalize: bool) -> float:
    """The rescaling N = ||f||_p; enforces ||f||_p = 1 when not normalizing.

    For an integer p = k the unit-norm precondition is exact, as
    sum |a|^k == D^k on f's numerators a over its denominator D, while those
    powers stay under _EXACT_POWER_BITS.  Past that bound it is still exact
    in two cases: a single entry is unit only if |a| == D, and an |a| >= D
    only if it is the single entry; these are decided before any float is
    taken.  Every other case, a non-integer p included, asks `_relation`
    whether the float norm, read through `kept_norm`, is 1 within tol.  The
    message gives that float norm, taken only to be printed in the exact
    cases, where a norm past the float range reads inf.
    """
    if normalize:
        nf = kept_norm(f, p.numerator, p.denominator)
        if not nf:
            raise InvalidInputError(
                f"||f||_{p} underflows the floating-point range; cannot normalize"
            )
        if nf == math.inf:
            raise OverflowError(
                f"||f||_{p} overflows the floating-point range; cannot normalize"
            )
        return nf
    nums = [abs(a) for a in f._nums.values()]
    den, top = f._den, max(nums)
    if p.denominator == 1 and p.numerator * max(top, den).bit_length() <= _EXACT_POWER_BITS:
        k = p.numerator
        total = sum(a ** k for a in nums)
        if total != den ** k:
            raise PreconditionError(
                f"||f||_{p} must be 1 (got ||f||^p = {Fraction(total, den ** k)}); "
                "pass normalize=True"
            )
        return 1.0
    if p.denominator == 1 and (len(nums) == 1 or top >= den):
        # one |a|^k >= D^k, and any other term is positive
        unit = len(nums) == 1 and top == den
    else:
        # an inf norm, a sum of |f|^p past the float range, is not 1
        nf = kept_norm(f, p.numerator, p.denominator)
        unit = (nf < math.inf
                and _relation(nf, 1.0, tol, None) is Relation.EQUAL_WITHIN_TOL)
    if not unit:
        try:
            nf = kept_norm(f, p.numerator, p.denominator)
        except OverflowError:  # a norm past the float range
            nf = math.inf
        raise PreconditionError(
            f"||f||_{p} must be 1 (got {nf!r}); pass normalize=True"
        )
    return 1.0


def _entropy_side(f: SparseFunction, p, tol: float, normalize: bool) -> tuple:
    """(p, N, (1/n + 1/p - 1) * ent_p(f/N)): the checked exponent, the norm
    factor of `_norm_factor` and the left side of the log inequalities.
    The norm factor is decided on every call; the entropy sum once per f,
    p and N."""
    _require_checkable(f)
    _require_nonnegative(f)
    p = _check_exponent(p)
    scale = _norm_factor(f, p, tol, normalize)
    n, a, b = f.dim, p.numerator, p.denominator
    total = kept_entropy(f, a, b, scale)
    # 1/n + 1/p - 1 with p = a/b is (a + n b - n a) / (n a)
    return p, scale, (a + n * b - n * a) / (n * a) * total


def check_log_sobolev(
    f: SparseFunction,
    p,
    directional: bool = True,
    tol: float = DEFAULT_TOL,
    normalize: bool = False,
) -> InequalityReport:
    """Entropy bound for unit-p-norm nonnegative f.

    directional: (1/n + 1/p - 1) * ent_p(f) <= -log 2 + (1/n) sum_i log ||d_i f||_1,
    equality exactly on normalized cuboid indicators.
    Otherwise the rhs is log(||df||_1 / 2n), equality exactly on normalized
    cube indicators.  `normalize` rescales f to unit p-norm first.
    """
    p, scale, lhs = _entropy_side(f, p, tol, normalize)
    n, den = f.dim, f._den
    variations = function_counts(f).variations
    if directional:
        rhs = -math.log(2.0) + math.fsum(
            math.log(v / den / scale) for v in variations
        ) / n
        ineq = Inequality.LOG_SOBOLEV_DIR
    else:
        rhs = math.log(sum(variations) / den / scale / (2 * n))
        ineq = Inequality.LOG_SOBOLEV
    certificate = gn_certificate if directional else sobolev_certificate
    return _function_report(ineq, f, p, lhs, rhs, tol, certificate)


def check_log_bl(
    f: SparseFunction,
    p,
    tol: float = DEFAULT_TOL,
    normalize: bool = False,
) -> InequalityReport:
    """Entropy bound against max projections for unit-p-norm nonnegative f:

        (1/n + 1/p - 1) * ent_p(f) <= (1/n) sum_i log ||f_i||_1,

    equality exactly on normalized product-set indicators.
    """
    p, scale, lhs = _entropy_side(f, p, tol, normalize)
    masses = function_counts(f).masses
    rhs = math.fsum(math.log(m / f._den / scale) for m in masses) / f.dim
    return _function_report(Inequality.LOG_BL, f, p, lhs, rhs, tol, bl_certificate)


def check(
    ineq: Inequality,
    x,
    p=None,
    tol: float = DEFAULT_TOL,
    normalize: bool = False,
) -> InequalityReport:
    """Check one of the eight inequalities on a function or a set.

    A set inequality on a function reads its support; a function inequality
    on a set reads its indicator, rescaled to unit p-norm for the log
    inequalities.  `p` and `normalize` matter only to the log inequalities.
    """
    if type(ineq) is not Inequality:
        ineq = Inequality(ineq)
    if ineq is Inequality.ISOPERIMETRIC:
        return check_isoperimetric(x, tol)
    if ineq is Inequality.LW:
        return check_loomis_whitney(x, tol)
    if isinstance(x, LatticeSet):
        x, normalize = indicator(x), True
    if ineq is Inequality.GN:
        return check_gn(x, tol)
    if ineq is Inequality.SOBOLEV:
        return check_sobolev(x, tol)
    if ineq is Inequality.BL:
        return check_bl(x, tol)
    if ineq is Inequality.LOG_BL:
        return check_log_bl(x, p, tol=tol, normalize=normalize)
    return check_log_sobolev(x, p, directional=ineq is Inequality.LOG_SOBOLEV_DIR,
                             tol=tol, normalize=normalize)


# ---------------------------------------------------------------------------
# cross-inequality helpers
# ---------------------------------------------------------------------------


def jensen_gap(f: SparseFunction, p) -> float:
    """log ||g||_{n/(n-1)} - (1/n + 1/p - 1) * ent_p(g) for g = f/||f||_p.

    Nonnegative for every nonnegative f (concavity of log); zero exactly when
    f^p is uniform on its support.
    """
    p, scale, entropy_side = _entropy_side(f, p, 0.0, normalize=True)
    n = f.dim
    return math.log(kept_norm(f, n, n - 1) / scale) - entropy_side
