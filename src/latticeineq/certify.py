"""Inequality checkers, exact equality certificates and shape classification.

Each checker evaluates one sharp inequality on a concrete input and reports
both sides, the deficit (rhs - lhs) and a relation verdict.  On scaled
indicator inputs the equality question reduces to a comparison of two exact
integers; `EXACT_EQUAL` is only ever produced by that integer path.  The
float path decides `EQUAL_WITHIN_TOL` / `STRICT` / `VIOLATED` with a
relative tolerance; a `VIOLATED` verdict on valid input signals a bug and
echoes the offending input.

All checkers require ambient dimension n >= 2 and reject the zero function /
empty set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .core import (
    LatticeSet,
    SparseFunction,
    axis_variation,
    entropy,
    max_projection,
    norm,
)
from .core import ZERO, _check_exponent
from .errors import (
    DegenerateInputError,
    DomainError,
    InvalidInputError,
    PreconditionError,
)
from .fileio import function_to_dict, set_to_dict

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


@dataclass(frozen=True)
class ExactCertificate:
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


@dataclass(frozen=True)
class InequalityReport:
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


@dataclass(frozen=True)
class SetCounts:
    """Exact combinatorial statistics of a finite set."""

    size: int
    crossings: tuple          # per axis: edges along the axis leaving the set
    proj_size: tuple          # per axis: |{z_i : z in A}|
    proj_min: tuple
    proj_max: tuple
    shadow_size: tuple        # per axis: size of the drop-axis image

    @property
    def boundary(self) -> int:
        return sum(self.crossings)


def set_counts(A: LatticeSet) -> SetCounts:
    if not A.points:
        raise DegenerateInputError("empty set")
    n = A.dim
    pts = A.points
    crossings = [0] * n
    proj = [set() for _ in range(n)]
    shadow = [set() for _ in range(n)]
    for z in pts:
        for ax in range(n):
            c = z[ax]
            proj[ax].add(c)
            shadow[ax].add(z[:ax] + z[ax + 1:])
            if z[:ax] + (c - 1,) + z[ax + 1:] not in pts:
                crossings[ax] += 1
            if z[:ax] + (c + 1,) + z[ax + 1:] not in pts:
                crossings[ax] += 1
    return SetCounts(
        size=len(pts),
        crossings=tuple(crossings),
        proj_size=tuple(len(s) for s in proj),
        proj_min=tuple(min(s) for s in proj),
        proj_max=tuple(max(s) for s in proj),
        shadow_size=tuple(len(s) for s in shadow),
    )


def classify_counts(size, proj_size, proj_min, proj_max) -> ShapeClass:
    """Most specific shape class implied by the set statistics."""
    if size != math.prod(proj_size):
        return ShapeClass.NONE
    if any(s != hi - lo + 1 for s, lo, hi in zip(proj_size, proj_min, proj_max)):
        return ShapeClass.PRODUCT_SET
    if all(s == proj_size[0] for s in proj_size):
        return ShapeClass.CUBE
    return ShapeClass.CUBOID


def classify_shape(A: LatticeSet) -> ShapeClass:
    """CUBE < CUBOID < PRODUCT_SET < NONE, most specific class returned.

    A is a product set iff |A| equals the product of its 1-D coordinate
    projection sizes; a cuboid additionally has interval projections; a cube
    additionally has equal side lengths.
    """
    c = set_counts(A)
    return classify_counts(c.size, c.proj_size, c.proj_min, c.proj_max)


def is_scaled_indicator(f: SparseFunction) -> Optional[tuple]:
    """(value, support) when f is a nonzero constant on its support."""
    it = iter(f.items())
    first = next(it, None)
    if first is None:
        return None
    lam = first[1]
    for _, v in it:
        if v != lam:
            return None
    return lam, LatticeSet(f.dim, f.support())


# ---------------------------------------------------------------------------
# relation / report plumbing
# ---------------------------------------------------------------------------


def _relation(lhs: float, rhs: float, tol: float,
              cert: Optional[ExactCertificate]) -> Relation:
    if cert is not None:
        return Relation.EXACT_EQUAL if cert.equal else Relation.STRICT
    scale = max(1.0, abs(lhs), abs(rhs))
    deficit = rhs - lhs
    if deficit < -tol * scale:
        return Relation.VIOLATED
    if abs(deficit) <= tol * scale:
        return Relation.EQUAL_WITHIN_TOL
    return Relation.STRICT


def _report(ineq, n, p, lhs, rhs, tol, cert, shape, echo) -> InequalityReport:
    relation = _relation(lhs, rhs, tol, cert)
    return InequalityReport(
        inequality=ineq,
        n=n,
        p=p,
        lhs=lhs,
        rhs=rhs,
        deficit=rhs - lhs,
        relation=relation,
        extremal_class=shape,
        exact_certificate=cert,
        input_echo=echo() if relation is Relation.VIOLATED else None,
    )


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


def _indicator_certificate(f: SparseFunction, certificate) -> tuple:
    """(certificate, shape) when f is a scaled indicator, else (None, None)."""
    ind = is_scaled_indicator(f)
    if ind is None:
        return None, None
    c = set_counts(ind[1])
    shape = classify_counts(c.size, c.proj_size, c.proj_min, c.proj_max)
    return certificate(c, f.dim), shape


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


# ---------------------------------------------------------------------------
# the eight checkers
# ---------------------------------------------------------------------------


def check_gn(f: SparseFunction, tol: float = DEFAULT_TOL) -> InequalityReport:
    """||f||_{n/(n-1)} <= (1/2) prod_i ||d_i f||_1^{1/n}; equality exactly on
    scaled cuboid indicators."""
    _require_checkable(f)
    n = f.dim
    sigmas = [axis_variation(f, i) for i in range(1, n + 1)]
    lhs = float(norm(f, Fraction(n, n - 1)))
    rhs = 0.5 * float(math.prod(sigmas)) ** (1.0 / n)
    cert, shape = _indicator_certificate(f, gn_certificate)
    return _report(Inequality.GN, n, None, lhs, rhs, tol, cert, shape,
                   lambda: function_to_dict(f))


def check_sobolev(f: SparseFunction, tol: float = DEFAULT_TOL) -> InequalityReport:
    """||f||_{n/(n-1)} <= (1/2n) ||df||_1; equality exactly on scaled cube
    indicators."""
    _require_checkable(f)
    n = f.dim
    sigmas = [axis_variation(f, i) for i in range(1, n + 1)]
    lhs = float(norm(f, Fraction(n, n - 1)))
    rhs = float(sum(sigmas, ZERO)) / (2 * n)
    cert, shape = _indicator_certificate(f, sobolev_certificate)
    return _report(Inequality.SOBOLEV, n, None, lhs, rhs, tol, cert, shape,
                   lambda: function_to_dict(f))


def check_isoperimetric(A: LatticeSet, tol: float = DEFAULT_TOL) -> InequalityReport:
    """|A|^(n-1) <= |bd A|^n / (2^n n^n); equality exactly on cubes."""
    if A.dim < 2:
        raise InvalidInputError(
            f"inequalities need ambient dimension >= 2, got n={A.dim}"
        )
    n = A.dim
    counts = set_counts(A)
    cert = sobolev_certificate(counts, n)
    lhs = float(counts.size ** (n - 1))
    rhs = counts.boundary ** n / float((2 * n) ** n)
    shape = classify_counts(
        counts.size, counts.proj_size, counts.proj_min, counts.proj_max
    )
    return _report(Inequality.ISOPERIMETRIC, n, None, lhs, rhs, tol, cert, shape,
                   lambda: set_to_dict(A))


def check_bl(f: SparseFunction, tol: float = DEFAULT_TOL) -> InequalityReport:
    """||f||_{n/(n-1)} <= (prod_i ||f_i||_1)^{1/n} with f_i the axis-i max
    projection; equality exactly on scaled product-set indicators."""
    _require_checkable(f)
    _require_nonnegative(f)
    n = f.dim
    masses = [norm(max_projection(f, i), 1) for i in range(1, n + 1)]
    lhs = float(norm(f, Fraction(n, n - 1)))
    rhs = float(math.prod(masses)) ** (1.0 / n)
    cert, shape = _indicator_certificate(f, bl_certificate)
    return _report(Inequality.BL, n, None, lhs, rhs, tol, cert, shape,
                   lambda: function_to_dict(f))


def check_loomis_whitney(A: LatticeSet, tol: float = DEFAULT_TOL) -> InequalityReport:
    """|A|^(n-1) <= prod_i |shadow_i(A)|; equality exactly on product sets."""
    if A.dim < 2:
        raise InvalidInputError(
            f"inequalities need ambient dimension >= 2, got n={A.dim}"
        )
    n = A.dim
    counts = set_counts(A)
    cert = bl_certificate(counts, n)
    lhs = float(counts.size ** (n - 1))
    rhs = float(math.prod(counts.shadow_size))
    shape = classify_counts(
        counts.size, counts.proj_size, counts.proj_min, counts.proj_max
    )
    return _report(Inequality.LW, n, None, lhs, rhs, tol, cert, shape,
                   lambda: set_to_dict(A))


# -- logarithmic variants ----------------------------------------------------


def _norm_factor(f: SparseFunction, p: Fraction, tol: float, normalize: bool) -> float:
    """The rescaling N = ||f||_p; enforces ||f||_p = 1 when not normalizing.

    For integer p the unit-norm precondition is checked exactly.
    """
    if normalize:
        return float(norm(f, p))
    if p.denominator == 1:
        total = sum((abs(v) ** p.numerator for _, v in f.items()), ZERO)
        if total != 1:
            raise PreconditionError(
                f"||f||_{p} must be 1 (got ||f||^p = {total}); pass normalize=True"
            )
        return 1.0
    nf = float(norm(f, p))
    if abs(nf - 1.0) > tol:
        raise PreconditionError(
            f"||f||_{p} must be 1 (got {nf!r}); pass normalize=True"
        )
    return 1.0


def _entropy_coefficient(n: int, p: Fraction) -> float:
    return float(Fraction(1, n) + 1 / p - 1)


def _normalized_entropy(f: SparseFunction, p: Fraction, scale: float) -> float:
    """Entropy integral of f/scale at exponent p, float track."""
    if scale == 1.0:
        return entropy(f, p)
    pf = float(p)
    total = 0.0
    for _, v in f.items():
        if v < 0:
            raise DomainError("entropy requires a nonnegative function")
        x = float(v) / scale
        total += pf * (x ** pf) * math.log(x)
    return total


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
    _require_checkable(f)
    _require_nonnegative(f)
    p = _check_exponent(p)
    n = f.dim
    scale = _norm_factor(f, p, tol, normalize)
    lhs = _entropy_coefficient(n, p) * _normalized_entropy(f, p, scale)
    sigmas = [axis_variation(f, i) for i in range(1, n + 1)]
    if directional:
        rhs = -math.log(2.0) + math.fsum(
            math.log(float(s) / scale) for s in sigmas
        ) / n
        ineq = Inequality.LOG_SOBOLEV_DIR
    else:
        rhs = math.log(float(sum(sigmas, ZERO)) / scale / (2 * n))
        ineq = Inequality.LOG_SOBOLEV
    certificate = gn_certificate if directional else sobolev_certificate
    cert, shape = _indicator_certificate(f, certificate)
    return _report(ineq, n, p, lhs, rhs, tol, cert, shape,
                   lambda: function_to_dict(f))


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
    _require_checkable(f)
    _require_nonnegative(f)
    p = _check_exponent(p)
    n = f.dim
    scale = _norm_factor(f, p, tol, normalize)
    lhs = _entropy_coefficient(n, p) * _normalized_entropy(f, p, scale)
    masses = [norm(max_projection(f, i), 1) for i in range(1, n + 1)]
    rhs = math.fsum(math.log(float(m) / scale) for m in masses) / n
    cert, shape = _indicator_certificate(f, bl_certificate)
    return _report(Inequality.LOG_BL, n, p, lhs, rhs, tol, cert, shape,
                   lambda: function_to_dict(f))


# ---------------------------------------------------------------------------
# cross-inequality helpers
# ---------------------------------------------------------------------------


def projection_chain(f: SparseFunction) -> tuple:
    """(||f||_{n/(n-1)}, BL rhs of |f|, GN rhs of f) — ascending by theorem.

    The middle term uses max projections of |f|; the last is the difference-
    norm product bound.  Useful as a three-term soundness probe.
    """
    _require_checkable(f)
    n = f.dim
    g = f.abs()
    lhs = float(norm(f, Fraction(n, n - 1)))
    masses = [norm(max_projection(g, i), 1) for i in range(1, n + 1)]
    mid = float(math.prod(masses)) ** (1.0 / n)
    sigmas = [axis_variation(f, i) for i in range(1, n + 1)]
    rhs = 0.5 * float(math.prod(sigmas)) ** (1.0 / n)
    return lhs, mid, rhs


def jensen_gap(f: SparseFunction, p) -> float:
    """log ||g||_{n/(n-1)} - (1/n + 1/p - 1) * ent_p(g) for g = f/||f||_p.

    Nonnegative for every nonnegative f (concavity of log); zero exactly when
    f^p is uniform on its support.
    """
    _require_checkable(f)
    _require_nonnegative(f)
    p = _check_exponent(p)
    n = f.dim
    scale = float(norm(f, p))
    lhs = math.log(float(norm(f, Fraction(n, n - 1))) / scale)
    return lhs - _entropy_coefficient(n, p) * _normalized_entropy(f, p, scale)
