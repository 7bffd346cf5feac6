"""Sparse functions, finite sets and the discrete calculus on Z^n.

Values are exact rationals, stored as int numerators over one canonical
positive int denominator per function (the lcm of the reduced value
denominators).  Variations, max projections, 1-norms and the per-line
bound run on those ints; `fractions.Fraction` appears only at the
public boundary (parsing, `value`/`items` and the exact quantities returned).
The constructors are the one validator of outside input: `_check_point`
checks each point and `as_fraction` parses each value, a distinct value
string once per `SparseFunction` built.
Fractional powers and logarithms live on the float track, where each value
enters as the correctly rounded numerator / denominator, which is exactly
float(Fraction).  Float-track sums always iterate entries in lexicographic
key order, which makes them deterministic and bit-stable under translation.
A `LatticeSet` is held as its indicator, the one storage of its points.

Every statistic of the calculus is a sum over the lines of one axis, and
`_line_pass` is the one loop that gathers them: one walk over the entries
per axis, with no sort and no difference function, since the entries of an
axis-i line arrive in increasing order of coordinate i.  It keeps per line
the 1-variation and the maximum of |f|, and per axis the runs and the
coordinates (`LinePass`).  `axis_lines` caches the pass of a function per
axis, and the calculus reads it: `axis_variation`, `max_projection`,
`pointwise_line_bound`, `coord_projection`, `shadow_projection`,
`LatticeSet.bounding_intervals` and `boundary_count`, as do certify's
variations, max-projection masses and support counts.  It is the one loop
along an axis.
`SetCounts` is the one record of a finite set's statistics (size,
crossings, projections, shadows); `line_stats` builds it from the passes
over keys that rise along every line, which is how kernels.subset_stats
reads a bit-packed mask.  The line passes are a function's only cache;
certify keeps beside them the integers it reads off them, in a record that
does not refer back to the function.

Axis indices are 1-based throughout: ``i`` ranges over ``1..dim``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Union

from .errors import DegenerateInputError, DomainError, InvalidInputError

Point = tuple  # tuple of ints, length = ambient dimension
Rational = Union[int, Fraction]

ZERO = Fraction(0)


def as_fraction(value) -> Fraction:
    """Coerce an exact value to Fraction; the one parser of outside values.

    Accepts int, Fraction and strings ("3/4", "0.25", "-2"); decimal strings
    parse exactly as scaled integers.  A decimal exponent past the
    interpreter's int digit limit (4300 by default) is refused before
    10**e is expanded.  Floats are rejected: they would silently poison the
    exact track.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InvalidInputError("boolean is not a lattice value")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if "e" in value or "E" in value:
            _check_decimal_exponent(value)
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"cannot parse rational value {value!r}") from exc
    if isinstance(value, float):
        raise InvalidInputError(
            f"float value {value!r} is not exact; write it as a string (\"p/q\" or decimal)"
        )
    raise InvalidInputError(
        f"expected an exact rational (int, Fraction or string), got {type(value).__name__}"
    )


def _check_decimal_exponent(text: str):
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    try:
        exponent = int(text.replace("E", "e").rpartition("e")[2])
    except ValueError:
        return  # not an exponent: Fraction refuses or parses the string
    if abs(exponent) > limit:
        raise InvalidInputError(
            f"decimal exponent of {text!r} is over the limit of {limit}"
        )


def _check_dim(dim) -> int:
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise InvalidInputError(f"dimension must be a positive integer, got {dim!r}")
    check_box_dim(dim, "input")
    return dim


def _check_axis(dim: int, i) -> int:
    """Validate a 1-based axis index; return the 0-based offset."""
    if not isinstance(i, int) or isinstance(i, bool) or not 1 <= i <= dim:
        raise InvalidInputError(f"axis {i!r} out of range 1..{dim}")
    return i - 1


def _check_point(dim: int, z) -> Point:
    """Validate a point given as a tuple or list of ints; return the tuple."""
    if not isinstance(z, (tuple, list)) or len(z) != dim:
        raise InvalidInputError(f"point {z!r} does not have dimension {dim}")
    for c in z:
        if type(c) is not int and (not isinstance(c, int) or isinstance(c, bool)):
            raise InvalidInputError(f"point {z!r} has a non-integer coordinate")
    return tuple(z)


def _check_exponent(p) -> Fraction:
    """Validate p > 0; returns it as an exact Fraction (floats convert exactly).

    The float track needs float(p): a p past the float range raises
    OverflowError, and a p whose float is 0.0 is refused.
    """
    if isinstance(p, Fraction):
        q = p
    elif isinstance(p, int) and not isinstance(p, bool):
        q = Fraction(p)
    elif isinstance(p, float):
        if not math.isfinite(p):
            raise InvalidInputError(f"exponent must be finite, got {p!r}")
        q = Fraction(p)
    else:
        raise InvalidInputError(f"exponent must be a positive number, got {p!r}")
    if q.numerator <= 0:
        raise InvalidInputError(f"exponent must be positive, got {p!r}")
    if not q.numerator / q.denominator:
        raise InvalidInputError("exponent underflows the floating-point range")
    return q


MAX_BOX_CELLS = 1 << 20
MAX_BOX_DIM = 64


def check_box(side: int, n: int, what: str):
    """Refuse a box of side^n cells over MAX_BOX_CELLS, or of a dimension
    over MAX_BOX_DIM, before any of it is built."""
    # a side >= 2 is over the limit past n = 20, so the power stays small
    if side > 1 and side ** min(n, 21) > MAX_BOX_CELLS:
        raise InvalidInputError(
            f"{what} of {side}^{n} cells is over the limit of {MAX_BOX_CELLS} cells"
        )
    # only a side-1 box gets here with a large n: one cell, but n-tuples
    check_box_dim(n, what)


def check_box_dim(n: int, what: str):
    """Refuse a box of a dimension over MAX_BOX_DIM, whatever its side."""
    if n > MAX_BOX_DIM:
        raise InvalidInputError(
            f"{what} of dimension {n} is over the limit of dimension {MAX_BOX_DIM}"
        )


class SparseFunction:
    """A finitely supported rational-valued function on Z^n.

    Values are stored as int numerators (`_nums`) over one positive int
    denominator (`_den`).  The denominator is canonical: gcd(_den, every
    numerator) = 1, so it is the lcm of the reduced value denominators and
    equal functions have equal (dim, _den, _nums).  Zero entries are pruned,
    so the stored keys *are* the support, kept in lexicographic order.
    Instances are immutable by convention.  Only the line passes are
    cached, per axis; the `_counts` slot keeps certify's `FunctionCounts`,
    a record of plain numbers read off those passes.
    """

    __slots__ = ("dim", "_nums", "_den", "_lines", "_counts")

    def __init__(self, dim: int, entries: Union[Mapping, Iterable] = ()):
        dim = _check_dim(dim)
        if isinstance(entries, Mapping):
            entries = entries.items()
        # each distinct value string is parsed once: `memo` maps it to its
        # (numerator, denominator); it is keyed on strings only, since a key
        # of 1 would also match True
        parsed = []
        memo: dict = {}
        for z, v in entries:
            z = _check_point(dim, z)
            if type(v) is str:
                q = memo.get(v)
                if q is None:
                    q = memo[v] = as_fraction(v).as_integer_ratio()
            else:
                q = as_fraction(v).as_integer_ratio()
            parsed.append((z, q))
        den = math.lcm(*{d for _, (_, d) in parsed})
        nums: dict = {}
        for z, (a, d) in parsed:
            a = nums.get(z, 0) + a * (den // d)
            if a:
                nums[z] = a
            else:
                nums.pop(z, None)
        self._init(dim, nums, den)

    @classmethod
    def _from_clean(cls, dim: int, nums: dict, den: int = 1) -> "SparseFunction":
        """Internal constructor: `nums` maps validated points to nonzero int
        numerators over the positive int `den`, keys in any order."""
        f = object.__new__(cls)
        f._init(dim, nums, den)
        return f

    def _init(self, dim: int, nums: dict, den: int):
        # pairwise with an early exit: most numerators reach gcd 1 within a
        # few entries, and math.gcd(den, *nums.values()) measured a higher
        # peak RSS on the fuzz benchmark
        g = den
        for a in nums.values():
            if g == 1:
                break
            g = math.gcd(g, a)
        if g != 1:
            den //= g
            nums = {z: a // g for z, a in nums.items()}
        self.dim = dim
        self._nums = {z: nums[z] for z in sorted(nums)}
        self._den = den
        self._lines: dict = {}
        self._counts = None

    # -- basic queries -----------------------------------------------------

    def value(self, z: Point) -> Fraction:
        return Fraction(self._nums.get(z, 0), self._den)

    __call__ = value

    def items(self) -> list:
        """Entries as (point, Fraction value) pairs in lexicographic key order."""
        den = self._den
        return [(z, Fraction(a, den)) for z, a in self._nums.items()]

    def support(self) -> frozenset:
        return frozenset(self._nums)

    def support_size(self) -> int:
        return len(self._nums)

    def is_zero(self) -> bool:
        return not self._nums

    def is_nonnegative(self) -> bool:
        # entries are nonzero, so nonnegative means every one is positive
        return not self._nums or min(self._nums.values()) > 0

    # -- derived functions ---------------------------------------------------

    def abs(self) -> "SparseFunction":
        return SparseFunction._from_clean(
            self.dim, {z: abs(a) for z, a in self._nums.items()}, self._den
        )

    def __neg__(self) -> "SparseFunction":
        return SparseFunction._from_clean(
            self.dim, {z: -a for z, a in self._nums.items()}, self._den
        )

    def scaled(self, c) -> "SparseFunction":
        c = as_fraction(c)
        if not c:
            return SparseFunction._from_clean(self.dim, {})
        k = c.numerator
        return SparseFunction._from_clean(
            self.dim, {z: k * a for z, a in self._nums.items()},
            c.denominator * self._den,
        )

    def translate(self, shift: Point) -> "SparseFunction":
        shift = _check_point(self.dim, tuple(shift))
        return SparseFunction._from_clean(
            self.dim,
            {tuple(c + d for c, d in zip(z, shift)): a for z, a in self._nums.items()},
            self._den,
        )

    # -- dunder plumbing -----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, SparseFunction):
            return NotImplemented
        return (self.dim == other.dim and self._den == other._den
                and self._nums == other._nums)

    def __hash__(self):
        return hash((self.dim, self._den, tuple(self._nums.items())))

    def __repr__(self):
        shown = ", ".join(
            f"{z}: {Fraction(a, self._den)}" for z, a in islice(self._nums.items(), 4)
        )
        more = "" if len(self._nums) <= 4 else f", ... ({len(self._nums)} entries)"
        return f"SparseFunction(dim={self.dim}, {{{shown}{more}}})"


class LatticeSet:
    """A finite subset of Z^n, held as its indicator: `_indicator` is the
    SparseFunction equal to 1 on the set, so its keys are the points in
    lexicographic order."""

    __slots__ = ("dim", "_indicator")

    def __init__(self, dim: int, points: Iterable = ()):
        self.dim = dim = _check_dim(dim)
        self._indicator = SparseFunction._from_clean(
            dim, {_check_point(dim, z): 1 for z in points}
        )

    @classmethod
    def _from_clean(cls, dim: int, points: Iterable) -> "LatticeSet":
        """Internal constructor: `points` are validated tuples, in any order."""
        A = object.__new__(cls)
        A.dim = dim
        A._indicator = SparseFunction._from_clean(dim, dict.fromkeys(points, 1))
        return A

    @property
    def points(self):
        """The points, a read-only view in lexicographic order."""
        return self._indicator._nums.keys()

    def __len__(self):
        return len(self._indicator._nums)

    def __iter__(self) -> Iterator[Point]:
        return iter(self._indicator._nums)

    def __contains__(self, z) -> bool:
        return z in self._indicator._nums

    def __eq__(self, other):
        if not isinstance(other, LatticeSet):
            return NotImplemented
        return self._indicator == other._indicator

    def __hash__(self):
        return hash(self._indicator)

    def sorted_points(self) -> list:
        return list(self._indicator._nums)

    def translate(self, shift: Point) -> "LatticeSet":
        shift = _check_point(self.dim, tuple(shift))
        return LatticeSet._from_clean(
            self.dim, (tuple(a + b for a, b in zip(z, shift)) for z in self.points)
        )

    def bounding_intervals(self) -> list:
        """Per-axis (min, max) over the points, read off the indicator's
        line passes; empty set -> error."""
        if not self.points:
            raise DegenerateInputError("empty set has no bounding box")
        coords = [axis_lines(self._indicator, i).coords for i in range(1, self.dim + 1)]
        return [(min(c), max(c)) for c in coords]

    def __repr__(self):
        return f"LatticeSet(dim={self.dim}, {len(self.points)} points)"


@dataclass(frozen=True)
class Cuboid:
    """Product of integer intervals prod_i [a_i, b_i]."""

    intervals: tuple

    def __post_init__(self):
        ivs = tuple(tuple(iv) for iv in self.intervals)
        if not ivs:
            raise InvalidInputError("cuboid needs at least one interval")
        for iv in ivs:
            if len(iv) != 2:
                raise InvalidInputError(f"interval {iv!r} must be an (a, b) pair")
            a, b = iv
            for c in (a, b):
                if not isinstance(c, int) or isinstance(c, bool):
                    raise InvalidInputError(f"interval {iv!r} has a non-integer endpoint")
            if a > b:
                raise InvalidInputError(f"empty interval [{a}, {b}] in cuboid")
        object.__setattr__(self, "intervals", ivs)

    @classmethod
    def from_sides(cls, sides: Iterable[int], origin: Optional[Point] = None) -> "Cuboid":
        sides = tuple(sides)
        if origin is None:
            origin = (0,) * len(sides)
        elif len(origin) != len(sides):
            raise InvalidInputError(f"origin {origin!r} does not have dimension {len(sides)}")
        if any(s < 1 for s in sides):
            raise InvalidInputError(f"cuboid sides must be >= 1, got {sides}")
        return cls(tuple((o, o + s - 1) for o, s in zip(origin, sides)))

    @property
    def dim(self) -> int:
        return len(self.intervals)

    def sides(self) -> tuple:
        return tuple(b - a + 1 for a, b in self.intervals)

    @property
    def is_cube(self) -> bool:
        sides = self.sides()
        return all(s == sides[0] for s in sides)

    def size(self) -> int:
        return math.prod(self.sides())

    def points(self) -> LatticeSet:
        return LatticeSet._from_clean(
            self.dim, product(*(range(a, b + 1) for a, b in self.intervals))
        )


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def indicator(region: Union[LatticeSet, Cuboid], scale: Rational = 1) -> SparseFunction:
    """The function equal to `scale` on the region and 0 elsewhere; at
    scale 1, a set's own stored indicator."""
    if isinstance(region, Cuboid):
        region = region.points()
    lam = as_fraction(scale)
    if not lam:
        raise InvalidInputError("indicator scale must be nonzero")
    if not region:
        raise DegenerateInputError("indicator of the empty set")
    return region._indicator if lam == 1 else region._indicator.scaled(lam)


def axis_variation(f: SparseFunction, i: int) -> Fraction:
    """Exact 1-norm of the forward difference along axis i, read off the
    line pass."""
    return Fraction(axis_lines(f, i).totals[0], f._den)


def norm(f: SparseFunction, p) -> Union[Fraction, float]:
    """p-norm (sum of |f|^p) ** (1/p) under the counting measure.

    Exact (Fraction) for p = 1; float track otherwise, each |value| the
    correctly rounded |numerator| / denominator.  When a term |value|^p
    overflows, or every term underflows to 0.0, the largest |numerator| top
    is factored out: (top / D) * (sum (|a| / top)^p)^(1/p).  The zero
    function has norm 0.
    """
    q = _check_exponent(p)
    if f.is_zero():
        return ZERO if q == 1 else 0.0
    nums = f._nums.values()
    if q == 1:
        return Fraction(sum(map(abs, nums)), f._den)
    pf = float(q)
    den = f._den
    total = 0.0
    try:
        for a in nums:
            total += (abs(a) / den) ** pf
    except OverflowError:
        total = 0.0
    if total:
        return total ** (1.0 / pf)
    top = max(map(abs, nums))
    return top / den * sum((abs(a) / top) ** pf for a in nums) ** (1.0 / pf)


def max_projection(f: SparseFunction, i: int) -> SparseFunction:
    """Drop coordinate i and take the maximum of f over the dropped axis.

    Defined for nonnegative f on Z^n with n >= 2; the result lives on
    Z^(n-1) and is supported on the drop-axis image of supp f.  Its values
    are the line pass's per-line maxima.
    """
    if f.dim < 2:
        raise InvalidInputError("max projection needs ambient dimension >= 2")
    _check_axis(f.dim, i)
    if not f.is_nonnegative():
        raise DomainError("max projection requires a nonnegative function")
    lines = axis_lines(f, i).lines
    return SparseFunction._from_clean(
        f.dim - 1, {key: line[3] for key, line in lines.items()}, f._den
    )


def coord_projection(A: LatticeSet, i: int) -> frozenset:
    """The set of i-th coordinates of points of A."""
    return frozenset(axis_lines(A._indicator, i).coords)


def shadow_projection(A: LatticeSet, i: int) -> frozenset:
    """Image of A under dropping coordinate i (a set of (n-1)-tuples)."""
    return frozenset(axis_lines(A._indicator, i).lines)


class LinePass(NamedTuple):
    """What one walk over a function's entries finds on the lines parallel
    to one axis, in numerators over the function's denominator.

    `lines` maps each line meeting the support, keyed by its points with
    the axis coordinate dropped, to [last coordinate, last numerator,
    variation, max |numerator|], where the variation so far counts |a| at
    the line's first entry, |a - a_prev| between neighbours and
    |a_prev| + |a| across a gap, but not yet the |a| of its last entry.
    `totals` sums the lines' variations and maxima over the axis, which is
    all that axis_variation and certify's FunctionCounts read of them.
    """

    runs: int       # maximal runs of consecutive support points, all lines
    coords: set     # the axis coordinates of the support
    lines: dict

    @property
    def totals(self) -> tuple:
        """(variation, mass) from one walk over the lines: the 1-variation
        of the function along the axis, and the sum over the lines of
        max |f|, the 1-norm of the max projection of |f| along the axis."""
        variation = mass = 0
        for _, a, v, top in self.lines.values():
            variation += v + (a if a > 0 else -a)
            mass += top
        return variation, mass


def _line_pass(nums: dict, ax: int, n: int) -> LinePass:
    """The line pass of the entries `nums` (point -> nonzero numerator in
    Z^n) along the 0-based axis ax: the one statistics loop.

    Invariant: entries on each axis line arrive in increasing coordinate
    order.  Lexicographic key order, which every SparseFunction keeps, has
    it (the points of one line differ only in coordinate ax), and so has a
    box's bit order (kernels), so the pass needs no sort.
    """
    # a line's key drops coordinate ax: one slice on the first and last axes
    cut = slice(1, None) if ax == 0 else slice(ax) if ax == n - 1 else None
    lines: dict = {}
    get = lines.get
    coords = set()
    add = coords.add
    runs = 0
    for z, a in nums.items():
        c = z[ax]
        add(c)
        key = z[cut] if cut else z[:ax] + z[ax + 1:]
        line = get(key)
        m = a if a > 0 else -a
        if line is None:
            lines[key] = [c, a, m, m]
            runs += 1
            continue
        b = line[1]
        if c == line[0] + 1:
            d = a - b
            line[2] += d if d > 0 else -d
        else:
            line[2] += m + (b if b > 0 else -b)
            runs += 1
        if m > line[3]:
            line[3] = m
        line[0] = c
        line[1] = a
    return LinePass(runs, coords, lines)


def axis_lines(f: SparseFunction, i: int) -> LinePass:
    """The line pass of f along axis i, made on first use and kept on f."""
    ax = _check_axis(f.dim, i)
    lines = f._lines.get(ax)
    if lines is None:
        lines = f._lines[ax] = _line_pass(f._nums, ax, f.dim)
    return lines


class SetCounts(NamedTuple):
    """Exact combinatorial statistics of a finite set; each field but
    `size` holds one entry per axis i."""

    size: int
    # lattice edges along axis i with exactly one endpoint in the set: 2 per
    # maximal run, counted at its start z (z - e_i not in the set)
    crossings: tuple
    proj_size: tuple    # number of distinct i-th coordinates
    proj_min: tuple     # their range
    proj_max: tuple
    shadow_size: tuple  # size of the image after dropping coordinate i

    @property
    def boundary(self) -> int:
        return sum(self.crossings)

    @classmethod
    def from_lines(cls, size: int, passes) -> "SetCounts":
        """The counts of a set of `size` points from its line passes, one
        per axis; all zeros for the empty set."""
        if not size:
            zeros = (0,) * len(passes)
            return cls(0, zeros, zeros, zeros, zeros, zeros)
        crossings, sizes, lows, highs, shadows = [], [], [], [], []
        for runs, coords, lines in passes:
            crossings.append(2 * runs)
            sizes.append(len(coords))
            lows.append(min(coords))
            highs.append(max(coords))
            shadows.append(len(lines))
        return cls(size, tuple(crossings), tuple(sizes), tuple(lows), tuple(highs),
                   tuple(shadows))


def line_stats(nums: dict, n: int) -> SetCounts:
    """The SetCounts of the keys of `nums`, n-tuples that rise along every
    axis line (see `_line_pass`): one line pass per axis."""
    return SetCounts.from_lines(len(nums), [_line_pass(nums, ax, n) for ax in range(n)])


def boundary_count(A: LatticeSet) -> int:
    """Number of lattice edges with exactly one endpoint in A.

    Equals the exact 1-norm of the differential of the indicator of A:
    2 per run, read off the indicator's line passes.
    """
    chi = A._indicator
    return 2 * sum(axis_lines(chi, i).runs for i in range(1, A.dim + 1))


def entropy(f: SparseFunction, p) -> float:
    """sum over supp f of f^p * log(f^p), float track.

    The sum runs over the support only, so 0·log 0 never arises.  Requires a
    nonnegative function.
    """
    return _entropy_sum(f, float(_check_exponent(p)), 1.0)


def _entropy_sum(f: SparseFunction, pf: float, scale: float) -> float:
    """sum over supp f of pf * x^pf * log x with x = f/scale (the entropy of
    f/scale at exponent pf); rejects a value whose x underflows to 0.0."""
    den = f._den
    total = 0.0
    for z, a in f._nums.items():
        if a < 0:
            raise DomainError("entropy requires a nonnegative function")
        x = a / den / scale
        if not x:
            raise InvalidInputError(
                f"the value at {z} underflows the floating-point range"
            )
        total += pf * (x ** pf) * math.log(x)
    return total


class LineBoundCheck(NamedTuple):
    """Outcome of the per-line bound max |f| <= (1/2) * variation along a line.

    `worst_line` is the (n-1)-tuple of untouched coordinates of the line with
    the smallest margin; all quantities are exact rationals.
    """

    ok: bool
    axis: int
    lines_checked: int
    worst_line: Optional[Point]
    worst_max: Fraction
    worst_half_variation: Fraction

    @property
    def margin(self) -> Fraction:
        return self.worst_half_variation - self.worst_max


def pointwise_line_bound(f: SparseFunction, i: int) -> LineBoundCheck:
    """Verify, on every line parallel to axis i meeting supp f, that the
    maximum of |f| is at most half the 1-variation of f along the line.

    Exact: the comparison is variation >= 2 * max on numerators over f's
    denominator, read off the line pass; lines not meeting the support are
    skipped.
    """
    lines = axis_lines(f, i).lines
    # (margin, line, variation, max) of the line of least margin, the first
    # in key order on a tie; the margin is 2 * denominator * (half
    # variation - max)
    worst = None
    for key in sorted(lines):
        _, last, variation, top = lines[key]
        variation += abs(last)
        margin = variation - 2 * top
        if worst is None or margin < worst[0]:
            worst = margin, key, variation, top
    if worst is None:
        return LineBoundCheck(True, i, 0, None, ZERO, ZERO)
    margin, key, variation, top = worst
    return LineBoundCheck(
        ok=margin >= 0,
        axis=i,
        lines_checked=len(lines),
        worst_line=key,
        worst_max=Fraction(top, f._den),
        worst_half_variation=Fraction(variation, 2 * f._den),
    )
