"""Sparse functions, finite sets and the discrete calculus on Z^n.

Values are exact rationals, stored as int numerators over one canonical
positive int denominator per function (the lcm of the reduced value
denominators).  Variations, max projections, 1-norms and the per-line
bound run on those ints; `fractions.Fraction` appears only at the
public boundary (parsing, `value`/`items` and the exact quantities returned).
The constructors are the one validator of outside input: `_bulk_points`
tests a collection's points at once and `as_ratio`, the one parser, reads
each distinct value once; where a bulk test fails, `_check_point` and
`as_ratio` walk the entries to the first bad one.
Fractional powers and logarithms live on the float track, where each value
enters as the correctly rounded numerator / denominator, which is exactly
float(Fraction); `_float_norm` is the one float p-norm sum, taking p as two
ints, and `norm` its validating wrapper.  Float-track sums always iterate entries in lexicographic
key order, which makes them deterministic and bit-stable under translation.
A `LatticeSet` is held as its indicator, the one storage of its points.

Every statistic of the calculus is a sum over the lines of one axis, and
`_line_pass` is the one loop that gathers them: one walk over the entries
per axis, with no sort and no difference function, since the entries of an
axis-i line arrive in increasing order of coordinate i.  It keeps per line
the 1-variation and the maximum of |f|, and per axis the runs, the
coordinates and the sign flips (`LinePass`).  It is the one loop along
an axis.
`SetCounts` is the one record of a finite set's statistics (size,
crossings, projections, shadows); `line_stats` builds it from the passes
over keys that rise along every line, which is how kernels.subset_stats
reads a bit-packed mask.  A function keeps one cache, its
`FunctionCounts`: its n line passes, the integers read off them and the
memos of `kept_norm` and `kept_entropy` (the checkers' one way to
`_float_norm` and `_entropy_sum`), in a record that does not refer back
to the function.  Core alone fills that record, and `axis_variation`,
`boundary_count`, `pointwise_line_bound` (the one reader of the passes
themselves), `SparseFunction.abs` and the checkers read it: `abs` builds
|f|'s record from f's, with no line pass and so with no passes.

Axis indices are 1-based throughout: ``i`` ranges over ``1..dim``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice, product
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Union

from .errors import DegenerateInputError, DomainError, InvalidInputError

Point = tuple  # tuple of ints, length = ambient dimension
Rational = Union[int, Fraction]


def as_ratio(value) -> tuple:
    """(numerator, denominator) of an exact value in lowest terms, the
    denominator positive; the one parser of outside values.

    Accepts int, Fraction and strings ("3/4", "0.25", "-2"); decimal strings
    parse exactly as scaled integers.  A string of ASCII digits with an
    optional leading "-" and "/digits" is read by int arithmetic; every
    other spelling but one with an underscore, refused on every Python,
    goes through `Fraction`.  A decimal exponent past the
    interpreter's int digit limit (4300 by default) is refused before
    10**e is expanded.  Floats are rejected: they would silently poison the
    exact track.
    """
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        if value.isascii() and num.lstrip("-").isdigit() and (den.isdigit() or not slash):
            try:
                a, d = int(num), int(den or 1)
            except ValueError:  # "--1", or over the int digit limit
                d = 0
            if d:
                g = math.gcd(a, d)
                return a // g, d // g
        if "e" in value or "E" in value:
            _check_decimal_exponent(value)
        try:
            if "_" in value:  # Fraction reads "1_0" from Python 3.11 on only
                raise ValueError(value)
            return Fraction(value).as_integer_ratio()
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"cannot parse rational value {value!r}") from exc
    if isinstance(value, bool):
        raise InvalidInputError("boolean is not a lattice value")
    if isinstance(value, int):
        return int(value), 1
    if isinstance(value, Fraction):
        return value.as_integer_ratio()
    if isinstance(value, float):
        raise InvalidInputError(
            f"float value {value!r} is not exact; write it as a string (\"p/q\" or decimal)"
        )
    raise InvalidInputError(
        f"expected an exact rational (int, Fraction or string), got {type(value).__name__}"
    )


def as_fraction(value) -> Fraction:
    """An exact value as a Fraction, parsed by `as_ratio`."""
    return value if isinstance(value, Fraction) else Fraction(*as_ratio(value))


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


def _bulk_points(dim: int, zs) -> bool:
    """Whether every point of the collection zs is a tuple or list of `dim`
    ints; it names no bad point, which `_check_point` does."""
    return (set(map(type, zs)) <= {tuple, list} and set(map(len, zs)) <= {dim}
            and set(map(type, chain.from_iterable(zs))) <= {int})


def _bulk_entries(dim: int, entries):
    """(points, values, {value: as_ratio(value)}) of a collection of (point,
    value) pairs, or None if a pair, a point or a value fails a bulk test."""
    if not (set(map(type, entries)) <= {tuple, list} and set(map(len, entries)) <= {2}):
        return None
    zs = list(map(itemgetter(0), entries))
    vs = list(map(itemgetter(1), entries))
    if not (_bulk_points(dim, zs) and set(map(type, vs)) <= {str, int, Fraction}):
        return None
    try:
        memo = {v: as_ratio(v) for v in dict.fromkeys(vs)}
    except InvalidInputError:
        return None
    return list(map(tuple, zs)), vs, memo


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
    Instances are immutable by convention.  The `_counts` slot is the one
    cache: the `FunctionCounts`, f's line passes and the plain numbers read
    off them (see `function_counts`).
    """

    __slots__ = ("dim", "_nums", "_den", "_counts")

    def __init__(self, dim: int, entries: Union[Mapping, Iterable] = ()):
        dim = _check_dim(dim)
        if isinstance(entries, Mapping):
            entries = entries.items()
        # a collection of (point, value) pairs is tested column by column,
        # parsing each distinct value once; an iterator, or a collection that
        # fails a bulk test, is walked to its first bad entry
        columns = None if iter(entries) is entries else _bulk_entries(dim, entries)
        if columns is None:
            points, keys = [], []
            for z, v in entries:
                points.append(_check_point(dim, z))
                keys.append(as_ratio(v))
            columns = points, keys, dict(zip(keys, keys))
        points, keys, memo = columns
        den = math.lcm(*{d for _, d in memo.values()})
        scaled = {v: a * (den // d) for v, (a, d) in memo.items()}
        nums = dict(zip(points, map(scaled.__getitem__, keys)))
        if len(nums) < len(points):  # a point repeats: its values add up
            nums = {}
            for z, v in zip(points, keys):
                nums[z] = nums.get(z, 0) + scaled[v]
        if 0 in nums.values():
            nums = {z: a for z, a in nums.items() if a}
        self._init(dim, nums, den)

    @classmethod
    def _from_clean(cls, dim: int, nums: dict, den: int = 1) -> "SparseFunction":
        """Internal constructor: `nums` maps validated points to nonzero int
        numerators over the positive int `den`, keys in any order."""
        f = object.__new__(cls)
        f._init(dim, nums, den)
        return f

    @classmethod
    def _from_reduced(cls, dim: int, nums: dict, den: int) -> "SparseFunction":
        """`_from_clean` for `nums` in key order and coprime to `den`."""
        f = object.__new__(cls)
        f.dim = dim
        f._nums = nums
        f._den = den
        f._counts = None
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
        self._counts = None

    # -- basic queries -----------------------------------------------------

    def value(self, z: Point) -> Fraction:
        return Fraction(self._nums.get(z, 0), self._den)

    __call__ = value

    def items(self) -> list:
        """Entries as (point, Fraction value) pairs in lexicographic key order."""
        den = self._den
        return [(z, Fraction(a, den)) for z, a in self._nums.items()]

    def support_size(self) -> int:
        return len(self._nums)

    def is_zero(self) -> bool:
        return not self._nums

    def is_nonnegative(self) -> bool:
        # entries are nonzero, so nonnegative means every one is positive
        return not self._nums or min(self._nums.values()) > 0

    # -- derived functions ---------------------------------------------------

    def abs(self) -> "SparseFunction":
        """|f|, its FunctionCounts read off f's, with no line pass of its
        own: each axis variation less 2 * flips (see LinePass), no flips
        and no passes, f's masses, support counts and float p-norm memo
        (each float norm reads |a|), and a fresh entropy memo."""
        # |f| keeps f's keys, in order, and its denominator and gcd
        nums = self._nums
        g = SparseFunction._from_reduced(
            self.dim, dict(zip(nums, map(abs, nums.values()))), self._den
        )
        counts = function_counts(self)
        g._counts = counts._replace(
            variations=tuple(v - 2 * k for v, k in zip(counts.variations, counts.flips)),
            flips=(0,) * self.dim,
            passes=None,
            indicator=counts.support if len(set(g._nums.values())) == 1 else None,
            entropies={})
        return g

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
        if iter(points) is not points and _bulk_points(dim, points):
            points = map(tuple, points)
        else:
            points = [_check_point(dim, z) for z in points]
        self._indicator = SparseFunction._from_clean(dim, dict.fromkeys(points, 1))

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
    lam = 1 if type(scale) is int and scale == 1 else as_fraction(scale)
    if not lam:
        raise InvalidInputError("indicator scale must be nonzero")
    if not region:
        raise DegenerateInputError("indicator of the empty set")
    return region._indicator if lam == 1 else region._indicator.scaled(lam)


def axis_variation(f: SparseFunction, i: int) -> Fraction:
    """Exact 1-norm of the forward difference along axis i, read off f's
    FunctionCounts."""
    return Fraction(function_counts(f).variations[_check_axis(f.dim, i)], f._den)


def norm(f: SparseFunction, p) -> Union[Fraction, float]:
    """p-norm (sum of |f|^p) ** (1/p) under the counting measure.

    Exact (Fraction) for p = 1; float track otherwise, `_float_norm`'s, of
    which this is the validating public wrapper.  The zero function has
    norm 0.
    """
    q = _check_exponent(p)
    if q == 1:
        return Fraction(sum(map(abs, f._nums.values())), f._den)
    return _float_norm(f, q.numerator, q.denominator)


def _float_norm(f: SparseFunction, a: int, b: int) -> float:
    """The float of ||f||_p at p = a/b, for ints a, b > 0 whose quotient is
    a positive float: the one float sum of a p-norm.

    At p = 1 it is sum |c| / D over the numerators c, one int division.
    Otherwise each |value| is the correctly rounded |c| / D; when a term
    |value|^p overflows, or the sum of the terms overflows to inf or falls
    below the normal float range, the largest |c|, top, is factored out:
    (top / D) * (sum (|c| / top)^p)^(1/p).  A norm itself past the float
    range, where a division or power overflows, reads inf.
    """
    nums = f._nums.values()
    den = f._den
    try:
        if a == b:
            return sum(map(abs, nums)) / den
        if not nums:
            return 0.0
        pf = a / b
        total = 0.0
        try:
            for c in nums:
                total += (abs(c) / den) ** pf
        except OverflowError:
            total = 0.0
        if sys.float_info.min <= total < math.inf:
            return total ** (1.0 / pf)
        top = max(map(abs, nums))
        return top / den * sum((abs(c) / top) ** pf for c in nums) ** (1.0 / pf)
    except OverflowError:  # ||f||_p >= max |f|, itself past the float range
        return math.inf


class LinePass(NamedTuple):
    """What one walk over a function's entries finds on the lines parallel
    to one axis, in numerators over the function's denominator.

    `lines` maps each line meeting the support, keyed by its points with
    the axis coordinate dropped, to [last coordinate, last numerator,
    variation, max |numerator|], where the variation so far counts |a| at
    the line's first entry, |a - a_prev| between neighbours and
    |a_prev| + |a| across a gap, but not yet the |a| of its last entry.
    `function_counts` sums the lines' variations and maxima over each axis
    and keeps the passes in f's record, where `pointwise_line_bound` reads
    them line by line.
    `flips` sums min(|a_prev|, |a|) over the neighbours of opposite sign,
    the only terms where |a - a_prev| exceeds ||a| - |a_prev||, by twice
    that: the axis variation of |f| is the variation of f less 2 * flips.
    """

    runs: int       # maximal runs of consecutive support points, all lines
    coords: set     # the axis coordinates of the support
    lines: dict
    flips: int


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
    runs = flips = 0
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
            if (a ^ b) < 0:  # opposite signs: |a - b| = |a| + |b|
                mb = b if b > 0 else -b
                line[2] += m + mb
                flips += m if m < mb else mb
            else:
                d = a - b
                line[2] += d if d > 0 else -d
        else:
            line[2] += m + (b if b > 0 else -b)
            runs += 1
        if m > line[3]:
            line[3] = m
        line[0] = c
        line[1] = a
    return LinePass(runs, coords, lines, flips)


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
        for runs, coords, lines, _ in passes:
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


class FunctionCounts(NamedTuple):
    """What the function checkers read of f, built once from f's line
    passes, one `_line_pass` per axis, and holding no reference to f.

    `variations` (||d_i f||_1, the sum of the lines' variations) and
    `masses` (the 1-norm of the max projection of |f|, the sum of the
    lines' maxima, read only once f is known to be nonnegative) are int
    numerators over f's denominator D, one per axis, and so are `flips`,
    the passes' flips, which `SparseFunction.abs` subtracts twice from the
    variations (0 for |f| itself).  `passes` holds those n LinePasses,
    read by `pointwise_line_bound`; it is None on the record `abs` derives,
    which was read off another's.  `support` is the SetCounts of supp f,
    from the runs, coordinates and line counts; `indicator` is `support`
    when f is a scaled indicator, else None.  `norms` and `entropies` are
    the memos of `kept_norm` and `kept_entropy`, so the three log checkers
    walk f once.  Only core fills the record; every other reader of f's
    statistics reads it."""

    variations: tuple
    masses: tuple
    flips: tuple
    passes: Optional[tuple]
    support: SetCounts
    indicator: Optional[SetCounts]
    norms: dict
    entropies: dict


def function_counts(f: SparseFunction) -> FunctionCounts:
    """The FunctionCounts of f, made on first use and kept on f."""
    counts = f._counts
    if counts is None:
        nums, n = f._nums, f.dim
        passes = tuple([_line_pass(nums, ax, n) for ax in range(n)])
        variations, masses = [], []
        for p in passes:
            variation = mass = 0
            for _, a, v, top in p.lines.values():
                variation += v + (a if a > 0 else -a)
                mass += top
            variations.append(variation)
            masses.append(mass)
        support = SetCounts.from_lines(len(nums), passes)
        constant = len(set(nums.values())) == 1
        counts = f._counts = FunctionCounts(
            tuple(variations), tuple(masses), tuple(p.flips for p in passes), passes,
            support, support if constant else None, {}, {})
    return counts


def kept_norm(f: SparseFunction, a: int, b: int) -> float:
    """float(||f||_p) at p = a/b, `_float_norm`'s, once per f and p: the
    checkers' one p-norm."""
    norms = function_counts(f).norms
    if (a, b) not in norms:
        norms[a, b] = _float_norm(f, a, b)
    return norms[a, b]


def kept_entropy(f: SparseFunction, a: int, b: int, scale: float) -> float:
    """The entropy sum of f/scale at p = a/b, `_entropy_sum`'s, once each."""
    entropies = function_counts(f).entropies
    if (a, b, scale) not in entropies:
        entropies[a, b, scale] = _entropy_sum(f, a / b, scale)
    return entropies[a, b, scale]


def boundary_count(A: LatticeSet) -> int:
    """Number of lattice edges with exactly one endpoint in A.

    Equals the exact 1-norm of the differential of the indicator of A:
    2 per run, read off the indicator's FunctionCounts.
    """
    return function_counts(A._indicator).support.boundary


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
    the smallest margin, whose max |f| and variation are the int numerators
    `top` and `variation` over f's denominator `den`; the exact rationals
    `worst_max`, `worst_half_variation` and `margin` are built when read.
    """

    ok: bool
    axis: int
    lines_checked: int
    worst_line: Optional[Point]
    top: int
    variation: int
    den: int

    @property
    def worst_max(self) -> Fraction:
        return Fraction(self.top, self.den)

    @property
    def worst_half_variation(self) -> Fraction:
        return Fraction(self.variation, 2 * self.den)

    @property
    def margin(self) -> Fraction:
        return Fraction(self.variation - 2 * self.top, 2 * self.den)


def pointwise_line_bound(f: SparseFunction, i: int) -> LineBoundCheck:
    """Verify, on every line parallel to axis i meeting supp f, that the
    maximum of |f| is at most half the 1-variation of f along the line.

    Exact: the comparison is variation >= 2 * max on numerators over f's
    denominator, read off the axis-i pass kept in f's FunctionCounts, or
    off a pass made for this call alone where the record has none (|f|
    from `abs`); lines not meeting the support are skipped.
    """
    ax = _check_axis(f.dim, i)
    passes = function_counts(f).passes
    lines = (passes[ax] if passes else _line_pass(f._nums, ax, f.dim)).lines
    # (margin, line) of the line of least margin, the least line on a tie;
    # the margin is 2 * denominator * (half variation - max)
    worst = None
    for key, (_, a, v, top) in lines.items():
        here = (v + abs(a) - 2 * top, key)
        if worst is None or here < worst:
            worst = here
    if worst is None:
        return LineBoundCheck(True, i, 0, None, 0, 0, f._den)
    margin, key = worst
    _, a, v, top = lines[key]
    return LineBoundCheck(margin >= 0, i, len(lines), key, top, v + abs(a), f._den)
