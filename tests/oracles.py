"""Independent brute-force oracles used to derive expected test values.

Everything here works cell by cell with direct loops — on dense grids over
a padded bounding box, or on the cells next to each support point —
deliberately a different computational path from the sparse package code
it checks.
"""

import itertools
import math
from fractions import Fraction

from latticeineq.core import SparseFunction, as_fraction
from latticeineq.fuzzing import _sample_support
from latticeineq.kernels import strides
from latticeineq.errors import InvalidInputError


def oracle_partial_difference(f, i):
    """f(z + e_i) - f(z) at each cell z where it can be nonzero: z and
    z - e_i for each support point z.  Each cell's value is read once, by
    f.value."""
    ax = i - 1

    def step(z, d):
        return z[:ax] + (z[ax] + d,) + z[ax + 1:]

    values = {}
    for z, _ in f.items():
        for c in (step(z, -1), z, step(z, 1)):
            if c not in values:
                values[c] = f.value(c)
    out = {}
    for z, _ in f.items():
        for c in (step(z, -1), z):
            v = values[step(c, 1)] - values[c]
            if v:
                out[c] = v
    return out


def oracle_axis_variation(f, i):
    return sum(abs(v) for v in oracle_partial_difference(f, i).values())


def oracle_norm(f, p):
    total = math.fsum(float(abs(v)) ** float(p) for _, v in f.items())
    return total ** (1.0 / float(p))


def oracle_float_prod(values):
    """float(prod(values)) of Fractions, as one correctly rounded int / int
    of the product of their numerators over the product of their
    denominators."""
    return (math.prod(v.numerator for v in values)
            / math.prod(v.denominator for v in values))


def oracle_float_sum(values):
    """float(sum(values)) of Fractions, as one correctly rounded int / int
    over the lcm of their denominators."""
    den = math.lcm(*(v.denominator for v in values))
    return sum(v.numerator * (den // v.denominator) for v in values) / den


def oracle_lex_norm(f, p):
    """The float-track p-norm as one plain float sum of float(|f(z)|) ** p
    over the support in lexicographic order, values read as Fractions."""
    pf = float(p)
    total = 0.0
    for z in sorted(z for z, _ in f.items()):
        total += float(abs(f.value(z))) ** pf
    return total ** (1.0 / pf)


def oracle_integer_p_norm(f, k):
    """||f||_k for an integer k from the exact Fraction sum of |f(z)|^k,
    read through logarithms, so no float over- or underflows."""
    total = sum(abs(v) ** k for _, v in f.items())
    return math.exp((math.log(total.numerator) - math.log(total.denominator)) / k)


def oracle_line_bound(f, i):
    """(ok, lines, worst_line, worst_max, worst_half_variation) of the
    per-line bound, line by line on Fractions: max |f| on each line parallel
    to axis i meeting supp f, and half the sum of |f(z + e_i) - f(z)| over
    the line's padded range.  The worst line has the smallest margin, the
    first in sorted order on a tie."""
    ax = i - 1
    lines = {}
    for z, _ in f.items():
        lines.setdefault(z[:ax] + z[ax + 1:], []).append(z[ax])
    ok, worst = True, None
    for key in sorted(lines):
        cs = lines[key]

        def at(c):
            return f.value(key[:ax] + (c,) + key[ax:])

        top = max(abs(at(c)) for c in cs)
        half = sum(abs(at(c + 1) - at(c)) for c in range(min(cs) - 1, max(cs) + 1)) / 2
        ok = ok and half >= top
        if worst is None or half - top < worst[0]:
            worst = (half - top, key, top, half)
    return ok, len(lines), worst[1], worst[2], worst[3]


def oracle_diff_norm_1(f):
    return sum(oracle_axis_variation(f, i) for i in range(1, f.dim + 1))


def oracle_boundary(points, dim):
    """Count edges with one endpoint inside by scanning all box edges."""
    pts = set(points)
    lo = [min(z[ax] for z in pts) - 1 for ax in range(dim)]
    hi = [max(z[ax] for z in pts) + 1 for ax in range(dim)]
    count = 0
    for z in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        for ax in range(dim):
            w = z[:ax] + (z[ax] + 1,) + z[ax + 1:]
            if (z in pts) != (w in pts):
                count += 1
    return count


def oracle_max_projection(f, i):
    ax = i - 1
    out = {}
    for z, v in f.items():
        key = z[:ax] + z[ax + 1:]
        if v > out.get(key, Fraction(0)):
            out[key] = v
    return out


def oracle_shadow_size(points, i):
    ax = i - 1
    return len({z[:ax] + z[ax + 1:] for z in points})


def oracle_coord_projection(points, i):
    ax = i - 1
    return {z[ax] for z in points}


def oracle_entropy(f, p):
    pf = float(p)
    return math.fsum(
        (float(v) ** pf) * math.log(float(v) ** pf) for _, v in f.items()
    )


def oracle_is_product(points, dim):
    projs = [oracle_coord_projection(points, i) for i in range(1, dim + 1)]
    product = set(itertools.product(*projs))
    return set(points) == product


def oracle_check_point(dim, z):
    """The point check spelled with isinstance tests alone."""
    if not isinstance(z, (tuple, list)) or len(z) != dim:
        raise InvalidInputError(f"point {z!r} does not have dimension {dim}")
    for c in z:
        if not isinstance(c, int) or isinstance(c, bool):
            raise InvalidInputError(f"point {z!r} has a non-integer coordinate")
    return tuple(z)


def oracle_entry_pairs(items):
    """The (z, v) pairs of a function file's entries, refusing the first
    that is not an object with both fields."""
    for item in items:
        if not isinstance(item, dict) or "z" not in item or "v" not in item:
            raise InvalidInputError(f"entry {item!r} must have fields 'z' and 'v'")
        yield item["z"], item["v"]


def oracle_function_parts(dim, entries):
    """(dim, den, entries in key order) of a SparseFunction built from
    (point, value) pairs with one as_fraction call per entry and Fraction
    sums: den is the lcm of the reduced denominators of the nonzero sums."""
    total = {}
    for z, v in entries:
        z = oracle_check_point(dim, z)
        total[z] = total.get(z, Fraction(0)) + as_fraction(v)
    total = {z: v for z, v in total.items() if v}
    den = math.lcm(*(v.denominator for v in total.values()))
    return dim, den, [(z, int(total[z] * den)) for z in sorted(total)]


def oracle_masks(cells, max_size):
    """The bitmask of every nonempty subset of `cells` cells with at most
    max_size of them, by size and then in combinations order."""
    for k in range(1, min(max_size, cells) + 1):
        for bits in itertools.combinations(range(cells), k):
            yield sum(1 << b for b in bits)


def oracle_cells(mask, dims):
    """The coordinates of the set bits of mask, axis 0 fastest."""
    pts = []
    for idx in range(math.prod(dims)):
        if (mask >> idx) & 1:
            rem, coords = idx, []
            for d in dims:
                coords.append(rem % d)
                rem //= d
            pts.append(tuple(coords))
    return pts


def oracle_pack(points, dims):
    """Bitmask of a set of coordinate tuples inside the box, bit
    c_0 + dims[0]*(c_1 + dims[1]*...) per cell: the kernels' layout."""
    mask = 0
    for z in points:
        assert all(0 <= c < d for c, d in zip(z, dims)), (z, dims)
        mask |= 1 << sum(c * s for c, s in zip(z, strides(dims)))
    return mask


def oracle_shape(points, dim):
    """The shape class name of a point set, from its coordinate sets."""
    if not oracle_is_product(points, dim):
        return "NONE"
    projs = [sorted(oracle_coord_projection(points, i)) for i in range(1, dim + 1)]
    if any(p[-1] - p[0] + 1 != len(p) for p in projs):
        return "PRODUCT_SET"
    return "CUBE" if len({len(p) for p in projs}) == 1 else "CUBOID"


def oracle_subset_stats(mask, dims):
    """Same contract as the kernels, from explicit coordinate sets."""
    n = len(dims)
    pts = oracle_cells(mask, dims)
    if not pts:
        return 0, (0,) * n, (0,) * n, (0,) * n, (0,) * n, (0,) * n
    pset = set(pts)
    crossings = []
    for ax in range(n):
        c = 0
        for z in pts:
            for step in (-1, 1):
                if z[:ax] + (z[ax] + step,) + z[ax + 1:] not in pset:
                    c += 1
        crossings.append(c)
    proj = [sorted(oracle_coord_projection(pts, i)) for i in range(1, n + 1)]
    return (
        len(pts),
        tuple(crossings),
        tuple(len(p) for p in proj),
        tuple(p[0] for p in proj),
        tuple(p[-1] for p in proj),
        tuple(oracle_shadow_size(pts, i) for i in range(1, n + 1)),
    )


def oracle_set_counts(points, dim):
    """(size, crossings, proj_size, proj_min, proj_max, shadow_size) of any
    finite point set.  Crossings come from the sorted coordinates on each
    axis line: 2 per maximal run of consecutive integers.  All zeros for the
    empty set."""
    pts = set(points)
    if not pts:
        zeros = (0,) * dim
        return (0, zeros, zeros, zeros, zeros, zeros)
    crossings = []
    for ax in range(dim):
        lines = {}
        for z in pts:
            lines.setdefault(z[:ax] + z[ax + 1:], []).append(z[ax])
        runs = 0
        for cs in lines.values():
            cs.sort()
            runs += 1 + sum(1 for a, b in zip(cs, cs[1:]) if b - a > 1)
        crossings.append(2 * runs)
    proj = [sorted(oracle_coord_projection(pts, i)) for i in range(1, dim + 1)]
    return (
        len(pts),
        tuple(crossings),
        tuple(len(p) for p in proj),
        tuple(p[0] for p in proj),
        tuple(p[-1] for p in proj),
        tuple(oracle_shadow_size(pts, i) for i in range(1, dim + 1)),
    )


def oracle_exhaustive_best_iso(n, size, box_side):
    """True maximum of the isoperimetric ratio over all size-`size` subsets
    of the box, by full enumeration (slow; keep the instances tiny)."""
    cells = list(itertools.product(range(box_side), repeat=n))
    best = 0.0
    best_pts = None
    for combo in itertools.combinations(cells, size):
        b = oracle_boundary(combo, n)
        if (1 << n) * n ** n * size ** (n - 1) == b ** n:
            ratio = 1.0
        else:
            ratio = 2 * n * float(size ** (n - 1)) ** (1.0 / n) / b
        if ratio > best:
            best = ratio
            best_pts = combo
    return best, best_pts


# the transfer-matrix scan with |A| and every counter in the dict key and
# one count per state: the reference that kernels._scan, which packs |A| and
# the last counter into a polynomial per key, is compared against
def oracle_scan(dims, max_size, lines):
    """{(size, counters): count} over the subsets A of the box with
    1..max_size cells, scanning the cells z in packing order.  Per axis i a
    register holds the marks of the last stride[i] cells, oldest first, so
    the mark of z - e_i is its bit 0, and counter i goes up by one when z is
    taken into A while z - e_i is unmarked or outside the box.  With lines
    false a cell is marked when it is in A, and counter i counts the runs of
    A along axis i, as in core.line_stats.  With lines true a cell is also
    marked when z - e_i is: the axis-i line through z already meets A, and
    counter i counts the axis-i lines that meet A, the shadow size.

    A state packs, from the low bits: the registers, the n counters, and |A|
    on top.  A cell's axis-i mark is read later exactly when the cell is not
    on the high face of axis i (z_i < dims[i] - 1); the other register bits
    are cleared, which merges states, so a cell on the low face of axis i,
    whose z - e_i lies outside the box, reads a 0 there.  A state that
    reaches max_size cells can take no more, so its counters are final: it
    leaves the scan at once instead of being carried through the remaining
    cells."""
    st = strides(dims)
    n = len(dims)
    cells = st[-1] * dims[-1]
    width = cells.bit_length()
    regs = sum(st)
    top = regs + n * width
    full = max_size << top
    all_regs = (1 << regs) - 1
    # per axis: register offset, its ones, its newest bit, the register
    # bits still read after this cell (keep), counter unit
    step = [[sum(st[:i]), (1 << s) - 1, 1 << (s - 1), 0, 1 << (regs + i * width)]
            for i, s in enumerate(st)]
    states = {0: 1}
    done = {}  # key without its registers -> count, of the finished states
    for idx in range(cells):
        for axis, d, s in zip(step, dims, st):
            # the newest bit, the mark of cell idx, is read by cell idx + s
            # unless cell idx is on the high face
            axis[3] = axis[3] >> 1 | (axis[2] if idx // s % d < d - 1 else 0)
        moves = {}  # registers -> (key step if z is left out, if z is taken)
        nxt = {}
        get = nxt.get
        for key, count in states.items():
            w = key & all_regs
            move = moves.get(w)
            if move is None:
                left = taken = 0
                grow = 1 << top
                for off, ones, head, keep, unit in step:
                    r = w >> off & ones
                    seen = r & 1  # the mark of z - e_i
                    if not seen:
                        grow += unit
                    r >>= 1
                    left |= ((r | head if lines and seen else r) & keep) << off
                    taken |= ((r | head) & keep) << off
                move = moves[w] = (left - w, taken - w + grow)
            k = key + move[0]
            nxt[k] = get(k, 0) + count
            k = key + move[1]
            if k < full:
                nxt[k] = get(k, 0) + count
            else:
                k >>= regs
                done[k] = done.get(k, 0) + count
        states = nxt
    for key, count in states.items():
        k = key >> regs
        done[k] = done.get(k, 0) + count
    low = (1 << width) - 1
    out = {}
    for key, count in done.items():
        size = key >> (n * width)
        if size:
            out[size, tuple(key >> (i * width) & low for i in range(n))] = count
    return out


# the fuzz sampler drawing each value with Random.randint: the reference
# that fuzzing._sample_function, which takes the same draws inline from
# getrandbits, is compared against
def oracle_sample_function(
    rng, n: int, window: int, q: float, denominator: int, signed: bool
) -> SparseFunction:
    nums = {}
    for z in _sample_support(rng, n, window, q):
        a = rng.randint(1, denominator)
        if signed and rng.random() < 0.5:
            a = -a
        nums[z] = a
    return SparseFunction._from_clean(n, nums, denominator)
