"""Grid kernels: bit-packed subsets of a box, their cell decoding, and
counts of all subsets of a box by statistics.

A subset of the box prod_i [0, dims[i]-1] is packed as a bitmask: the cell
with coordinates (c_0, .., c_{n-1}) sits at bit
c_0 + dims[0]*(c_1 + dims[1]*...), axis 0 fastest.  Works for boxes of any
size (Python integers).  A mask is decoded in one pass over its binary
digits against the box's `cell_table`, kept for the last few boxes.
`subset_stats` decodes the cells of one mask and hands them, in bit order,
to `core.line_stats`: the one statistics loop, the line pass, needs each
axis line's cells in increasing order, and bit order rises along every
line.

`subset_histograms` counts the subsets of a box by (size, crossings) and by
(size, shadow sizes) without visiting them: a transfer-matrix scan (Stanley,
Enumerative Combinatorics I, 4.7) walks the cells and keeps a dict from a
packed state to a generating polynomial, held in one int, that counts the
partial subsets in it by size and last-axis counter (Kronecker substitution;
Harvey, J. Symbolic Comput. 44, 2009).  The one scan serves both counts;
they differ only in the rule that marks a cell (in the subset, or on a
line that already meets it), and the subsets that reach the size cap
leave the scan early.  Rigidity enumeration, and its report, read these
counts, and `subset_stats` only for the product sets whose coordinate sets
all contain 0 (`product_sets`), one per translation class; no subset is
decoded one by one, whether the theorems hold or not.
"""

import functools
import itertools
import math

from .core import line_stats


def strides(dims):
    out = [1]
    for d in dims[:-1]:
        out.append(out[-1] * d)
    return tuple(out)


@functools.lru_cache(maxsize=8)
def cell_table(dims: tuple) -> tuple:
    """The coordinates of every cell of the box, by flat index."""
    return tuple(z[::-1] for z in itertools.product(*map(range, reversed(dims))))


def _cells(mask, dims):
    """Coordinates of the set bits of mask, lowest bit first: one pass over
    its binary digits against the box's cell table."""
    return itertools.compress(cell_table(tuple(dims)), map("1".__eq__, bin(mask)[:1:-1]))


def unpack(mask, dims):
    """Sorted list of coordinate tuples of the set bits."""
    return sorted(_cells(mask, dims))


def subset_stats(mask, dims):
    """The core.SetCounts of the subset packed in mask: core.line_stats on
    its decoded cells, in bit order."""
    return line_stats(dict.fromkeys(_cells(mask, dims), 1), len(dims))


def product_sets(dims, max_size):
    """(coordinate sets, mask) of the product sets S_0 x .. x S_{n-1} in the
    box with at most max_size cells whose coordinate sets S_i all contain 0,
    each once: one per translation class of product sets, its canonical
    translate.  Each S_i is a sorted tuple."""
    st = strides(dims)

    def extend(axis, sets, mask, size):
        if axis == len(dims):
            yield sets, mask
            return
        for k in range(min(dims[axis], max_size // size)):
            for coords in itertools.combinations(range(1, dims[axis]), k):
                # mask has coordinate 0 on this axis, so each shift is a copy
                m = mask
                for c in coords:
                    m |= mask << (c * st[axis])
                yield from extend(axis + 1, sets + ((0, *coords),), m, size * (k + 1))

    yield from extend(0, (), 1, 1)


def subset_histograms(dims, max_size):
    """Two counts of the subsets of the box with 1..max_size cells:
    {(size, crossings): count} and {(size, shadow_size): count}, with the
    fields of subset_stats.  Both come from one scan, `_scan`, under two
    mark rules: the run starts per axis, whose doubles are the crossings,
    and the lines per axis that meet the subset, which are the shadow
    sizes.  The scan keeps a dict from the registers and the first n - 1
    counters to a polynomial in size and the last counter, so its memory
    is its keys times the polynomials' width; the subsets that hold
    max_size cells leave it at once."""
    dims = tuple(dims)
    starts = _scan(dims, max_size, lines=False)
    return ({(size, tuple(2 * c for c in counters)): count
             for (size, counters), count in starts.items()},
            _scan(dims, max_size, lines=True))


def _scan(dims, max_size, lines):
    """{(size, counters): count} over the subsets A of the box with
    1..max_size cells, scanning the cells z in packing order.  Per axis i a
    register holds the marks of the last stride[i] cells, oldest first, so
    the mark of z - e_i is its bit 0, and counter i goes up by one when z is
    taken into A while z - e_i is unmarked or outside the box.  With lines
    false a cell is marked when it is in A, and counter i counts the runs of
    A along axis i, as in core.line_stats.  With lines true a cell is also
    marked when z - e_i is: the axis-i line through z already meets A, and
    counter i counts the axis-i lines that meet A, the shadow size.

    A dict key packs the registers in its low bits and counters 0..n-2
    above them.  Its value is a generating polynomial in |A| and the last
    counter, held in one int (Kronecker substitution): the number of
    partial subsets with size s and last counter c is digit
    (s - c0) * span + c, c0 being the key's counter 0 (at most s; 0 when
    n = 1), each digit wide enough for the largest count, C(cells, s) at
    s <= max_size, so no digit carries into the next.  Taking z shifts the
    polynomial up one size digit unless counter 0 grows, and one counter
    digit more when z - e_{n-1} is unmarked; states that meet add their
    polynomials, and no polynomial carries the zero digits below c0.  All
    registers step at once, one shift of the key's low bits; the counter
    step, the marks a left-out cell sets and the shift depend only on the
    marks of the z - e_i, and are cached per pattern of them.  A cell's
    axis-i mark is read later exactly when the cell is not on the high
    face of axis i (z_i < dims[i] - 1); the other register bits are
    cleared, which merges states, so a cell on the low face of axis i,
    whose z - e_i lies outside the box, reads a 0 there.  Subsets that
    reach max_size cells can take no more, so their counters are final:
    that band of a polynomial leaves the scan at once instead of being
    carried through the remaining cells.  The polynomials are decoded
    once, at the end."""
    st = strides(dims)
    n = len(dims)
    cells = st[-1] * dims[-1]
    max_size = min(max_size, cells)
    width = cells.bit_length()
    regs = sum(st)
    all_regs = (1 << regs) - 1
    offs = [sum(st[:i]) for i in range(n)]
    lows = sum(1 << off for off in offs)  # the marks of z - e_i
    heads = [1 << (off + s - 1) for off, s in zip(offs, st)]  # the mark of z
    tops = sum(heads)
    olds = all_regs - tops
    # the last counter is at most max_size, and at most its runs (lines)
    span = min(max_size, st[-1] if lines else st[-1] * ((dims[-1] + 1) // 2)) + 1
    nbytes = -(-math.comb(cells, min(max_size, cells // 2)).bit_length() // 8)
    digit = 8 * nbytes
    low = (1 << width) - 1
    # by counter 0: the first digit of size max_size
    fulls = [1 << b for b in range(digit * span * max_size, -1, -digit * span)]
    jumps = {}  # marks of z - e_i -> (counter step, left-out marks, taken shift)
    keep = 0  # the register bits still read after this cell
    states = {0: 1}
    done = {}  # counters 0..n-2 -> polynomial, of the finished subsets
    # per cell, axis 0 fastest: the mark of z is read by z + e_i unless z
    # is on the high face of axis i
    for fresh in itertools.product(*[[h] * (d - 1) + [0] for h, d in zip(heads, dims)][::-1]):
        keep = keep >> 1 & olds | sum(fresh)
        nxt = {}
        get = nxt.get
        for key, poly in states.items():
            w = key & all_regs
            jump = jumps.get(w & lows)
            if jump is None:
                seen = [w >> off & 1 for off in offs]
                jump = jumps[w & lows] = (
                    sum(1 << (regs + i * width) for i in range(n - 1) if not seen[i]),
                    sum(h for h, m in zip(heads, seen) if m) if lines else 0,
                    digit * ((span if n == 1 or seen[0] else 0) + 1 - seen[-1]))
            grow, marks, shift = jump
            r = w >> 1
            base = key - w
            k = base | (r & olds | marks) & keep
            old = get(k)
            nxt[k] = poly if old is None else old + poly
            poly <<= shift
            k = base + grow | (r | tops) & keep
            full = fulls[k >> regs & low]
            if poly < full:
                old = get(k)
                nxt[k] = poly if old is None else old + poly
                continue
            rest = poly & (full - 1)
            j = k >> regs
            done[j] = done.get(j, 0) + (poly - rest)
            if rest:
                nxt[k] = get(k, 0) + rest
        states = nxt
    for key, poly in states.items():
        done[key >> regs] = done.get(key >> regs, 0) + poly
    out = {}
    for key, poly in done.items():
        counters = tuple(key >> (i * width) & low for i in range(n - 1))
        c0 = key & low
        raw = poly.to_bytes(nbytes * span * (max_size + 1), "little")
        for pos in range(0 if c0 else span, span * (max_size + 1 - c0)):
            count = int.from_bytes(raw[pos * nbytes:(pos + 1) * nbytes], "little")
            if count:
                out[pos // span + c0, counters + (pos % span,)] = count
    return out
