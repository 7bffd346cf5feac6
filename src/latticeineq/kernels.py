"""Grid kernels: bit-packed subsets of a box, their cell decoding, and
counts of all subsets of a box by statistics.

A subset of the box prod_i [0, dims[i]-1] is packed as a bitmask: the cell
with coordinates (c_0, .., c_{n-1}) sits at bit
c_0 + dims[0]*(c_1 + dims[1]*...), axis 0 fastest.  Works for boxes of any
size (Python integers).  `subset_stats` decodes the cells of one mask and
hands them, in bit order, to `core.line_stats`: the one statistics loop,
the line pass, needs each axis line's cells in increasing order, and bit
order rises along every line.

`subset_histograms` counts the subsets of a box by (size, crossings) and by
(size, shadow sizes) without visiting them: a transfer-matrix scan (Stanley,
Enumerative Combinatorics I, 4.7) walks the cells and keeps a dict from a
packed state to the number of partial subsets in it.  The one scan serves
both counts; they differ only in the rule that marks a cell (in the subset,
or on a line that already meets it), and a state that holds the size cap
leaves the scan early.  Rigidity enumeration, and its report, read these
counts, and `subset_stats` only for the product sets whose coordinate sets
all contain 0 (`product_sets`), one per translation class; no subset is
decoded one by one, whether the theorems hold or not.
"""

import itertools

from .core import line_stats


def strides(dims):
    out = [1]
    for d in dims[:-1]:
        out.append(out[-1] * d)
    return tuple(out)


def cell(idx, dims):
    """Coordinates of the cell at flat index idx."""
    coords = []
    for d in dims:
        idx, c = divmod(idx, d)
        coords.append(c)
    return tuple(coords)


def _cells(mask, dims):
    """Coordinates of the set bits of mask, lowest bit first."""
    while mask:
        low = mask & -mask
        yield cell(low.bit_length() - 1, dims)
        mask ^= low


def pack(points, dims):
    """Bitmask of a set of coordinate tuples inside the box."""
    st = strides(dims)
    mask = 0
    for z in points:
        idx = 0
        for c, d, s in zip(z, dims, st):
            if not 0 <= c < d:
                raise ValueError(f"point {z} outside box {dims}")
            idx += c * s
        mask |= 1 << idx
    return mask


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
    sizes.  The scan keeps a dict from a packed state to a count, and a
    state leaves it once it holds max_size cells, so it holds no more
    states than there are subsets of fewer than max_size cells."""
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
