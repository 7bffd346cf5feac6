"""Grid kernels: bit-packed subsets of a box, their cell decoding, and
counts of all subsets of a box by statistics.

A subset of the box prod_i [0, dims[i]-1] is packed as a bitmask: the cell
with coordinates (c_0, .., c_{n-1}) sits at bit
c_0 + dims[0]*(c_1 + dims[1]*...), axis 0 fastest.  Works for boxes of any
size (Python integers).  `subset_stats` decodes the cells of one mask and
hands them to `core.set_stats`, the one statistics pass over a point set.

`subset_histograms` counts the subsets of a box by (size, crossings) and by
(size, shadow sizes) without visiting them: a transfer-matrix scan (Stanley,
Enumerative Combinatorics I, 4.7) keeps a dict from a packed state to the
number of partial subsets in it.  Rigidity enumeration reads these counts,
and `subset_stats` only for the slab patterns of the scan and the product
sets (`product_sets`), one per translation class; only the per-mask path,
which runs when the counts do not prove the theorems, calls it per subset.
"""

import itertools
from functools import lru_cache

from .core import set_stats


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


@lru_cache(maxsize=None)
def _plan(dims):
    """The box's per-axis masks, built once per dims: per axis i, the tuple
    (stride, low, inner).  `low` holds the cells whose coordinate i is 0
    and `inner` the others."""
    st = strides(dims)
    cells = st[-1] * dims[-1]
    full = (1 << cells) - 1
    plan = []
    for d, s in zip(dims, st):
        low = 0
        for start in range(0, cells, d * s):
            low |= ((1 << s) - 1) << start
        plan.append((s, low, full & ~low))
    return tuple(plan)


def subset_stats(mask, dims):
    """The core.SetCounts of the subset packed in mask: core.set_stats on
    its decoded cells."""
    return set_stats(frozenset(_cells(mask, dims)), len(dims))


def product_sets(dims, max_size):
    """Masks of the product sets S_0 x .. x S_{n-1} of nonempty coordinate
    sets S_i in the box with at most max_size cells, each once."""
    st = strides(dims)

    def extend(axis, mask, size):
        if axis == len(dims):
            yield mask
            return
        for k in range(1, min(dims[axis], max_size // size) + 1):
            for coords in itertools.combinations(range(dims[axis]), k):
                # mask has coordinate 0 on this axis, so each shift is a copy
                m = 0
                for c in coords:
                    m |= mask << (c * st[axis])
                yield from extend(axis + 1, m, size * k)

    yield from extend(0, 1, 1)


def subset_histograms(dims, max_size):
    """Two counts of the subsets of the box with 1..max_size cells:
    {(size, crossings): count} and {(size, shadow_size): count}, with the
    fields of subset_stats.  Each scan keeps a dict from a packed state to a
    count and drops the states over max_size cells, so it holds no more
    states than there are subsets of at most max_size cells."""
    dims = tuple(dims)
    return _crossing_histogram(dims, max_size), _shadow_histogram(dims, max_size)


def _decode(states, window, fields, width):
    """(size, counters, window, count) of each packed state with size >= 1;
    a key holds |A| on top, then `fields` counters of `width` bits, then
    `window` bits."""
    low = (1 << width) - 1
    for key, count in states.items():
        counters = key >> window
        size = counters >> (fields * width)
        if size:
            yield (size, tuple(counters >> (i * width) & low for i in range(fields)),
                   key & ((1 << window) - 1), count)


def _crossing_histogram(dims, max_size):
    """Scan the cells in packing order.  A state packs, from the low bits:
    the frontier, where bit b is the membership of the cell b steps back
    (the last stride[n-1] cells, so z - e_i is bit stride[i] - 1); the run
    starts per axis; |A| on top.  Cell z starts a run on axis i when
    z - e_i is outside the box or not in the set, as in core.set_stats.  A
    frontier bit is cleared once no later cell looks it up, which merges
    states."""
    plan = _plan(dims)
    n = len(dims)
    window = plan[-1][0]
    cells = window * dims[-1]
    width = cells.bit_length()
    top = window + n * width
    cap = max_size << top
    # frontier bit b, the cell idx - b, is read later by the cell idx - b + s
    # on an axis of stride s > b if that cell is in the axis' `inner`; each
    # `flip` is an inner mask reversed (bit t at bit span - 1 - t), so one
    # shift lines up those cells with b = 0..s-1
    span = cells + window
    flips = [(s, int(f"{inner:0{span}b}"[::-1], 2), (1 << s) - 1) for s, _, inner in plan]
    states = {0: 1}
    for idx in range(cells):
        keep = 0  # frontier bits still read by a later cell
        for s, flip, below in flips:
            keep |= flip >> (span - 1 - idx - s) & below
        axes = [(1 << (window + i * width), s - 1, low >> idx & 1)
                for i, (s, low, _) in enumerate(plan)]
        moves = {}  # frontier -> (key step if z is left out, if z is taken)
        nxt = {}
        get = nxt.get
        for key, count in states.items():
            w = key & ((1 << window) - 1)
            move = moves.get(w)
            if move is None:
                grow = 1 << top
                for unit, bit, edge in axes:
                    if edge or not w >> bit & 1:
                        grow += unit
                move = moves[w] = (((w << 1) & keep) - w,
                                   (((w << 1) | 1) & keep) - w + grow)
            k = key + move[0]
            nxt[k] = get(k, 0) + count
            if key < cap:
                k = key + move[1]
                nxt[k] = get(k, 0) + count
        states = nxt
    out = {}
    for size, starts, _, count in _decode(states, window, n, width):
        k = (size, tuple(2 * s for s in starts))
        out[k] = out.get(k, 0) + count
    return out


def _shadow_histogram(dims, max_size):
    """Scan the slabs along the last axis, adding one slab pattern at a
    time.  A state packs, from the low bits: the OR of the slabs so far; the
    shadow sizes on the axes before the last, summed slab by slab (the
    slabs' images are disjoint once another axis is dropped); |A| on top.
    The shadow on the last axis is the popcount of the OR."""
    n = len(dims)
    window = strides(dims)[-1]
    width = (window * dims[-1]).bit_length()
    top = window + (n - 1) * width
    patterns = []  # (size, pattern, key step), by size
    for k in range(min(window, max_size) + 1):
        for bits in itertools.combinations(range(window), k):
            p = sum(1 << b for b in bits)
            step = k << top
            shadow = subset_stats(p, dims[:-1]).shadow_size if n > 1 else ()
            for i, sh in enumerate(shadow):
                step += sh << (window + i * width)
            patterns.append((k, p, step))
    states = {0: 1}
    for _ in range(dims[-1]):
        nxt = {}
        get = nxt.get
        for key, count in states.items():
            room = max_size - (key >> top)
            for size, p, step in patterns:
                if size > room:
                    break
                k = (key | p) + step
                nxt[k] = get(k, 0) + count
        states = nxt
    out = {}
    for size, shadow, union, count in _decode(states, window, n - 1, width):
        k = (size, shadow + (union.bit_count(),))
        out[k] = out.get(k, 0) + count
    return out
