"""Grid kernels: bit-packed subsets of a box, their cell decoding and their
statistics.

A subset of the box prod_i [0, dims[i]-1] is packed as a bitmask: the cell
with coordinates (c_0, .., c_{n-1}) sits at bit
c_0 + dims[0]*(c_1 + dims[1]*...), axis 0 fastest.  Works for boxes of any
size (Python integers).  `subset_stats` is the mask entry point of rigidity
enumeration and of annealing's initial boundary.  It never decodes a cell:
it reads the statistics off the whole mask with shifts, ANDs, ORs and
popcounts (the broadword tricks of Knuth, TAOCP 4A, 7.1.3), from a plan of
per-axis masks built once per box.  `core.set_stats` computes the same
statistics from a point set, as a `core.SetCounts` record.
"""

from functools import lru_cache


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


def _fold_shifts(d, s):
    """Right shifts that OR the slabs 0..d-1 of an axis with stride s onto
    slab 0: doubling windows up to the largest power of two a <= d, then
    one window starting at d - a (the two overlap, and OR is idempotent)."""
    shifts = []
    a = 1
    while 2 * a <= d:
        shifts.append(a * s)
        a *= 2
    if a < d:
        shifts.append((d - a) * s)
    return tuple(shifts)


@lru_cache(maxsize=None)
def _plan(dims):
    """The box's per-axis masks, built once per dims: per axis i, the tuple
    (stride, low, inner, shifts, rest).  `low` holds the cells whose
    coordinate i is 0 and `inner` the others, `shifts` are the axis's fold
    shifts, and `rest` lists the other axes, whose folds compose to the
    projection on axis i."""
    st = strides(dims)
    cells = st[-1] * dims[-1]
    full = (1 << cells) - 1
    plan = []
    for i, (d, s) in enumerate(zip(dims, st)):
        low = 0
        for start in range(0, cells, d * s):
            low |= ((1 << s) - 1) << start
        rest = tuple(j for j in range(len(dims)) if j != i)
        plan.append((s, low, full & ~low, _fold_shifts(d, s), rest))
    return tuple(plan)


def subset_stats(mask, dims):
    """(size, crossings, proj_size, proj_min, proj_max, shadow_size) of the
    subset packed in mask, equal to the core.SetCounts that core.set_stats
    gives for its cells.  A plain tuple: this runs once per enumerated
    subset, and building the record would add a sizeable share of that
    cost.  Per axis i with stride s:
      crossings[i]   -- 2 * popcount of the run starts
                        mask & ~((mask << s) & inner_i),
      shadow_size[i] -- popcount of the fold: the mask OR-folded along axis i
                        onto its slab 0,
      proj_*[i]      -- read off the mask folded along every other axis,
                        whose set bits sit at c * s for the coordinates c.
    """
    plan = _plan(tuple(dims))
    size = mask.bit_count()
    if not size:
        zeros = (0,) * len(plan)
        return 0, zeros, zeros, zeros, zeros, zeros
    crossings, folds, shadow = [], [], []
    for s, low, inner, shifts, _ in plan:
        crossings.append(2 * (mask & ~((mask << s) & inner)).bit_count())
        f = mask
        for k in shifts:
            f |= f >> k
        f &= low
        folds.append(f)
        shadow.append(f.bit_count())
    proj_size, proj_min, proj_max = [], [], []
    for s, _, _, _, rest in plan:
        if rest:
            p = folds[rest[0]]
            for j in rest[1:]:
                _, low, _, shifts, _ = plan[j]
                for k in shifts:
                    p |= p >> k
                p &= low
        else:
            p = mask
        proj_size.append(p.bit_count())
        proj_min.append(((p & -p).bit_length() - 1) // s)
        proj_max.append((p.bit_length() - 1) // s)
    return (size, tuple(crossings), tuple(proj_size), tuple(proj_min),
            tuple(proj_max), tuple(shadow))
