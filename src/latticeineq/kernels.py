"""Grid kernels: bit-packed subsets of a box and their cell decoding.

A subset of the box prod_i [0, dims[i]-1] is packed as a bitmask: the cell
with coordinates (c_0, .., c_{n-1}) sits at bit
c_0 + dims[0]*(c_1 + dims[1]*...), axis 0 fastest.  Works for boxes of any
size (Python integers).  `subset_stats` is the mask entry point of rigidity
enumeration and of annealing's initial boundary; it decodes the set bits and
reads the statistics from core.set_stats.
"""

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


def subset_stats(mask, dims):
    """core.set_stats of the subset packed in mask: (size, crossings,
    proj_size, proj_min, proj_max, shadow_size)."""
    return set_stats(set(_cells(mask, dims)), len(dims))
