"""Grid kernels: packed-bitmask subset statistics.

The inner loop of rigidity enumeration; set annealing counts only its
initial boundary here (the sum of the crossings) and updates it
incrementally.  A subset of the box prod_i [0, dims[i]-1] is packed as a
bitmask: the cell with coordinates (c_0, .., c_{n-1}) sits at bit
c_0 + dims[0]*(c_1 + dims[1]*...), axis 0 fastest.  Works for boxes of
any size (Python integers).
"""


def strides(dims):
    out = [1]
    for d in dims[:-1]:
        out.append(out[-1] * d)
    return tuple(out)


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
    n = len(dims)
    pts = []
    idx = 0
    while mask:
        if mask & 1:
            rem = idx
            coords = []
            for ax in range(n):
                coords.append(rem % dims[ax])
                rem //= dims[ax]
            pts.append(tuple(coords))
        mask >>= 1
        idx += 1
    return sorted(pts)


def subset_stats(mask, dims):
    """Per-subset statistics used by the rigidity certificates.

    Returns (size, crossings, proj_size, proj_min, proj_max, shadow_size)
    where, per axis i:
      crossings[i]   -- number of lattice edges along axis i with exactly one
                        endpoint in the set (2 per maximal run on each line),
      proj_size[i]   -- number of distinct i-th coordinates,
      proj_min/max   -- their range,
      shadow_size[i] -- size of the image after dropping coordinate i.
    """
    n = len(dims)
    st = strides(dims)
    size = 0
    runs = [0] * n
    pmin = [0] * n
    pmax = [0] * n
    proj = [set() for _ in range(n)]
    shadow = [set() for _ in range(n)]

    m = mask
    while m:
        low = m & -m
        idx = low.bit_length() - 1
        m ^= low
        rem = idx
        coords = []
        for ax in range(n):
            coords.append(rem % dims[ax])
            rem //= dims[ax]
        for ax in range(n):
            c = coords[ax]
            pset = proj[ax]
            if not pset:
                pmin[ax] = pmax[ax] = c
            else:
                if c < pmin[ax]:
                    pmin[ax] = c
                if c > pmax[ax]:
                    pmax[ax] = c
            pset.add(c)
            shadow[ax].add(tuple(coords[:ax] + coords[ax + 1:]))
            if c == 0 or not (mask >> (idx - st[ax])) & 1:
                runs[ax] += 1
        size += 1

    return (
        size,
        tuple(2 * r for r in runs),
        tuple(len(p) for p in proj),
        tuple(pmin),
        tuple(pmax),
        tuple(len(s) for s in shadow),
    )
