"""Stochastic extremal search: set annealing and value-grid coordinate ascent.

Both optimizers maximize a normalized sharpness ratio whose supremum is 1;
the rigidity theory predicts *where* the maximum sits (cubes; scaled cuboid
indicators), not that a heuristic finds it, so convergence targets are soft.
Runs are deterministic given the seed; annealing draws its indices inline
from `Random.getrandbits` exactly as `Random.randrange` would, so a seed
reproduces its trace.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Union

from . import kernels
from .core import Cuboid, LatticeSet, SparseFunction, check_box
from .errors import InvalidInputError
from .lab import gn_ratio, iso_ratio_from_counts


class Objective(str, Enum):
    GN_RATIO = "GN_RATIO"
    ISO_RATIO = "ISO_RATIO"


@dataclass
class SearchTrace:
    seed: int
    objective: Objective
    iterations: int
    best_value: float
    best_input: Union[SparseFunction, LatticeSet]
    history: list = field(default_factory=list)  # (iteration, running best)


def _check_iters(iters: int):
    if iters < 0:
        raise InvalidInputError(f"iters must be >= 0, got {iters}")


def _box_side_for(size: int, n: int) -> int:
    # (2 ceil(size^(1/n)) + 1)^n >= size: the box holds the set
    return max(2, math.ceil(size ** (1.0 / n)) * 2 + 1)


def anneal_sets(
    n: int,
    size: int,
    iters: int = 100_000,
    seed: int = 0,
    t0: float = 0.05,
    alpha: float = 0.999,
    box_side: Optional[int] = None,
) -> SearchTrace:
    """Simulated annealing over size-`size` subsets of a box, maximizing the
    isoperimetric ratio.

    Moves swap one member for a point adjacent to the set, so cardinality
    never changes and the set stays inside the box.  Geometric cooling
    T_k = t0 * alpha^k with Metropolis acceptance exp(delta/T); stops early
    once the theorem maximum 1 is attained.  A set that fills the box is
    the whole cube, so its ratio is 1 and the loop makes no step; any other
    set has a free neighbour in the box to swap in.

    The state is kept incrementally, so a proposal costs O(n) whatever |A|
    and the box size: `adjacent[c]` counts the members among the in-box
    neighbours of cell c, and the shell (the free cells with adjacent[c] > 0)
    is an indexed list with a position map, sampled by index and shrunk by
    swap-with-last.  Swapping `out` for `in` changes the boundary by
    2 * (adjacent[out] - adjacent[in] + [in adjacent to out]); an accepted
    swap updates the counts and the shell from the 2n neighbours of the two
    cells.  The boundary is counted in full only once, for the initial set,
    and the ratio once per distinct boundary.
    """
    if n < 2:
        raise InvalidInputError("annealing needs ambient dimension >= 2")
    if size < 1:
        raise InvalidInputError("set size must be >= 1")
    _check_iters(iters)
    if not (0 < t0 and math.isfinite(t0)):
        raise InvalidInputError(f"t0 must be finite and positive, got {t0}")
    if not 0 < alpha <= 1:
        raise InvalidInputError(f"alpha must be in (0, 1], got {alpha}")
    if box_side is None:
        box_side = _box_side_for(size, n)
    if box_side < 1:
        raise InvalidInputError(f"box side must be >= 1, got {box_side}")
    check_box(box_side, n, "annealing box")
    cells = box_side ** n
    if cells < size:
        raise InvalidInputError(f"box {box_side}^{n} cannot hold {size} points")
    dims = (box_side,) * n

    # neighbor table over flat cell indices
    strides = kernels.strides(dims)
    neighbors = []
    for idx in range(cells):
        coords = kernels.cell(idx, dims)
        nbs = []
        for ax in range(n):
            if coords[ax] > 0:
                nbs.append(idx - strides[ax])
            if coords[ax] < dims[ax] - 1:
                nbs.append(idx + strides[ax])
        neighbors.append(tuple(nbs))

    rng = random.Random(seed)
    members = rng.sample(range(cells), size)
    is_member = bytearray(cells)
    adjacent = [0] * cells
    for idx in members:
        is_member[idx] = 1
        for nb in neighbors[idx]:
            adjacent[nb] += 1
    shell = [c for c in range(cells) if adjacent[c] and not is_member[c]]
    position = {c: i for i, c in enumerate(shell)}

    boundary = kernels.subset_stats(sum(1 << idx for idx in members), dims).boundary
    # with |A| and n fixed the ratio depends only on the boundary
    ratio_of = {boundary: iso_ratio_from_counts(size, boundary, n)}
    current = ratio_of[boundary]
    best = current
    best_members = list(members)
    history = [(0, best)]
    sample_every = max(1, iters // 256)
    temperature = t0
    steps = 0
    getrandbits = rng.getrandbits
    uniform = rng.random
    exp = math.exp
    size_bits = size.bit_length()

    for k in range(1, iters + 1):
        if best == 1.0:
            break
        width = len(shell)
        steps = k
        # swap proposal: drop a member, add a free neighbor of the set.  Each
        # index is Random.randrange's rejection draw, taken inline.
        out_pos = getrandbits(size_bits)
        while out_pos >= size:
            out_pos = getrandbits(size_bits)
        bits = width.bit_length()
        in_pos = getrandbits(bits)
        while in_pos >= width:
            in_pos = getrandbits(bits)
        out_idx = members[out_pos]
        in_idx = shell[in_pos]
        out_nbs = neighbors[out_idx]
        in_adjacent = adjacent[in_idx] - (in_idx in out_nbs)
        new_boundary = boundary + 2 * (adjacent[out_idx] - in_adjacent)
        proposal = ratio_of.get(new_boundary)
        if proposal is None:
            proposal = ratio_of[new_boundary] = iso_ratio_from_counts(
                size, new_boundary, n)
        delta = proposal - current
        if delta >= 0 or uniform() < exp(delta / temperature):
            boundary = new_boundary
            current = proposal
            members[out_pos] = in_idx
            is_member[out_idx] = 0
            for nb in out_nbs:
                adjacent[nb] -= 1
                if not adjacent[nb] and not is_member[nb]:
                    i = position.pop(nb)
                    last = shell.pop()
                    if last != nb:
                        shell[i] = last
                        position[last] = i
            if adjacent[out_idx]:
                position[out_idx] = len(shell)
                shell.append(out_idx)
            # absent if dropped above as out's last member neighbour
            i = position.pop(in_idx, None)
            if i is not None:
                last = shell.pop()
                if last != in_idx:
                    shell[i] = last
                    position[last] = i
            is_member[in_idx] = 1
            for nb in neighbors[in_idx]:
                adjacent[nb] += 1
                if adjacent[nb] == 1 and not is_member[nb]:
                    position[nb] = len(shell)
                    shell.append(nb)
            if current > best:
                best = current
                best_members = list(members)
        temperature *= alpha
        if temperature < 1e-300:
            temperature = 1e-300
        if k % sample_every == 0:
            history.append((k, best))

    if history[-1][0] != steps:
        history.append((steps, best))
    best_mask = sum(1 << idx for idx in best_members)
    best_set = LatticeSet._from_clean(n, kernels.unpack(best_mask, dims))
    return SearchTrace(
        seed=seed,
        objective=Objective.ISO_RATIO,
        iterations=steps,
        best_value=best,
        best_input=best_set,
        history=history,
    )


# ---------------------------------------------------------------------------
# coordinate ascent on function values
# ---------------------------------------------------------------------------

COARSE_DENOM = 64
FINE_DENOM = 64 * 64
FINE_STEP = 4  # fine pass samples every 4/4096 within +-1/64 of the best cell
COARSE_STEP = FINE_DENOM // COARSE_DENOM  # 1/64 as a numerator over 4096


def _candidate_values(best: int) -> list:
    """The grid values tried at a point whose value is best / FINE_DENOM, as
    numerators over FINE_DENOM: the coarse grid, then the fine points within
    1/64 of best that it misses."""
    lo = max(0, best - COARSE_DENOM)
    hi = min(FINE_DENOM, best + COARSE_DENOM)
    coarse = range(0, FINE_DENOM + 1, COARSE_STEP)
    return list(coarse) + [j for j in range(lo, hi + 1, FINE_STEP) if j % COARSE_STEP]


def ascend_function(
    n: int,
    window: Union[Cuboid, int],
    iters: int = 10_000,
    seed: int = 0,
    start: str = "random",
) -> SearchTrace:
    """Seeded multi-start cyclic coordinate ascent on the difference-product
    ratio over nonnegative values on a fixed window.

    Each iteration re-optimizes one window point over the value grid
    {j/64} refined once (step 1/4096) around the best coarse cell; values
    stay exact, as int numerators over 4096.  A sweep that changes nothing
    is a coordinate-wise local maximum, so the search reseeds from a fresh
    random point and keeps the running best; it stops at the iteration
    budget or on reaching the known supremum 1.  `start` is "random" (seeded
    grid values) or "indicator" (all ones, which is already extremal on a
    cuboid window).
    """
    _check_iters(iters)
    if isinstance(window, int):
        check_box(window, n, "ascent window")
        window = Cuboid.from_sides((window,) * n)
    if window.dim != n:
        raise InvalidInputError(f"window dimension {window.dim} != n={n}")
    if start not in ("random", "indicator"):
        raise InvalidInputError(f"unknown start {start!r}")
    points = window.points().sorted_points()
    rng = random.Random(seed)

    def fresh_values(kind: str) -> dict:
        """Numerators over FINE_DENOM."""
        if kind == "indicator":
            return {z: FINE_DENOM for z in points}
        values = {z: rng.randrange(COARSE_DENOM + 1) * COARSE_STEP for z in points}
        if not any(values.values()):
            values[points[rng.randrange(len(points))]] = FINE_DENOM
        return values

    def build(values: dict) -> SparseFunction:
        return SparseFunction._from_clean(
            n, {z: v for z, v in values.items() if v}, FINE_DENOM
        )

    values = fresh_values(start)
    current_f = build(values)
    current = gn_ratio(current_f)
    best = current
    best_f = current_f
    history = [(0, best)]
    steps = 0

    # multi-start: a sweep that changes nothing means a coordinate-wise local
    # maximum; reseed from a fresh random point and keep the running best
    while steps < iters and best < 1.0:
        improved_in_sweep = False
        for z in points:
            if steps >= iters or best == 1.0:
                break
            steps += 1
            old = values[z]
            pick_v, pick_r = old, current
            support_elsewhere = any(v for w, v in values.items() if w != z)
            for v in _candidate_values(old):
                if v == old:
                    continue
                if not v and not support_elsewhere:
                    continue  # would zero out the function
                values[z] = v
                r = gn_ratio(build(values))
                if r > pick_r:
                    pick_v, pick_r = v, r
            values[z] = pick_v
            if pick_v != old:
                improved_in_sweep = True
                current = pick_r
                current_f = build(values)
                if current > best:
                    best = current
                    best_f = current_f
            history.append((steps, best))
        if not improved_in_sweep and best < 1.0 and steps < iters:
            values = fresh_values("random")
            current_f = build(values)
            current = gn_ratio(current_f)

    return SearchTrace(
        seed=seed,
        objective=Objective.GN_RATIO,
        iterations=steps,
        best_value=best,
        best_input=best_f,
        history=history,
    )
