import math
import random

import pytest

from latticeineq import kernels
from latticeineq.certify import classify_counts, set_counts
from latticeineq.core import LatticeSet

from oracles import oracle_cells, oracle_pack, oracle_shape, oracle_subset_stats


def random_cases(seed=7, count=300):
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        n = rng.choice((1, 2, 2, 3))
        dims = tuple(rng.randint(1, 4) for _ in range(n))
        cells = 1
        for d in dims:
            cells *= d
        mask = rng.randrange(0, 1 << cells)
        cases.append((mask, dims))
    return cases


def test_pure_matches_oracle():
    for mask, dims in random_cases():
        assert kernels.subset_stats(mask, dims) == oracle_subset_stats(mask, dims)


def test_cells_decode_dense_and_random_masks():
    # one pass over the binary digits, lowest bit first, as the oracle reads
    # each cell index in turn
    dense = (2,) * 12
    for mask in ((1 << 4096) - 1, (1 << 4096) - 2, 1 << 4095):
        assert list(kernels._cells(mask, dense)) == oracle_cells(mask, dense)
    rng = random.Random(11)
    for _ in range(200):
        mask = rng.getrandbits(60)
        assert list(kernels._cells(mask, (3, 4, 5))) == oracle_cells(mask, (3, 4, 5))
    assert list(kernels._cells(0, (3, 4, 5))) == []


def test_pack_unpack_roundtrip():
    dims = (3, 4)
    pts = [(0, 0), (2, 3), (1, 1)]
    mask = oracle_pack(pts, dims)
    assert mask == 1 | 1 << 11 | 1 << 4
    assert kernels.unpack(mask, dims) == sorted(pts)


def test_matches_set_counts_and_shape_classifier():
    # kernel statistics on packed masks vs certify's on explicit point sets
    cases = [(mask, dims) for dims in ((3, 3), (2, 2, 2))
             for mask in range(1, 1 << math.prod(dims))]
    cases += [(mask, dims) for mask, dims in random_cases(seed=9) if mask]
    for mask, dims in cases:
        stats = kernels.subset_stats(mask, dims)
        A = LatticeSet(len(dims), kernels.unpack(mask, dims))
        c = set_counts(A)
        assert stats == (c.size, c.crossings, c.proj_size, c.proj_min,
                         c.proj_max, c.shadow_size)
        assert classify_counts(stats).value == oracle_shape(A.points, A.dim)


def _random_masks(dims, count, seed):
    """Seeded masks of three densities: uniform, sparse (AND of three draws)
    and dense (OR of three draws)."""
    rng = random.Random(seed)
    cells = math.prod(dims)
    masks = []
    for _ in range(count):
        a, b, c = (rng.getrandbits(cells) for _ in range(3))
        masks += [a, a & b & c, a | b | c]
    return masks


def test_every_mask_of_the_4x4_box():
    dims = (4, 4)
    for mask in range(1 << 16):
        assert kernels.subset_stats(mask, dims) == oracle_subset_stats(mask, dims)


@pytest.mark.parametrize("dims", [(5, 5), (3, 3, 3), (4, 4, 4), (2, 3, 4)])
def test_random_masks_match_oracle(dims):
    for mask in _random_masks(dims, 300, seed=sum(dims)):
        assert kernels.subset_stats(mask, dims) == oracle_subset_stats(mask, dims)


@pytest.mark.parametrize("dims", [(1,), (5,), (1, 1), (1, 6), (6, 1), (3, 1, 2),
                                  (1, 4, 1), (2, 1, 1, 3)])
def test_side_1_axes_and_n_1(dims):
    for mask in range(1 << math.prod(dims)):
        assert kernels.subset_stats(mask, dims) == oracle_subset_stats(mask, dims)


@pytest.mark.parametrize("dims", [(15, 15), (9, 9, 9)])
def test_anneal_boxes(dims):
    # the boxes annealing packs its initial set into: sparse and dense masks
    cells = math.prod(dims)
    rng = random.Random(cells)
    masks = _random_masks(dims, 10, seed=cells)
    masks += [sum(1 << idx for idx in rng.sample(range(cells), size))
              for size in (1, 2, 30, 64, cells - 1)]
    masks.append((1 << cells) - 1)
    for mask in masks:
        assert kernels.subset_stats(mask, dims) == oracle_subset_stats(mask, dims)


def test_empty_mask():
    assert kernels.subset_stats(0, (2, 2)) == (0, (0, 0), (0, 0), (0, 0), (0, 0), (0, 0))
