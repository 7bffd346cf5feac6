"""Property tests for the calculus identities and checker invariants."""

import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from latticeineq import (
    Cuboid,
    InvalidInputError,
    LatticeSet,
    Relation,
    SparseFunction,
    axis_variation,
    boundary_count,
    check_bl,
    check_gn,
    check_isoperimetric,
    check_log_bl,
    check_log_sobolev,
    check_loomis_whitney,
    check_sobolev,
    indicator,
    jensen_gap,
    norm,
    pointwise_line_bound,
)
from latticeineq import fileio, kernels
from latticeineq.certify import (
    DEFAULT_TOL,
    SET_INEQUALITIES,
    Inequality,
    check,
    classify_counts,
    function_counts,
    set_counts,
)
from latticeineq.core import SetCounts, axis_lines, kept_norm
from latticeineq.fuzzing import _chain_holds

from oracles import (
    oracle_axis_variation,
    oracle_boundary,
    oracle_check_point,
    oracle_coord_projection,
    oracle_diff_norm_1,
    oracle_entry_pairs,
    oracle_float_prod,
    oracle_float_sum,
    oracle_function_parts,
    oracle_lex_norm,
    oracle_line_bound,
    oracle_max_projection,
    oracle_norm,
    oracle_pack,
    oracle_partial_difference,
    oracle_set_counts,
    oracle_subset_stats,
)

F = Fraction

coords = st.integers(min_value=-4, max_value=4)
rationals = st.builds(
    F,
    st.integers(min_value=-12, max_value=12).filter(bool),
    st.integers(min_value=1, max_value=8),
)
positive_rationals = st.builds(
    F, st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=8)
)
exponents = st.sampled_from([F(1, 2), F(1), F(3, 2), F(2), F(3)])


def line_maxima(f, i):
    """The max |f| of each axis-i line, keyed by the line: the max
    projection of |f|, read off the line pass."""
    return {key: F(line[3], f._den) for key, line in axis_lines(f, i).lines.items()}


def points(dim):
    return st.tuples(*([coords] * dim))


def functions(dim, values=rationals, min_size=1):
    return st.dictionaries(points(dim), values, min_size=min_size, max_size=10).map(
        lambda d: SparseFunction(dim, d)
    )


def lattice_sets(dim):
    return st.sets(points(dim), min_size=1, max_size=10).map(
        lambda s: LatticeSet(dim, s)
    )


def cuboids(dim):
    interval = st.tuples(coords, st.integers(min_value=0, max_value=3)).map(
        lambda t: (t[0], t[0] + t[1])
    )
    return st.tuples(*([interval] * dim)).map(Cuboid)


any_function = st.integers(1, 3).flatmap(functions)
any_function_2d3d = st.integers(2, 3).flatmap(functions)
nonneg_function_2d3d = st.integers(2, 3).flatmap(
    lambda d: functions(d, values=positive_rationals)
)
any_set_2d3d = st.integers(2, 3).flatmap(lattice_sets)
scaled_indicators = st.builds(indicator, any_set_2d3d, positive_rationals)


def spread_sets(dim):
    """Sets no packed box holds: up to three small clusters, each around its
    own far-off, possibly negative centre."""
    far = st.tuples(*([st.integers(-10 ** 9, 10 ** 9)] * dim))
    near = st.sets(st.tuples(*([st.integers(-3, 3)] * dim)), min_size=1, max_size=8)
    clusters = st.lists(st.tuples(far, near), min_size=1, max_size=3)
    return clusters.map(lambda cs: LatticeSet(dim, (
        tuple(c + o for c, o in zip(centre, offset))
        for centre, offsets in cs for offset in offsets
    )))


# -- calculus identities -----------------------------------------------------


@given(any_function, st.data())
def test_telescoping_lines_sum_to_zero(f, data):
    # of the oracle's forward difference, which oracle_axis_variation sums
    i = data.draw(st.integers(1, f.dim))
    g = oracle_partial_difference(f, i)
    ax = i - 1
    sums = {}
    for z, v in g.items():
        key = z[:ax] + z[ax + 1:]
        sums[key] = sums.get(key, F(0)) + v
    assert all(total == 0 for total in sums.values())


@given(any_set_2d3d)
def test_boundary_equals_indicator_variation(A):
    chi = indicator(A)
    assert boundary_count(A) == oracle_diff_norm_1(chi)
    assert boundary_count(A) == sum(
        axis_variation(chi, i) for i in range(1, A.dim + 1)
    )


@given(st.integers(2, 3).flatmap(spread_sets))
def test_set_counts_match_line_oracle(A):
    c = set_counts(A)
    assert (c.size, c.crossings, c.proj_size, c.proj_min, c.proj_max,
            c.shadow_size) == oracle_set_counts(A.points, A.dim)


def boxed_subsets(dims):
    """(dims, a subset of the box) from a mask of any density."""
    full = (1 << math.prod(dims)) - 1
    return st.integers(0, full).map(lambda mask: (dims, set(kernels.unpack(mask, dims))))


@given(st.lists(st.integers(1, 5), min_size=1, max_size=4).map(tuple).flatmap(boxed_subsets))
def test_packed_stats_match_point_set_pass(case):
    dims, A = case
    assert kernels.subset_stats(oracle_pack(A, dims), dims) == oracle_set_counts(A, len(dims))


@given(nonneg_function_2d3d, positive_rationals, st.data())
def test_max_projection_commutes_with_scaling(f, lam, data):
    i = data.draw(st.integers(1, f.dim))
    assert line_maxima(f.scaled(lam), i) == {
        key: lam * top for key, top in line_maxima(f, i).items()}


@given(nonneg_function_2d3d, st.data())
def test_max_projection_mass_and_support(f, data):
    i = data.draw(st.integers(1, f.dim))
    maxima = line_maxima(f, i)
    assert F(function_counts(f).masses[i - 1], f._den) == sum(maxima.values()) <= norm(f, 1)
    ax = i - 1
    assert maxima.keys() == {z[:ax] + z[ax + 1:] for z, _ in f.items()}


@given(any_function, st.data())
def test_line_bound_always_holds(f, data):
    i = data.draw(st.integers(1, f.dim))
    assert pointwise_line_bound(f, i).ok


@given(st.integers(2, 3).flatmap(cuboids), st.data())
def test_cuboid_projection_is_interval(c, data):
    j = data.draw(st.integers(1, c.dim))
    a, b = c.intervals[j - 1]
    assert axis_lines(indicator(c), j).coords == set(range(a, b + 1))


# -- the line pass ------------------------------------------------------------


def lined_functions(dim):
    """Signed functions on a few axis lines with gaps: each line is a base
    point, an axis and a set of coordinates along it, in a window that
    includes negatives; lines may cross, and other entries may fall
    anywhere."""
    point = points(dim)
    line = st.tuples(point, st.integers(0, dim - 1),
                     st.sets(coords, min_size=1, max_size=5),
                     st.lists(rationals, min_size=5, max_size=5))

    def build(case):
        lines, scattered = case
        entries = dict(scattered)
        for base, ax, cs, values in lines:
            for c, v in zip(sorted(cs), values):
                entries[base[:ax] + (c,) + base[ax + 1:]] = v
        return SparseFunction(dim, entries)

    return st.tuples(st.lists(line, min_size=1, max_size=4),
                     st.dictionaries(point, rationals, max_size=4)).map(build)


lined_function = st.integers(1, 4).flatmap(lined_functions)


@settings(max_examples=150)
@given(lined_function)
def test_line_pass_matches_oracles(f):
    n = f.dim
    passes = []
    for i in range(1, n + 1):
        lines = axis_lines(f, i)
        assert axis_lines(f, i) is lines
        passes.append(lines)
        counts = function_counts(f)
        assert F(counts.variations[i - 1], f._den) == oracle_axis_variation(f, i)
        assert (F(counts.masses[i - 1], f._den)
                == sum(oracle_max_projection(f.abs(), i).values()))
        check = pointwise_line_bound(f, i)
        assert (check.ok, check.lines_checked, check.worst_line, check.worst_max,
                check.worst_half_variation) == oracle_line_bound(f, i)
    expected = oracle_set_counts([z for z, _ in f.items()], n)
    assert SetCounts.from_lines(f.support_size(), passes) == expected


@settings(max_examples=150)
@given(st.one_of(any_function, lined_function))
def test_calculus_matches_dense_oracles(f):
    # the public calculus reads the line pass; the oracles read cell by
    # cell around the support, or test each point
    n = f.dim
    assert sum(axis_variation(f, i) for i in range(1, n + 1)) == oracle_diff_norm_1(f)
    A = LatticeSet(n, [z for z, _ in f.items()])
    for i in range(1, n + 1):
        assert axis_variation(f, i) == oracle_axis_variation(f, i)
        assert line_maxima(f, i) == oracle_max_projection(f.abs(), i)
        lines = axis_lines(indicator(A), i)
        assert lines.coords == oracle_coord_projection(A.points, i)
        ax = i - 1
        assert lines.lines.keys() == {z[:ax] + z[ax + 1:] for z in A.points}
    counts = set_counts(A)
    assert list(zip(counts.proj_min, counts.proj_max)) == [
        (min(z[ax] for z in A.points), max(z[ax] for z in A.points))
        for ax in range(n)
    ]


@settings(max_examples=150)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=4).map(tuple)
       .flatmap(lambda dims: st.tuples(st.just(dims),
                                       st.integers(0, (1 << math.prod(dims)) - 1))))
def test_bit_order_stats_match_oracle(case):
    # subset_stats hands the line pass its cells in bit order, axis 0
    # fastest: it rises along every line, as lexicographic order does
    dims, mask = case
    assert kernels.subset_stats(mask, dims) == oracle_subset_stats(mask, dims)


def _in_key_order(f):
    return list(f._nums) == sorted(f._nums)


@given(lined_function, st.randoms(use_true_random=False), positive_rationals,
       st.data())
def test_every_constructor_keeps_keys_in_lexicographic_order(f, rng, c, data):
    # the invariant the line pass relies on: entries on each axis line
    # arrive in increasing coordinate order
    n = f.dim
    shuffled = list(f._nums.items())
    rng.shuffle(shuffled)
    shift = data.draw(points(n))
    built = [
        SparseFunction(n, shuffled),
        SparseFunction._from_clean(n, dict(shuffled), f._den),
        f.abs(), -f, f.scaled(c), f.scaled(-c), f.translate(shift),
        LatticeSet._from_clean(n, (z for z, _ in shuffled))._indicator,
        LatticeSet(n, (z for z, _ in shuffled)).translate(shift)._indicator,
        data.draw(cuboids(n)).points()._indicator,
    ]
    for g in built:
        assert _in_key_order(g), g


# -- checker invariants -------------------------------------------------------


@settings(max_examples=60)
@given(any_function_2d3d, exponents)
def test_soundness_no_violations(f, p):
    g = f.abs()
    A = LatticeSet(f.dim, [z for z, _ in f.items()])
    reports = [
        check_gn(f),
        check_sobolev(f),
        check_bl(g),
        check_log_sobolev(g, p, directional=True, normalize=True),
        check_log_sobolev(g, p, directional=False, normalize=True),
        check_log_bl(g, p, normalize=True),
        check_isoperimetric(A),
        check_loomis_whitney(A),
    ]
    assert all(r.relation is not Relation.VIOLATED for r in reports)


def dense_signed_functions(dim):
    """Signed functions filling most of a small window, so that neighbours
    of opposite sign are common; values in -1..1 make |f| an indicator."""
    cells = list(itertools.product(range({2: 4, 3: 3, 4: 2}[dim]), repeat=dim))

    def build(case):
        nums, den = case
        return SparseFunction(dim, {z: F(a, den) for z, a in zip(cells, nums) if a})

    def values(top):
        return st.lists(st.integers(-top, top), min_size=len(cells), max_size=len(cells))

    cases = st.tuples(st.sampled_from([1, 6]).flatmap(values), st.integers(1, 6))
    return cases.map(build).filter(lambda f: not f.is_zero())


@settings(max_examples=200)
@given(st.sampled_from([2, 3, 4]).flatmap(dense_signed_functions),
       st.sampled_from([F(1, 2), F(1), F(2)]))
def test_absolute_counts_match_a_fresh_abs(f, p):
    # as fuzz does: f's checks come first and fill the shared norm memo
    for ineq in (Inequality.GN, Inequality.SOBOLEV):
        check(ineq, f, p)
    g = f.abs()
    fresh = SparseFunction(f.dim, {z: abs(v) for z, v in f.items()})
    assert g == fresh and g._lines == {}
    got, want = function_counts(g), function_counts(fresh)
    assert got.variations == want.variations
    assert got.masses == want.masses
    assert got.support == want.support
    assert got.indicator == want.indicator
    assert got.flips == want.flips == (0,) * f.dim
    assert all(F(v, f._den) == oracle_axis_variation(fresh, i)
               for i, v in enumerate(got.variations, 1))
    for ineq in Inequality:
        if ineq not in SET_INEQUALITIES:
            assert (check(ineq, g, p, normalize=True)
                    == check(ineq, fresh, p, normalize=True)), ineq
    assert g._lines == {}
    h = g.abs()
    assert h == fresh and function_counts(h).variations == want.variations


@given(any_function_2d3d)
def test_chain_inequality(f):
    # ||f||_{n/(n-1)} <= BL rhs of |f| <= GN rhs of f, as fuzz reads it
    gn = check_gn(f)
    lo, mid, hi = gn.lhs, check_bl(f.abs()).rhs, gn.rhs
    assert lo <= mid * (1 + 1e-12) + 1e-300
    assert mid <= hi * (1 + 1e-12) + 1e-300


@given(st.one_of(nonneg_function_2d3d, scaled_indicators))
def test_function_counts_match_oracles(f):
    counts = function_counts(f)
    assert function_counts(f) is counts
    n = f.dim
    axes = range(1, n + 1)
    assert tuple(F(v, f._den) for v in counts.variations) == tuple(
        oracle_axis_variation(f, i) for i in axes
    )
    assert tuple(F(m, f._den) for m in counts.masses) == tuple(
        sum(oracle_max_projection(f, i).values()) for i in axes
    )
    assert math.isclose(kept_norm(f, n, n - 1), oracle_norm(f, F(n, n - 1)),
                        rel_tol=1e-12)
    assert (counts.indicator is None) == (len({v for _, v in f.items()}) != 1)
    if counts.indicator is not None:
        assert counts.indicator.size == f.support_size()
        assert counts.indicator.boundary == oracle_boundary([z for z, _ in f.items()], n)


float_side_functions = st.integers(2, 4).flatmap(
    lambda d: st.one_of(functions(d, rationals), functions(d, positive_rationals))
)


@settings(max_examples=100)
@given(float_side_functions, st.sampled_from([F(1, 2), F(1), F(2)]))
def test_float_sides_match_fraction_oracles(f, p):
    # each right side, read off int numerators over f's denominator, is the
    # same double as the reference formula on the Fraction statistics
    n = f.dim
    counts = function_counts(f)
    assert all(type(x) is int for x in counts.variations + counts.masses)
    sigmas = [oracle_axis_variation(f, i) for i in range(1, n + 1)]
    assert oracle_float_prod(sigmas) == float(math.prod(sigmas))
    assert oracle_float_sum(sigmas) == float(sum(sigmas))
    assert check_gn(f).rhs == 0.5 * oracle_float_prod(sigmas) ** (1.0 / n)
    assert check_sobolev(f).rhs == oracle_float_sum(sigmas) / (2 * n)
    if not f.is_nonnegative():
        return
    masses = [sum(oracle_max_projection(f, i).values()) for i in range(1, n + 1)]
    assert check_bl(f).rhs == oracle_float_prod(masses) ** (1.0 / n)
    scale = float(norm(f, p))  # the normalizing factor, not under test here
    assert check_log_sobolev(f, p, directional=True, normalize=True).rhs == (
        -math.log(2.0) + math.fsum(math.log(float(s) / scale) for s in sigmas) / n
    )
    assert check_log_sobolev(f, p, directional=False, normalize=True).rhs == (
        math.log(oracle_float_sum(sigmas) / scale / (2 * n))
    )
    assert check_log_bl(f, p, normalize=True).rhs == (
        math.fsum(math.log(float(m) / scale) for m in masses) / n
    )


@given(any_function_2d3d, st.data())
def test_sign_invariance(f, data):
    assert check_gn(f) == check_gn(-f)
    assert check_sobolev(f) == check_sobolev(-f)
    i = data.draw(st.integers(1, f.dim))
    assert axis_variation(-f, i) == axis_variation(f, i)


@given(any_function_2d3d, positive_rationals)
def test_scaling_leaves_relation_unchanged(f, lam):
    assert check_gn(f).relation is check_gn(f.scaled(lam)).relation
    assert check_sobolev(f).relation is check_sobolev(f.scaled(lam)).relation


@pytest.mark.parametrize("f", [
    SparseFunction(2, {(0, 0): 1, (1, 0): 3}),
    SparseFunction(3, {(0, 0, 0): 1, (1, 0, 0): 3, (0, 1, 1): F(5, 2)}),
], ids=["pair-2d", "three-points-3d"])
def test_verdicts_do_not_change_with_the_scale_of_f(f):
    # GN, Sobolev and BL are homogeneous of degree 1, and so are both links
    # of fuzz's chain: 10^k f gets the verdicts of f, the small scales too
    def verdicts(g):
        gn, sobolev, bl = check_gn(g), check_sobolev(g), check_bl(g)
        return gn.relation, sobolev.relation, bl.relation, _chain_holds(gn, bl, DEFAULT_TOL)

    want = verdicts(f)
    assert want == (Relation.STRICT,) * 3 + (True,)
    for k in range(-100, 101):
        assert verdicts(f.scaled(F(10) ** k)) == want, k


@settings(max_examples=60)
@given(nonneg_function_2d3d, exponents)
def test_jensen_gap_nonnegative(f, p):
    assert jensen_gap(f, p) >= -1e-12


@settings(max_examples=60)
@given(nonneg_function_2d3d)
def test_log_bl_specializes_to_bl(f):
    p = F(f.dim, f.dim - 1)
    log_report = check_log_bl(f, p, normalize=True)
    assert log_report.lhs == 0.0
    assert log_report.relation is check_bl(f).relation


@given(any_function_2d3d, st.tuples(coords, coords, coords))
def test_translation_invariance(f, shift_raw):
    shift = shift_raw[: f.dim]
    g = f.translate(shift)
    assert check_gn(f) == check_gn(g)
    A = LatticeSet(f.dim, [z for z, _ in f.items()])
    B = A.translate(shift)
    assert check_isoperimetric(A) == check_isoperimetric(B)
    assert check_loomis_whitney(A) == check_loomis_whitney(B)


# -- serialization ------------------------------------------------------------


@given(any_function)
def test_function_round_trip(f):
    assert fileio.function_from_dict(fileio.function_to_dict(f)) == f


@given(st.integers(1, 3).flatmap(lattice_sets))
def test_set_round_trip(A):
    assert fileio.set_from_dict(fileio.set_to_dict(A)) == A


@settings(max_examples=80)
@given(any_set_2d3d)
def test_rigidity_equivalences_on_indicator_inputs(A):
    from latticeineq import (
        ShapeClass,
        check_isoperimetric,
        check_loomis_whitney,
    )
    from latticeineq import check_bl, check_gn, check_sobolev

    f = indicator(A)
    shape = classify_counts(set_counts(A))
    gn_equal = check_gn(f).relation is Relation.EXACT_EQUAL
    sobolev_equal = check_sobolev(f).relation is Relation.EXACT_EQUAL
    iso_equal = check_isoperimetric(A).relation is Relation.EXACT_EQUAL
    bl_equal = check_bl(f).relation is Relation.EXACT_EQUAL
    lw_equal = check_loomis_whitney(A).relation is Relation.EXACT_EQUAL

    assert gn_equal == (shape in (ShapeClass.CUBE, ShapeClass.CUBOID))
    assert sobolev_equal == (shape is ShapeClass.CUBE)
    assert iso_equal == sobolev_equal
    assert lw_equal == (shape is not ShapeClass.NONE)
    assert bl_equal == lw_equal


@given(any_set_2d3d)
def test_bounding_intervals_cover_the_set(A):
    counts = set_counts(A)
    intervals = list(zip(counts.proj_min, counts.proj_max))
    for z in A:
        for c, (lo, hi) in zip(z, intervals):
            assert lo <= c <= hi


# -- int numerators over one denominator ----------------------------------------

# small, distinct prime (two Mersenne primes near 10^18 and 10^27) and huge
# denominators, so the lcm is large and cancellations can shrink it
PRIMES = (2, 3, 5, 7, 11, 13, 101, 997, 1_000_000_007, 2 ** 61 - 1, 2 ** 89 - 1)
mixed_rationals = st.builds(
    F,
    st.one_of(st.integers(-12, 12), st.integers(-10 ** 30, 10 ** 30)).filter(bool),
    st.one_of(st.integers(1, 8), st.sampled_from(PRIMES), st.integers(1, 10 ** 30)),
)


def mixed_entries(dim):
    """Entry lists, duplicate points allowed, with the Fraction dict they sum to."""
    def summed(entries):
        acc = {}
        for z, v in entries:
            acc[z] = acc.get(z, F(0)) + v
        return entries, {z: v for z, v in acc.items() if v}

    pairs = st.tuples(points(dim), mixed_rationals)
    return st.lists(pairs, min_size=1, max_size=12).map(summed)


def assert_canonical(f):
    """The stored denominator is the lcm of the reduced value denominators,
    coprime to the numerators as a whole."""
    assert f._den == math.lcm(*(v.denominator for _, v in f.items()))
    assert math.gcd(f._den, *f._nums.values()) == 1


@settings(max_examples=150)
@given(st.integers(2, 3).flatmap(mixed_entries), st.data())
def test_numerators_match_fraction_oracles(case, data):
    entries, expected = case
    assume(expected)
    f = SparseFunction(len(entries[0][0]), entries)
    assert f.items() == sorted(expected.items())
    assert all(f.value(z) == v for z, v in expected.items())
    assert f.value((99,) * f.dim) == 0
    g = f.abs()
    assert g.items() == sorted((z, abs(v)) for z, v in expected.items())
    assert norm(f, 1) == sum(abs(v) for v in expected.values())
    for p in (F(2), F(3, 2)):
        assert norm(f, p) == oracle_lex_norm(f, p)
    for i in range(1, f.dim + 1):
        assert axis_variation(f, i) == oracle_axis_variation(f, i)
        assert line_maxima(g, i) == oracle_max_projection(g, i)
        bound = pointwise_line_bound(f, i)
        assert (bound.ok, bound.lines_checked, bound.worst_line, bound.worst_max,
                bound.worst_half_variation) == oracle_line_bound(f, i)
    c = data.draw(mixed_rationals)
    for h in (f, g, -f, f.scaled(c)):
        assert_canonical(h)


@settings(max_examples=150)
@given(st.integers(2, 3).flatmap(mixed_entries), mixed_rationals, st.data())
def test_equal_by_any_route_is_equal_and_hashes_equal(case, c, data):
    entries, expected = case
    dim = len(entries[0][0])
    f = SparseFunction(dim, entries)
    _, other = data.draw(mixed_entries(dim))
    routes = [
        SparseFunction(dim, expected),
        f.scaled(c).scaled(1 / c),
        -(-f),
        f.translate((5,) * dim).translate((-5,) * dim),
        # other's denominators cancel out of the lcm
        SparseFunction(dim, entries + list(other.items())
                       + [(z, -v) for z, v in other.items()]),
    ]
    for h in routes:
        assert h == f and hash(h) == hash(f)
        assert (h._den, h._nums) == (f._den, f._nums)
    if expected and c != 1:
        assert f.scaled(c) != f


# spellings of +-1/2 and other values, repeated across entries; ints and
# points as lists or tuples, as a file or a caller gives them
value_spellings = st.sampled_from(
    ["1/2", "2/4", "0.5", " 1/2 ", "+1/2", "5e-1", "-1/2", "-0.5", "-2/4", "1", "3/7"]
) | st.integers(-2, 2)
entry_points = (st.tuples(st.integers(0, 2), st.integers(0, 2))
                | st.lists(st.integers(0, 2), min_size=2, max_size=2))
spelled_entries = st.lists(st.tuples(entry_points, value_spellings), max_size=30)
bad_values = st.sampled_from([True, False, 0.5, "x", "1/0", "", None, [1], "1e99999"])
bad_points = st.sampled_from([[1, True], (False, 0), [0, 1.0], [0], (0, 0, 0), "ab", 5, None])
bad_entries = (st.tuples(entry_points, bad_values) | st.tuples(bad_points, value_spellings)
               | st.tuples(bad_points, bad_values))


@settings(max_examples=200)
@given(spelled_entries)
def test_constructor_matches_one_parse_per_entry(entries):
    f = SparseFunction(2, entries)
    assert (f.dim, f._den, list(f._nums.items())) == oracle_function_parts(2, entries)


def _refusal(build, entries):
    """The message a constructor refuses entries with, and how many entries
    it had read by then."""
    read = []

    def counted():
        for entry in entries:
            read.append(entry)
            yield entry
    with pytest.raises(InvalidInputError) as exc:
        build(2, counted())
    return str(exc.value), len(read)


@settings(max_examples=200)
@given(spelled_entries, st.lists(st.tuples(st.integers(0, 30), bad_entries),
                                 min_size=1, max_size=3))
def test_first_bad_entry_refused_alike(entries, bad):
    for index, entry in bad:
        entries.insert(index, entry)
    assert _refusal(SparseFunction, entries) == _refusal(oracle_function_parts, entries)


# entries as a function file holds them: objects with 'z' and 'v', and the
# faults a file can add to the constructor's (a non-object entry, a missing
# field)
file_faults = (
    st.sampled_from([[0, 0], "z", None, 5, [], {}, {"z": [0, 0]}, {"v": "1"},
                     {"Z": [0, 0], "v": "1"}])
    | bad_entries.map(lambda zv: {"z": zv[0], "v": zv[1]})
)


def _loaded(directory, payload):
    """What load_input makes of the payload as a file: the object, or the
    message it refuses it with."""
    path = directory / "in.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    try:
        return fileio.load_input(str(path))
    except InvalidInputError as exc:
        return str(exc)


def _walked(oracle):
    """What the per-entry oracle walk makes of the file: its result, or the
    message of the first bad entry."""
    try:
        return oracle()
    except InvalidInputError as exc:
        return str(exc)


@pytest.fixture(scope="module")
def file_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("files")


@settings(max_examples=200)
@given(spelled_entries, st.lists(st.tuples(st.integers(0, 30), file_faults), max_size=3))
def test_function_file_refused_or_built_as_the_entry_walk(file_dir, entries, faults):
    items = [{"z": z, "v": v} for z, v in entries]
    for index, item in faults:
        items.insert(index, item)
    payload = {"dim": 2, "entries": items}
    got = _loaded(file_dir, payload)
    # the oracle reads the file as JSON gives it back: tuples become lists
    decoded = json.loads(json.dumps(payload))["entries"]
    want = _walked(lambda: oracle_function_parts(2, oracle_entry_pairs(decoded)))
    if isinstance(got, SparseFunction):
        got = (got.dim, got._den, list(got._nums.items()))
    assert got == want
    assert isinstance(want, str) == bool(faults)


@settings(max_examples=200)
@given(st.lists(entry_points, max_size=30),
       st.lists(st.tuples(st.integers(0, 30), bad_points), max_size=3))
def test_set_file_refused_or_built_as_the_point_walk(file_dir, points, faults):
    for index, z in faults:
        points.insert(index, z)
    payload = {"dim": 2, "points": points}
    got = _loaded(file_dir, payload)
    decoded = json.loads(json.dumps(payload))["points"]
    want = _walked(lambda: sorted({oracle_check_point(2, z) for z in decoded}))
    if isinstance(got, LatticeSet):
        got = got.sorted_points()
    assert got == want
    assert isinstance(want, str) == bool(faults)
