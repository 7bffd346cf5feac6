import collections
import math
from fractions import Fraction

import pytest

from latticeineq import (
    Cuboid,
    DegenerateInputError,
    DomainError,
    InvalidInputError,
    LatticeSet,
    SparseFunction,
    axis_variation,
    boundary_count,
    coord_projection,
    entropy,
    indicator,
    max_projection,
    norm,
    pointwise_line_bound,
    shadow_projection,
)
from latticeineq import core
from latticeineq.certify import set_counts
from latticeineq.core import as_fraction

from oracles import (
    oracle_axis_variation,
    oracle_boundary,
    oracle_diff_norm_1,
    oracle_entropy,
    oracle_max_projection,
    oracle_norm,
    oracle_partial_difference,
)

F = Fraction

RECT = Cuboid(((0, 1), (0, 2)))          # [0,1] x [0,2], six cells
L_SHAPE = LatticeSet(2, [(0, 0), (1, 0), (0, 1)])
TWO_POINT = SparseFunction(2, {(0, 0): 2, (1, 0): 1})


def chi(region, scale=1):
    return indicator(region, scale)


class TestSparseFunction:
    def test_zero_entries_pruned(self):
        f = SparseFunction(2, {(0, 0): 1, (1, 1): 0})
        assert f.support() == {(0, 0)}

    def test_duplicate_keys_accumulate(self):
        f = SparseFunction(1, [((0,), 1), ((0,), -1)])
        assert f.is_zero()

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            SparseFunction(2, {(0,): 1})

    def test_float_values_rejected(self):
        with pytest.raises(InvalidInputError):
            SparseFunction(1, {(0,): 0.5})

    def test_list_points_accepted(self):
        assert SparseFunction(2, [([0, 1], 1)]) == SparseFunction(2, {(0, 1): 1})

    def test_string_values_parse_exactly(self):
        f = SparseFunction(1, {(0,): "3/4", (1,): "0.25"})
        assert f.value((0,)) == F(3, 4)
        assert f.value((1,)) == F(1, 4)

    def test_entries_sorted(self):
        f = SparseFunction(2, {(1, 0): 1, (0, 2): 2, (0, 1): 3})
        assert list(dict(f.items())) == [(0, 1), (0, 2), (1, 0)]

    def test_translate_and_neg_and_abs(self):
        f = SparseFunction(2, {(0, 0): -2, (1, 0): 1})
        g = f.translate((3, -1))
        assert g.value((3, -1)) == -2
        assert (-f).value((0, 0)) == 2
        assert f.abs().value((0, 0)) == 2


class TestLatticeSet:
    def test_list_points_become_tuples(self):
        A = LatticeSet(2, [[0, 1], (0, 1), [2, 3]])
        assert A.points == {(0, 1), (2, 3)}

    @pytest.mark.parametrize("points", [[5], [[0]], [[0, True]], ["ab"], [None]])
    def test_bad_points_rejected(self, points):
        with pytest.raises(InvalidInputError):
            LatticeSet(2, points)

    PTS = [(2, 0), (0, 1), (1, -1), (0, 0), (1, 3)]

    def test_shuffled_and_duplicated_points_give_one_set(self):
        A = LatticeSet(2, self.PTS)
        B = LatticeSet(2, self.PTS[::-1] + self.PTS[:2])
        assert A == B
        assert hash(A) == hash(B)

    def test_points_run_in_lexicographic_order(self):
        A = LatticeSet(2, self.PTS)
        assert list(A) == A.sorted_points() == list(A.points) == sorted(self.PTS)
        assert A.points == set(self.PTS)

    def test_empty_set_has_no_bounding_box(self):
        with pytest.raises(DegenerateInputError, match="^empty set has no bounding box$"):
            LatticeSet(2, []).bounding_intervals()

    def test_indicator_is_the_stored_function(self):
        A = LatticeSet(2, self.PTS)
        assert indicator(A) is indicator(A)
        assert indicator(A, 3) == indicator(A).scaled(3)


class TestAsFraction:
    @pytest.mark.parametrize("text,value", [
        ("1e4300", F(10) ** 4300), ("-2.5E-4300", F(-25, 10 ** 4301)),
        ("1e400", F(10) ** 400), ("3/4", F(3, 4)), ("0.25", F(1, 4)),
    ])
    def test_exponents_up_to_the_digit_limit_parse(self, text, value):
        assert as_fraction(text) == value

    @pytest.mark.parametrize("text", ["1e4301", "1E-4301", "1e2000000000",
                                      "-1e-2000000000", "1e1_000_000"])
    def test_exponents_over_the_digit_limit_refused(self, text):
        with pytest.raises(InvalidInputError) as err:
            as_fraction(text)
        assert str(err.value) == (
            f"decimal exponent of {text!r} is over the limit of 4300"
        )

    @pytest.mark.parametrize("text", ["1e", "e5", "1e5e5", "one", "1/0"])
    def test_unparseable_strings_refused(self, text):
        with pytest.raises(InvalidInputError, match="cannot parse rational value"):
            as_fraction(text)

    def test_float_refused(self):
        with pytest.raises(InvalidInputError) as err:
            as_fraction(0.1)
        assert str(err.value) == (
            'float value 0.1 is not exact; write it as a string ("p/q" or decimal)'
        )


class TestIndicator:
    def test_singleton(self):
        f = chi(LatticeSet(2, [(0, 0)]))
        assert dict(f.items()) == {(0, 0): 1}

    def test_uniform_on_cuboid(self):
        f = chi(RECT, F(1, 6))
        assert f.support_size() == 6
        assert all(v == F(1, 6) for _, v in f.items())

    def test_three_points_scale_two(self):
        f = chi(L_SHAPE, 2)
        assert f.support_size() == 3
        assert all(v == 2 for _, v in f.items())

    def test_zero_scale_rejected(self):
        with pytest.raises(InvalidInputError):
            chi(RECT, 0)

    def test_empty_set_rejected(self):
        with pytest.raises(DegenerateInputError):
            chi(LatticeSet(2, []))


class TestPartialDifference:
    """The forward difference along axis i, through its 1-norm
    axis_variation, against the oracle that builds it cell by cell."""

    def test_single_point_telescope(self):
        f = chi(LatticeSet(2, [(0, 0)]))
        assert oracle_partial_difference(f, 1) == {(-1, 0): 1, (0, 0): -1}
        assert axis_variation(f, 1) == 2 == oracle_axis_variation(f, 1)

    def test_rect_axis1_matches_oracle(self):
        f = chi(RECT)
        expected = oracle_partial_difference(f, 1)
        assert len(expected) == 6 and all(abs(v) == 1 for v in expected.values())
        assert axis_variation(f, 1) == 6 == oracle_axis_variation(f, 1)

    def test_two_point_axis2(self):
        assert oracle_partial_difference(TWO_POINT, 2) == {
            (0, -1): 2, (0, 0): -2, (1, -1): 1, (1, 0): -1,
        }
        assert axis_variation(TWO_POINT, 2) == 6 == oracle_axis_variation(TWO_POINT, 2)

    def test_axis_out_of_range(self):
        with pytest.raises(InvalidInputError):
            axis_variation(TWO_POINT, 3)
        with pytest.raises(InvalidInputError):
            axis_variation(TWO_POINT, 0)


class TestNorms:
    def test_single_point_any_p(self):
        f = chi(LatticeSet(2, [(0, 0)]), F(-7, 3))
        for p in (F(1, 2), 1, 2, 3):
            value = norm(f, p)
            assert math.isclose(float(value), 7 / 3, rel_tol=1e-12)

    def test_rect_l2(self):
        f = chi(RECT)
        assert math.isclose(norm(f, 2), math.sqrt(6), rel_tol=1e-15)
        assert math.isclose(norm(f, 2), oracle_norm(f, 2), rel_tol=1e-15)

    def test_two_point_l2(self):
        assert math.isclose(norm(TWO_POINT, 2), math.sqrt(5), rel_tol=1e-15)

    def test_p1_exact(self):
        value = norm(TWO_POINT, 1)
        assert isinstance(value, Fraction) and value == 3

    def test_zero_function(self):
        assert norm(SparseFunction(2), 2) == 0.0

    def test_bad_p(self):
        with pytest.raises(InvalidInputError):
            norm(TWO_POINT, 0)
        with pytest.raises(InvalidInputError):
            norm(TWO_POINT, -1)

    def test_float_exponent_is_its_exact_value(self):
        assert norm(TWO_POINT, 2.0) == norm(TWO_POINT, 2)
        assert norm(TWO_POINT, 1.5) == norm(TWO_POINT, Fraction(3, 2))

    @pytest.mark.parametrize("p,message", [
        (math.inf, "must be finite"),
        (math.nan, "must be finite"),
        ("2", "must be a positive number"),
    ])
    def test_exponent_refused(self, p, message):
        with pytest.raises(InvalidInputError, match=message):
            norm(TWO_POINT, p)

    def test_p_whose_float_is_zero(self):
        with pytest.raises(InvalidInputError, match="underflows"):
            norm(TWO_POINT, Fraction(1, 10 ** 400))

    @pytest.mark.parametrize("p", [F(3, 2), 2, 3])
    def test_plain_sum_untouched_by_fallback(self, p):
        # the factored fallback runs only when the plain sum over- or
        # underflows; every other norm keeps the plain loop's bits
        f = SparseFunction(3, {(0, 1, 0): F(1, 64), (0, 1, 2): 2, (1, 2, 1): F(19, 7),
                               (2, 2, 1): F(1, 7), (3, 2, 2): F(171, 64)})
        pf, total = float(p), 0.0
        for _, v in f.items():
            total += float(abs(v)) ** pf
        assert norm(f, p) == total ** (1.0 / pf)

    @pytest.mark.parametrize("values,expected", [
        ((2, 1), 2.0),            # 2.0 ** 2000 overflows
        ((F(1, 2), F(1, 4)), 0.5),  # both terms underflow to 0.0
    ])
    def test_factored_when_plain_sum_leaves_float_range(self, values, expected):
        f = SparseFunction(2, {(i, 0): v for i, v in enumerate(values)})
        assert norm(f, 2000) == expected


def total_variation(f):
    """The 1-norm of the differential of f, summed over the axes."""
    return sum(axis_variation(f, i) for i in range(1, f.dim + 1))


class TestDiffNorm:
    """The 1-norm of the differential: the sum of the axis variations."""

    def test_point_crossings(self):
        f = chi(LatticeSet(2, [(0, 0)]))
        assert total_variation(f) == 4 == oracle_diff_norm_1(f)

    def test_rect(self):
        f = chi(RECT)
        assert total_variation(f) == 10 == oracle_diff_norm_1(f)
        assert axis_variation(f, 1) == 6 == oracle_axis_variation(f, 1)
        assert axis_variation(f, 2) == 4 == oracle_axis_variation(f, 2)

    def test_half_square(self):
        f = chi(Cuboid(((0, 1), (0, 1))), F(1, 2))
        assert total_variation(f) == 4 == oracle_diff_norm_1(f)


class TestMaxProjection:
    def test_singleton(self):
        f = chi(LatticeSet(2, [(0, 0)]))
        g = max_projection(f, 1)
        assert g.dim == 1 and dict(g.items()) == {(0,): 1}
        assert norm(g, 1) == 1

    def test_max_over_dropped_axis(self):
        f = SparseFunction(2, {(0, 0): 2, (0, 1): 1})
        g = max_projection(f, 1)
        assert dict(g.items()) == {(0,): 2, (1,): 1}
        assert dict(g.items()) == oracle_max_projection(f, 1)

    def test_two_point_axis2(self):
        g = max_projection(TWO_POINT, 2)
        assert dict(g.items()) == {(0,): 2, (1,): 1}
        assert norm(g, 1) == 3

    # refused in this order: dimension, axis, sign
    def test_negative_rejected(self):
        f = SparseFunction(2, {(0, 0): 1, (1, 0): -1})
        with pytest.raises(DomainError):
            max_projection(f, 1)
        with pytest.raises(InvalidInputError):
            max_projection(f, 0)

    def test_dim1_rejected(self):
        for value in (1, -1):
            f = SparseFunction(1, {(0,): value})
            with pytest.raises(InvalidInputError):
                max_projection(f, 1)


class TestSetOperations:
    def test_coord_projection(self):
        A = RECT.points()
        assert coord_projection(A, 2) == {0, 1, 2}
        assert coord_projection(L_SHAPE, 1) == {0, 1}
        B = LatticeSet(2, [(0, 0), (0, 2), (1, 0), (1, 2)])
        assert coord_projection(B, 2) == {0, 2}

    def test_shadow_projection(self):
        A = LatticeSet(3, [(0, 0, 0), (1, 1, 0), (0, 1, 0)])
        assert shadow_projection(A, 3) == {(0, 0), (1, 1), (0, 1)}
        assert shadow_projection(A, 1) == {(0, 0), (1, 0)}

    def test_boundary_counts(self):
        assert boundary_count(LatticeSet(2, [(0, 0)])) == 4
        assert boundary_count(RECT.points()) == 10
        assert boundary_count(L_SHAPE) == 8
        for A in (RECT.points(), L_SHAPE):
            assert boundary_count(A) == oracle_boundary(A.points, 2)

    def test_boundary_is_diff_norm_of_indicator(self):
        for A in (RECT.points(), L_SHAPE, LatticeSet(2, [(0, 0), (5, 5)])):
            assert boundary_count(A) == total_variation(chi(A))


class TestOneLinePassPerAxis:
    """The calculus reads each input's line passes, one per axis: whichever
    reader comes first makes them, and the others and a second round reuse
    them."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = collections.Counter()
        def wrapper(*args, _fn=core._line_pass):
            calls["_line_pass"] += 1
            return _fn(*args)
        monkeypatch.setattr(core, "_line_pass", wrapper)
        return calls

    @staticmethod
    def _pin(calls, build, readers):
        for first in readers:
            x = build()
            first(x)
            assert calls == {"_line_pass": x.dim}
            for _ in range(2):
                for read in readers:
                    read(x)
            assert calls == {"_line_pass": x.dim}
            calls.clear()

    @staticmethod
    def _on_each_axis(fn):
        return lambda x: [fn(x, i) for i in range(1, x.dim + 1)]

    def test_function_calculus(self, calls):
        on_each_axis = self._on_each_axis
        self._pin(calls, lambda: SparseFunction(3, {
            (0, 0, 0): 2, (0, 1, 0): F(1, 2), (2, 1, 0): 3, (2, 1, 1): 1,
            (1, 0, 2): F(5, 4),
        }), (
            on_each_axis(axis_variation),
            on_each_axis(max_projection),
            on_each_axis(pointwise_line_bound),
        ))

    def test_set_calculus(self, calls):
        on_each_axis = self._on_each_axis
        self._pin(calls, lambda: LatticeSet(3, [
            (0, 0, 0), (1, 0, 0), (0, 2, 0), (0, 2, 3), (4, 1, 1),
        ]), (
            LatticeSet.bounding_intervals,
            boundary_count,
            set_counts,
            on_each_axis(coord_projection),
            on_each_axis(shadow_projection),
        ))


class TestCuboid:
    def test_sides_and_cube_flag(self):
        assert RECT.sides() == (2, 3)
        assert not RECT.is_cube
        assert Cuboid.from_sides((3, 3)).is_cube
        assert Cuboid(((2, 2), (5, 5))).is_cube

    def test_points(self):
        assert len(RECT.points()) == 6

    def test_points_are_the_product_of_the_intervals(self):
        box = Cuboid(((-1, 0), (2, 4), (7, 7)))
        assert box.points() == LatticeSet(3, [
            (a, b, c) for a in (-1, 0) for b in (2, 3, 4) for c in (7,)
        ])

    def test_from_sides_origin_matches_sides(self):
        assert Cuboid.from_sides((2, 3), origin=(5, 1)).intervals == ((5, 6), (1, 3))
        with pytest.raises(InvalidInputError):
            Cuboid.from_sides((2, 3), origin=(5,))

    def test_empty_interval_rejected(self):
        with pytest.raises(InvalidInputError):
            Cuboid(((1, 0),))

    @pytest.mark.parametrize("make,message", [
        (lambda: Cuboid(()), r"^cuboid needs at least one interval$"),
        (lambda: Cuboid(((0, 1, 2),)), r"^interval \(0, 1, 2\) must be an \(a, b\) pair$"),
        (lambda: Cuboid.from_sides((0, 2)), r"^cuboid sides must be >= 1, got \(0, 2\)$"),
    ])
    def test_malformed_cuboid_rejected(self, make, message):
        with pytest.raises(InvalidInputError, match=message):
            make()


class TestEntropy:
    def test_unit_indicator_is_zero(self):
        f = chi(LatticeSet(2, [(0, 0)]))
        for p in (F(1, 2), 1, 2):
            assert entropy(f, p) == 0.0

    def test_uniform_distribution(self):
        # mass-1 uniform on |A|=6 at p=1, and on |A|=4 at p=2 (scale 1/2)
        f = chi(RECT, F(1, 6))
        assert math.isclose(entropy(f, 1), -math.log(6), rel_tol=1e-12)
        g = chi(Cuboid(((0, 1), (0, 1))), F(1, 2))
        assert math.isclose(entropy(g, 2), -math.log(4), rel_tol=1e-12)

    def test_two_point(self):
        assert math.isclose(entropy(TWO_POINT, 1), 2 * math.log(2), rel_tol=1e-12)
        assert math.isclose(entropy(TWO_POINT, 1), oracle_entropy(TWO_POINT, 1),
                            rel_tol=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            entropy(SparseFunction(1, {(0,): -1}), 1)


class TestPointwiseLineBound:
    def test_single_point_equality(self):
        f = chi(LatticeSet(2, [(0, 0)]))
        check = pointwise_line_bound(f, 1)
        assert check.ok
        assert check.worst_max == 1 and check.worst_half_variation == 1
        assert check.margin == 0

    def test_two_point_line_equality(self):
        check = pointwise_line_bound(TWO_POINT, 1)
        assert check.ok
        assert check.worst_line == (0,)
        assert check.worst_max == 2
        assert check.worst_half_variation == F(1, 2) * (2 + 1 + 1)

    def test_separated_plateaus_strict(self):
        f = SparseFunction(2, {(0, 0): 1, (5, 0): 1})
        check = pointwise_line_bound(f, 1)
        assert check.ok
        assert check.worst_max == 1
        assert check.worst_half_variation == 2
        assert check.margin == 1

    def test_signed_function(self):
        f = SparseFunction(2, {(0, 0): 1, (1, 0): -1})
        assert pointwise_line_bound(f, 1).ok
        assert pointwise_line_bound(f, 2).ok


class TestEdgeCases:
    def test_line_bound_on_zero_function(self):
        check = pointwise_line_bound(SparseFunction(2), 1)
        assert check.ok
        assert check.lines_checked == 0
        assert check.worst_line is None

    def test_cuboid_rejects_float_endpoints(self):
        with pytest.raises(InvalidInputError):
            Cuboid(((0, 1.5),))

    def test_certificate_decides_when_floats_disagree_by_an_ulp(self):
        from latticeineq import Relation, check_gn

        # 2x1x2 cuboid: the two float sides land on adjacent doubles, so a
        # float-only comparison could not certify equality; the integers can
        r = check_gn(indicator(Cuboid.from_sides((2, 1, 2))))
        assert r.lhs != r.rhs
        assert abs(r.lhs - r.rhs) < 1e-15
        cert = r.exact_certificate
        assert cert.lhs_integer == cert.rhs_integer == 128
        assert r.relation is Relation.EXACT_EQUAL

    def test_long_thin_rectangle_certificates(self):
        from latticeineq import Relation, check_gn, check_isoperimetric

        side = 3 ** 8
        strip = Cuboid.from_sides((side, 1))
        r = check_gn(indicator(strip))
        cert = r.exact_certificate
        assert cert.lhs_integer == cert.rhs_integer == 4 * side
        assert r.relation is Relation.EXACT_EQUAL
        iso = check_isoperimetric(strip.points())
        assert iso.exact_certificate.lhs_integer == 16 * side
        assert iso.exact_certificate.rhs_integer == (2 * side + 2) ** 2
        assert iso.relation is Relation.STRICT
