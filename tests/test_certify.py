import collections
import gc
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from latticeineq import (
    Cuboid,
    DegenerateInputError,
    DomainError,
    Inequality,
    InvalidInputError,
    LatticeSet,
    PreconditionError,
    Relation,
    ShapeClass,
    SparseFunction,
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
    set_counts,
)

from latticeineq import certify, core, fileio
from latticeineq.certify import (
    DEFAULT_TOL,
    LOG_INEQUALITIES,
    NONNEGATIVE_INEQUALITIES,
    SET_INEQUALITIES,
    check,
    classify_counts,
    function_counts,
)

from oracles import oracle_boundary, oracle_integer_p_norm, oracle_shadow_size

F = Fraction
GOLDEN = Path(__file__).parent / "golden"

POINT = LatticeSet(2, [(0, 0)])
RECT = Cuboid(((0, 1), (0, 2)))
SQUARE = Cuboid(((0, 1), (0, 1)))
L_SHAPE = LatticeSet(2, [(0, 0), (1, 0), (0, 1)])
GRID_PRODUCT = LatticeSet(2, [(0, 0), (0, 2), (1, 0), (1, 2)])  # {0,1} x {0,2}
TWO_POINT = SparseFunction(2, {(0, 0): 2, (1, 0): 1})


def forced_certificate(certificate, lhs, rhs):
    """certificate, made to compare the integers lhs and rhs."""
    def forced(counts, n):
        return certify.ExactCertificate(certificate(counts, n).reduction, lhs, rhs)
    return forced


class TestClassifyShape:
    """The shape class of a set, read off its SetCounts."""

    @staticmethod
    def classify(A):
        return classify_counts(set_counts(A))

    def test_square_is_cube(self):
        assert self.classify(SQUARE.points()) is ShapeClass.CUBE

    def test_rect_is_cuboid(self):
        assert self.classify(RECT.points()) is ShapeClass.CUBOID

    def test_grid_is_product_only(self):
        assert self.classify(GRID_PRODUCT) is ShapeClass.PRODUCT_SET

    def test_l_shape_is_none(self):
        assert self.classify(L_SHAPE) is ShapeClass.NONE

    def test_single_point_is_cube(self):
        assert self.classify(POINT) is ShapeClass.CUBE

    def test_empty_rejected(self):
        with pytest.raises(DegenerateInputError):
            self.classify(LatticeSet(2, []))

    def test_3d_flat_square_is_product(self):
        flat = LatticeSet(3, [(x, y, 0) for x in (0, 1) for y in (0, 1)])
        assert self.classify(flat) is ShapeClass.CUBOID  # 2x2x1 box

    def test_3d_sparse_product(self):
        A = LatticeSet(3, [(x, y, z) for x in (0, 2) for y in (0, 1) for z in (5,)])
        assert self.classify(A) is ShapeClass.PRODUCT_SET


class TestIsScaledIndicator:
    """`FunctionCounts.indicator`: the support's counts exactly when f is a
    nonzero constant on its support."""

    def test_positive_scale(self):
        box = Cuboid(((0, 2), (0, 0)))
        counts = function_counts(indicator(box, 3)).indicator
        assert counts == set_counts(box.points()) and counts.size == 3

    def test_mixed_values(self):
        assert function_counts(TWO_POINT).indicator is None

    def test_negative_scale(self):
        f = indicator(POINT, -2)
        assert function_counts(f).indicator == set_counts(POINT)

    def test_mixed_signs_not_indicator(self):
        f = SparseFunction(2, {(0, 0): 2, (1, 0): -2})
        assert function_counts(f).indicator is None


class TestCheckGN:
    def test_single_point(self):
        r = check_gn(indicator(POINT))
        assert r.relation is Relation.EXACT_EQUAL
        assert r.extremal_class is ShapeClass.CUBE
        assert (r.exact_certificate.lhs_integer, r.exact_certificate.rhs_integer) == (4, 4)
        assert r.lhs == r.rhs == 1.0

    def test_rect_equality(self):
        r = check_gn(indicator(RECT))
        assert r.relation is Relation.EXACT_EQUAL
        assert r.extremal_class is ShapeClass.CUBOID
        cert = r.exact_certificate
        assert (cert.lhs_integer, cert.rhs_integer) == (24, 24)
        assert math.isclose(r.lhs, math.sqrt(6), rel_tol=1e-12)
        assert math.isclose(r.rhs, math.sqrt(6), rel_tol=1e-12)

    def test_l_shape_strict(self):
        r = check_gn(indicator(L_SHAPE))
        assert r.relation is Relation.STRICT
        assert r.extremal_class is ShapeClass.NONE
        assert math.isclose(r.lhs, math.sqrt(3), rel_tol=1e-12)
        assert math.isclose(r.rhs, 2.0, rel_tol=1e-12)

    def test_two_point_strict(self):
        r = check_gn(TWO_POINT)
        assert r.relation is Relation.STRICT
        assert r.exact_certificate is None and r.extremal_class is None
        assert math.isclose(r.lhs, math.sqrt(5), rel_tol=1e-12)
        assert math.isclose(r.rhs, 0.5 * math.sqrt(24), rel_tol=1e-12)

    def test_sign_invariance(self):
        f = SparseFunction(2, {(0, 0): 1, (3, 2): -2, (1, 1): F(1, 3)})
        assert check_gn(f) == check_gn(-f)

    def test_zero_function_rejected(self):
        with pytest.raises(DegenerateInputError):
            check_gn(SparseFunction(2))

    def test_dim1_rejected(self):
        with pytest.raises(InvalidInputError):
            check_gn(SparseFunction(1, {(0,): 1}))


class TestCheckSobolev:
    def test_single_point_cube(self):
        r = check_sobolev(indicator(POINT))
        assert r.relation is Relation.EXACT_EQUAL
        assert r.extremal_class is ShapeClass.CUBE
        assert r.lhs == r.rhs == 1.0

    def test_rect_strict_cuboid(self):
        r = check_sobolev(indicator(RECT))
        assert r.relation is Relation.STRICT
        assert r.extremal_class is ShapeClass.CUBOID
        assert math.isclose(r.lhs, math.sqrt(6), rel_tol=1e-12)
        assert math.isclose(r.rhs, 2.5, rel_tol=1e-12)

    def test_half_square_equality(self):
        r = check_sobolev(indicator(SQUARE, F(1, 2)))
        assert r.relation is Relation.EXACT_EQUAL
        assert r.extremal_class is ShapeClass.CUBE
        assert math.isclose(r.lhs, 1.0, rel_tol=1e-12)
        assert math.isclose(r.rhs, 1.0, rel_tol=1e-12)


class TestCheckIsoperimetric:
    def test_single_point(self):
        r = check_isoperimetric(POINT)
        cert = r.exact_certificate
        assert (cert.lhs_integer, cert.rhs_integer) == (16, 16)
        assert r.relation is Relation.EXACT_EQUAL
        assert r.extremal_class is ShapeClass.CUBE

    def test_rect(self):
        r = check_isoperimetric(RECT.points())
        cert = r.exact_certificate
        assert (cert.lhs_integer, cert.rhs_integer) == (96, 100)
        assert r.relation is Relation.STRICT

    def test_square(self):
        r = check_isoperimetric(SQUARE.points())
        cert = r.exact_certificate
        assert (cert.lhs_integer, cert.rhs_integer) == (64, 64)
        assert r.relation is Relation.EXACT_EQUAL
        assert r.extremal_class is ShapeClass.CUBE

    def test_empty_rejected(self):
        with pytest.raises(DegenerateInputError):
            check_isoperimetric(LatticeSet(2, []))


class TestCheckBL:
    def test_grid_product_equality(self):
        r = check_bl(indicator(GRID_PRODUCT))
        assert r.relation is Relation.EXACT_EQUAL
        assert r.extremal_class is ShapeClass.PRODUCT_SET
        assert math.isclose(r.lhs, 2.0, rel_tol=1e-12)
        assert math.isclose(r.rhs, 2.0, rel_tol=1e-12)
        # GN is strict on the same input: product set but not a cuboid
        assert check_gn(indicator(GRID_PRODUCT)).relation is Relation.STRICT

    def test_two_point_strict(self):
        r = check_bl(TWO_POINT)
        assert r.relation is Relation.STRICT
        assert math.isclose(r.lhs, math.sqrt(5), rel_tol=1e-12)
        assert math.isclose(r.rhs, math.sqrt(6), rel_tol=1e-12)

    def test_l_shape_strict(self):
        r = check_bl(indicator(L_SHAPE))
        assert r.relation is Relation.STRICT
        assert r.extremal_class is ShapeClass.NONE
        assert math.isclose(r.lhs, math.sqrt(3), rel_tol=1e-12)
        assert math.isclose(r.rhs, 2.0, rel_tol=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            check_bl(SparseFunction(2, {(0, 0): -1}))


class TestCheckLoomisWhitney:
    def test_rect_equality(self):
        r = check_loomis_whitney(RECT.points())
        cert = r.exact_certificate
        assert (cert.lhs_integer, cert.rhs_integer) == (6, 6)
        assert r.relation is Relation.EXACT_EQUAL
        assert r.extremal_class is ShapeClass.CUBOID

    def test_l_shape_strict(self):
        r = check_loomis_whitney(L_SHAPE)
        cert = r.exact_certificate
        assert (cert.lhs_integer, cert.rhs_integer) == (3, 4)
        assert r.relation is Relation.STRICT

    def test_grid_product_equality(self):
        r = check_loomis_whitney(GRID_PRODUCT)
        cert = r.exact_certificate
        assert (cert.lhs_integer, cert.rhs_integer) == (4, 4)
        assert r.relation is Relation.EXACT_EQUAL
        assert r.extremal_class is ShapeClass.PRODUCT_SET

    def test_3d_uses_shadow_sizes(self):
        # 2x2x1 flat box: |A|^2 = 16 must equal the product of the three
        # 2-dimensional shadow sizes 2*2*4, not the 1-D projections 2*2*1
        flat = LatticeSet(3, [(x, y, 0) for x in (0, 1) for y in (0, 1)])
        r = check_loomis_whitney(flat)
        cert = r.exact_certificate
        assert (cert.lhs_integer, cert.rhs_integer) == (16, 16)
        assert r.relation is Relation.EXACT_EQUAL
        shadows = [oracle_shadow_size(flat.points, i) for i in (1, 2, 3)]
        assert math.prod(shadows) == 16


class TestLogSobolev:
    def test_single_point_any_p_directional(self):
        f = indicator(POINT)
        for p in (F(1, 2), 1, 2):
            r = check_log_sobolev(f, p, directional=True)
            assert r.relation is Relation.EXACT_EQUAL
            assert r.extremal_class is ShapeClass.CUBE
            assert math.isclose(r.lhs, 0.0, abs_tol=1e-15)
            assert math.isclose(r.rhs, 0.0, abs_tol=1e-15)

    def test_uniform_rect_p1_directional(self):
        f = indicator(RECT, F(1, 6))
        r = check_log_sobolev(f, 1, directional=True)
        assert r.relation is Relation.EXACT_EQUAL
        expected = -0.5 * math.log(6)
        assert math.isclose(r.lhs, expected, rel_tol=1e-10)
        assert math.isclose(r.rhs, expected, rel_tol=1e-10)
        cert = r.exact_certificate
        assert (cert.lhs_integer, cert.rhs_integer) == (24, 24)

    def test_rect_p2_nondirectional_strict(self):
        r = check_log_sobolev(indicator(RECT), 2, directional=False, normalize=True)
        assert r.relation is Relation.STRICT
        assert math.isclose(r.lhs, 0.0, abs_tol=1e-15)
        assert math.isclose(r.rhs, math.log(10 / (4 * math.sqrt(6))), rel_tol=1e-10)

    def test_half_square_p2_nondirectional_equal(self):
        r = check_log_sobolev(indicator(SQUARE, F(1, 2)), 2, directional=False)
        assert r.relation is Relation.EXACT_EQUAL
        assert r.extremal_class is ShapeClass.CUBE
        assert math.isclose(r.lhs, 0.0, abs_tol=1e-15)
        assert math.isclose(r.rhs, 0.0, abs_tol=1e-15)

    def test_unit_norm_precondition(self):
        with pytest.raises(PreconditionError):
            check_log_sobolev(indicator(RECT), 1, directional=True)

    def test_exact_unit_norm_accepted(self):
        # (3/5, 4/5) has exact unit 2-norm
        f = SparseFunction(2, {(0, 0): F(3, 5), (4, 4): F(4, 5)})
        r = check_log_sobolev(f, 2, directional=True)
        assert r.relation is not Relation.VIOLATED

    @pytest.mark.parametrize("nums,den,k,unit", [
        ([3, 4], 5, 2, True),  # the exact sum decides
        ([3, 4], 5, 3, False),
        ([5], 5, 10 ** 7, True),
        ([5, 1], 5, 10 ** 7, False),  # 5^k alone already fills den^k
        ([6, 1], 5, 10 ** 7, False),
        ([3, 4], 6, 10 ** 7, False),
    ])
    def test_unit_norm_test_without_huge_powers(self, nums, den, k, unit):
        f = SparseFunction(2, {(i, 0): F(a, den) for i, a in enumerate(nums)})
        if unit:
            assert check_log_sobolev(f, k).relation is not Relation.VIOLATED
        else:
            with pytest.raises(PreconditionError, match="must be 1"):
                check_log_sobolev(f, k)

    def test_unit_norm_message_at_small_and_huge_p(self):
        f = SparseFunction(2, {(0, 0): F(1, 2), (1, 0): F(2, 3)})
        with pytest.raises(PreconditionError) as exc:
            check_log_sobolev(f, 3)
        assert str(exc.value) == (
            "||f||_3 must be 1 (got ||f||^p = 91/216); pass normalize=True")
        with pytest.raises(PreconditionError) as exc:
            check_log_sobolev(f, 10 ** 7)
        assert str(exc.value) == (
            "||f||_10000000 must be 1 (got 0.6666666666666666); pass normalize=True")
        r = check_log_sobolev(indicator(POINT), 10 ** 7)
        assert r.relation is Relation.EXACT_EQUAL

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            check_log_sobolev(SparseFunction(2, {(0, 0): -1}), 1, normalize=True)


class TestTolerance:
    @pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
    def test_bad_tol_refused(self, tol):
        message = f"tol must be finite and positive, got {tol}"
        with pytest.raises(InvalidInputError, match=message):
            check_gn(indicator(RECT), tol)
        for ineq in Inequality:
            # a unit-norm point mass passes every precondition
            with pytest.raises(InvalidInputError, match=message):
                check(ineq, indicator(POINT), 2, tol)


class TestLogBL:
    def test_single_point(self):
        f = indicator(POINT)
        for p in (F(1, 2), 1, 2):
            r = check_log_bl(f, p)
            assert r.relation is Relation.EXACT_EQUAL
            assert math.isclose(r.lhs, 0.0, abs_tol=1e-15)
            assert math.isclose(r.rhs, 0.0, abs_tol=1e-15)

    def test_uniform_grid_p1(self):
        # brute-force check from first principles, then the checker
        f = indicator(GRID_PRODUCT, F(1, 4))
        lhs = (0.5 + 1 - 1) * math.fsum(
            0.25 * math.log(0.25) for _ in range(4)
        )
        masses = [0.5, 0.5]  # two points of value 1/4 in each max projection
        rhs = math.fsum(math.log(m) for m in masses) / 2
        assert math.isclose(lhs, rhs, rel_tol=1e-12)  # genuine equality case
        r = check_log_bl(f, 1)
        assert r.relation is Relation.EXACT_EQUAL
        assert math.isclose(r.lhs, -math.log(2), rel_tol=1e-12)
        assert math.isclose(r.rhs, -math.log(2), rel_tol=1e-12)

    def test_coefficient_vanishes_at_conjugate_p(self):
        f = SparseFunction(2, {(0, 0): F(3, 5), (2, 1): F(4, 5)})
        r = check_log_bl(f, 2)  # p = n/(n-1) = 2 at n = 2
        assert r.lhs == 0.0
        assert r.rhs >= -1e-12
        assert r.relation is check_bl(f).relation

    def test_nonuniform_strict(self):
        r = check_log_bl(TWO_POINT, 1, normalize=True)
        assert r.relation is Relation.STRICT


class TestCertificateValidation:
    """Certificate integers must agree with the float path on random inputs."""

    def test_hundred_random_cuboids(self):
        rng = random.Random(2024)
        for _ in range(100):
            n = rng.choice((2, 3))
            sides = tuple(rng.randint(1, 5) for _ in range(n))
            origin = tuple(rng.randint(-3, 3) for _ in range(n))
            lam = F(rng.randint(1, 9), rng.randint(1, 9))
            f = indicator(Cuboid.from_sides(sides, origin), lam)
            for checker in (check_gn, check_sobolev, check_bl):
                r = checker(f)
                cert = r.exact_certificate
                assert cert is not None
                float_equal = math.isclose(r.lhs, r.rhs, rel_tol=1e-9)
                assert cert.equal == float_equal, (sides, checker.__name__)
                assert cert.lhs_integer <= cert.rhs_integer

    def test_hundred_random_sets(self):
        rng = random.Random(2025)
        for _ in range(100):
            n = rng.choice((2, 3))
            pts = set()
            while not pts:
                pts = {
                    tuple(rng.randint(0, 3) for _ in range(n))
                    for _ in range(rng.randint(1, 8))
                }
            A = LatticeSet(n, pts)
            for checker in (check_isoperimetric, check_loomis_whitney):
                r = checker(A)
                cert = r.exact_certificate
                float_equal = math.isclose(r.lhs, r.rhs, rel_tol=1e-9)
                assert cert.equal == float_equal
                assert cert.lhs_integer <= cert.rhs_integer
            counts = set_counts(A)
            assert counts.boundary == boundary_count(A) == oracle_boundary(pts, n)


def projection_chain(f):
    """(||f||_{n/(n-1)}, BL rhs of |f|, GN rhs of f), ascending by theorem,
    read off check_gn and check_bl as fuzz reads it."""
    gn = check_gn(f)
    return gn.lhs, check_bl(f.abs()).rhs, gn.rhs


class TestChainAndJensen:
    def test_chain_on_examples(self):
        for f in (TWO_POINT, indicator(L_SHAPE), indicator(RECT)):
            lo, mid, hi = projection_chain(f)
            assert lo <= mid * (1 + 1e-12)
            assert mid <= hi * (1 + 1e-12)

    def test_signed_chain(self):
        f = SparseFunction(2, {(0, 0): 2, (1, 0): -1, (0, 1): F(1, 2)})
        lo, mid, hi = projection_chain(f)
        assert lo <= mid <= hi

    def test_jensen_gap_nonnegative(self):
        for p in (F(1, 2), 1, 2):
            for f in (TWO_POINT, indicator(RECT), indicator(GRID_PRODUCT, 3)):
                assert jensen_gap(f, p) >= -1e-12

    def test_jensen_zero_on_uniform(self):
        assert abs(jensen_gap(indicator(RECT, 5), 1)) < 1e-12


class TestReportShape:
    def test_p_recorded(self):
        r = check_log_sobolev(indicator(POINT), F(1, 2), directional=True)
        assert r.p == F(1, 2)
        assert check_gn(indicator(POINT)).p is None

    def test_violated_report_echoes_its_input(self, monkeypatch):
        # no valid input violates a theorem, so force the verdict
        monkeypatch.setattr(certify, "_relation", lambda *args: Relation.VIOLATED)
        A = LatticeSet(2, [z for z, _ in TWO_POINT.items()])
        assert check_gn(TWO_POINT).input_echo == fileio.function_to_dict(TWO_POINT)
        assert check_log_bl(TWO_POINT, 2, normalize=True).input_echo == (
            fileio.function_to_dict(TWO_POINT))
        assert check_isoperimetric(A).input_echo == fileio.set_to_dict(A)
        # a set inequality on a function echoes the function, which replays
        for ineq in SET_INEQUALITIES:
            report = check(ineq, TWO_POINT)
            assert report.input_echo == fileio.function_to_dict(TWO_POINT)
            assert check(ineq, fileio.function_from_dict(report.input_echo)) == report

    @pytest.mark.parametrize("lhs,relation", [
        (23, Relation.STRICT), (24, Relation.EXACT_EQUAL), (25, Relation.VIOLATED),
    ])
    def test_certificate_integers_decide_three_ways(self, lhs, relation, monkeypatch):
        # the GN integers of the 2x3 rectangle are 24 vs 24; the theorem
        # holds, so force the lhs to either side of the rhs
        monkeypatch.setattr(certify, "gn_certificate",
                            forced_certificate(certify.gn_certificate, lhs, 24))
        f = indicator(RECT)
        report = check_gn(f)
        assert report.relation is relation
        echo = fileio.function_to_dict(f) if relation is Relation.VIOLATED else None
        assert report.input_echo == echo

    def test_set_certificate_over_its_bound_is_violated(self, monkeypatch):
        monkeypatch.setattr(certify, "sobolev_certificate",
                            forced_certificate(certify.sobolev_certificate, 100, 50))
        A = RECT.points()
        report = check_isoperimetric(A)
        assert report.relation is Relation.VIOLATED
        assert report.deficit == (50 - 100) / 16
        assert report.input_echo == fileio.set_to_dict(A)

    def test_deficit_is_rhs_minus_lhs(self):
        r = check_gn(TWO_POINT)
        assert r.deficit == r.rhs - r.lhs

    def test_translation_invariance_bitwise(self):
        f = SparseFunction(2, {(0, 0): 2, (1, 0): 1, (0, 1): F(2, 3)})
        g = f.translate((7, -5))
        assert check_gn(f) == check_gn(g)
        assert check_sobolev(f) == check_sobolev(g)
        assert check_bl(f.abs()) == check_bl(g.abs())


class TestCheckDispatcher:
    def test_matches_direct_calls(self):
        f = SparseFunction(2, {(0, 0): 2, (1, 0): 1, (0, 1): F(2, 3)})
        A = LatticeSet(2, [z for z, _ in f.items()])
        p = F(1, 2)
        direct = {
            Inequality.GN: check_gn(f),
            Inequality.SOBOLEV: check_sobolev(f),
            Inequality.ISOPERIMETRIC: check_isoperimetric(A),
            Inequality.LOG_SOBOLEV_DIR: check_log_sobolev(f, p, normalize=True),
            Inequality.LOG_SOBOLEV: check_log_sobolev(
                f, p, directional=False, normalize=True),
            Inequality.BL: check_bl(f),
            Inequality.LOG_BL: check_log_bl(f, p, normalize=True),
            Inequality.LW: check_loomis_whitney(A),
        }
        for ineq in Inequality:
            assert check(ineq, f, p, normalize=True) == direct[ineq], ineq

    def test_set_reads_its_normalized_indicator(self):
        A = LatticeSet(2, [(0, 0), (0, 2), (1, 0), (1, 2)])
        for ineq in Inequality:
            assert check(ineq, A, 2) == check(ineq, indicator(A), 2,
                                              normalize=True), ineq

    def test_declared_kinds_match_preconditions(self):
        signed = SparseFunction(2, {(0, 0): 1, (1, 0): -1})
        doubled = indicator(RECT, 2)  # not unit norm
        assert SET_INEQUALITIES <= set(Inequality) - NONNEGATIVE_INEQUALITIES
        for ineq in Inequality:
            if ineq in NONNEGATIVE_INEQUALITIES:
                with pytest.raises(DomainError):
                    check(ineq, signed, 2)
            else:
                check(ineq, signed, 2)
            if ineq in LOG_INEQUALITIES:
                with pytest.raises(PreconditionError):
                    check(ineq, doubled, 2)
                assert check(ineq, doubled, 2, normalize=True).p == 2
            else:
                assert check(ineq, doubled, 2).p is None


class TestFunctionCounts:
    @pytest.mark.parametrize("x,p", [
        (SparseFunction(2, {(0, 0): 2, (1, 0): 1, (0, 1): F(2, 3)}), F(1, 2)),
        (indicator(Cuboid(((0, 1), (0, 2), (0, 1))), F(5, 2)), F(1, 2)),
        (SparseFunction(2, {(0, 0): 2, (1, 0): 1, (0, 1): F(2, 3)}), F(2)),
        (LatticeSet(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0)]), F(1, 2)),
    ], ids=["nonnegative-2d", "scaled-cuboid-3d", "nonnegative-2d-p2", "set-3d"])
    def test_each_statistic_computed_once(self, x, p, monkeypatch):
        # only the float norm at n/(n-1) is counted: at p = 1/2 the
        # normalizing norm of the log checks is another norm, at p = 2 in
        # 2-D it is the same; every per-axis statistic comes from one line
        # pass per axis, kept on the input, and the one-statistic routes are
        # never taken; the three log checks share one entropy sum
        n = x.dim
        calls = collections.Counter()

        def counted(name, fn, only_p=None):
            def wrapper(*args):
                if only_p is None or args[1:] == only_p:
                    calls[name] += 1
                return fn(*args)
            return wrapper

        for name in ("_line_pass", "axis_variation", "_entropy_sum"):
            assert not hasattr(certify, name), name
            monkeypatch.setattr(core, name, counted(name, getattr(core, name)))
        monkeypatch.setattr(core, "_float_norm",
                            counted("_float_norm", core._float_norm, only_p=(n, n - 1)))
        for _ in range(2):
            for ineq in Inequality:
                check(ineq, x, p, normalize=True)
        assert calls == {"_line_pass": n, "_float_norm": 1, "_entropy_sum": 1}

    def test_unit_norm_decided_on_every_call(self):
        # the entropy sum is kept on f, the unit-norm test is not: it reads
        # tol, so a plain check that fails it still raises after the same
        # sum was taken for a wider tol or for the normalized f
        def pair():
            return SparseFunction(2, {(0, 0): 2, (1, 0): 1})  # ||f||_{3/2} ~ 2.45

        f = pair()
        for ineq in LOG_INEQUALITIES:
            assert check(ineq, f, F(3, 2), tol=2.0) == check(ineq, pair(), F(3, 2), tol=2.0)
            assert (check(ineq, f, F(3, 2), normalize=True)
                    == check(ineq, pair(), F(3, 2), normalize=True))
            with pytest.raises(PreconditionError):
                check(ineq, f, F(3, 2))

    def test_one_norm_per_exponent(self, monkeypatch):
        # GN, Sobolev and BL read ||f||_2; the float unit-norm test at
        # p = 3/2 (failing at the default tol, passing at a wide one) and
        # the normalized checks at 3/2 read one ||f||_{3/2}
        calls = collections.Counter()
        taken = core._float_norm

        def counted(f, a, b):
            calls[F(a, b)] += 1
            return taken(f, a, b)

        monkeypatch.setattr(core, "_float_norm", counted)
        f = SparseFunction(2, {(0, 0): 2, (1, 0): 1})  # ||f||_{3/2} ~ 2.45
        for _ in range(2):
            for checker in (check_gn, check_sobolev, check_bl):
                checker(f)
            with pytest.raises(PreconditionError, match="got 2.4"):
                check_log_sobolev(f, F(3, 2))
            assert calls[F(3, 2)] == 1  # the float test read the float norm
            check_log_bl(f, F(3, 2), tol=2.0)
            check_log_sobolev(f, F(3, 2), normalize=True)
            check_log_bl(f, F(3, 2), normalize=True)
        assert calls == {F(2): 1, F(3, 2): 1}

    def test_norm_past_the_float_range_is_not_unit(self):
        # each (10^205)^(3/2) is finite but the sum of six is not, so the
        # float norm is inf: not 1 within any tol, and no rescaling factor
        f = SparseFunction(2, {(i, 0): "1e205" for i in range(6)})
        for tol in (DEFAULT_TOL, 1e300):
            with pytest.raises(PreconditionError, match=r"\(got inf\)"):
                check_log_sobolev(f, F(3, 2), tol=tol)
        with pytest.raises(OverflowError, match="cannot normalize"):
            check_log_sobolev(f, F(3, 2), normalize=True)

    def test_checking_makes_no_reference_cycle(self):
        # the counts kept on an input are plain numbers with no way back to
        # the input, so what was checked is freed by reference counting
        gc.collect()
        gc.disable()
        try:
            f = SparseFunction(2, {(0, 0): 2, (1, 0): 1, (0, 1): F(2, 3)})
            A = LatticeSet(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0)])
            signed = SparseFunction(3, {(0, 0, 0): 2, (1, 0, 0): F(-1, 3),
                                        (0, 1, 1): F(5, 4), (2, 0, 0): -1})
            reports = [check(ineq, x, F(1, 2), normalize=True)
                       for x in (f, A) for ineq in Inequality]
            reports += [check_gn(signed), check_sobolev(signed),
                        check_isoperimetric(signed), check_loomis_whitney(signed)]
            reports += [pointwise_line_bound(signed, i) for i in (1, 2, 3)]
            del f, A, signed, reports
            assert gc.collect() == 0
        finally:
            gc.enable()


@pytest.mark.parametrize("name", ["pair_2_1.json", "pair_1-2_1-4.json"])
def test_p_norm_past_the_float_range_of_its_terms(name):
    # {2, 1} overflows 2.0 ** 2000 and {1/2, 1/4} underflows both terms;
    # the factored norm still matches the exact sum
    f = fileio.load_input(str(GOLDEN / name))
    assert math.isclose(core.kept_norm(f, 2000, 1), oracle_integer_p_norm(f, 2000),
                        rel_tol=1e-12)
