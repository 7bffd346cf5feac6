import csv
import dataclasses
import io
import itertools
import json
import math
import re
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from latticeineq import (
    BudgetExceededError,
    Cuboid,
    DegenerateInputError,
    InvalidInputError,
    LatticeSet,
    SparseFunction,
    bl_ratio,
    enumerate_rigidity,
    gn_ratio,
    indicator,
    iso_ratio,
)
from latticeineq import certify, fileio, kernels, lab
from latticeineq.certify import ShapeClass, classify_counts
from latticeineq.cli import main
from latticeineq.core import SetCounts
from latticeineq.lab import enumeration_size

from oracles import (
    oracle_cells,
    oracle_exhaustive_best_iso,
    oracle_masks,
    oracle_scan,
    oracle_shape,
    oracle_subset_stats,
)

RECT = Cuboid(((0, 1), (0, 2)))
L_SHAPE = LatticeSet(2, [(0, 0), (1, 0), (0, 1)])


class TestRatios:
    def test_gn_ratio_cuboid_is_exactly_one(self):
        assert gn_ratio(indicator(RECT)) == 1.0
        assert gn_ratio(indicator(Cuboid.from_sides((2, 2, 2)))) == 1.0

    def test_gn_ratio_l_shape(self):
        assert math.isclose(gn_ratio(indicator(L_SHAPE)), math.sqrt(3) / 2,
                            rel_tol=1e-12)

    def test_iso_ratio_rect(self):
        assert math.isclose(iso_ratio(RECT.points()), math.sqrt(6) * 4 / 10,
                            rel_tol=1e-12)

    def test_iso_ratio_cubes_exactly_one(self):
        for side, n in ((1, 2), (3, 2), (2, 3)):
            cube = Cuboid.from_sides((side,) * n)
            assert iso_ratio(cube.points()) == 1.0

    def test_bl_ratio_product_exactly_one(self):
        grid = LatticeSet(2, [(0, 0), (0, 2), (1, 0), (1, 2)])
        assert bl_ratio(indicator(grid)) == 1.0

    def test_ratios_bounded_by_one(self):
        f = SparseFunction(2, {(0, 0): 2, (1, 0): 1, (5, 5): 3})
        assert 0 < gn_ratio(f) <= 1 + 1e-9
        assert 0 < bl_ratio(f) <= 1 + 1e-9
        assert 0 < iso_ratio(LatticeSet(2, f.support())) <= 1 + 1e-9

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateInputError):
            gn_ratio(SparseFunction(2))

    def test_iso_ratio_refuses_one_dimension_and_no_points(self):
        with pytest.raises(InvalidInputError, match="^ratio needs ambient dimension >= 2$"):
            iso_ratio(LatticeSet(1, [(0,), (1,)]))
        with pytest.raises(DegenerateInputError, match="^empty set$"):
            lab.iso_ratio_from_counts(0, 4, 2)


class TestEnumerationSize:
    def test_full_box(self):
        assert enumeration_size(16, 16) == 65535

    def test_capped(self):
        assert enumeration_size(4, 2) == 4 + 6

    def test_exact_up_to_limit(self):
        assert enumeration_size(16, 16, limit=1 << 64) == 65535
        assert enumeration_size(4, 2, limit=10) == 4 + 6

    @pytest.mark.parametrize("cells,max_size,limit,count", [
        (16, 16, 10, 65535),
        (10**6, 16_000, 1 << 64, None),
        (1 << 36, 1 << 36, 1 << 64, None),
    ])
    def test_counting_stops_past_limit(self, cells, max_size, limit, count):
        # a lower bound above the limit, whatever the size of the full count
        estimate = enumeration_size(cells, max_size, limit=limit)
        assert limit < estimate <= (count or 1 << 128)


class TestEnumerateRigidity:
    def test_two_by_two_box(self):
        rep = enumerate_rigidity(2, 2)
        assert rep.total_checked == 15
        assert rep.mismatch_count == 0
        # product sets on a 2x2 box are exactly the 9 pairs S x T
        assert rep.equality_counts["lw"] == 9

    def test_four_by_four_box(self):
        rep = enumerate_rigidity(2, 4)
        assert rep.total_checked == 65535
        assert rep.mismatch_count == 0
        # positioned cuboids = C(5,2)^2; translation classes = 4^2, cubes 4
        assert rep.equality_counts["gn"] == 100
        cuboidish = rep.shape_counts["CUBE"] + rep.shape_counts["CUBOID"]
        assert cuboidish == 100
        canonical_cuboidish = (
            rep.canonical_shape_counts["CUBE"] + rep.canonical_shape_counts["CUBOID"]
        )
        assert canonical_cuboidish == 16
        assert rep.canonical_shape_counts["CUBE"] == 4
        assert rep.equality_counts["iso"] == 30  # positioned squares

    def test_three_dim_box(self):
        rep = enumerate_rigidity(3, 2)
        assert rep.total_checked == 255
        assert rep.mismatch_count == 0

    def test_max_size_cap(self):
        rep = enumerate_rigidity(2, 3, max_size=2)
        assert rep.total_checked == enumeration_size(9, 2)
        assert rep.mismatch_count == 0

    def test_report_is_built_finished(self):
        # every field is a count of the proof, set once by _count_classes
        rep = enumerate_rigidity(2, 2)
        for field in dataclasses.fields(rep):
            assert field.default is field.default_factory is dataclasses.MISSING
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.total_checked = 0

    def test_budget_refusal_carries_estimate(self):
        with pytest.raises(BudgetExceededError) as err:
            enumerate_rigidity(2, 4, budget=1000)
        assert err.value.estimate == 65535

    def test_equality_is_decided_by_certify_certificates(self, monkeypatch):
        from latticeineq import certify, lab

        def off_by_one(counts, n):
            cert = certify.gn_certificate(counts, n)
            return certify.ExactCertificate(
                cert.reduction, cert.lhs_integer + 1, cert.rhs_integer
            )

        monkeypatch.setattr(lab, "gn_certificate", off_by_one)
        rep = enumerate_rigidity(2, 2)
        # 4|A| + 1 is odd and the crossing product even: no set is GN-equal,
        # so each of the 9 cuboids of the 2x2 box is a mismatch
        assert rep.equality_counts["gn"] == 0
        assert rep.mismatch_count == 9
        assert rep.mismatches == {"gn": 9, "iso": 0, "lw": 0}
        failing = [g for g in rep.groups if g.group == "class" and not g.gn_equal]
        assert {g.shape_class.value for g in failing} == {"CUBE", "CUBOID"}
        assert sum(g.count for g in failing) == 9

    def test_report_groups_cover_every_subset(self):
        groups = enumerate_rigidity(2, 2).groups
        for group in ("crossings", "shadows"):
            assert sum(g.count for g in groups if g.group == group) == 15
        # the 9 product sets of the 2x2 box: S x T, with 0 in S and in T
        classes = {g.key: g for g in groups if g.group == "class"}
        assert len(classes) == 4 and sum(g.count for g in classes.values()) == 9
        assert classes[(0,), (0,)] == ("class", ((0,), (0,)), 1, 4, ShapeClass.CUBE,
                                       True, True, True)
        assert classes[(0, 1), (0, 1)].count == 1


# the shapes on which each reduction's certificate is equal, by the theorems
THEOREM_SHAPES = {"gn": {"CUBE", "CUBOID"}, "iso": {"CUBE"},
                  "lw": {"CUBE", "CUBOID", "PRODUCT_SET"}}


def _visit(n, side, max_size):
    """(mask, oracle statistics, shape, (gn, iso, lw) flags) of each subset
    of the box with at most max_size cells, by a visit of every mask.  The
    flags are those of the certificates that lab reads, patched ones
    included, on the oracle statistics."""
    dims = (side,) * n
    certificates = (lab.gn_certificate, lab.sobolev_certificate, lab.bl_certificate)
    for mask in oracle_masks(side ** n, max_size):
        counts = SetCounts(*oracle_subset_stats(mask, dims))
        yield (mask, counts, oracle_shape(oracle_cells(mask, dims), n),
               tuple(certificate(counts, n).equal for certificate in certificates))


def _by_mask(n, side, max_size=None):
    """The summary of enumerate_rigidity from _visit.  A mismatch is a
    (subset, reduction) pair whose flag is not the theorem's for the shape."""
    total = 0
    shapes, canonical, equal, mismatches = Counter(), Counter(), Counter(), Counter()
    for _, counts, shape, flags in _visit(n, side, side ** n if max_size is None else max_size):
        total += 1
        shapes[shape] += 1
        canonical[shape] += not any(counts.proj_min)
        for (name, theorem), flag in zip(THEOREM_SHAPES.items(), flags):
            equal[name] += flag
            mismatches[name] += flag != (shape in theorem)
    return (total, {c.value: shapes[c.value] for c in ShapeClass},
            {c.value: canonical[c.value] for c in ShapeClass},
            {name: equal[name] for name in THEOREM_SHAPES},
            {name: mismatches[name] for name in THEOREM_SHAPES})


def _summary(rep):
    return (rep.total_checked, rep.shape_counts, rep.canonical_shape_counts,
            rep.equality_counts, rep.mismatches)


def _counted_subset_stats(monkeypatch):
    calls = []
    subset_stats = kernels.subset_stats

    def counted(mask, dims):
        calls.append(mask)
        return subset_stats(mask, dims)

    monkeypatch.setattr(kernels, "subset_stats", counted)
    return calls


def _refuses_row_pairs(counts, n):
    # the Loomis-Whitney certificate, made to fail on two cells of one row
    cert = certify.bl_certificate(counts, n)
    if counts.size == 2 and counts.shadow_size == (1, 2):
        return certify.ExactCertificate(
            cert.reduction, cert.lhs_integer + 1, cert.rhs_integer
        )
    return cert


def _passing(certificate):
    """certificate, made to pass on every subset."""
    def passing(counts, n):
        cert = certificate(counts, n)
        return certify.ExactCertificate(cert.reduction, cert.rhs_integer, cert.rhs_integer)
    return passing


class TestCountPath:
    @pytest.mark.parametrize("n,side,max_size", [
        (2, 4, None), (3, 2, None), (2, 5, 5),
        *((2, 3, m) for m in range(1, 10)),
    ])
    def test_agrees_with_per_mask_path(self, n, side, max_size):
        assert _summary(enumerate_rigidity(n, side, max_size)) == _by_mask(n, side, max_size)

    def test_four_by_four_visits_no_masks(self, monkeypatch):
        calls = _counted_subset_stats(monkeypatch)
        rep = enumerate_rigidity(2, 4)
        assert rep.total_checked == 65535
        # the 64 canonical product sets; the histogram scan makes none
        assert len(calls) == 64

    def test_full_five_by_five_closed_forms(self):
        # 2^25 subsets, out of the per-mask path's reach
        rep = enumerate_rigidity(2, 5, budget=1 << 25)
        assert rep.total_checked == (1 << 25) - 1
        assert rep.mismatch_count == 0
        # cuboids C(6,2)^2, squares sum (6-k)^2, product sets (2^5-1)^2
        assert rep.equality_counts == {"gn": 225, "iso": 55, "lw": 961}
        assert rep.shape_counts["CUBE"] == 55
        assert rep.shape_counts["CUBE"] + rep.shape_counts["CUBOID"] == 225

    def test_full_eight_by_eight_closed_forms(self):
        # 2^64 - 1 subsets, the largest count the budget check quotes exactly
        rep = enumerate_rigidity(2, 8, budget=(1 << 64) - 1)
        assert rep.total_checked == (1 << 64) - 1
        assert rep.mismatch_count == 0
        # cuboids C(9,2)^2, squares sum k^2, product sets (2^8-1)^2
        assert rep.equality_counts == {"gn": math.comb(9, 2) ** 2,
                                       "iso": sum(k * k for k in range(1, 9)),
                                       "lw": (2 ** 8 - 1) ** 2}
        assert rep.shape_counts["CUBE"] == 204
        assert rep.shape_counts["CUBE"] + rep.shape_counts["CUBOID"] == 1296

    def test_failing_certificate_gives_the_per_mask_mismatches(self, monkeypatch):
        monkeypatch.setattr(lab, "bl_certificate", _refuses_row_pairs)
        calls = _counted_subset_stats(monkeypatch)
        counted = enumerate_rigidity(2, 4)
        # a failed proof decodes the 64 canonical product sets, no more
        assert len(calls) == 64
        # two cells of one row: C(4,2) pairs in each of 4 rows, all product sets
        assert counted.mismatch_count == 24
        assert counted.mismatches == {"gn": 0, "iso": 0, "lw": 24}
        assert _summary(counted) == _by_mask(2, 4)

    def test_failed_proof_past_the_reach_of_a_mask_visit_ends(self, monkeypatch, capsys):
        # 2^36 - 1 subsets: a visit of every mask would take weeks
        monkeypatch.setattr(lab, "bl_certificate", _refuses_row_pairs)
        start = time.perf_counter()
        rep = enumerate_rigidity(2, 6, budget=1 << 36)
        assert time.perf_counter() - start < 5
        # two cells of one row: C(6,2) pairs in each of 6 rows
        assert rep.mismatches == {"gn": 0, "iso": 0, "lw": 90}
        assert main(["enumerate", "--n", "2", "--box", "6", "--budget", str(1 << 36)]) == 1
        assert '"mismatches": 90,' in capsys.readouterr().out

    @pytest.mark.parametrize("max_size", range(1, 10))
    def test_two_failing_reductions_count_per_reduction(self, max_size, monkeypatch):
        monkeypatch.setattr(lab, "sobolev_certificate", _passing(certify.sobolev_certificate))
        monkeypatch.setattr(lab, "bl_certificate", _refuses_row_pairs)
        rep = enumerate_rigidity(2, 3, max_size)
        assert _summary(rep) == _by_mask(2, 3, max_size)
        # from two cells on, a non-square passes iso and a row pair fails lw
        assert (rep.mismatches["iso"] > 0 and rep.mismatches["lw"] > 0) == (max_size > 1)
        assert rep.mismatch_count == sum(rep.mismatches.values())

    def test_a_subset_failing_two_reductions_counts_twice(self, monkeypatch, capsys):
        # every certificate of iso and lw passes: the 511 - 14 non-squares
        # are iso mismatches, the 511 - 7^2 non-product sets lw ones, and
        # those are non-squares as well
        monkeypatch.setattr(lab, "sobolev_certificate", _passing(certify.sobolev_certificate))
        monkeypatch.setattr(lab, "bl_certificate", _passing(certify.bl_certificate))
        rep = enumerate_rigidity(2, 3)
        assert rep.mismatches == {"gn": 0, "iso": 497, "lw": 462}
        assert main(["enumerate", "--n", "2", "--box", "3"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["mismatches"] == 959
        assert out["mismatches_by_reduction"] == {"gn": 0, "iso": 497, "lw": 462}


OLD_ROWS_HEADER = "set_id,size,shape_class,gn_equal,iso_equal,lw_equal"


def _rebuilt_rows(report_csv, n, side, max_size):
    """The rows of the per-subset report format, in oracle_masks order,
    rebuilt from a group report and each mask's oracle statistics: its
    flags from the rows of its (size, crossings) and (size, shadow sizes)
    keys, its shape from the class row of its canonical translate, NONE if
    there is none.  Asserts that every group counts the subsets it covers
    and that a class row's flags are its keys'."""
    dims = (side,) * n
    st_ = kernels.strides(dims)
    keyed, classes = {}, {}
    for row in csv.DictReader(io.StringIO(report_csv)):
        if row["group"] == "class":
            sets = [map(int, part.split()) for part in row["key"].split("/")]
            mask = sum(1 << sum(c * s for c, s in zip(z, st_)) for z in itertools.product(*sets))
            classes[mask] = row
        else:
            keyed[row["group"], row["size"], row["key"]] = row
    covered = Counter()
    lines = [OLD_ROWS_HEADER]
    for mask in oracle_masks(side ** n, max_size):
        size, crossings, _, proj_min, _, shadow = oracle_subset_stats(mask, dims)
        by_crossings = keyed["crossings", str(size), " ".join(map(str, crossings))]
        by_shadows = keyed["shadows", str(size), " ".join(map(str, shadow))]
        flags = by_crossings["gn_equal"], by_crossings["iso_equal"], by_shadows["lw_equal"]
        covered[id(by_crossings)] += 1
        covered[id(by_shadows)] += 1
        row = classes.get(mask >> sum(m * s for m, s in zip(proj_min, st_)))
        shape = "NONE"
        if row is not None:
            covered[id(row)] += 1
            shape = row["shape_class"]
            assert (row["gn_equal"], row["iso_equal"], row["lw_equal"]) == flags
        lines.append(",".join([str(mask), str(size), shape, *flags]))
    for row in (*keyed.values(), *classes.values()):
        assert covered[id(row)] == int(row["count"]), row
    return "\n".join(lines) + "\n"


def _brute_rows(n, side, max_size):
    """The same rows from each mask's cells, by _visit: the certificates on
    its oracle statistics, and the shape of its coordinate sets."""
    lines = [OLD_ROWS_HEADER]
    for mask, counts, shape, flags in _visit(n, side, max_size):
        lines.append(",".join([str(mask), str(counts.size), shape, *map(str, map(int, flags))]))
    return "\n".join(lines) + "\n"


def _report_csv(n, side, max_size):
    return fileio.rigidity_rows_csv(enumerate_rigidity(n, side, max_size)) + "\n"


class TestRowsFromProof:
    @pytest.mark.parametrize("n,side,max_size", [
        (2, 4, 16), (3, 2, 8), *((2, 3, m) for m in range(1, 10)), (2, 5, 5), (3, 3, 3),
        (2, 5, 2), (3, 3, 2),
    ])
    def test_equal_the_visited_rows(self, n, side, max_size):
        # the per-subset rows, rebuilt from the group report alone, equal
        # those of a visit of every mask
        assert _rebuilt_rows(_report_csv(n, side, max_size), n, side, max_size) == (
            _brute_rows(n, side, max_size))

    def test_four_by_four_rows_visit_no_masks(self, monkeypatch):
        calls = _counted_subset_stats(monkeypatch)
        groups = enumerate_rigidity(2, 4).groups
        assert sum(g.count for g in groups if g.group == "crossings") == 65535
        # the 64 canonical product sets only; visiting would make one per subset
        assert len(calls) == 64
        assert sum(g.group == "class" for g in groups) == 64

    def test_failing_proof_keeps_the_rows(self, monkeypatch, tmp_path, capsys):
        proved = _report_csv(2, 4, 16)
        monkeypatch.setattr(lab, "bl_certificate", _refuses_row_pairs)
        dest = tmp_path / "rows.csv"
        assert main(["enumerate", "--n", "2", "--box", "4", "--report", str(dest)]) == 1
        # the 24 of a visit of every mask (TestCountPath checks them)
        assert '"mismatches": 24,' in capsys.readouterr().out
        # the same rows, but for the faulty flag: the shadows key of two
        # cells of one row, and the class rows of those pairs, {0, k} x {0}
        faulty = {"shadows,1 2,2,24,,,,1", "class,0 1/0,2,12,CUBOID,1,0,1",
                  "class,0 2/0,2,8,PRODUCT_SET,0,0,1", "class,0 3/0,2,4,PRODUCT_SET,0,0,1"}
        rows = dest.read_text().splitlines()
        expected = proved.splitlines()
        assert len(rows) == len(expected)
        for row, want in zip(rows, expected):
            assert row == (re.sub("1$", "0", want) if want in faulty else want)


def _histograms_by_mask(dims, max_size):
    """subset_histograms' counts, one subset_stats call per subset of
    1..max_size cells."""
    by_crossings, by_shadows = Counter(), Counter()
    for size in range(1, max_size + 1):
        for cells in itertools.combinations(range(math.prod(dims)), size):
            mask = sum(1 << c for c in cells)
            _, crossings, _, _, _, shadow = kernels.subset_stats(mask, dims)
            by_crossings[size, crossings] += 1
            by_shadows[size, shadow] += 1
    return by_crossings, by_shadows


def _oracle_histograms(dims, max_size):
    """subset_histograms' counts from oracle_scan, the scan with one dict
    entry per (registers, counters, size) state."""
    starts = oracle_scan(dims, max_size, lines=False)
    return ({(size, tuple(2 * c for c in counters)): count
             for (size, counters), count in starts.items()},
            oracle_scan(dims, max_size, lines=True))


_ORACLE_SCAN_BOXES = [
    *((dims, m) for dims in ((5, 5), (6, 6), (2, 3, 4), (3, 3, 3))
      for m in (1, 2, 5, math.prod(dims))),
    ((60, 60), 1), ((20, 20), 2),
]


class TestSubsetHistograms:
    @pytest.mark.parametrize("dims,max_size", _ORACLE_SCAN_BOXES, ids=[
        "x".join(map(str, dims)) + f"-{m}" for dims, m in _ORACLE_SCAN_BOXES])
    def test_equal_the_dict_scan(self, dims, max_size):
        assert kernels.subset_histograms(dims, max_size) == _oracle_histograms(
            dims, max_size)

    @pytest.mark.parametrize("dims", [(3, 5), (2, 3, 2), (1, 4), (3, 1, 2), (2, 1, 1, 3)])
    def test_count_every_mask(self, dims):
        cells = math.prod(dims)
        for max_size in (1, cells // 2, cells):
            assert kernels.subset_histograms(dims, max_size) == _histograms_by_mask(
                dims, max_size)

    @pytest.mark.parametrize("dims,max_size", [
        ((60, 60), 1), ((4, 4, 4), 2), ((2, 2, 2, 2), 3), ((20, 20), 2),
    ], ids=["60x60-1", "4x4x4-2", "2x2x2x2-3", "20x20-2"])
    def test_single_cells_of_a_wide_box(self, dims, max_size):
        # registers up to 60 cells wide, and states that fill up long before
        # the last cell and leave the scan there
        assert kernels.subset_histograms(dims, max_size) == _histograms_by_mask(
            dims, max_size)

    @pytest.mark.parametrize("dims,max_size", [((2, 2, 2), 8), ((3, 5), 7)])
    def test_scan_decodes_no_masks(self, dims, max_size, monkeypatch):
        def refuse(mask, dims):
            raise AssertionError("subset_stats called by the scan")

        monkeypatch.setattr(kernels, "subset_stats", refuse)
        by_crossings, by_shadows = kernels.subset_histograms(dims, max_size)
        assert sum(by_crossings.values()) == sum(by_shadows.values()) == sum(
            math.comb(math.prod(dims), k) for k in range(1, max_size + 1))

    def test_four_by_four_at_every_size(self):
        by_crossings, by_shadows = _histograms_by_mask((4, 4), 16)
        for max_size in range(1, 17):
            assert kernels.subset_histograms((4, 4), max_size) == tuple(
                {k: v for k, v in counts.items() if k[0] <= max_size}
                for counts in (by_crossings, by_shadows))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=4).filter(
        lambda dims: math.prod(dims) <= 12), st.integers(1, 12))
    def test_count_every_mask_property(self, dims, max_size):
        assert kernels.subset_histograms(dims, max_size) == _histograms_by_mask(
            dims, max_size)

    def test_single_cells_in_closed_form(self):
        # 40 000 cells, far past _histograms_by_mask: each cell is one run
        # and one line per axis
        assert kernels.subset_histograms((200, 200), 1) == (
            {(1, (2, 2)): 40000}, {(1, (1, 1)): 40000})

    def test_pairs_in_closed_form(self):
        k = 30
        pairs, lined = math.comb(k * k, 2), k * math.comb(k, 2)
        # neighbours along an axis make one run there and two across it
        assert kernels.subset_histograms((k, k), 2) == (
            {(1, (2, 2)): k * k, (2, (2, 4)): k * (k - 1), (2, (4, 2)): k * (k - 1),
             (2, (4, 4)): pairs - 2 * k * (k - 1)},
            # two cells on one axis-i line leave one line of it, two of the other
            {(1, (1, 1)): k * k, (2, (1, 2)): lined, (2, (2, 1)): lined,
             (2, (2, 2)): pairs - 2 * lined})

    @pytest.mark.parametrize("dims,max_size", [((3, 2, 2), 12), ((2, 4), 3), ((4, 1), 2)])
    def test_product_sets_are_the_non_none_subsets(self, dims, max_size):
        # one mask per translation class: the one that meets every low face
        listed = dict(kernels.product_sets(dims, max_size))
        expected = {}
        for mask in range(1, 1 << math.prod(dims)):
            stats = kernels.subset_stats(mask, dims)
            if (stats.size <= max_size and not any(stats.proj_min)
                    and classify_counts(stats) is not ShapeClass.NONE):
                cells = oracle_cells(mask, dims)
                sets = tuple(tuple(sorted({z[i] for z in cells})) for i in range(len(dims)))
                expected[sets] = mask
        assert len(listed) == len(list(kernels.product_sets(dims, max_size)))
        assert listed == expected

    def test_one_product_set_per_class(self):
        # the 40 000 single cells are one translation class
        assert list(kernels.product_sets((200, 200), 1)) == [(((0,), (0,)), 1)]


class TestAnnealOracleComparison:
    def test_five_points_cannot_reach_one(self):
        # exhaustive ground truth over a 4x4 box: the best 5-point set
        best, _ = oracle_exhaustive_best_iso(2, 5, 4)
        assert best < 1.0
        # P-pentomino: 2x2 block plus one cell, boundary 10
        p_pent = LatticeSet(2, [(0, 0), (0, 1), (1, 0), (1, 1), (0, 2)])
        assert math.isclose(iso_ratio(p_pent), best, rel_tol=1e-12)
