import json
from fractions import Fraction
from pathlib import Path

import pytest

from latticeineq import (
    Cuboid,
    InvalidInputError,
    LatticeSet,
    SparseFunction,
    check_gn,
    indicator,
)
from latticeineq import fileio
from latticeineq.certify import DEFAULT_TOL, Inequality, check

F = Fraction


class TestFunctionRoundTrip:
    def test_exact_rationals(self):
        f = SparseFunction(2, {(0, 0): F(355, 113), (-3, 7): F(-1, 3), (2, 2): 4})
        assert fileio.function_from_dict(fileio.function_to_dict(f)) == f

    def test_serialized_form(self):
        f = SparseFunction(1, {(2,): F(1, 2)})
        assert fileio.function_to_dict(f) == {
            "dim": 1,
            "entries": [{"z": [2], "v": "1/2"}],
        }

    def test_decimal_strings_parse_exactly(self):
        f = fileio.function_from_dict(
            {"dim": 1, "entries": [{"z": [0], "v": "0.1"}, {"z": [1], "v": "-2.5"}]}
        )
        assert f.value((0,)) == F(1, 10)
        assert f.value((1,)) == F(-5, 2)

    def test_integer_values_accepted(self):
        f = fileio.function_from_dict({"dim": 1, "entries": [{"z": [0], "v": 3}]})
        assert f.value((0,)) == 3

    def test_float_values_rejected(self):
        with pytest.raises(InvalidInputError):
            fileio.function_from_dict({"dim": 1, "entries": [{"z": [0], "v": 0.1}]})

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            fileio.function_from_dict({"dim": 2, "entries": [{"z": [0], "v": "1"}]})

    def test_bad_dim_rejected(self):
        with pytest.raises(InvalidInputError):
            fileio.function_from_dict({"dim": 0, "entries": []})


class TestSetRoundTrip:
    def test_round_trip(self):
        A = LatticeSet(3, [(0, 0, 0), (1, -2, 3)])
        assert fileio.set_from_dict(fileio.set_to_dict(A)) == A

    def test_points_sorted_in_output(self):
        A = LatticeSet(2, [(1, 0), (0, 5), (0, 1)])
        assert fileio.set_to_dict(A)["points"] == [[0, 1], [0, 5], [1, 0]]


class TestLoadInput(object):
    def test_detects_function(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"dim": 2, "entries": [{"z": [0, 0], "v": "1"}]}),
                        encoding="utf-8")
        assert isinstance(fileio.load_input(str(path)), SparseFunction)

    def test_detects_set(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text(json.dumps({"dim": 2, "points": [[0, 0]]}), encoding="utf-8")
        assert isinstance(fileio.load_input(str(path)), LatticeSet)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(InvalidInputError):
            fileio.load_input(str(path))

    def test_duplicate_set_points_merge(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text(json.dumps({"dim": 2, "points": [[0, 1], [0, 1], [2, 0]]}),
                        encoding="utf-8")
        assert fileio.load_input(str(path)) == LatticeSet(2, [(0, 1), (2, 0)])

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"dim": 2}), encoding="utf-8")
        with pytest.raises(InvalidInputError):
            fileio.load_input(str(path))


class TestOneValidator:
    """Core validates what a file holds: a file and the API refuse the same
    bad point, value or dim with the same message, and each entry is
    checked once."""

    @pytest.mark.parametrize("dim,entries", [
        (2, [([0], "1")]),                # point of the wrong length
        (2, [([0, "1"], "1")]),           # non-integer coordinate
        (2, [(5, "1")]),                  # point that is not a sequence
        (2, [([0, 0], 0.5)]),             # float value
        (2, [([0, 0], "1e99999")]),       # exponent over the digit limit
        (2, [([0, 0], [1])]),             # list value
        (0, []), (True, []), (None, []),  # bad or missing dim
    ])
    def test_file_and_api_refuse_alike(self, dim, entries, tmp_path):
        payload = {"entries": [{"z": z, "v": v} for z, v in entries]}
        if dim is not None:
            payload["dim"] = dim
        path = tmp_path / "f.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(InvalidInputError) as from_file:
            fileio.load_input(str(path))
        with pytest.raises(InvalidInputError) as from_api:
            SparseFunction(dim, entries)
        assert str(from_file.value) == str(from_api.value)

    @pytest.mark.parametrize("dim,points", [
        (2, [[0]]), (2, [[0, 0.5]]), (2, [7]), (-1, []), (False, []),
    ])
    def test_set_file_and_api_refuse_alike(self, dim, points, tmp_path):
        path = tmp_path / "a.json"
        path.write_text(json.dumps({"dim": dim, "points": points}), encoding="utf-8")
        with pytest.raises(InvalidInputError) as from_file:
            fileio.load_input(str(path))
        with pytest.raises(InvalidInputError) as from_api:
            LatticeSet(dim, points)
        assert str(from_file.value) == str(from_api.value)

    @staticmethod
    def _count_validators(monkeypatch):
        """Wrap every binding of the point checks and the value parser; a
        bulk point test counts the points it covers."""
        import latticeineq.core as core

        calls = {"as_ratio": 0, "_check_point": 0, "_bulk_points": []}
        for name in calls:
            def counted(*args, _original=getattr(core, name), _name=name):
                if _name == "_bulk_points":
                    calls[_name].append(len(args[1]))
                else:
                    calls[_name] += 1
                return _original(*args)
            # every binding of the name, so a second validator would be counted
            for module in (core, fileio):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted)
        return calls

    def test_each_entry_checked_once(self, tmp_path, monkeypatch):
        n = 25
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"dim": 2, "entries": [
            {"z": [k, -k], "v": f"{k + 1}/7"} for k in range(n)]}), encoding="utf-8")
        calls = self._count_validators(monkeypatch)
        f = fileio.load_input(str(path))
        assert f.support_size() == n
        # one bulk test covers every point, and no point is walked
        assert calls == {"as_ratio": n, "_check_point": 0, "_bulk_points": [n]}

    def test_each_distinct_value_string_parsed_once(self, tmp_path, monkeypatch):
        n, values = 25, ["1/2", "-3", "0.25"]
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"dim": 2, "entries": [
            {"z": [k, k % 4], "v": values[k % 3]} for k in range(n)]}), encoding="utf-8")
        calls = self._count_validators(monkeypatch)
        f = fileio.load_input(str(path))
        assert f.support_size() == n
        assert calls == {"as_ratio": 3, "_check_point": 0, "_bulk_points": [n]}
        assert f.value((3, 3)) == F(1, 2) and f.value((4, 0)) == -3

    def test_a_failed_bulk_test_walks_to_the_first_fault(self, tmp_path, monkeypatch):
        n = 25
        entries = [{"z": [k, -k], "v": "1/2"} for k in range(n)]
        entries[7]["v"] = "x"
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"dim": 2, "entries": entries}), encoding="utf-8")
        calls = self._count_validators(monkeypatch)
        with pytest.raises(InvalidInputError, match="^cannot parse rational value 'x'$"):
            fileio.load_input(str(path))
        # the bulk parse of "1/2" and "x", then the walk over entries 0..7
        assert calls == {"as_ratio": 10, "_check_point": 8, "_bulk_points": [n]}


class TestTypeConfusion:
    """A bool is not an int here, though True == 1 and they hash alike: a
    value or coordinate of JSON true is refused wherever it stands."""

    @pytest.mark.parametrize("payload,message", [
        ({"dim": 2, "entries": [{"z": [0, 0], "v": 1}, {"z": [1, 0], "v": True}]},
         "boolean is not a lattice value"),
        ({"dim": 2, "entries": [{"z": [0, 0], "v": "1/2"}, {"z": [1, 0], "v": True}]},
         "boolean is not a lattice value"),
        ({"dim": 2, "entries": [{"z": [0, 0], "v": "1"}, {"z": [1, True], "v": "1"}]},
         "point [1, True] has a non-integer coordinate"),
        ({"dim": 2, "entries": [{"z": [0, 0], "v": "1"}, {"z": [0, 1.0], "v": "1"}]},
         "point [0, 1.0] has a non-integer coordinate"),
        ({"dim": 2, "entries": [{"z": [0, 0], "v": "1"}, {"z": [1], "v": "1"}]},
         "point [1] does not have dimension 2"),
        ({"dim": 2, "points": [[0, 0], [1, True]]},
         "point [1, True] has a non-integer coordinate"),
        ({"dim": 2, "points": [[0, 0], [0, 1.0]]},
         "point [0, 1.0] has a non-integer coordinate"),
        ({"dim": 2, "points": [[0, 0], [1, 2, 3]]},
         "point [1, 2, 3] does not have dimension 2"),
    ])
    def test_refused_with_exit_2(self, payload, message, tmp_path, capsys):
        from latticeineq.cli import main

        path = tmp_path / "f.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["check", "--input", str(path)]) == 2
        assert capsys.readouterr().err == f"invalid input: {message}\n"


class TestProgramMadeSets:
    """Only outside input goes through the point checks (core._bulk_points
    and core._check_point): a set the program builds from its own cells is
    not checked again, while a loaded file has its points tested once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        import latticeineq.core as core

        seen = []
        for name in ("_bulk_points", "_check_point"):
            def counted(*args, _original=getattr(core, name), _name=name):
                seen.append((_name, args))
                return _original(*args)
            monkeypatch.setattr(core, name, counted)
        return seen

    def test_cuboid_points_and_indicator(self, calls):
        box = Cuboid(((0, 3), (-1, 4)))
        assert len(box.points()) == 24
        assert indicator(box, 2).support_size() == 24
        assert calls == []

    def test_translate_checks_only_the_shift(self, calls):
        A = Cuboid(((0, 3), (-1, 4))).points()
        assert len(A.translate([2, -1])) == 24
        assert calls == [("_check_point", (2, (2, -1)))]

    def test_fuzz_instance_and_anneal(self, calls):
        import random

        from latticeineq import anneal_sets
        from latticeineq.fuzzing import run_instance

        run_instance(1, 0, 2, 4, 0.4, 64, 1e-9, random.Random())
        assert len(anneal_sets(2, 9, iters=200, seed=0).best_input) == 9
        assert calls == []

    def test_set_file_checks_each_point_once(self, calls, tmp_path):
        path = tmp_path / "a.json"
        points = [[k, -k] for k in range(7)]
        path.write_text(json.dumps({"dim": 2, "points": points}), encoding="utf-8")
        assert len(fileio.load_input(str(path))) == 7
        assert calls == [("_bulk_points", (2, points))]


class TestReportSerialization:
    def test_csv_row(self):
        report = check_gn(indicator(Cuboid(((0, 1), (0, 2)))))
        row = fileio.report_csv_row(report)
        fields = row.split(",")
        assert fields[0] == "GN"
        assert fields[1] == "2"
        assert fields[2] == ""  # no p
        assert fields[3] == "2.4494897427831779"  # 17 significant digits
        assert fields[6] == "EXACT_EQUAL"
        assert fields[7] == "CUBOID"

    def test_json_includes_certificate(self):
        report = check_gn(indicator(Cuboid(((0, 1), (0, 2)))))
        obj = fileio.report_to_dict(report)
        assert obj["exact_certificate"] == {
            "reduction": "GN_CUBOID",
            "lhs_integer": "24",
            "rhs_integer": "24",
            "equal": True,
        }

    def test_float_formatting(self):
        assert fileio.format_float(1.0) == "1"
        assert fileio.format_float(2.449489742783178) == "2.4494897427831779"


GOLDEN = Path(__file__).parent / "golden"

# (input file, --normalize, its golden `check --ineq all` outputs)
CHECK_GOLDENS = [
    ("mixed_function.json", True,
     ("check_mixed_all_normalize.json", "check_mixed_all_normalize.csv")),
    ("set_3d.json", False, ("check_set3d_all.json", "check_set3d_all.csv")),
    ("square_2d.json", False, ("check_square2d_all_exact.json",)),
]
DOCUMENTS = [(name, normalize, golden)
             for name, normalize, goldens in CHECK_GOLDENS for golden in goldens]


def _golden_reports(name, normalize):
    obj = fileio.load_input(str(GOLDEN / name))
    return [check(ineq, obj, Fraction(2), DEFAULT_TOL, normalize) for ineq in Inequality]


LABELLED = [(f"{name.removesuffix('.json')}-{r.inequality.value}", r)
            for name, normalize, _ in CHECK_GOLDENS
            for r in _golden_reports(name, normalize)]
ALL_REPORTS = [r for _, r in LABELLED]
REPORT_IDS = [label for label, _ in LABELLED]


class TestReportFields:
    """REPORT_FIELDS is the one spelling of a report's columns."""

    def test_reports_cover_every_kind_of_value(self):
        for absent in ("p", "exact_certificate", "extremal_class"):
            values = {getattr(r, absent) is None for r in ALL_REPORTS}
            assert values == {True, False}, absent

    @pytest.mark.parametrize("report", ALL_REPORTS, ids=REPORT_IDS)
    def test_json_keys_open_with_the_fields(self, report):
        keys = list(fileio.report_to_dict(report))
        assert tuple(keys[:len(fileio.REPORT_FIELDS)]) == fileio.REPORT_FIELDS
        assert set(keys[len(fileio.REPORT_FIELDS):]) <= {"exact_certificate", "input_echo"}

    @pytest.mark.parametrize("report", ALL_REPORTS, ids=REPORT_IDS)
    def test_csv_cells_are_the_json_values_formatted(self, report):
        obj = fileio.report_to_dict(report)
        cells = fileio.report_csv_row(report).split(",")
        assert len(cells) == len(fileio.REPORT_FIELDS)
        for name, cell in zip(fileio.REPORT_FIELDS, cells):
            value = obj[name]
            if value is None:
                assert cell == "", name
            elif isinstance(value, float):
                assert cell == fileio.format_float(value), name
            else:
                assert cell == str(value), name

    def test_csv_header_is_the_fields(self):
        lines = fileio.reports_text(ALL_REPORTS[:1], DEFAULT_TOL, "csv").splitlines()
        assert lines[1].split(",") == list(fileio.REPORT_FIELDS)

    @pytest.mark.parametrize("name,normalize,golden", DOCUMENTS,
                             ids=[golden for *_, golden in DOCUMENTS])
    def test_document_matches_the_golden(self, name, normalize, golden):
        fmt = golden.rsplit(".", 1)[1]
        text = fileio.reports_text(_golden_reports(name, normalize), DEFAULT_TOL, fmt)
        assert (text + "\n").encode() == (GOLDEN / golden).read_bytes()
