import json
import os
import shlex
import time
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from latticeineq.cli import build_parser, main

RECT23 = {
    "dim": 2,
    "entries": [
        {"z": [x, y], "v": "1"} for x in (0, 1) for y in (0, 1, 2)
    ],
}


def gn_over_its_bound(monkeypatch):
    """Make certify's GN certificate read lhs + 1 vs rhs: on a cuboid, where
    the two are equal, a violated theorem."""
    import latticeineq.certify as certify

    gn_certificate = certify.gn_certificate

    def over(counts, n):
        cert = gn_certificate(counts, n)
        return certify.ExactCertificate(cert.reduction, cert.lhs_integer + 1, cert.rhs_integer)

    monkeypatch.setattr(certify, "gn_certificate", over)


@pytest.fixture
def rect_file(tmp_path):
    path = tmp_path / "rect23.json"
    path.write_text(json.dumps(RECT23), encoding="utf-8")
    return str(path)


class TestCheckCommand:
    def test_rect_csv_scenario(self, rect_file, capsys):
        code = main(["check", "--input", rect_file,
                     "--ineq", "gn,sobolev,iso,lw", "--format", "csv"])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert out[0].startswith("# tol=")
        assert out[1] == "inequality,n,p,lhs,rhs,deficit,relation,extremal_class"
        rows = [line.split(",") for line in out[2:]]
        assert [r[0] for r in rows] == ["GN", "SOBOLEV", "ISOPERIMETRIC", "LW"]
        relations = {r[0]: r[6] for r in rows}
        assert relations == {
            "GN": "EXACT_EQUAL",
            "SOBOLEV": "STRICT",
            "ISOPERIMETRIC": "STRICT",
            "LW": "EXACT_EQUAL",
        }

    def test_zero_function_exit_2(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"dim": 2, "entries": []}), encoding="utf-8")
        code = main(["check", "--input", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "degenerate input" in err and "zero function" in err

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{oops", encoding="utf-8")
        assert main(["check", "--input", str(path)]) == 2
        assert "invalid input" in capsys.readouterr().err

    def test_dimension_mismatch_exit_2(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"dim": 2, "entries": [{"z": [0], "v": "1"}]}),
                        encoding="utf-8")
        assert main(["check", "--input", str(path)]) == 2
        assert "dimension" in capsys.readouterr().err

    def test_n1_rejected_with_hypothesis_message(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"dim": 1, "entries": [{"z": [0], "v": "1"}]}),
                        encoding="utf-8")
        assert main(["check", "--input", str(path)]) == 2
        assert ">= 2" in capsys.readouterr().err

    def test_bad_tol_exit_2(self, rect_file, capsys):
        assert main(["check", "--input", rect_file, "--tol", "-1"]) == 2
        assert "tol" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tol_exit_2(self, tol, rect_file, capsys):
        for argv in (["check", "--input", rect_file],
                     ["fuzz", "--count", "2", "--n", "2"],
                     ["table", "--n", "2", "--max-side", "2"]):
            assert main(argv + ["--tol", tol]) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "", argv
            assert captured.err == f"invalid input: tol must be finite and positive, got {tol}\n"

    def test_signed_function_default_selection(self, tmp_path, capsys):
        path = tmp_path / "signed.json"
        path.write_text(json.dumps({
            "dim": 2,
            "entries": [{"z": [0, 0], "v": "1"}, {"z": [1, 0], "v": "-1"}],
        }), encoding="utf-8")
        code = main(["check", "--input", str(path)])
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        names = [r["inequality"] for r in obj["reports"]]
        assert names == ["GN", "SOBOLEV", "ISOPERIMETRIC", "LW"]

    @pytest.mark.parametrize("payload,args,expected", [
        ({"dim": 2, "points": [[0, 0], [2, 1]]}, [],
         ["GN", "SOBOLEV", "ISOPERIMETRIC", "BL", "LW"]),
        ({"dim": 2, "points": [[0, 0], [2, 1]]}, ["--normalize"],
         ["GN", "SOBOLEV", "ISOPERIMETRIC", "BL", "LW"]),
        ({"dim": 2, "entries": [{"z": [0, 0], "v": "2"}, {"z": [3, 1], "v": "1"}]}, [],
         ["GN", "SOBOLEV", "ISOPERIMETRIC", "BL", "LW"]),
        ({"dim": 2, "entries": [{"z": [0, 0], "v": "2"}, {"z": [3, 1], "v": "1"}]},
         ["--normalize"],
         ["GN", "SOBOLEV", "ISOPERIMETRIC", "LOG_SOBOLEV_DIR", "LOG_SOBOLEV",
          "BL", "LOG_BL", "LW"]),
    ], ids=["set", "set-normalize", "nonnegative", "nonnegative-normalize"])
    def test_default_selection(self, payload, args, expected, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["check", "--input", str(path)] + args) == 0
        obj = json.loads(capsys.readouterr().out)
        assert [r["inequality"] for r in obj["reports"]] == expected

    def test_bl_on_signed_function_domain_error(self, tmp_path, capsys):
        path = tmp_path / "signed.json"
        path.write_text(json.dumps({
            "dim": 2,
            "entries": [{"z": [0, 0], "v": "1"}, {"z": [1, 0], "v": "-1"}],
        }), encoding="utf-8")
        assert main(["check", "--input", str(path), "--ineq", "bl"]) == 2
        assert "domain error" in capsys.readouterr().err

    def test_set_input_runs_all_checks_normalized(self, tmp_path, capsys):
        path = tmp_path / "set.json"
        path.write_text(json.dumps({"dim": 2, "points": [[0, 0], [0, 1], [1, 0], [1, 1]]}),
                        encoding="utf-8")
        code = main(["check", "--input", str(path), "--ineq", "all"])
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        relations = {r["inequality"]: r["relation"] for r in obj["reports"]}
        # 2x2 cube: everything is an equality case
        assert set(relations.values()) == {"EXACT_EQUAL"}

    def test_exact_flag_requires_certificate(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({
            "dim": 2,
            "entries": [{"z": [0, 0], "v": "2"}, {"z": [1, 0], "v": "1"}],
        }), encoding="utf-8")
        assert main(["check", "--input", str(path), "--ineq", "gn", "--exact"]) == 2
        assert "certificate" in capsys.readouterr().err

    def test_unknown_ineq_exit_2(self, rect_file, capsys):
        assert main(["check", "--input", rect_file, "--ineq", "nope"]) == 2
        assert "unknown inequality" in capsys.readouterr().err

    def test_byte_stable_output(self, rect_file, capsys):
        main(["check", "--input", rect_file, "--format", "csv", "--ineq", "all",
              "--normalize"])
        first = capsys.readouterr().out
        main(["check", "--input", rect_file, "--format", "csv", "--ineq", "all",
              "--normalize"])
        second = capsys.readouterr().out
        assert first == second

    def test_out_file(self, rect_file, tmp_path):
        dest = tmp_path / "report.json"
        code = main(["check", "--input", rect_file, "--out", str(dest)])
        assert code == 0
        obj = json.loads(dest.read_text(encoding="utf-8"))
        assert obj["tol"] == 1e-9
        assert obj["reports"]

    def test_out_file_opened_as_utf8(self, tmp_path):
        # with the default-encoding warning raised as an error, an --out file
        # opened in the locale's encoding would end in an internal error
        import subprocess

        dest = tmp_path / "t.csv"
        proc = subprocess.run(
            [sys.executable, "-W", "error::EncodingWarning", "-m", "latticeineq.cli",
             "table", "--n", "2", "--max-side", "3", "--out", str(dest)],
            capture_output=True, encoding="utf-8", timeout=60,
            env={**os.environ, "PYTHONWARNDEFAULTENCODING": "1"},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "" and proc.stderr == ""
        assert dest.read_text(encoding="utf-8").count("\n") > 2


class TestFuzzCommand:
    def test_small_fuzz(self, capsys):
        code = main(["fuzz", "--count", "60", "--n", "2", "--seed", "42"])
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["violations"] == 0
        assert obj["count"] == 60
        assert obj["per_inequality"]["GN"]["count"] == 60

    @pytest.mark.parametrize("threads", ["-3", "0"])
    def test_bad_thread_flag_exit_2(self, threads, capsys):
        assert main(["fuzz", "--count", "2", "--n", "2", "--threads", threads]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("invalid input: --threads")
        assert captured.err.count("\n") == 1
        assert captured.out == ""


class TestArgumentRejections:
    @pytest.mark.parametrize("argv,err", [
        ("fuzz --count 2 --n 2 --window 0", "invalid input: window side must be >= 1"),
        ("fuzz --count 2 --n 2 --denominator 0", "invalid input: denominator must be >= 1"),
        ("enumerate --n 1 --box 2",
         "invalid input: enumeration needs ambient dimension >= 2"),
        ("enumerate --n 2 --box 0", "invalid input: box side must be >= 1"),
        ("enumerate --n 2 --box 2 --max-size 0", "invalid input: max size must be >= 1"),
    ])
    def test_exit_2_with_one_line(self, argv, err, capsys):
        assert main(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.err == err + "\n"
        assert captured.out == ""

    def test_empty_ineq_selection_exit_2(self, rect_file, capsys):
        assert main(["check", "--input", rect_file, "--ineq", ","]) == 2
        captured = capsys.readouterr()
        assert captured.err == "invalid input: empty --ineq selection\n"
        assert captured.out == ""

    def test_out_into_missing_directory_exit_2(self, rect_file, tmp_path, capsys):
        dest = tmp_path / "missing" / "out.json"
        assert main(["check", "--input", rect_file, "--out", str(dest)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("io error: ") and str(dest) in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not dest.parent.exists()


class TestSearchCommand:
    def test_anneal(self, capsys):
        code = main(["search", "--mode", "anneal", "--n", "2", "--size", "4",
                     "--iters", "20000", "--seed", "1"])
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["objective"] == "ISO_RATIO"
        assert obj["best_value"] == 1.0  # 2x2 cube
        assert obj["seed"] == 1

    def test_anneal_needs_size(self, capsys):
        assert main(["search", "--mode", "anneal", "--n", "2"]) == 2
        assert "--size" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,message", [
        ("--t0", "0", "t0"), ("--t0", "-1", "t0"), ("--t0", "nan", "t0"),
        ("--t0", "inf", "t0"), ("--alpha", "0", "alpha"),
        ("--alpha", "1.5", "alpha"), ("--alpha", "nan", "alpha"),
        ("--box-side", "-3", "box side"), ("--iters", "-5", "iters"),
        ("--n", "1", "annealing needs ambient dimension >= 2"),
        ("--size", "0", "set size must be >= 1"),
        ("--box-side 2 --size", "5", "box 2^2 cannot hold 5 points"),
        # later options override the base command's, so these run ascend
        ("--mode ascend --window-side 2 --iters", "-5", "iters"),
        ("--mode", "ascend", "--window-side is required for --mode ascend"),
    ])
    def test_anneal_rejects_bad_parameters(self, flag, value, message, capsys):
        code = main(["search", "--mode", "anneal", "--n", "2", "--size", "9",
                     "--iters", "3", "--seed", "0", *flag.split(), value])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("invalid input: " + message)
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_ascend(self, capsys):
        code = main(["search", "--mode", "ascend", "--n", "2",
                     "--window-side", "2", "--iters", "300", "--seed", "0",
                     "--start", "indicator"])
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["best_value"] == 1.0
        assert obj["iterations"] == 0


class TestEnumerateCommand:
    def test_small_box_with_report(self, tmp_path, capsys):
        dest = tmp_path / "rows.csv"
        code = main(["enumerate", "--n", "2", "--box", "2", "--report", str(dest)])
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["total_checked"] == 15
        assert obj["mismatches"] == 0
        lines = dest.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "group,key,size,count,shape_class,gn_equal,iso_equal,lw_equal"
        # 6 keys of each histogram, and the 4 classes S x T with 0 in S and T
        assert [line.split(",")[0] for line in lines[1:]] == (
            ["crossings"] * 6 + ["shadows"] * 6 + ["class"] * 4)
        assert lines[1] == "crossings,2 2,1,4,,1,1,"
        assert lines[-1] == "class,0 1/0 1,4,1,CUBE,1,1,1"

    def test_wide_box_report_is_three_rows(self, tmp_path, capsys):
        # 40 000 one-cell subsets, one key of each histogram and one class
        dest = tmp_path / "rows.csv"
        start = time.perf_counter()
        code = main(["enumerate", "--n", "2", "--box", "200", "--max-size", "1",
                     "--report", str(dest)])
        assert time.perf_counter() - start < 2
        assert code == 0, capsys.readouterr().err
        assert dest.read_text(encoding="utf-8") == (
            "group,key,size,count,shape_class,gn_equal,iso_equal,lw_equal\n"
            "crossings,2 2,1,40000,,1,1,\n"
            "shadows,1 1,1,40000,,,,1\n"
            "class,0/0,1,40000,CUBE,1,1,1\n")
        assert dest.stat().st_size < 1024

    def test_wide_box_small_size_at_default_budget(self, capsys):
        # 40 000 cells: one translation class of product sets to list
        assert main(["enumerate", "--n", "2", "--box", "200", "--max-size", "1"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["total_checked"] == 40000
        assert obj["mismatches"] == 0
        assert obj["equality_counts"] == {"gn": 40000, "iso": 40000, "lw": 40000}

    def test_budget_exceeded_exit_2(self, capsys):
        assert main(["enumerate", "--n", "2", "--box", "4", "--budget", "10"]) == 2
        err = capsys.readouterr().err
        assert "65535" in err

    @pytest.mark.parametrize("budget", ["-5", "0"])
    def test_budget_below_one_exit_2(self, budget, capsys):
        assert main(["enumerate", "--n", "2", "--box", "3", "--budget", budget]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"invalid input: budget must be >= 1, got {budget}\n"
        assert captured.out == ""

    def test_budget_refusal_writes_no_report(self, tmp_path, capsys):
        # the report is written once the run has ended, which a refused run never does
        dest = tmp_path / "rows.csv"
        args = ["enumerate", "--n", "2", "--box", "4", "--budget", "10", "--report", str(dest)]
        assert main(args) == 2
        assert "65535" in capsys.readouterr().err
        assert not dest.exists()

    def test_many_binomials_refused_at_once(self, capsys):
        # 10^6 cells, subsets of up to 16000: counting stops past 2^64
        args = ["enumerate", "--n", "2", "--box", "1000", "--max-size", "16000"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: enumeration would visit at least ")
        assert err.count("\n") == 1

    def test_huge_box_refused_in_bounded_memory(self):
        # 2^36 cells: the full subset count would be a 2^36-bit integer (8 GiB)
        import resource
        import subprocess
        import sys

        def limit_memory():
            cap = 3 << 29  # 1.5 GiB of address space, this child only
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        proc = subprocess.run(
            [sys.executable, "-m", "latticeineq.cli", "enumerate", "--n", "2",
             "--box", "262144"],
            capture_output=True, encoding="utf-8", preexec_fn=limit_memory, timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert "at least" in proc.stderr and proc.stderr.count("\n") == 1


class TestHugeBoxes:
    @pytest.mark.parametrize("args,refusal", [
        ("fuzz --n 30 --count 1", "fuzz window of 5^30"),
        ("search --mode anneal --n 40 --size 5", "annealing box of 5^40"),
        ("search --mode ascend --n 30 --window-side 3 --iters 1",
         "ascent window of 3^30"),
        ("table --n 30 --max-side 2", "table of 3^30"),
        # a side-1 box has one cell, but its points are n-tuples
        ("table --n 1000000000 --max-side 1", "table of dimension 1000000000"),
        ("enumerate --n 1000000000 --box 1", "enumeration box of dimension 1000000000"),
        ("fuzz --n 1000000000 --window 1 --count 1",
         "fuzz window of dimension 1000000000"),
        ("search --mode ascend --n 1000000000 --window-side 1",
         "ascent window of dimension 1000000000"),
        ("search --mode anneal --n 1000000000 --size 5",
         "annealing box of 5^1000000000"),
    ])
    def test_refused_up_front(self, args, refusal):
        # run in a child with bounded memory and time: without the limit
        # these fill the memory or run for hours
        import resource
        import subprocess
        import sys

        def limit_memory():
            cap = 3 << 29  # 1.5 GiB of address space, this child only
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        proc = subprocess.run(
            [sys.executable, "-m", "latticeineq.cli", *args.split()],
            capture_output=True, encoding="utf-8", preexec_fn=limit_memory, timeout=30,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        if "dimension" in refusal:
            limit = "is over the limit of dimension 64"
        else:
            limit = "cells is over the limit of 1048576 cells"
        assert proc.stderr == f"invalid input: {refusal} {limit}\n"


SET2 = {"dim": 2, "points": [[0, 0], [0, 1]]}


def _function(dim=2, **entry):
    return {"dim": dim, "entries": [dict({"z": [0, 0], "v": "1"}, **entry)]}


class TestMalformedInput:
    """Every malformed input exits 2 with one stderr line, in bounded time
    and memory: each case runs in a child under a 1.5 GiB address-space
    limit and a 10 s timeout."""

    @pytest.mark.parametrize("content,args,message", [
        (b"\xff\xfe{}", "", "malformed JSON in {path}: 'utf-8' codec can't decode "
         "byte 0xff in position 0: invalid start byte"),
        (b'{"dim": 2, "entries": [{"z": [0, 0], "v": ' + b"9" * 5000 + b"}]}", "",
         "malformed JSON in {path}: Exceeds the limit (4300 digits) for integer "
         "string conversion: value has 5000 digits; use sys.set_int_max_str_digits() "
         "to increase the limit"),
        (b"[" * 200_000, "", "malformed JSON in {path}: nested too deeply"),
        (_function(v="1e2000000000"), "",
         "decimal exponent of '1e2000000000' is over the limit of 4300"),
        (SET2, "--ineq logbl --p 1e2000000000",
         "invalid p: decimal exponent of '1e2000000000' is over the limit of 4300"),
        (SET2, "--ineq logbl --p 1e-2000000000",
         "invalid p: decimal exponent of '1e-2000000000' is over the limit of 4300"),
        (None, "table --n 2 --max-side 2 --p 1e2000000000",
         "invalid p: decimal exponent of '1e2000000000' is over the limit of 4300"),
        (SET2, "--p x", "invalid p: cannot parse rational value 'x'"),
        (_function(z=5), "", "point 5 does not have dimension 2"),
        (_function(z=[0]), "", "point [0] does not have dimension 2"),
        (_function(z=[0, "1"]), "", "point [0, '1'] has a non-integer coordinate"),
        (_function(v=0.5), "",
         'float value 0.5 is not exact; write it as a string ("p/q" or decimal)'),
        (_function(v=[1]), "",
         "expected an exact rational (int, Fraction or string), got list"),
        (_function(dim=0), "", "dimension must be a positive integer, got 0"),
        (_function(dim=True), "", "dimension must be a positive integer, got True"),
        ({"entries": []}, "", "dimension must be a positive integer, got None"),
        ({"dim": 2, "entries": {"z": [0, 0], "v": "1"}}, "",
         "field 'entries' must be a list"),
        ({"dim": 2, "entries": [{"z": [0, 0]}]}, "",
         "entry {'z': [0, 0]} must have fields 'z' and 'v'"),
        ({"dim": 2, "points": "[[0, 0]]"}, "", "field 'points' must be a list"),
        ({"dim": 2, "points": [7]}, "", "point 7 does not have dimension 2"),
    ], ids=[
        "non-utf8", "5000-digit-int", "deep-nesting", "huge-value-exponent",
        "huge-p-exponent", "tiny-p-exponent", "table-huge-p-exponent", "bad-p",
        "int-z", "short-z", "string-coordinate", "float-v", "list-v", "dim-0",
        "dim-true", "dim-missing", "entries-not-list", "entry-without-v",
        "points-not-list", "int-point",
    ])
    def test_exit_2_with_one_line(self, content, args, message, tmp_path):
        import resource
        import subprocess
        import sys

        def limit_memory():
            cap = 3 << 29  # 1.5 GiB of address space, this child only
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        path = tmp_path / "in.json"
        if content is None:
            argv = args.split()
        else:
            path.write_bytes(content if isinstance(content, bytes)
                             else json.dumps(content).encode())
            argv = ["check", "--input", str(path), *args.split()]
        proc = subprocess.run(
            [sys.executable, "-m", "latticeineq.cli", *argv],
            capture_output=True, encoding="utf-8", preexec_fn=limit_memory, timeout=10,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr == f"invalid input: {message.replace('{path}', str(path))}\n"

    @pytest.mark.parametrize("dim", [65, 30_000])
    @pytest.mark.parametrize("kind", ["set", "function"])
    def test_dimension_over_the_cap(self, kind, dim, tmp_path):
        # files valid but for their dimension, run as the cases above
        points = [[0] * dim, [1] + [0] * (dim - 1)]
        content = ({"dim": dim, "points": points} if kind == "set" else
                   {"dim": dim, "entries": [{"z": z, "v": "1"} for z in points]})
        self.test_exit_2_with_one_line(
            content, "--ineq all",
            f"input of dimension {dim} is over the limit of dimension 64", tmp_path)


class TestParserReuse:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_same_result_around_an_argparse_error(self, rect_file, capsys):
        argv = ["check", "--input", rect_file, "--format", "csv", "--ineq", "all",
                "--normalize"]
        assert main(argv) == 0
        first = capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["check", "--input", rect_file, "--format", "xml"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        # another subcommand's options must not leak into the next call
        assert main(["table", "--n", "2", "--max-side", "2", "--p", "3"]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr() == first


class TestReadmeExamples:
    def test_cli_block_parses(self):
        # the code block of the README's CLI section, one command a line
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        commands = [shlex.split(line, comments=True) for line in block.splitlines()]
        assert all(argv[0] == "latticeineq" for argv in commands)
        for argv in commands:
            build_parser().parse_args(argv[1:])
        assert {argv[1] for argv in commands} == {
            "check", "fuzz", "enumerate", "search", "table"}


class TestTableCommand:
    def test_nine_rows_all_gn_equal(self, capsys):
        code = main(["table", "--n", "2", "--max-side", "3", "--ineq", "gn,iso"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[1].split(",")
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 9
        gn_rel = header.index("gn_relation")
        iso_rel = header.index("iso_relation")
        assert all(r[gn_rel] == "EXACT_EQUAL" for r in rows)
        iso_by_sides = {r[0]: r[iso_rel] for r in rows}
        for sides, rel in iso_by_sides.items():
            a, b = sides.split("x")
            assert rel == ("EXACT_EQUAL" if a == b else "STRICT")

    def test_dedup_six_rows(self, capsys):
        code = main(["table", "--n", "2", "--max-side", "3", "--dedup"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) - 2 == 6

    def test_three_dim_certificates(self, capsys):
        code = main(["table", "--n", "3", "--max-side", "2", "--ineq", "gn"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[1].split(",")
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 8
        lhs_i = header.index("gn_cert_lhs")
        rhs_i = header.index("gn_cert_rhs")
        for r in rows:
            assert r[lhs_i] == r[rhs_i] != ""

    def test_all_columns_header(self, capsys):
        assert main(["table", "--n", "2", "--max-side", "2", "--ineq", "all"]) == 0
        header = capsys.readouterr().out.splitlines()[1]
        prefixes = ["gn", "sobolev", "iso", "logsob_dir", "logsob", "bl", "logbl", "lw"]
        assert header == ",".join(
            ["sides", "size"] + [
                f"{tok}_{col}" for tok in prefixes
                for col in ("lhs", "rhs", "cert_lhs", "cert_rhs", "relation")
            ]
        )

    def test_violated_row_exit_1(self, capsys, monkeypatch):
        gn_over_its_bound(monkeypatch)
        assert main(["table", "--n", "2", "--max-side", "2", "--ineq", "gn,lw"]) == 1
        rows = capsys.readouterr().out.strip().splitlines()[2:]
        # GN on every cuboid, and nothing else
        assert [row.split(",")[6] for row in rows] == ["VIOLATED"] * 4
        assert [row.split(",")[11] for row in rows] == ["EXACT_EQUAL"] * 4

    def test_invalid_range_exit_2(self, capsys):
        assert main(["table", "--n", "2", "--min-side", "3", "--max-side", "2"]) == 2
        assert "side range" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["-1", "0", "1"])
    def test_dimension_below_two_exit_2(self, n, capsys):
        assert main(["table", "--n", n, "--max-side", "2"]) == 2
        err = capsys.readouterr().err
        assert err == f"invalid input: table needs ambient dimension >= 2, got n={n}\n"


class TestLogChecksFromCli:
    def test_set_input_logbl(self, tmp_path, capsys):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(
            {"dim": 2, "points": [[0, 0], [0, 2], [1, 0], [1, 2]]}
        ), encoding="utf-8")
        code = main(["check", "--input", str(path), "--ineq", "logbl", "--p", "1"])
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        report = obj["reports"][0]
        assert report["relation"] == "EXACT_EQUAL"
        assert report["p"] == "1"

    def test_normalize_flag_enables_log_defaults(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(
            {"dim": 2, "entries": [{"z": [0, 0], "v": "2"}, {"z": [3, 1], "v": "1"}]}
        ), encoding="utf-8")
        code = main(["check", "--input", str(path), "--normalize"])
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        names = {r["inequality"] for r in obj["reports"]}
        assert "LOG_BL" in names and "LOG_SOBOLEV_DIR" in names


BIG_PAIR = {"dim": 2, "entries": [{"z": [0, 0], "v": "1e154"}, {"z": [5, 5], "v": "11e153"}]}


class TestExitCodeContract:
    def test_invalid_p_exit_2(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"dim": 2, "entries": [{"z": [0, 0], "v": "1"}]}),
                        encoding="utf-8")
        assert main(["check", "--input", str(path), "--ineq", "logbl", "--p", "0"]) == 2
        assert "p must be positive" in capsys.readouterr().err
        assert main(["check", "--input", str(path), "--ineq", "logbl", "--p", "x"]) == 2

    @pytest.mark.parametrize("payload,args", [
        ({"dim": 2, "entries": [{"z": [0, 0], "v": "1e400"}]}, []),
        ({"dim": 2, "points": [[0, 0], [0, 1]]},
         ["--ineq", "logsob", "--p", "1/1000000000000000000000"]),
        # the float sum of |f|^2 overflows to inf, though ||f||_2 ~ 1.49e154
        # is finite; as JSON, inf is no number, and as CSV, no verdict
        (BIG_PAIR, ["--ineq", "sobolev"]),
        (BIG_PAIR, ["--ineq", "sobolev", "--format", "csv"]),
    ])
    def test_float_overflow_exit_2(self, payload, args, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["check", "--input", str(path)] + args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("overflow: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("ineq", ["logsob", "logsob-dir", "logbl"])
    def test_normalizing_norm_overflow_exit_2(self, ineq, fmt, tmp_path, capsys):
        # the float sum of |f|^2 overflows, so the norm to divide by is inf:
        # refused as an overflow, before any entropy is taken of f / inf
        path = tmp_path / "in.json"
        path.write_text(json.dumps(BIG_PAIR), encoding="utf-8")
        assert main(["check", "--input", str(path), "--normalize", "--p", "2",
                     "--ineq", ineq, "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("overflow: input out of floating-point range: "
                                "||f||_2 overflows the floating-point range; "
                                "cannot normalize\n")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("name", ["pair_2_1.json", "pair_1-2_1-4.json"])
    def test_normalize_at_large_p_exit_0(self, name, fmt, capsys):
        # ||f||_2000 is about 2 and 0.5, though 2.0 ** 2000 overflows and
        # (1/2) ** 2000 underflows: the norm is factored, not refused
        path = Path(__file__).parent / "golden" / name
        code = main(["check", "--input", str(path), "--ineq", "logsob,logbl",
                     "--p", "2000", "--normalize", "--format", fmt])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert captured.err == ""
        assert captured.out.count("STRICT") == 2 and "VIOLATED" not in captured.out

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_tiny_function_decided_on_its_ratio(self, fmt, tmp_path, capsys):
        # 10^-12 (1, 3) is far from a near-tie at any scale: GN, Sobolev
        # and BL are decided on lhs / rhs, not on a tolerance floored at 1
        entries = [{"z": [0, 0], "v": "1e-12"}, {"z": [1, 0], "v": "3e-12"}]
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"dim": 2, "entries": entries}), encoding="utf-8")
        code = main(["check", "--input", str(path), "--ineq", "gn,sobolev,bl",
                     "--format", fmt])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert captured.out.count("STRICT") == 3
        assert "EQUAL_WITHIN_TOL" not in captured.out

    @pytest.mark.parametrize("values,args", [
        # both sides of GN, Sobolev and BL underflow to 0.0
        (["1e-400", "3e-400"], ["--ineq", "gn,sobolev,bl"]),
        (["1e-400", "3e-400"], ["--ineq", "sobolev"]),
        # the left side alone is subnormal: ||f||_2 = 10^-308, rhs 5.05e-308
        (["1e-309"] * 100, ["--ineq", "sobolev"]),
        (["1e-400"], ["--normalize"]),
        (["1e-400", "1"], ["--normalize"]),
        (["1e-400", "1"], ["--ineq", "logsob", "--p", "3/2"]),
    ])
    def test_float_underflow_exit_2(self, values, args, tmp_path, capsys):
        # "1e-400" is an exact rational whose float is 0.0
        entries = [{"z": [i, 0], "v": v} for i, v in enumerate(values)]
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"dim": 2, "entries": entries}), encoding="utf-8")
        assert main(["check", "--input", str(path)] + args) == 2
        captured = capsys.readouterr()
        err = captured.err
        assert err.startswith("invalid input: ") and "underflows" in err
        assert err.count("\n") == 1 and captured.out == ""

    @pytest.mark.parametrize("command", ["check", "table"])
    def test_tiny_p_exit_2(self, command, tmp_path, capsys):
        # "1e-400" is a positive exact rational whose float is 0.0
        if command == "check":
            path = tmp_path / "in.json"
            path.write_text(json.dumps(RECT23), encoding="utf-8")
            argv = ["check", "--input", str(path), "--ineq", "all", "--normalize"]
        else:
            argv = ["table", "--n", "2", "--max-side", "2", "--ineq", "all"]
        assert main(argv + ["--p", "1e-400"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("invalid input: ") and "exponent" in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("p", ["1000000", "10000000"])
    def test_huge_integer_p_exit_2(self, p, tmp_path):
        # sum |a|^p == D^p would be a number of millions of digits
        import subprocess
        import sys

        path = tmp_path / "f.json"
        path.write_text(json.dumps({"dim": 2, "entries": [
            {"z": [0, 0], "v": "1/2"}, {"z": [1, 0], "v": "2/3"}]}), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "latticeineq.cli", "check", "--input",
             str(path), "--ineq", "logsob", "--p", p],
            capture_output=True, encoding="utf-8", timeout=30,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr == (f"precondition: ||f||_{p} must be 1 "
                               "(got 0.6666666666666666); pass normalize=True\n")

    @staticmethod
    def _logsob_at_huge_p(tmp_path, values):
        import subprocess

        path = tmp_path / "f.json"
        path.write_text(json.dumps({"dim": 2, "entries": [
            {"z": [i, 0], "v": v} for i, v in enumerate(values)]}), encoding="utf-8")
        return subprocess.run(
            [sys.executable, "-m", "latticeineq.cli", "check", "--input",
             str(path), "--ineq", "logsob", "--p", "1000000"],
            capture_output=True, encoding="utf-8", timeout=30,
        )

    def test_single_entry_below_one_at_huge_p_exit_2(self, tmp_path):
        # one entry is unit only if it is 1: decided with no power of it
        proc = self._logsob_at_huge_p(tmp_path, ["0." + "9" * 300])
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr == ("precondition: ||f||_1000000 must be 1 "
                               "(got 1.0); pass normalize=True\n")

    def test_single_entry_past_the_float_range_at_huge_p_exit_2(self, tmp_path):
        # 10^400 != 1 decides the precondition on the ints; the norm the
        # message prints is past the float range, so it reads inf
        proc = self._logsob_at_huge_p(tmp_path, ["1e400"])
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr == ("precondition: ||f||_1000000 must be 1 "
                               "(got inf); pass normalize=True\n")

    def test_norm_within_tol_of_one_at_huge_p_exit_0(self, tmp_path):
        # two entries of 2^(-1/10^6), to 300 digits: the norm is 1 within tol
        import decimal

        context = decimal.Context(prec=300)
        value = context.power(decimal.Decimal(2), context.divide(-1, 10 ** 6))
        proc = self._logsob_at_huge_p(tmp_path, [str(value)] * 2)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["reports"][0]["relation"] == "STRICT"

    @pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf")])
    def test_emit_table_refuses_bad_tol(self, tol):
        from latticeineq.certify import Inequality
        from latticeineq.cli import emit_table
        from latticeineq.errors import InvalidInputError

        with pytest.raises(InvalidInputError, match="tol must be finite and positive"):
            emit_table(2, 1, 2, [Inequality.GN], Fraction(2), tol)

    def test_violation_reports_exit_1(self, tmp_path, capsys, monkeypatch):
        # a VIOLATED relation cannot arise from valid inputs, so fake one to
        # pin down the exit-code plumbing and the input echo
        import latticeineq.certify as certify
        from latticeineq.certify import InequalityReport, Inequality, Relation

        def fake_check(f, tol):
            return InequalityReport(
                inequality=Inequality.GN, n=2, p=None, lhs=2.0, rhs=1.0,
                deficit=-1.0, relation=Relation.VIOLATED,
                input_echo={"dim": 2, "entries": []},
            )

        monkeypatch.setattr(certify, "check_gn", fake_check)
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"dim": 2, "entries": [{"z": [0, 0], "v": "1"}]}),
                        encoding="utf-8")
        code = main(["check", "--input", str(path), "--ineq", "gn"])
        assert code == 1
        obj = json.loads(capsys.readouterr().out)
        assert obj["reports"][0]["relation"] == "VIOLATED"
        assert "input_echo" in obj["reports"][0]

    def test_certificate_over_its_bound_exit_1(self, tmp_path, capsys, monkeypatch):
        # the verdict of a set comes from its integers alone; GN reads the
        # set's indicator, and echoes it
        gn_over_its_bound(monkeypatch)
        path = tmp_path / "rect.json"
        path.write_text(json.dumps({"dim": 2, "points": [z["z"] for z in RECT23["entries"]]}),
                        encoding="utf-8")
        assert main(["check", "--input", str(path), "--ineq", "gn"]) == 1
        report = json.loads(capsys.readouterr().out)["reports"][0]
        assert report["relation"] == "VIOLATED"
        assert report["input_echo"] == RECT23

    def test_internal_error_exit_3(self, rect_file, capsys, monkeypatch):
        import latticeineq.certify as certify

        def broken(f, tol):
            raise RuntimeError("checker fell over\non two lines")

        monkeypatch.setattr(certify, "check_gn", broken)
        assert main(["check", "--input", rect_file, "--ineq", "gn"]) == 3
        captured = capsys.readouterr()
        assert captured.err == "internal error: RuntimeError: checker fell over on two lines\n"
        assert captured.out == ""

    def test_nan_in_output_exit_3(self, capsys, monkeypatch):
        # JSON has no NaN; emitting one must not produce an unparseable report
        import latticeineq.cli as cli
        from latticeineq import LatticeSet
        from latticeineq.search import Objective, SearchTrace

        def nan_trace(**kwargs):
            return SearchTrace(seed=0, objective=Objective.ISO_RATIO, iterations=0,
                               best_value=float("nan"),
                               best_input=LatticeSet(2, [(0, 0)]), history=[])

        monkeypatch.setattr(cli, "anneal_sets", nan_trace)
        code = main(["search", "--mode", "anneal", "--n", "2", "--size", "1"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error: ValueError: ")
        assert captured.err.count("\n") == 1


class TestCrossProcessByteStability:
    def test_check_and_fuzz_are_byte_stable_across_interpreters(self, tmp_path):
        import subprocess
        import sys

        path = tmp_path / "rect.json"
        path.write_text(json.dumps(RECT23), encoding="utf-8")

        def run(args):
            return subprocess.run(
                [sys.executable, "-m", "latticeineq.cli"] + args,
                capture_output=True, check=True,
            ).stdout

        check_args = ["check", "--input", str(path), "--format", "csv",
                      "--ineq", "all", "--normalize"]
        assert run(check_args) == run(check_args)
        fuzz_args = ["fuzz", "--count", "40", "--n", "2", "--seed", "9"]
        assert run(fuzz_args) == run(fuzz_args)
