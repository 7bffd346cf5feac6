"""Byte-identity of CLI output against committed goldens.

The files under `golden/` are the stdout of each command below.  They pin
every printed float: a change to the exact track (how values are stored,
differences taken, sums ordered) must leave these bytes unchanged.  The
`search` goldens pin whole traces: `ascend` reads every candidate's ratio
off the GN checker's float sides, so a change to their rounding moves a
pick and with it the trace.  The
`enumerate` goldens pin the summary, the counts of the rigidity proof, and
the group CSV of `--report`: a row per histogram key and per canonical
product set, the terms of that proof; with `--report` the summary is the
same file.  No command prints a wall time, so every byte is compared.
`test_lab.TestRowsFromProof` rebuilds every subset's row from such a report.
"""

from pathlib import Path

import pytest

from latticeineq.cli import main

GOLDEN = Path(__file__).parent / "golden"
MIXED = str(GOLDEN / "mixed_function.json")  # denominators 1, 3, 7 and 64
SET_3D = str(GOLDEN / "set_3d.json")  # 11 points, not a product set
SQUARE = str(GOLDEN / "square_2d.json")  # the 3x3 square, a cube

CASES = [
    (["fuzz", "--n", "2", "--count", "200", "--seed", "7"],
     "fuzz_n2_count200_seed7.json"),
    (["fuzz", "--n", "3", "--window", "4", "--count", "60", "--seed", "3"],
     "fuzz_n3_window4_count60_seed3.json"),
    (["check", "--input", MIXED, "--ineq", "all", "--normalize"],
     "check_mixed_all_normalize.json"),
    (["check", "--input", MIXED, "--ineq", "all", "--normalize", "--format", "csv"],
     "check_mixed_all_normalize.csv"),
    (["check", "--input", SET_3D, "--ineq", "all"], "check_set3d_all.json"),
    (["check", "--input", SET_3D, "--ineq", "all", "--format", "csv"],
     "check_set3d_all.csv"),
    (["check", "--input", SET_3D], "check_set3d_default.json"),
    (["check", "--input", SQUARE, "--ineq", "all", "--exact"],
     "check_square2d_all_exact.json"),
    (["table", "--n", "3", "--max-side", "3", "--ineq", "all", "--p", "1/2"],
     "table_n3_max3_all_p1-2.csv"),
    (["search", "--mode", "ascend", "--n", "2", "--window-side", "3", "--iters", "60",
      "--seed", "0"], "search_ascend_n2_side3_iters60_seed0.json"),
    (["search", "--mode", "ascend", "--n", "3", "--window-side", "2", "--iters", "200",
      "--seed", "1"], "search_ascend_n3_side2_iters200_seed1.json"),
    (["search", "--mode", "anneal", "--n", "2", "--size", "7", "--iters", "3000",
      "--seed", "5"], "search_anneal_n2_size7_iters3000_seed5.json"),
    (["search", "--mode", "anneal", "--n", "3", "--size", "10", "--iters", "3000",
      "--seed", "2"], "search_anneal_n3_size10_iters3000_seed2.json"),
    (["search", "--mode", "anneal", "--n", "2", "--size", "40", "--iters", "10000",
      "--seed", "11"], "search_anneal_n2_size40_iters10000_seed11.json"),
    (["search", "--mode", "anneal", "--n", "3", "--size", "30", "--iters", "10000",
      "--seed", "11"], "search_anneal_n3_size30_iters10000_seed11.json"),
    (["enumerate", "--n", "2", "--box", "3"], "enumerate_n2_box3.json"),
    (["enumerate", "--n", "2", "--box", "5", "--max-size", "2"],
     "enumerate_n2_box5_max2.json"),
    (["enumerate", "--n", "3", "--box", "2"], "enumerate_n3_box2.json"),
    (["enumerate", "--n", "3", "--box", "3", "--max-size", "2"],
     "enumerate_n3_box3_max2.json"),
]


@pytest.mark.parametrize("argv,golden", CASES, ids=[g for _, g in CASES])
def test_stdout_matches_golden(argv, golden, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert captured.out.encode() == (GOLDEN / golden).read_bytes()


ENUM_CASES = [(argv, golden.removesuffix(".json"))
              for argv, golden in CASES if argv[0] == "enumerate"]


@pytest.mark.parametrize("argv,stem", ENUM_CASES, ids=[s for _, s in ENUM_CASES])
def test_enumerate_matches_golden(argv, stem, tmp_path, capsys):
    # the rows CSV, and with it the same summary as without --report
    rows = tmp_path / "rows.csv"
    code = main(argv + ["--report", str(rows)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert rows.read_bytes() == (GOLDEN / f"{stem}_rows.csv").read_bytes()
    assert captured.out.encode() == (GOLDEN / f"{stem}.json").read_bytes()
