"""Golden reports: CLI output on the paper's example problems, byte for byte.

Each case runs `mixedde.cli.main` in-process on an example written from
`conftest.EXAMPLES` and compares stdout with `tests/golden/<name>`. A change
that alters a report on purpose regenerates the affected file in the same
diff (`PYTHONPATH=src python tests/test_golden.py`, which also prints the
(size, md5) of every REGION_CSV_MD5 case) and says so in CHANGES.md; any
other difference is a regression.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from mixedde.cli import main

from conftest import EXAMPLES, spec_fields

GOLDEN = Path(__file__).parent / "golden"

# name -> (subcommand, example, extra argv, expected exit code)
CASES = {
    "check_ex1.txt": ("check", "ex1", [], 0),
    "check_ex2.txt": ("check", "ex2", [], 0),
    "check_ex3.txt": ("check", "ex3", [], 0),
    "check_ex2.csv": ("check", "ex2", ["--format", "csv"], 0),
    "construct_ex1_T20.txt": ("construct", "ex1", ["--T", "20"], 0),
    "construct_ex2_T20.txt": ("construct", "ex2", ["--T", "20"], 0),
    "roots_ex1.txt": ("roots", "ex1", [], 0),
    "roots_ex4.txt": ("roots", "ex4", [], 0),
    "region_ex3_xy.txt": ("region", "ex3", ["--axes", "x,y"], 0),
    "region_ex4_ab.csv": ("region", "ex4",
                          ["--axes", "a,b", "--res", "0.5", "--format", "csv"], 0),
    "simulate_ex1.txt": ("simulate", "ex1", ["--T", "2", "--step", "0.004"], 0),
    "simulate_ex3.txt": ("simulate", "ex3", ["--T", "2", "--step", "0.004"], 0),
}


def run_case(name: str, workdir: Path) -> tuple[int, str]:
    command, example, extra, _ = CASES[name]
    path = workdir / f"{example}.json"
    path.write_text(json.dumps(spec_fields(**EXAMPLES[example])))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, str(path), *extra])
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_is_byte_identical(name, tmp_path):
    code, text = run_case(name, tmp_path)
    assert code == CASES[name][3]
    assert text == (GOLDEN / name).read_text(encoding="utf-8")


# region CSVs pinned by size and md5, the larger ones too large to keep as
# files; the res-0.5 a,b grid is also region_ex4_ab.csv
REGION_CSV_MD5 = {
    ("ex3", "x,y", "0.05"): (416671, "bf5f2b6d0ff7bc33e63fc08d4f964996"),
    ("ex4", "a,b", "0.05"): (85463, "590f79fb6cabede8f948768851f12850"),
    ("ex4", "a,b", "0.3"): (2123, "aac3ca2946ed9c055717c0e370548579"),
    ("ex4", "a,b", "0.5"): (455, "67b574f8fb0f3837e807027389cd3ae1"),
}


def region_csv_md5(example: str, axes: str, res: str, workdir: Path) -> tuple[int, tuple]:
    """The exit code and (size, md5) of the region CSV of a REGION_CSV_MD5 case."""
    path = workdir / f"{example}.json"
    path.write_text(json.dumps(spec_fields(**EXAMPLES[example])))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["region", str(path), "--axes", axes, "--res", res, "--format", "csv"])
    data = out.getvalue().encode("utf-8")
    return code, (len(data), hashlib.md5(data).hexdigest())


@pytest.mark.parametrize("example, axes, res", sorted(REGION_CSV_MD5))
def test_region_csv_md5_is_pinned(example, axes, res, tmp_path):
    assert region_csv_md5(example, axes, res, tmp_path) == (0, REGION_CSV_MD5[example, axes, res])


def test_spaced_expressions_print_the_same_report(tmp_path):
    path = tmp_path / "ex2_spaced.json"
    path.write_text(json.dumps(spec_fields(a=" 1.375 + 0.025 * sin( t ) ",
                                           b="1.325 +\t0.025*cos (t)\n")))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["check", str(path)]) == 0
    assert out.getvalue() == (GOLDEN / "check_ex2.txt").read_text(encoding="utf-8")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            code, text = run_case(name, Path(tmp))
            (GOLDEN / name).write_text(text, encoding="utf-8")
            print(f"{name}: exit {code}")
        for case in sorted(REGION_CSV_MD5):  # pins to copy into REGION_CSV_MD5
            code, pin = region_csv_md5(*case, Path(tmp))
            print(f"{case}: {pin}, exit {code}")
