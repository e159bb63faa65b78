import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rmproduct
from rmproduct import cli, sim

FAST_ARGS = [
    "--code", "rm(2,1)xrm(1,1)", "--decoder", "soft", "--iterations", "1",
    "--ebno", "8:9:1", "--min-errors", "5", "--max-frames", "400", "--seed", "7",
]


def test_parse_ebno_range_inclusive():
    assert cli.parse_ebno_grid("2:6:0.5") == tuple(2.0 + 0.5 * i for i in range(9))
    assert cli.parse_ebno_grid("3:3:1") == (3.0,)


def test_parse_ebno_comma_list():
    assert cli.parse_ebno_grid("1.5,2,4") == (1.5, 2.0, 4.0)
    assert cli.parse_ebno_grid("") == ()


def test_parse_ebno_rejects_bad_specs():
    for bad in ("1:2:0", "1:2:-1", "1:2", "1:2:3:4", "a,b", "1:0:1", "1:0.5:1", "0:-1e300:1e-300"):
        with pytest.raises(ValueError):
            cli.parse_ebno_grid(bad)


OVERSIZED_GRIDS = [("0:1e300:1e-300", "over 10^308"), ("0:1:1e-12", "1,000,000,000,001"),
                   ("0:1:1e-7", "10,000,001"), ("0:10000:1", "10,001")]


def test_parse_ebno_range_caps_its_points():
    assert len(cli.parse_ebno_grid(f"0:{cli.MAX_GRID_POINTS - 1}:1")) == cli.MAX_GRID_POINTS
    for grid, count in OVERSIZED_GRIDS:  # rejected before the grid is built
        with pytest.raises(ValueError, match=re.escape(f"has {count} points")):
            cli.parse_ebno_grid(grid)


@pytest.mark.parametrize("grid, count", OVERSIZED_GRIDS)
def test_oversized_grid_reports_error(grid, count, capsys):
    assert cli.main(["--code", "rm(2,1)", "--ebno", grid]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and count in captured.err and captured.out == ""


def test_help_documents_every_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--help"])
    assert excinfo.value.code == 0
    text = capsys.readouterr().out
    for flag in ("--code", "--decoder", "--iterations", "--ebno", "--min-errors",
                 "--max-frames", "--seed", "--workers", "--format", "--out"):
        assert flag in text


def test_unparseable_flags_exit_nonzero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--code", "rm(2,1)", "--ebno", "1:2:1", "--decoder", "bogus"])
    assert excinfo.value.code != 0
    assert capsys.readouterr().err


def test_missing_required_flags_exit_nonzero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main([])
    assert excinfo.value.code != 0
    assert capsys.readouterr().err


def test_bad_descriptor_reports_error(capsys):
    code = cli.main(["--code", "rm(5,3)xrm(2,1)", "--ebno", "1:1:1",
                     "--min-errors", "1", "--max-frames", "10"])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    # with an empty grid too, the code is checked first
    for args, named in ((["--code", "garbage"], "garbage"),
                        (["--code", "rm(20,1)", "--workers", "2"], "m=20")):
        assert cli.main(args + ["--ebno", ""]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and named in captured.err and captured.out == ""


@pytest.mark.parametrize("grid, format_args", [("", []), (" ", ["--format", "json"]),
                                               ("1:0:1", [])])
def test_grid_with_no_points_reports_error(grid, format_args, tmp_path, capsys):
    for out_args in ([], ["--out", str(tmp_path / "F")]):
        assert cli.main(["--code", "rm(2,1)", "--ebno", grid] + format_args + out_args) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""
    assert not (tmp_path / "F").exists()


def test_bad_ebno_reports_error(capsys):
    code = cli.main(["--code", "rm(2,1)xrm(1,1)", "--ebno", "1:2:0"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_csv_sweep_to_stdout(capsys):
    assert cli.main(FAST_ARGS) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("ebno_db,snr_db,frames,")
    assert len(lines) == 3  # header + two grid points


def test_csv_sweep_to_file(tmp_path):
    out = tmp_path / "sweep.csv"
    assert cli.main(FAST_ARGS + ["--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert float(lines[1].split(",")[0]) == 8.0


def test_json_sweep_to_file(tmp_path):
    out = tmp_path / "sweep.json"
    assert cli.main(FAST_ARGS + ["--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["code"] == "rm(2,1)xrm(1,1)"
    assert len(payload["points"]) == 2


def test_unwritable_output_path_reports_error(tmp_path, capsys, monkeypatch):
    def no_chunk(*args):
        raise AssertionError("a chunk ran before the output path was checked")

    monkeypatch.setattr(sim, "_run_chunk", no_chunk)
    for path in (str(tmp_path / "no" / "such" / "dir" / "out.csv"), str(tmp_path), ""):
        assert cli.main(FAST_ARGS + ["--out", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(path) in err
        assert ".tmp" not in err


def test_a_failed_open_names_the_output_path_not_the_temporary_file(tmp_path):
    directory = tmp_path / "gone"
    directory.mkdir()
    out = directory / "out.csv"
    config = sim.SimConfig(code="rm(2,1)", ebno_dbs=(1.0,), out_path=str(out))
    directory.rmdir()  # after the config checked it
    with pytest.raises(FileNotFoundError) as raised:
        sim.emit([], config)
    assert raised.value.filename == str(out) and ".tmp" not in str(raised.value)


def test_out_of_memory_reports_error(monkeypatch, tmp_path, capsys):
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(sim, "_run_chunk", out_of_memory)
    out = tmp_path / "sweep.csv"
    assert cli.main(FAST_ARGS + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "MemoryError" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_workers_auto_accepted(capsys):
    assert cli.main(FAST_ARGS + ["--workers", "auto"]) == 0
    capsys.readouterr()
    args = cli.build_parser().parse_args(FAST_ARGS + ["--workers", "auto"])
    assert args.workers == len(os.sched_getaffinity(0))  # the CPUs that cap the pool


def test_workers_validation(capsys):
    assert cli.main(FAST_ARGS + ["--workers", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "workers" in err


def test_parser_defaults_are_the_config_defaults():
    parser = cli.build_parser()
    config_fields = dataclasses.fields(sim.SimConfig)
    for field in config_fields:
        if field.default is not dataclasses.MISSING:
            assert parser.get_default(field.name) == field.default, field.name
    # every flag lands on the SimConfig field of the same name, and nothing else does
    args = parser.parse_args(["--code", "x", "--ebno", "1"])
    assert set(vars(args)) == {field.name for field in config_fields}


def test_large_bfmap_code_constructs_and_runs(capsys):
    # the (2^14, 84) construction: a couple of near-noiseless frames end to end
    code = cli.main([
        "--code", "rm(11,1)xrm(3,2):bfmap", "--decoder", "soft", "--iterations", "1",
        "--ebno", "6", "--min-errors", "1", "--max-frames", "4", "--seed", "3",
    ])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert int(lines[1].split(",")[2]) == 4  # frames column


@pytest.mark.parametrize("grid", ["1,2,", ",1", "1,,2", "1::2", "1:2: "])
def test_parse_ebno_names_an_empty_field(grid):
    with pytest.raises(ValueError, match="empty field"):
        cli.parse_ebno_grid(grid)


@pytest.mark.parametrize("grid", ["nan", "1,inf", "1:inf:1", "0:1:nan"])
def test_non_finite_ebno_reports_error(grid, capsys):
    code = cli.main(["--code", "rm(2,1)xrm(1,1)", "--ebno", grid, "--max-frames", "10"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err


def test_trailing_comma_reports_empty_field(capsys):
    code = cli.main(["--code", "rm(2,1)xrm(1,1)", "--ebno", "1,2,"])
    assert code == 2
    assert "empty field" in capsys.readouterr().err


@pytest.mark.parametrize("grid, expected", [("-2:0:1", [-2.0, -1.0, 0.0]), ("-2,0", [-2.0, 0.0])])
def test_grid_below_zero_db_after_a_space(grid, expected, capsys):
    code = cli.main(["--code", "rm(2,1)xrm(1,1)", "--ebno", grid, "--max-frames", "10"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert [float(line.split(",")[0]) for line in lines[1:]] == expected


@pytest.mark.parametrize("args, named", [
    (["--ebno", "3", "--iterations", "200", "--max-frames", "8"], "200 iterations"),  # LLRs reach inf
    (["--ebno", "1e308"], "Eb/N0 of 1e+308 dB"),  # 10^(Eb/N0 / 10) overflows
    (["--ebno=-4000"], "Eb/N0 of -4000.0 dB"),  # ... or underflows to 0
])
def test_values_past_the_float_range_exit_2_with_no_result_file(args, named, tmp_path):
    out = tmp_path / "sweep.csv"
    env = dict(os.environ, PYTHONPATH=str(Path(rmproduct.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-m", "rmproduct.cli", "--code", "rm(6,1)xrm(2,1)", *args,
                           "--out", str(out)], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2, done.stderr
    lines = done.stderr.splitlines()  # no traceback, and no numpy warning before the error
    assert len(lines) == 1 and lines[0].startswith("error:") and named in lines[0], done.stderr
    assert done.stdout == "" and list(tmp_path.iterdir()) == []
