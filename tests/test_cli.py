import dataclasses
import json
import os

import pytest

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
    for bad in ("1:2:0", "1:2:-1", "1:2", "1:2:3:4", "a,b"):
        with pytest.raises(ValueError):
            cli.parse_ebno_grid(bad)


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
    code = cli.main(["--code", "rm(3,2)xrm(2,1)", "--ebno", "1:1:1",
                     "--min-errors", "1", "--max-frames", "10"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


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


def test_unwritable_output_path_reports_error(tmp_path, capsys):
    missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
    assert cli.main(FAST_ARGS + ["--out", str(missing_dir)]) == 2
    assert "error:" in capsys.readouterr().err


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
    defaults = {field.name: field.default for field in dataclasses.fields(sim.SimConfig)}
    for flag, setting in (("decoder", "decoder"), ("iterations", "iterations"),
                          ("min_errors", "min_block_errors"), ("max_frames", "max_frames"),
                          ("seed", "seed"), ("workers", "workers"), ("format", "out_format"),
                          ("out", "out_path")):
        assert parser.get_default(flag) == defaults[setting], flag


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
