import json
import shutil
import subprocess
import sys

import pytest

from wpsieve import cli, wps
from wpsieve.wps import WeightVector


def run_cli(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def write_rs(tmp_path, text="2 1 explicit 0,0\n"):
    path = tmp_path / "rs.txt"
    path.write_text(text)
    return str(path)


def test_count_single_height(capsys):
    code, out, err = run_cli(["count", "--weights", "4,6", "--height-max", "1"], capsys)
    assert (code, err) == (0, "")
    assert out == "B,count\n1,8\n"


def test_count_height_grid(capsys):
    code, out, _ = run_cli(["count", "--weights", "4,6", "--heights", "1,3/2,2"], capsys)
    assert code == 0
    assert out == "B,count\n1,8\n1.5,252\n2,4248\n"
    # grid rows agree with the library
    assert wps.count(WeightVector((4, 6)), "3/2") == 252


def test_count_integral(capsys):
    code, out, _ = run_cli(
        ["count-integral", "--weights", "4,6", "--height-max", "1"], capsys
    )
    assert code == 0
    assert out == "B,count\n1,8\n"


def test_enumerate(capsys):
    code, out, _ = run_cli(["enumerate", "--weights", "1,2", "--height-max", "1"], capsys)
    assert code == 0
    assert out == "x0,x1\n0,-1\n0,1\n1,-1\n1,0\n1,1\n"


def test_enumerate_integral(capsys):
    code, out, _ = run_cli(
        ["enumerate", "--weights", "1,1", "--height-max", "1", "--integral"], capsys
    )
    assert code == 0
    assert len(out.splitlines()) == 1 + 4


def test_sieve_bound_row(tmp_path, capsys):
    rs = write_rs(tmp_path)
    code, out, _ = run_cli(
        ["sieve-bound", "--weights", "1,1", "--height-max", "1", "--Q", "2",
         "--residues", rs],
        capsys,
    )
    assert code == 0
    assert out == "B,Q,m,G,bound\n1,2,1,1.33333333333,18.75\n"


def test_sieve_bound_density_only(capsys):
    code, out, _ = run_cli(
        ["sieve-bound", "--weights", "1,1", "--height-max", "1", "--Q", "2",
         "--density", "1/4"],
        capsys,
    )
    assert code == 0
    assert out.splitlines()[1] == "1,2,1,1.33333333333,18.75"


def test_sieve_bound_past_float_range(tmp_path, capsys):
    rs = write_rs(tmp_path, "2 1 1 2\n")
    for height, bound in (("1" + "0" * 41, "5e+409"), ("3" + "0" * 40, "2.95245e+404"),
                          ("1" + "0" * 40 + "1", "5e+409")):
        code, out, _ = run_cli(
            ["sieve-bound", "--weights", "4,6", "--height-max", height, "--Q", "5",
             "--residues", rs],
            capsys,
        )
        assert code == 0
        assert out == f"B,Q,m,G,bound\n{height},5,1,2,{bound}\n"


def test_survivors_row(tmp_path, capsys):
    rs = write_rs(tmp_path)
    code, out, _ = run_cli(
        ["survivors", "--weights", "1,1", "--height-max", "1", "--Q", "2",
         "--residues", rs],
        capsys,
    )
    assert code == 0
    assert out == "B,Q,m,survivors\n1,2,1,4\n"


def test_survivors_rejects_density_only(capsys):
    # survivor counting needs explicit residues to test membership
    code, out, err = run_cli(
        ["survivors", "--weights", "1,1", "--height-max", "1", "--Q", "2",
         "--density", "1/4"],
        capsys,
    )
    assert code == 2
    assert json.loads(err)["error"] == "validation"


def test_ls_check_row(tmp_path, capsys):
    rs = write_rs(tmp_path)
    code, out, _ = run_cli(
        ["ls-check", "--weights", "1,1", "--height-max", "1", "--Q", "2",
         "--residues", rs],
        capsys,
    )
    assert code == 0
    assert out == "B,Q,m,lhs,rhs,holds\n1,2,1,4,145.496133918,true\n"


def test_residue_width_must_match_weights(tmp_path, capsys):
    # 3-wide tuples at p = 2 would count in G(Q) but exclude nothing from a
    # 2-wide box; beyond Q they are not used
    rs = write_rs(tmp_path, "2 1 explicit 0,0,0\n2 1 explicit 1,1,1\n")
    argv = ["--weights", "1,1", "--height-max", "3", "--residues", rs]
    for command in ("survivors", "ls-check", "sieve-bound"):
        code, out, err = run_cli([command, *argv, "--Q", "2"], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "validation"
        assert "width 3" in json.loads(err)["message"]
    code, out, _ = run_cli(["survivors", *argv, "--Q", "1"], capsys)
    assert (code, out) == (0, "B,Q,m,survivors\n3,1,1,24\n")


def test_m_cross_check(tmp_path, capsys):
    rs = write_rs(tmp_path)
    code, _, err = run_cli(
        ["survivors", "--weights", "1,1", "--height-max", "1", "--Q", "2",
         "--residues", rs, "--m", "2"],
        capsys,
    )
    assert code == 2
    assert "disagrees" in json.loads(err)["message"]
    code, out, _ = run_cli(
        ["survivors", "--weights", "1,1", "--height-max", "1", "--Q", "2",
         "--residues", rs, "--m", "1"],
        capsys,
    )
    assert code == 0


def test_image_density_rows(capsys):
    code, out, _ = run_cli(
        ["image-density", "--cover", "square-coord", "--primes", "2,3,5"], capsys
    )
    assert code == 0
    assert out == "p,density\n2,1\n3,0.666666666667\n5,0.6\n"
    code, out2, _ = run_cli(
        ["image-density", "--cover", "square-coord", "--p-max", "5"], capsys
    )
    assert code == 0
    assert out2 == out


def test_image_density_from_cover_file(tmp_path, capsys):
    path = tmp_path / "cover.txt"
    path.write_text("weights 2\naux-weight 1\ndegree 2\nc 0 -1:1\n")
    code, out, _ = run_cli(
        ["image-density", "--cover", str(path), "--primes", "5"], capsys
    )
    assert code == 0
    assert out == "p,density\n5,0.6\n"


def test_image_density_rejects_composite(capsys):
    code, _, err = run_cli(
        ["image-density", "--cover", "square-coord", "--primes", "6"], capsys
    )
    assert code == 2


def test_census_output_and_sidecar(tmp_path):
    out_path = tmp_path / "census.csv"
    code = cli.main(
        ["census", "--genus", "1", "--heights", "1,2,3,4", "--output", str(out_path)]
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "B,total,thin,thin_label"
    assert len(lines) == 5
    rows = [line.split(",") for line in lines[1:]]
    assert rows[0] == ["1", "8", "4", "two-torsion"]
    assert all(int(r[2]) <= int(r[1]) for r in rows)
    sidecar = json.loads((tmp_path / "census.csv.json").read_text())
    assert set(sidecar) == {"command", "config", "version", "wall_time_s"}
    assert sidecar["command"] == "census"
    assert sidecar["config"]["genus"] == "1"
    assert sidecar["config"]["heights"] == "1,2,3,4"
    assert sidecar["wall_time_s"] >= 0


def test_fit_from_census_csv(tmp_path, capsys):
    path = tmp_path / "census.csv"
    path.write_text(
        "B,total,thin,thin_label\n"
        "1,1,0,none\n2,8,0,none\n4,64,0,none\n8,512,0,none\n"
    )
    code, out, _ = run_cli(["fit", "--input", str(path), "--column", "total"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"slope", "stderr"}
    assert abs(payload["slope"] - 3.0) < 1e-9
    # fit of the all-zero thin column cannot work
    code, _, err = run_cli(["fit", "--input", str(path), "--column", "thin"], capsys)
    assert code == 2


def test_fit_missing_input(capsys):
    code, _, err = run_cli(["fit", "--input", "/no/such/file.csv"], capsys)
    assert code == 2
    assert json.loads(err)["error"] == "validation"


def test_qf_reduce_rows(capsys):
    code, out, _ = run_cli(
        ["qf-reduce", "--D", "2", "--weights", "1", "--coords", "7:5"], capsys
    )
    assert code == 0
    assert out == "k,y0_a,y0_b\n-3,1,0\n"
    code, out, _ = run_cli(
        ["qf-reduce", "--D", "2", "--weights", "1,2", "--coords", "5:5,5:5"], capsys
    )
    assert code == 0
    assert out == "k,y0_a,y0_b,y1_a,y1_b\n-1,5,0,-5,5\n"


def test_qf_reduce_bad_coords(capsys):
    code, _, err = run_cli(
        ["qf-reduce", "--D", "2", "--weights", "1", "--coords", "7"], capsys
    )
    assert code == 2
    code, _, _ = run_cli(
        ["qf-reduce", "--D", "5", "--weights", "1", "--coords", "1:0"], capsys
    )
    assert code == 2  # unsupported field


def test_qf_G_row(capsys):
    code, out, _ = run_cli(["qf-G", "--D", "2", "--Q", "8", "--density", "1/3"], capsys)
    assert code == 0
    assert out == "D,Q,density,G\n2,8,0.333333333333,2.5\n"


def test_config_file_fills_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text(
        "command=count\n"
        "weights=4,6\n"
        "height-max=1   # comment survives\n"
    )
    code, out, _ = run_cli(["count", "--config", str(cfg)], capsys)
    assert code == 0
    assert out == "B,count\n1,8\n"
    # the flag wins over the config value
    code, out, _ = run_cli(
        ["count", "--config", str(cfg), "--height-max", "2"], capsys
    )
    assert code == 0
    assert out == "B,count\n2,4248\n"


def test_config_errors(tmp_path, capsys):
    bad_key = tmp_path / "bad.cfg"
    bad_key.write_text("frobnicate=1\n")
    code, _, err = run_cli(["count", "--config", str(bad_key),
                            "--weights", "1,1", "--height-max", "1"], capsys)
    assert code == 2
    assert "frobnicate" in json.loads(err)["message"]

    mismatch = tmp_path / "mismatch.cfg"
    mismatch.write_text("command=census\n")
    code, _, err = run_cli(["count", "--config", str(mismatch),
                            "--weights", "1,1", "--height-max", "1"], capsys)
    assert code == 2

    code, _, _ = run_cli(["count", "--config", str(tmp_path / "absent.cfg"),
                          "--weights", "1,1", "--height-max", "1"], capsys)
    assert code == 2


def test_validation_exit_codes(capsys):
    cases = [
        ["count", "--weights", "1,1", "--heights", "2,1"],  # non-increasing
        ["count", "--weights", "1,1"],  # no height at all
        ["count", "--weights", "1,1", "--heights", "1", "--height-max", "2"],
        ["count", "--weights", "0,1", "--height-max", "1"],  # bad weight
        ["count", "--weights", "1,1", "--height-max", "1", "--workers", "0"],
        ["no-such-command"],
        ["enumerate", "--weights", "1,1", "--heights", "1,2"],  # unknown flag
    ]
    for argv in cases:
        code, out, err = run_cli(argv, capsys)
        assert code == 2, argv
        assert json.loads(err.splitlines()[-1])["error"] == "validation", argv


def test_budget_exit_and_force(capsys):
    argv = ["count", "--weights", "1,1", "--height-max", "3", "--budget", "10"]
    code, _, err = run_cli(argv, capsys)
    assert code == 3
    assert json.loads(err)["error"] == "budget"
    code, out, _ = run_cli(argv + ["--force"], capsys)
    assert code == 0
    assert out == "B,count\n3,16\n"


def test_census_budget_past_float_range(capsys):
    # the column width at B = 1e52 needs integer roots of values past 1e308
    argv = ["census", "--genus", "1", "--heights", "1e52"]
    for extra in ([], ["--force"]):
        code, out, err = run_cli(argv + extra, capsys)
        assert (code, out) == (3, "")
        assert json.loads(err)["error"] == "budget"


def test_census_budget_counts_column_work(capsys):
    # the box at B = 12 holds 2.5e11 tuples; the column census needs ~2.4e7 steps
    code, out, _ = run_cli(["census", "--genus", "1", "--heights", "2,4,8,12"], capsys)
    assert code == 0
    assert out.splitlines()[-1] == "12,247429284466,11725994,two-torsion"


@pytest.mark.parametrize("argv, last", [
    # the closed form alone: no prefix is visited, so nothing is charged
    (["--heights", "300"], "300,23596131875558449228905598,0,none"),
    # only the singular search (6,407 steps), not the 5.1e6 prefixes
    (["--heights", "40", "--smooth-only", "--budget", "100000"],
     "40,41901374021791626,0,none"),
])
def test_census_budget_without_thin_cover(argv, last, capsys):
    code, out, _ = run_cli(["census", "--genus", "1", "--thin", "none", *argv], capsys)
    assert code == 0
    assert out.splitlines()[-1] == last


def test_workers_env(monkeypatch, capsys):
    monkeypatch.setenv(cli.WORKERS_ENV, "2")
    code, out, _ = run_cli(["count", "--weights", "4,6", "--height-max", "1"], capsys)
    assert code == 0
    assert out == "B,count\n1,8\n"
    monkeypatch.setenv(cli.WORKERS_ENV, "junk")
    code, _, err = run_cli(["count", "--weights", "4,6", "--height-max", "1"], capsys)
    assert code == 2
    # explicit flag beats the environment
    monkeypatch.setenv(cli.WORKERS_ENV, "junk")
    code, _, _ = run_cli(
        ["count", "--weights", "4,6", "--height-max", "1", "--workers", "1"], capsys
    )
    assert code == 0


def test_output_bytes_deterministic(tmp_path):
    paths = []
    for i, workers in enumerate(("1", "3", "1")):
        p = tmp_path / f"out{i}.csv"
        code = cli.main(
            ["census", "--genus", "1", "--heights", "1,2,3", "--smooth-only",
             "--workers", workers, "--output", str(p)]
        )
        assert code == 0
        paths.append(p.read_bytes())
    assert paths[0] == paths[1] == paths[2]
    assert b"\r" not in paths[0]  # LF only


def test_survivors_workers_deterministic(tmp_path, capsys):
    rs = write_rs(tmp_path, "3 1 explicit 0,0\n3 1 explicit 1,2\n")
    outs = []
    for workers in ("1", "2"):
        code, out, _ = run_cli(
            ["survivors", "--weights", "1,2", "--height-max", "4", "--Q", "3",
             "--residues", rs, "--workers", workers],
            capsys,
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_console_script_subprocess():
    exe = shutil.which("wpsieve")
    assert exe is not None, "console script not installed"
    proc = subprocess.run(
        [exe, "count", "--weights", "4,6", "--height-max", "1"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout == "B,count\n1,8\n"
    proc = subprocess.run(
        [sys.executable, "-m", "wpsieve.cli", "qf-G", "--D", "2", "--Q", "2",
         "--density", "1/2"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1] == "2,2,0.5,2"
