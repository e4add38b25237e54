import json
import re
import shutil
import subprocess
import sys
import time

import pytest

from wpsieve import cli, sieve, wps
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


def test_sieve_bound_computes_G_once(monkeypatch, capsys):
    # the bound takes the G(Q) the row reports instead of walking again
    calls = []
    compute_G = sieve.compute_G
    monkeypatch.setattr(sieve, "compute_G", lambda *a: calls.append(a) or compute_G(*a))
    code, out, _ = run_cli(
        ["sieve-bound", "--weights", "1,1", "--height-max", "1", "--Q", "300",
         "--density", "1/3"],
        capsys,
    )
    assert (code, len(calls)) == (0, 1)
    assert out == "B,Q,m,G,bound\n1,300,1,57.8125,140111221.639\n"


def test_sieve_bound_past_float_range(tmp_path, capsys):
    rs = write_rs(tmp_path, "2 1 1 2\n")
    # the last bound has an integer part past Python's 4,300-digit str() limit
    for height, bound in (("1" + "0" * 41, "5e+409"), ("3" + "0" * 40, "2.95245e+404"),
                          ("1" + "0" * 40 + "1", "5e+409"), ("1" + "0" * 500, "5e+4999")):
        code, out, _ = run_cli(
            ["sieve-bound", "--weights", "4,6", "--height-max", height, "--Q", "5",
             "--residues", rs],
            capsys,
        )
        assert code == 0
        assert out == f"B,Q,m,G,bound\n{height},5,1,2,{bound}\n"
    # one weight and Q = 1 give bound = B + 1 exactly: two half-even ties
    # (one rounds up, one down) and one that carries into the next power of 10
    for top, bound in ((1000000000015, "1.00000000002e+402"),
                       (1000000000025, "1.00000000002e+402"),
                       (9999999999995, "1e+403")):
        height = str(top * 10**390 - 1)
        code, out, _ = run_cli(
            ["sieve-bound", "--weights", "1", "--height-max", height, "--Q", "1",
             "--density", "1/3"],
            capsys,
        )
        assert code == 0
        assert out == f"B,Q,m,G,bound\n{height},1,1,1,{bound}\n"


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


def test_ls_check_rhs_past_float_range(tmp_path, capsys):
    # Q^m = 10^320 has no float; rhs is printed like sieve-bound's bound
    rs = write_rs(tmp_path, "2 64 explicit 0,0\n")
    code, out, err = run_cli(
        ["ls-check", "--weights", "1,1", "--height-max", "1", "--Q", "100000",
         "--residues", rs],
        capsys,
    )
    assert (code, err) == (0, "")
    assert out == "B,Q,m,lhs,rhs,holds\n1,100000,64,4,1e+1280,true\n"


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


def test_residue_zero_denominator_is_a_validation_error(tmp_path, capsys):
    rs = write_rs(tmp_path, "2 1 1 0\n")
    code, out, err = run_cli(
        ["sieve-bound", "--weights", "1,1", "--height-max", "1", "--Q", "2",
         "--residues", rs],
        capsys,
    )
    assert (code, out) == (2, "")
    assert f"{rs}:1:" in json.loads(err)["message"]


@pytest.mark.parametrize("line", ["2 1 a 3", "2 1 explicit 0,x", "2 1 1 b"])
def test_residue_non_integer_field_names_its_line(tmp_path, capsys, line):
    rs = write_rs(tmp_path, f"# header\n3 1 1 3\n{line}\n")
    code, out, err = run_cli(
        ["sieve-bound", "--weights", "1,1", "--height-max", "1", "--Q", "2",
         "--residues", rs],
        capsys,
    )
    assert (code, out) == (2, "")
    assert json.loads(err)["message"].startswith(f"{rs}:3: invalid literal for int()")


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


@pytest.mark.parametrize("bare", ["weights", "aux-weight", "degree", "c"])
def test_image_density_cover_file_bare_directive(tmp_path, capsys, bare):
    # a directive without its value is a usage error naming the line (exit 2)
    lines = ["weights 2", "aux-weight 1", "degree 2", "c 0 -1:1"]
    lines[[line.split()[0] for line in lines].index(bare)] = bare
    path = tmp_path / "cover.txt"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(
        ["image-density", "--cover", str(path), "--primes", "2"], capsys
    )
    assert (code, out) == (2, "")
    assert f"{path}:{lines.index(bare) + 1}:" in err


def test_image_density_cover_file_bad_exponent_tuple_names_its_line(tmp_path, capsys):
    # the exponent tuple is checked when c_1 is built, after the file is read
    path = tmp_path / "cover.txt"
    path.write_text("weights 4,6\naux-weight 2\ndegree 3\n\nc 1 1:1\n")
    code, out, err = run_cli(["image-density", "--cover", str(path), "--primes", "2"], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["message"] == f"{path}:5: exponent tuple (1,) has wrong length"


def test_image_density_p_max_stops_at_the_budget(capsys):
    # the candidates are walked lazily: the density budget turns away p = 127
    # without a prime table up to 10^15 being built
    t0 = time.perf_counter()
    code, out, err = run_cli(
        ["image-density", "--cover", "two-torsion-g1", "--p-max", str(10**15)], capsys
    )
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == "budget"
    assert time.perf_counter() - t0 < 10


@pytest.mark.parametrize("degree", [200_000, 10**9])
def test_image_density_cover_file_degree_is_budgeted(tmp_path, capsys, degree):
    # p^{n+1}·p·degree cell updates: degree 200000 passes the cheapest image
    # (p = 2: 800000) but not p = 7 (9.8·10^6); 10^9 is refused as the file
    # is read, before a coefficient list of that length is built
    path = tmp_path / "cover.txt"
    path.write_text(f"weights 2\naux-weight 1\ndegree {degree}\n")
    t0 = time.perf_counter()
    code, out, err = run_cli(
        ["image-density", "--cover", str(path), "--primes", "7"], capsys
    )
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == "budget"
    assert time.perf_counter() - t0 < 0.5


def test_image_density_cover_file_time_follows_its_c_lines(tmp_path, capsys):
    # t^200000 has the root 0 mod every p; Horner skips the zero c_j, so the
    # run takes one step per c line, not per degree
    path = tmp_path / "cover.txt"
    path.write_text("weights 2\naux-weight 1\ndegree 200000\n")
    t0 = time.perf_counter()
    code, out, _ = run_cli(["image-density", "--cover", str(path), "--primes", "2,3"], capsys)
    assert (code, out) == (0, "p,density\n2,1\n3,1\n")
    assert time.perf_counter() - t0 < 1.0


def test_image_density_cover_file_degree_takes_the_explicit_budget(tmp_path, capsys):
    # the mod-2 image of a degree-50 cover in one coordinate: 2^2 * 50 = 200
    path = tmp_path / "cover.txt"
    path.write_text("weights 2\naux-weight 1\ndegree 50\n")
    argv = ["image-density", "--cover", str(path), "--primes", "2"]
    code, out, err = run_cli([*argv, "--budget", "199"], capsys)
    assert (code, out) == (3, "")
    assert "at least 200 cell updates" in json.loads(err)["message"]
    code, out, _ = run_cli([*argv, "--budget", "200"], capsys)
    assert (code, out) == (0, "p,density\n2,1\n")


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


def test_image_density_sidecar_records_the_budget_applied(tmp_path, capsys):
    # without --budget the density default applies, not the tuple budget
    for flags, budget in (([], "5000000"), (["--budget", "200"], "200")):
        out = tmp_path / "density.csv"
        code, _, _ = run_cli(["image-density", "--cover", "two-torsion-g1", "--primes", "2",
                              "--output", str(out), *flags], capsys)
        assert code == 0
        assert json.loads((tmp_path / "density.csv.json").read_text())["config"]["budget"] == budget


def test_fit_bad_census_count_names_its_line(tmp_path, capsys):
    path = tmp_path / "census.csv"
    path.write_text("B,total,thin,thin_label\n1,1,0,none\n\n2,8,x,none\n")
    code, out, err = run_cli(["fit", "--input", str(path)], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["message"].startswith(f"{path}:4: invalid literal for int()")


@pytest.mark.parametrize("rows, i", [
    ("1,1,0,none\n2,8,0,none\n4,64,0,none\n8,1" + "0" * 400 + ",0,none\n", 4),
    ("1,1,0,none\n2,8,0,none\n4,64,0,none\n1" + "0" * 400 + ",512,0,none\n", 4),
    # B must increase, so a B that rounds to 0.0 can only come first
    ("1/1" + "0" * 400 + ",1,0,none\n2,8,0,none\n4,64,0,none\n", 1),
], ids=["total", "B", "B underflow"])
def test_fit_refuses_values_past_float_range(tmp_path, capsys, rows, i):
    path = tmp_path / "census.csv"
    path.write_text("B,total,thin,thin_label\n" + rows)
    code, out, err = run_cli(["fit", "--input", str(path)], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "validation", "message":
                               f"census row {i}: B or total is past the float range"}


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
        ["count", "--weights", "1,1", "--height-max", "1", "--workers", "abc"],
        ["count", "--weights", "1,1", "--height-max", "1", "--budget", "abc"],
    ]
    for argv in cases:
        code, out, err = run_cli(argv, capsys)
        assert code == 2, argv
        assert json.loads(err.splitlines()[-1])["error"] == "validation", argv


@pytest.mark.parametrize("argv, config, message", [
    (["count", "--heights", "2"], None, "count requires --weights"),
    (["count", "--weights", "1,1", "--heights", "1", "--budget", "0"], None,
     "budget must be >= 1, got 0"),
    (["count", "--weights", "1,1", "--heights", "0"], None, "heights must be positive"),
    (["sieve-bound", "--weights", "1,1", "--height-max", "1", "--Q", "2"], None,
     "sieve-bound requires --residues FILE or --density NU"),
    (["image-density", "--cover", "square-coord"], None,
     "image-density requires --primes or --p-max"),
    (["count", "--weights", "1,1", "--heights", "1"], "force=maybe\n",
     "expected a boolean, got 'maybe'"),
    (["count", "--weights", "1,1", "--heights", "1"], "# job\nweights 1,1\n",
     "{cfg}:2: expected key=value, got 'weights 1,1'"),
])
def test_validation_messages(argv, config, message, tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    if config is not None:
        cfg.write_text(config)
        argv = [*argv, "--config", str(cfg)]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "validation", "message": message.format(cfg=cfg)}


def test_config_force_with_comments_and_blank_lines(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("# a budget of one tuple, lifted\n\nforce = yes\n   \nweights = 1,1\n")
    argv = ["count", "--height-max", "1", "--budget", "1"]
    assert run_cli(argv + ["--weights", "1,1"], capsys)[0] == 3
    code, out, err = run_cli(argv + ["--config", str(cfg)], capsys)
    assert (code, out, err) == (0, "B,count\n1,4\n", "")


COMMON_OPTIONS = {"-h", "--help", "--config", "--output", "--workers", "--budget", "--force"}
SIEVE_OPTIONS = {"--weights", "--height-max", "--Q", "--residues", "--density", "--m"}
COMMAND_OPTIONS = {
    "count": {"--weights", "--heights", "--height-max"},
    "count-integral": {"--weights", "--heights", "--height-max"},
    "enumerate": {"--weights", "--height-max", "--integral"},
    "sieve-bound": SIEVE_OPTIONS,
    "survivors": SIEVE_OPTIONS,
    "ls-check": SIEVE_OPTIONS,
    "image-density": {"--cover", "--p-max", "--primes"},
    "census": {"--genus", "--heights", "--thin", "--smooth-only"},
    "fit": {"--input", "--column"},
    "qf-reduce": {"--D", "--weights", "--coords"},
    "qf-G": {"--D", "--Q", "--density"},
}


def help_options(text):
    """The option strings listed in an argparse help text."""
    found = re.findall(r"^  (--?[\w-]+)(?: [A-Z_]+)?(?:, (--?[\w-]+))?", text, re.M)
    return {opt for pair in found for opt in pair if opt}


@pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
def test_command_surface(command, tmp_path, capsys):
    code, out, _ = run_cli([command, "--help"], capsys)
    assert code == 0
    assert help_options(out) == COMMON_OPTIONS | COMMAND_OPTIONS[command]
    code, out, _ = run_cli(["--help"], capsys)
    assert code == 0
    assert re.search(rf"^ +{re.escape(command)} +\S", out, re.M)  # name, help line
    # a config key that only another command takes is refused
    foreign = "genus" if "--weights" in COMMAND_OPTIONS[command] else "weights"
    cfg = tmp_path / "job.cfg"
    cfg.write_text(f"{foreign}=1\n")
    code, _, err = run_cli([command, "--config", str(cfg)], capsys)
    assert code == 2
    assert json.loads(err)["message"] == f"config key {foreign!r} is not valid for {command!r}"


def test_main_reads_sys_argv(monkeypatch, capsys):
    # the path of the console script and of `python -m wpsieve.cli`
    monkeypatch.setattr(sys, "argv", ["wpsieve", "count", "--weights", "4,6", "--height-max", "1"])
    code = cli.main()
    assert (code, capsys.readouterr().out) == (0, "B,count\n1,8\n")


def test_budget_exit_and_force(capsys):
    argv = ["count", "--weights", "1,1", "--height-max", "3", "--budget", "10"]
    code, _, err = run_cli(argv, capsys)
    assert code == 3
    assert json.loads(err)["error"] == "budget"
    code, out, _ = run_cli(argv + ["--force"], capsys)
    assert code == 0
    assert out == "B,count\n3,16\n"


def test_sieve_Q_counts_against_the_budget(capsys):
    # every prime up to Q would be sieved: Q past the budget is refused first
    sieve_argv = ["sieve-bound", "--weights", "1,1", "--height-max", "1", "--density", "1/3"]
    for argv in (["qf-G", "--D", "2", "--Q", "10000000000", "--density", "1/3"],
                 sieve_argv + ["--Q", "1001", "--budget", "1000"],
                 ["survivors", *sieve_argv[1:], "--Q", "1001", "--budget", "1000"],
                 ["ls-check", *sieve_argv[1:], "--Q", "1001", "--budget", "1000"]):
        t0 = time.perf_counter()
        code, _, err = run_cli(argv, capsys)
        assert (code, json.loads(err)["error"]) == (3, "budget"), argv
        assert time.perf_counter() - t0 < 1, argv
    code, out, _ = run_cli(sieve_argv + ["--Q", "300000"], capsys)
    assert (code, out) == (0, "B,Q,m,G,bound\n1,300000,1,38933.96875,2.08044549791e+17\n")


def test_census_budget_past_float_range(capsys):
    # the column width at B = 1e52 needs integer roots of values past 1e308
    argv = ["census", "--genus", "1", "--heights", "1e52"]
    for extra in ([], ["--force"]):
        code, out, err = run_cli(argv + extra, capsys)
        assert (code, out) == (3, "")
        assert json.loads(err)["error"] == "budget"


def test_census_budget_counts_column_work(capsys):
    # the box at B = 12 holds 2.5e11 tuples; the genus-1 closed form needs ~5.5e4 steps
    code, out, _ = run_cli(["census", "--genus", "1", "--heights", "2,4,8,12"], capsys)
    assert code == 0
    assert out.splitlines()[-1] == "12,247429284466,11725994,two-torsion"


@pytest.mark.parametrize("heights, last", [
    # the column kernel's value
    ("16,20", "20,40919428904144,251643360,two-torsion"),
    # the column kernel's value under --force (5.8e9 steps); the closed form
    # takes 2.2e6 and runs within the default budget
    ("24,30", "30,2359614622064502,2867500566,two-torsion"),
])
def test_census_genus1_closed_form_pins(heights, last, capsys):
    code, out, _ = run_cli(["census", "--genus", "1", "--heights", heights], capsys)
    assert code == 0
    assert out.splitlines()[-1] == last


@pytest.mark.parametrize("genus, heights, last", [
    # the prefix walk's values (B = 3 was refused at 8.4e10 steps; the value
    # is that of independent divisor-count prototypes)
    ("2", "5/2", "2.5,2248004443898,1458933060,two-torsion"),
    ("3", "3/2", "1.5,224056143464,1667513482,two-torsion"),
    ("2", "3", "3,368571918830684,55698278880,two-torsion"),
])
def test_census_root_sets_pins(genus, heights, last, capsys):
    code, out, _ = run_cli(["census", "--genus", genus, "--heights", heights], capsys)
    assert code == 0
    assert out.splitlines()[-1] == last


@pytest.mark.parametrize("genus", ["1", "2"])
def test_census_budget_charges_the_mertens_tables(genus, capsys):
    # B + 1 entries of the dense Mertens table, charged before it is built
    t0 = time.perf_counter()
    code, out, err = run_cli(["census", "--genus", genus, "--heights", str(10**15),
                              "--thin", "none"], capsys)
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == "budget"
    assert str(10**15 + 1) in json.loads(err)["message"]
    assert time.perf_counter() - t0 < 1


@pytest.mark.parametrize("argv, last", [
    # the closed form alone: no prefix is visited, so only the 301 entries
    # of the Mertens table are charged
    (["--heights", "300"], "300,23596131875558449228905598,0,none"),
    # only the singular search (6,407 steps) and the table's 41 entries, not
    # the 5.1e6 prefixes
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
