import numpy as np
import pytest

import lapspec
from lapspec import cli, reference
from lapspec.cli import main


def _read(path):
    return path.read_text(encoding="utf-8")


def _csv_rows(text):
    lines = text.strip().split("\n")
    return lines[0].split(","), [l.split(",") for l in lines[1:]]


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def test_no_command_is_usage_error(capsys):
    assert main([]) == 1
    assert "missing command" in capsys.readouterr().err


def test_missing_required_flags(capsys):
    assert main(["solve"]) == 1
    err = capsys.readouterr().err
    assert "--domain" in err and "--method" in err
    assert main(["compare", "--domain-a", "gww-a"]) == 1
    assert "--domain-b" in capsys.readouterr().err
    assert main(["sweep"]) == 1
    assert "--eps" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "--domain", "unit-square", "--method", "mps", "--bc", "steklov"],
    ["solve", "--domain", "unit-disk", "--method", "bie", "--bc", "dirichlet"],
    ["solve", "--domain", "unit-square", "--method", "fem-cr", "--bc", "steklov"],
    ["solve", "--domain", "unit-square", "--method", "bie", "--bc", "steklov"],
    ["solve", "--domain", "unit-disk", "--method", "mps", "--bracket", "19:21"],
])
def test_incompatible_combinations_exit_one(argv, capsys, tmp_path):
    assert main(argv + ["--out", str(tmp_path)]) == 1
    assert "compatibility" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit):
        main(["--version"])
    assert capsys.readouterr().out.strip() == lapspec.__version__


@pytest.mark.parametrize("argv", [
    ["sweep", "--eps", "0:0.4:3", "--n", "96", "--threads", "2"],
    ["bounds", "--domain", "unit-square", "--levels", "3", "--seed", "3"],
])
def test_removed_flags_are_usage_errors(argv, capsys, tmp_path):
    # no command takes --threads, and --seed is a solve flag
    assert main(argv + ["--out", str(tmp_path)]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_compare_levels_too_few_to_extrapolate_is_usage_error(capsys, tmp_path):
    # like solve, compare extrapolates only from --levels 3
    for levels in ("1", "2"):
        assert main(["compare", "--domain-a", "dn-square", "--domain-b",
                     "dn-triangle", "--levels", levels, "--out", str(tmp_path)]) == 1
        assert "--levels" in capsys.readouterr().err


def test_bad_grid_syntax(capsys):
    assert main(["sweep", "--eps", "0.5"]) == 1
    assert main(["sweep", "--eps", "0:1"]) == 1


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_bie_reports_the_node_count_after_a_halving(monkeypatch, tmp_path):
    # with the gate at 1.2e3 the concentric annulus is rejected at 330 nodes
    # per curve (condition 1.66e3) and solved at 164
    monkeypatch.setattr(lapspec.pencil, "COND_GATE", 1.2e3)
    with pytest.warns(UserWarning, match="retrying"):
        assert main(["solve", "--domain", "annulus:eps=0", "--method", "bie",
                     "--bc", "steklov", "--n", "330", "--count", "5",
                     "--out", str(tmp_path)]) == 0
    _, rows = _csv_rows(_read(tmp_path / "spectrum.csv"))
    assert {r[4] for r in rows} == {"n=164"}


def test_solve_bie_disk(tmp_path, capsys):
    assert main(["solve", "--domain", "unit-disk", "--method", "bie",
                 "--bc", "steklov", "--n", "64", "--count", "7",
                 "--out", str(tmp_path)]) == 0
    header, rows = _csv_rows(_read(tmp_path / "spectrum.csv"))
    assert header == ["index", "eigenvalue", "multiplicity", "method",
                      "param", "domain", "version"]
    assert len(rows) == 7
    vals = [float(r[1]) for r in rows]
    assert np.allclose(vals, [0, 1, 1, 2, 2, 3, 3], atol=1e-10)
    assert [int(r[2]) for r in rows] == [1, 2, 2, 2, 2, 2, 2]
    assert all(r[3] == "bie" for r in rows)
    assert all(r[4] == "n=64" for r in rows)
    assert all(r[5] == "unit-disk" for r in rows)
    assert all(r[6] == lapspec.__version__ for r in rows)


def test_solve_fem_extrapolated_square(tmp_path):
    assert main(["solve", "--domain", "unit-square", "--method", "fem-p2",
                 "--bc", "dirichlet", "--count", "3", "--levels", "4",
                 "--out", str(tmp_path)]) == 0
    header, rows = _csv_rows(_read(tmp_path / "spectrum.csv"))
    exact = reference.rectangle_spectra("dirichlet", count=3).values
    got = np.array([float(r[1]) for r in rows])
    assert np.max(np.abs(got - exact) / exact) < 1e-5
    assert rows[0][3] == "fem-p2"
    assert rows[0][4].startswith("levels=2-4;h=")
    assert rows[0][4].endswith(";extrapolated")


def test_solve_fem_single_level_no_extrapolation(tmp_path):
    assert main(["solve", "--domain", "unit-square", "--method", "fem-p1",
                 "--count", "2", "--levels", "2", "--out", str(tmp_path)]) == 0
    _, rows = _csv_rows(_read(tmp_path / "spectrum.csv"))
    assert rows[0][4].startswith("h=")
    assert "extrapolated" not in rows[0][4]


def test_solve_modes_svg(tmp_path):
    assert main(["solve", "--domain", "unit-square", "--method", "fem-p2",
                 "--count", "4", "--levels", "3", "--modes", "1,2",
                 "--out", str(tmp_path)]) == 0
    svg = _read(tmp_path / "modes.svg")
    assert svg.startswith("<svg")
    assert svg.count("<polygon") == 2
    assert "<line" in svg
    assert "#2" in svg


def test_solve_modes_out_of_range_is_quality_error(tmp_path, capsys):
    assert main(["solve", "--domain", "unit-square", "--method", "fem-p1",
                 "--count", "2", "--levels", "2", "--modes", "9",
                 "--out", str(tmp_path)]) == 2
    assert "numerical-quality rejection" in capsys.readouterr().err


def test_solve_mps_bracket(tmp_path, capsys):
    assert main(["solve", "--domain", "unit-square", "--method", "mps",
                 "--bracket", "19:21", "--basis-size", "12",
                 "--out", str(tmp_path)]) == 0
    enc_header, enc_rows = _csv_rows(_read(tmp_path / "enclosure.csv"))
    assert enc_header == ["lambda_h", "lower", "upper", "epsilon", "caveat"]
    lam, lo, hi, eps, caveat = enc_rows[0]
    assert float(lo) <= 2 * np.pi**2 <= float(hi)
    assert abs(float(lam) - 2 * np.pi**2) < 1e-6
    assert caveat == "true"
    _, rows = _csv_rows(_read(tmp_path / "spectrum.csv"))
    assert rows[0][3] == "mps"
    assert rows[0][4].startswith("K=12;eps=")


def test_solve_mps_grid(tmp_path):
    assert main(["solve", "--domain", "unit-square", "--method", "mps",
                 "--grid", "18:22:9", "--basis-size", "10",
                 "--out", str(tmp_path)]) == 0
    header, rows = _csv_rows(_read(tmp_path / "smin.csv"))
    assert header == ["lambda", "smin"]
    assert len(rows) == 9
    s = np.array([float(r[1]) for r in rows])
    assert np.argmin(s) not in (0, len(s) - 1)


def test_solve_mps_needs_bracket_or_grid(tmp_path, capsys):
    assert main(["solve", "--domain", "unit-square", "--method", "mps",
                 "--out", str(tmp_path)]) == 1
    assert "--bracket" in capsys.readouterr().err


def test_solve_mps_empty_bracket_is_quality_error(tmp_path, capsys):
    assert main(["solve", "--domain", "unit-square", "--method", "mps",
                 "--bracket", "21:24", "--basis-size", "12",
                 "--out", str(tmp_path)]) == 2
    assert "numerical-quality rejection" in capsys.readouterr().err


def test_solve_scaled_drum_enclosure(tmp_path):
    # dilating by 2 divides eigenvalues by 4
    assert main(["solve", "--domain", "unit-square", "--method", "mps",
                 "--scale", "2", "--bracket", "4.5:5.5", "--basis-size", "12",
                 "--out", str(tmp_path)]) == 0
    _, rows = _csv_rows(_read(tmp_path / "enclosure.csv"))
    assert float(rows[0][0]) == pytest.approx(np.pi**2 / 2, abs=1e-7)


# ---------------------------------------------------------------------------
# compare / sweep / bounds / validate
# ---------------------------------------------------------------------------

def test_compare_mixed_pair_consistent(tmp_path, capsys):
    assert main(["compare", "--domain-a", "dn-square", "--domain-b",
                 "dn-triangle", "--bc", "mixed", "--count", "2",
                 "--levels", "4", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "overall verdict: consistent-with-equal" in out
    header, rows = _csv_rows(_read(tmp_path / "compare.csv"))
    assert header == ["index", "value_a", "value_b", "width_a", "width_b",
                      "verdict"]
    assert rows[-1][-1] == "consistent-with-equal"
    assert float(rows[0][1]) == pytest.approx(1.25 * np.pi**2, rel=1e-3)


def test_sweep_csv_and_monotonicity(tmp_path, capsys):
    assert main(["sweep", "--eps", "0:0.4:3", "--n", "128", "--k", "1,2",
                 "--out", str(tmp_path)]) == 0
    header, rows = _csv_rows(_read(tmp_path / "sweep.csv"))
    assert header == ["eps", "k", "sigma", "ratio_to_concentric", "N"]
    assert len(rows) == 6
    assert float(rows[0][3]) == 1.0  # eps = 0 normalizes itself
    assert all(r[4] == "128" for r in rows)
    assert "sigma_1: strictly decreasing" in capsys.readouterr().out


def test_sweep_odd_total_rejected(tmp_path, capsys):
    assert main(["sweep", "--eps", "0:0.4:3", "--n", "127",
                 "--out", str(tmp_path)]) == 1


def test_bounds_report(tmp_path, capsys):
    assert main(["bounds", "--domain", "unit-square", "--index", "1",
                 "--levels", "4", "--out", str(tmp_path)]) == 0
    text = _read(tmp_path / "bracket.csv")
    assert "# bracket report: domain=unit-square index=1 certified=true" in text
    enc = next(l for l in text.split("\n") if l.startswith("# enclosure"))
    lo, hi = float(enc.split(",")[1]), float(enc.split(",")[2])
    assert lo <= 2 * np.pi**2 <= hi


def test_validate_passes(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "all validation checks passed" in out
    assert out.count("PASS") == 8
    assert "FAIL" not in out


# ---------------------------------------------------------------------------
# reproducibility and configuration
# ---------------------------------------------------------------------------

def test_identical_runs_are_bitwise_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    argv = ["sweep", "--eps", "0:0.3:4", "--n", "96", "--k", "1"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()


def test_mps_seed_reproducibility(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    argv = ["solve", "--domain", "unit-square", "--method", "mps",
            "--bracket", "19:21", "--basis-size", "12"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert (a / "enclosure.csv").read_bytes() == (b / "enclosure.csv").read_bytes()
    # another interior sample offset moves the floating-point details but
    # locates the same eigenvalue
    assert main(argv + ["--seed", "91", "--out", str(c)]) == 0
    la = float(_read(a / "enclosure.csv").splitlines()[1].split(",")[0])
    lc = float(_read(c / "enclosure.csv").splitlines()[1].split(",")[0])
    assert abs(la - lc) < 1e-6


def test_config_file_with_flag_override(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("domain = unit-square\nmethod = fem-p1\n"
                    "count = 2\nlevels = 4\n# comment line\n")
    out = tmp_path / "out"
    assert main(["--config", str(conf), "solve", "--count", "3",
                 "--out", str(out)]) == 0
    _, rows = _csv_rows(_read(out / "spectrum.csv"))
    assert len(rows) == 3  # explicit flag beats the config value


def test_config_unknown_key(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("wavelength = 7\n")
    assert main(["--config", str(conf), "solve", "--domain", "unit-square",
                 "--method", "fem-p1"]) == 1
    assert "wavelength" in capsys.readouterr().err


def test_config_syntax_error(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("just words\n")
    assert main(["--config", str(conf), "validate"]) == 1
    assert "key=value" in capsys.readouterr().err


def test_outdir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("SPECTRA_OUT", str(tmp_path / "envout"))
    assert main(["solve", "--domain", "unit-square", "--method", "fem-p1",
                 "--count", "2", "--levels", "2"]) == 0
    assert (tmp_path / "envout" / "spectrum.csv").exists()
