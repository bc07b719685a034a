import ast
import importlib
import re
import shlex
from pathlib import Path

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
    ["solve", "--domain", "unit-square", "--method", "bie", "--bc", "steklov"],
    ["solve", "--domain", "unit-disk", "--method", "mps", "--bracket", "19:21"],
    ["compare", "--domain-a", "unit-disk", "--domain-b", "gww-b"],
    ["bounds", "--domain", "unit-disk"],
])
def test_incompatible_combinations_exit_one(argv, capsys, tmp_path):
    assert main(argv + ["--out", str(tmp_path)]) == 1
    assert "compatibility" in capsys.readouterr().err


@pytest.mark.parametrize("domain", ["unit-disk", "annulus:eps=0.3"])
def test_bounds_names_itself_for_a_circle_domain(domain, capsys, tmp_path):
    # bounds picks its FEM methods itself, so the message names bounds and
    # not the fem-p2 it loads the domain for
    out = tmp_path / "out"
    assert main(["bounds", "--domain", domain, "--out", str(out)]) == 1
    first = capsys.readouterr().err.splitlines()[0]
    assert first == "lapspec bounds: needs a polygon domain"
    assert not out.exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit):
        main(["--version"])
    assert capsys.readouterr().out.strip() == lapspec.__version__


@pytest.mark.parametrize("argv", [
    ["sweep", "--eps", "0:0.4:3", "--n", "96", "--threads", "2"],
    ["bounds", "--domain", "unit-square", "--levels", "3", "--seed", "3"],
    ["solve", "--domain", "unit-square", "--method", "fem-cr", "--bc", "steklov",
     "--cr-midpoint"],
    ["compare", "--domain-a", "gww-a", "--domain-b", "gww-b", "--method", "fem-cr",
     "--bc", "steklov", "--cr-midpoint"],
])
def test_removed_flags_are_usage_errors(argv, capsys, tmp_path):
    # no command takes --threads or --cr-midpoint, and --seed is a solve flag
    assert main(argv + ["--out", str(tmp_path)]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def _plain(args):
    return {k: v.tolist() if isinstance(v, np.ndarray) else v
            for k, v in vars(args).items() if k != "config"}


def test_readme_command_lines_parse(tmp_path):
    # each README command parses, and the same flags written as a config
    # file parse to the same values
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    lines = [l for l in block.splitlines() if l.startswith("lapspec ")]
    assert len(lines) >= 5
    for n, line in enumerate(lines):
        command, *flags = shlex.split(line)[1:]
        typed = cli.build_parser().parse_args([command] + flags)
        conf = tmp_path / f"readme-{n}.conf"
        conf.write_text("".join(f"{key[2:]} = {value}\n"
                                for key, value in zip(flags[::2], flags[1::2])))
        from_config = cli.parse_args(["--config", str(conf), command])
        assert _plain(from_config) == _plain(typed), line


def test_readme_quick_start_imports_exist():
    # the quick start is parsed, not run: every name it imports from
    # lapspec must exist, so removing one cannot leave the README stale
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    imports = [node for node in ast.walk(ast.parse(code))
               if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.module.split(".")[0] == "lapspec"
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"


def test_compare_levels_too_few_to_extrapolate_is_usage_error(capsys, tmp_path):
    # like solve, compare extrapolates only from --levels 3
    for levels in ("1", "2"):
        assert main(["compare", "--domain-a", "dn-square", "--domain-b",
                     "dn-triangle", "--levels", levels, "--out", str(tmp_path)]) == 1
        assert "--levels" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["sweep", "--eps", "0:0.4:3", "--k", ","], "--k"),
    (["solve", "--domain", "unit-square", "--method", "fem-p1", "--modes", ","],
     "--modes"),
    (["solve", "--domain", "unit-square", "--method", "mps", "--bracket", "19:21",
      "--corners", ","], "--corners"),
], ids=["k", "modes", "corners"])
def test_empty_index_list_is_usage_error(argv, flag, capsys, tmp_path):
    assert main(argv + ["--out", str(tmp_path)]) == 1
    assert f"argument {flag}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, flag", [
    (["sweep", "--eps", "0:0.4:3", "--k", "0"], "--k"),
    (["solve", "--domain", "unit-square", "--method", "fem-p1", "--modes", "0"],
     "--modes"),
    (["solve", "--domain", "unit-square", "--method", "fem-p1", "--count", "2",
      "--levels", "2", "--modes", "9"], "--modes"),
], ids=["k0", "modes0", "modes-above-count"])
def test_mode_index_out_of_range_is_usage_error(argv, flag, capsys, tmp_path):
    # rejected before any solve: nothing is written
    assert main(argv + ["--out", str(tmp_path)]) == 1
    assert flag in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["sweep", "--eps", "0:0.4:3", "--n", "662"],
    ["sweep", "--eps", "0:0.4:3", "--n", "661"],
    ["solve", "--domain", "unit-disk", "--method", "bie", "--bc", "steklov",
     "--n", "129"],
    ["solve", "--domain", "unit-disk", "--method", "bie", "--bc", "steklov",
     "--n", "2"],
], ids=["sweep-odd-halves", "sweep-odd", "solve-odd", "solve-2"])
def test_node_count_is_usage_error(argv, capsys, tmp_path):
    # every curve needs an even node count of at least 4; the sweep's --n is
    # the total over its two circles
    assert main(argv + ["--out", str(tmp_path)]) == 1
    assert "argument --n" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, flag", [
    (["sweep", "--eps", "nan:0.5:3"], "--eps"),
    (["sweep", "--eps", "0:inf:3"], "--eps"),
    (["solve", "--domain", "gww-a", "--method", "fem-p1", "--scale", "nan"],
     "--scale"),
    (["solve", "--domain", "gww-a", "--method", "fem-p1", "--scale", "inf"],
     "--scale"),
    (["solve", "--domain", "gww-a", "--method", "fem-p1", "--scale", "0"],
     "--scale"),
    (["solve", "--domain", "gww-a", "--method", "mps", "--bracket", "nan:27"],
     "--bracket"),
    (["solve", "--domain", "gww-a", "--method", "mps", "--grid", "25:inf:3"],
     "--grid"),
], ids=["eps-nan", "eps-inf", "scale-nan", "scale-inf", "scale-0", "bracket-nan",
        "grid-inf"])
def test_non_finite_or_non_positive_flag_is_usage_error(argv, flag, capsys, tmp_path):
    assert main(argv + ["--out", str(tmp_path)]) == 1
    assert f"argument {flag}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


MPS_SQUARE = ["solve", "--domain", "unit-square", "--method", "mps", "--bracket",
              "19:21"]


@pytest.mark.parametrize("argv, flag", [
    (["sweep", "--eps", "0:0.95:3"], "--eps"),
    (["sweep", "--eps", "0:0.9:3"], "--eps"),
    (["sweep", "--eps=-0.2:0.5:3"], "--eps"),
    (["solve", "--domain", "gww-a", "--method", "mps", "--bracket", "27:25"],
     "--bracket"),
    (["solve", "--domain", "gww-a", "--method", "mps", "--bracket", "0:27"],
     "--bracket"),
    (["solve", "--domain", "gww-a", "--method", "mps", "--grid=-5:5:3"], "--grid"),
    (["solve", "--domain", "gww-a", "--method", "mps", "--grid", "0:5:3"], "--grid"),
    (["bounds", "--domain", "unit-square", "--index", "1", "--levels", "1"],
     "--levels"),
    (["bounds", "--domain", "unit-square", "--index", "1", "--levels", "2"],
     "--levels"),
    (MPS_SQUARE + ["--basis-size", "101"], "--basis-size"),
    (MPS_SQUARE + ["--corners", "reentrant"], "--corners"),
    (MPS_SQUARE + ["--corners", "9"], "--corners"),
    (["solve", "--domain", "gww-a", "--method", "mps", "--bracket", "25:27",
      "--corners=-1"], "--corners"),
    (MPS_SQUARE + ["--corners", "1,1"], "--corners"),
    (MPS_SQUARE + ["--corners", "auto"], "--corners"),
    (MPS_SQUARE + ["--seed=-100"], "--seed"),
    # a repeated --k wrote its sweep rows twice and printed a wrong verdict
    (["sweep", "--eps", "0:0.5:3", "--n", "128", "--k", "1,2,1"], "--k: index repeated"),
    (["solve", "--domain", "unit-square", "--method", "fem-p1", "--count", "3",
      "--levels", "2", "--modes", "1,1"], "--modes: index repeated"),
], ids=["eps-0.95", "eps-0.9", "eps-negative", "bracket-reversed", "bracket-zero",
        "grid-negative", "grid-zero", "bounds-levels-1", "bounds-levels-2",
        "basis-size-above-bessel-domain", "corners-no-reflex", "corner-9",
        "corner-minus-1", "corner-repeated", "corners-auto-retired",
        "seed-negative", "k-repeated", "modes-repeated"])
def test_out_of_range_flag_is_usage_error(argv, flag, capsys, tmp_path):
    # rejected before any solve: exit 1, the flag named, nothing written
    assert main(argv + ["--out", str(tmp_path)]) == 1
    assert flag in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("method, domain", [
    ("bie", "annulus:eps=nan"),
    ("bie", "c 0 0 1 ccw\nc 0 nan 0.1 cw\n"),
    ("fem-p1", "v 0 0\nv nan 1\nv 1 1\n"),
    ("fem-p1", "v 0 0\nv inf 1\nv 1 1\n"),
    ("fem-p1", "v 0 0\nv 0 1\nv 1 0\n"),
    ("fem-p1", "v 0 0\nv 1 0\nv 1 1\nv 0 1\ne 5 2 neumann\n"),
    ("fem-p1", "v 0 0\nv 1 0\nv 1 1\nv 0 1\ne -1 0 neumann\n"),
    ("fem-p1", "v 0 0\nv 1 0\nv 1 1\nv 0 1\ne 0 1 neumann\ne 0 1 dirichlet\n"),
    ("fem-p1", "v 0 0\nv 1 0\nv 1 1\nv 0 1\nweight genus2\nweight unit\n"),
    ("bie", "c 0 0 1 ccw\ne 0 1 neumann\n"),
    ("fem-p1", None),
], ids=["annulus-nan", "centre-nan", "vertex-nan", "vertex-inf", "clockwise",
        "edge-past-the-end", "edge-negative", "edge-twice", "weight-twice",
        "edge-in-circle-file", "missing-file"])
def test_invalid_domain_is_usage_error(method, domain, capsys, tmp_path):
    # rejected where the domain enters, before the output directory is made
    if domain is None or "\n" in domain:
        path = tmp_path / "shape.dom"
        if domain is not None:
            path.write_text(domain)
        domain = str(path)
    out = tmp_path / "out"
    assert main(["solve", "--domain", domain, "--method", method, "--bc",
                 "steklov" if method == "bie" else "dirichlet",
                 "--out", str(out)]) == 1
    assert "invalid domain" in capsys.readouterr().err
    assert not out.exists()


WEIGHTED_SQUARE = "v 0 0\nv 1 0\nv 1 1\nv 0 1\nweight genus2\n"
WEIGHTED_DISK = "c 0 0 1 ccw\nweight genus2\n"


@pytest.mark.parametrize("text, argv", [
    (WEIGHTED_SQUARE, ["solve", "--method", "mps", "--bc", "dirichlet",
                       "--bracket", "19:21"]),
    (WEIGHTED_DISK, ["solve", "--method", "bie", "--bc", "steklov"]),
    (WEIGHTED_SQUARE, ["solve", "--method", "fem-p1", "--bc", "steklov",
                       "--levels", "1"]),
    (WEIGHTED_SQUARE, ["compare", "--bc", "steklov", "--domain-b", "unit-square"]),
], ids=["mps", "bie", "fem-steklov", "compare-steklov"])
def test_weight_without_a_unit_weight_solver_is_usage_error(text, argv, capsys,
                                                              tmp_path):
    # the MPS fans and bound, and every Steklov solve, hold for the unit
    # weight only: MPS would locate the unit-weight 2 pi^2 on this square
    path = tmp_path / "weighted.dom"
    path.write_text(text)
    flag = "--domain-a" if argv[0] == "compare" else "--domain"
    out = tmp_path / "out"
    assert main(argv + [flag, str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "weight genus2" in err and "unit weight" in err
    assert not out.exists()


def test_weighted_dirichlet_fem_still_solves(tmp_path):
    path = tmp_path / "weighted.dom"
    path.write_text(WEIGHTED_SQUARE)
    assert main(["solve", "--domain", str(path), "--method", "fem-p1", "--bc",
                 "dirichlet", "--levels", "2", "--count", "3",
                 "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "spectrum.csv").exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--domain", "unit-disk", "--method", "bie", "--bc", "steklov",
     "--count", "3"],
    ["solve", "--domain", "unit-square", "--method", "mps", "--bracket", "19:21"],
], ids=["bie", "mps"])
def test_modes_for_a_method_without_eigenfunctions_is_usage_error(argv, capsys,
                                                                  tmp_path):
    # only the FEM methods return the eigenfunctions modes.svg draws
    assert main(argv + ["--modes", "1", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    method = argv[argv.index("--method") + 1]
    assert "--modes" in err and f"--method {method}" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["solve", "--domain", "unit-disk", "--method", "bie", "--bc", "steklov",
     "--n", "16", "--count", "40"],
    ["sweep", "--eps", "0:0.5:3", "--n", "16", "--k", "20"],
], ids=["solve", "sweep"])
def test_bie_count_beyond_the_nodes_is_quality_error(argv, capsys, tmp_path):
    # 16 nodes give 16 Steklov values; asking for more writes no short CSV
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert "only 16 Steklov values at nodes" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_bad_grid_syntax(capsys):
    assert main(["sweep", "--eps", "0.5"]) == 1
    assert main(["sweep", "--eps", "0:1"]) == 1


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("count", ["5", "40"], ids=["lanczos", "eigh"])
def test_solve_bie_takes_a_tiny_hole(count, tmp_path):
    # a hole of radius 1e-11 gives the single layer cond 3.2e12 at 64 nodes
    # per curve; the solve factors only A~ and returns the disk's 0, 1, 1,
    # 2, 2
    curves = tmp_path / "tiny-hole.curves"
    curves.write_text("c 0 0 1 ccw\nc 0 0 1e-11 cw\n")
    out = tmp_path / "out"
    assert main(["solve", "--domain", str(curves), "--method", "bie",
                 "--bc", "steklov", "--n", "64", "--count", count,
                 "--out", str(out)]) == 0
    _, rows = _csv_rows(_read(out / "spectrum.csv"))
    assert len(rows) == int(count)
    vals = [float(r[1]) for r in rows[:5]]
    assert np.allclose(vals, [0, 1, 1, 2, 2], rtol=0, atol=1e-12)


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
                 "--bc", "dirichlet", "--count", "4", "--levels", "4",
                 "--out", str(tmp_path)]) == 0
    header, rows = _csv_rows(_read(tmp_path / "spectrum.csv"))
    exact = reference.rectangle_spectra("dirichlet", count=3).values
    got = np.array([float(r[1]) for r in rows[:3]])
    assert np.max(np.abs(got - exact) / exact) < 1e-5
    # 2, 5, 5, 8 pi^2: the double value is written once per member
    assert [int(r[2]) for r in rows] == [1, 2, 2, 1]
    assert rows[1][1] == rows[2][1]
    assert rows[0][3] == "fem-p2"
    assert rows[0][4].startswith("levels=2-4;h=")
    assert rows[0][4].endswith(";extrapolated")


def test_solve_fem_single_level_no_extrapolation(tmp_path):
    assert main(["solve", "--domain", "unit-square", "--method", "fem-p1",
                 "--count", "2", "--levels", "2", "--out", str(tmp_path)]) == 0
    _, rows = _csv_rows(_read(tmp_path / "spectrum.csv"))
    assert rows[0][4].startswith("h=")
    assert "extrapolated" not in rows[0][4]


def test_solve_cr_steklov_is_midpoint_lumped(tmp_path):
    assert main(["solve", "--domain", "unit-square", "--method", "fem-cr",
                 "--bc", "steklov", "--count", "3", "--levels", "2",
                 "--out", str(tmp_path)]) == 0
    _, rows = _csv_rows(_read(tmp_path / "spectrum.csv"))
    assert [r[3] for r in rows] == ["fem-cr-midpoint"] * 3


def test_solve_modes_svg(tmp_path):
    assert main(["solve", "--domain", "unit-square", "--method", "fem-p2",
                 "--count", "4", "--levels", "3", "--modes", "1,2",
                 "--out", str(tmp_path)]) == 0
    svg = _read(tmp_path / "modes.svg")
    assert svg.startswith("<svg")
    assert svg.count("<polygon") == 2
    assert "<line" in svg
    assert "#2" in svg


def test_too_coarse_extrapolation_level_is_named(tmp_path, capsys):
    # --levels 3 extrapolates over levels 1-3, and level 1 of the square has
    # a single free dof under the mixed condition
    assert main(["solve", "--domain", "unit-square", "--method", "fem-p1",
                 "--bc", "mixed", "--levels", "3", "--count", "4",
                 "--out", str(tmp_path)]) == 2
    assert "only 1 free dofs at level 1" in capsys.readouterr().err


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


def test_bounds_schedule_starts_where_the_index_fits(tmp_path, capsys):
    # index 9 exceeds the single free P1 dof of level 1; the schedule runs 2..4
    assert main(["bounds", "--domain", "unit-square", "--index", "9",
                 "--levels", "4", "--out", str(tmp_path)]) == 0
    text = _read(tmp_path / "bracket.csv")
    rows = [l for l in text.split("\n") if l[:2] in ("2,", "3,", "4,")]
    assert [int(r.split(",")[0]) for r in rows] == [2, 3, 4]
    enc = next(l for l in text.split("\n") if l.startswith("# enclosure"))
    lo, hi = float(enc.split(",")[1]), float(enc.split(",")[2])
    assert lo <= 17 * np.pi**2 <= hi
    # a Richardson limit of a lower bound is not a bound: cr_lower is not
    # extrapolated
    extrapolated = [l.split(",")[1] for l in text.split("\n")
                    if l.startswith("extrapolated,")]
    assert extrapolated == ["cr", "p1", "p2"]


@pytest.mark.parametrize("index, levels", [(40, 3), (40, 4), (10**6, 3)])
def test_bounds_index_beyond_the_schedule_is_usage_error(index, levels, tmp_path,
                                                         capsys):
    # index 40 first fits at level 3 (49 free P1 dofs): fewer than three
    # levels remain up to --levels, checked before any solve
    assert main(["bounds", "--domain", "unit-square", "--index", str(index),
                 "--levels", str(levels), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert f"--index {index}" in err and f"--levels {levels}" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("markers", [("steklov",) * 4, ("neumann", "steklov")])
def test_bounds_rejects_a_steklov_marker(markers, tmp_path, capsys):
    poly = tmp_path / "square.poly"
    poly.write_text("v 0 0\nv 1 0\nv 1 1\nv 0 1\n"
                    + "".join(f"e {i} {(i + 1) % 4} {m}\n" for i, m in enumerate(markers)))
    assert main(["bounds", "--domain", str(poly), "--levels", "3",
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "invalid domain" in err and "unknown edge marker 'steklov'" in err
    assert not (tmp_path / "bracket.csv").exists()


def test_bounds_prints_no_residual_for_the_zero_mode(tmp_path, capsys):
    # at lambda = 0 the own-term ratio divides two rounding-level norms
    poly = tmp_path / "square.poly"
    poly.write_text("v 0 0\nv 1 0\nv 1 1\nv 0 1\n"
                    + "".join(f"e {i} {(i + 1) % 4} neumann\n" for i in range(4)))

    def residuals(index):
        out = tmp_path / f"index-{index}"
        assert main(["bounds", "--domain", str(poly), "--index", str(index),
                     "--levels", "3", "--out", str(out)]) == 0
        return [l.split(",")[2] for l in _read(out / "bracket.csv").split("\n")
                if l.startswith("# cr_pencil_residual")]

    assert residuals(1) == ["nan"] * 3
    second = [float(r) for r in residuals(2)]
    assert len(second) == 3 and max(second) < 1e-10


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
                    "count = 7\nlevels = 4\n# comment line\n")
    # the typed flag beats the config value in any spelling argparse accepts
    for n, typed in enumerate([["--count", "3"], ["--count=3"], ["--cou", "3"],
                               ["--cou=3"]]):
        out = tmp_path / f"out{n}"
        assert main(["--config", str(conf), "solve", *typed, "--out", str(out)]) == 0
        _, rows = _csv_rows(_read(out / "spectrum.csv"))
        assert len(rows) == 3, typed


@pytest.mark.parametrize("lines, flag", [
    ("method = fem-p1\nlevels = 0\n", "--levels"),
    ("method = fem-p9\n", "--method"),
    ("method = fem-p1\nbc = robin\n", "--bc"),
], ids=["levels", "method", "bc"])
def test_config_values_are_checked_like_flags(lines, flag, tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text(lines)
    assert main(["--config", str(conf), "solve", "--domain", "unit-square",
                 "--out", str(tmp_path)]) == 1
    assert f"argument {flag}" in capsys.readouterr().err
    assert not (tmp_path / "spectrum.csv").exists()


@pytest.mark.parametrize("name", ["missing.conf", "."], ids=["missing", "directory"])
def test_unreadable_config_is_usage_error(name, tmp_path, capsys):
    path = str(tmp_path / name)
    assert main(["--config", path, "validate"]) == 1
    assert path in capsys.readouterr().err


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


@pytest.mark.parametrize("via", ["flag", "environment"])
def test_out_naming_an_existing_file_is_usage_error(via, tmp_path, monkeypatch, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("kept\n")
    argv = ["solve", "--domain", "unit-square", "--method", "fem-p1", "--levels", "2"]
    if via == "flag":
        argv += ["--out", str(blocker)]
    else:
        monkeypatch.setenv("SPECTRA_OUT", str(blocker))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "--out" in captured.err and "Traceback" not in captured.err
    assert "wrote" not in captured.out
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert blocker.read_text() == "kept\n"
