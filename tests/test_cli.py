"""Front-end parsing, validation exit codes and artifact layout."""

import functools
import hashlib
import itertools
import json
import math
import os
import re
import shlex
import time
from pathlib import Path

import numpy as np

import pytest

from fbmlab import ParameterError, experiments, paths, solver
from fbmlab.cli import (_dump_json, build_parser, main, parse_config_text,
                        resolve_config)
from fbmlab.experiments import ALL_CRITERIA, HEADLINE_CONFIG
from fbmlab.fields import constant_field

IDENTITY_CONFIG = """\
# small identity-coefficient setup
sigma = identity
hurst = 0.3
steps = 128
paths = 500
m = 2.0
gamma0 = 0.5
eps = 0.5, 0.25
x0 = 0.0
fbm_seed = 3
base_seed = 13
"""


def test_parse_config_text_types_and_comments():
    cfg = parse_config_text(IDENTITY_CONFIG)
    assert cfg["sigma"] == "identity"
    assert cfg["hurst"] == 0.3
    assert cfg["steps"] == 128
    assert cfg["eps"] == [0.5, 0.25]
    assert cfg["x0"] == [0.0]
    assert "gamma" not in cfg  # defaults are resolved later


@pytest.mark.parametrize("key", sorted(
    k for k, v in HEADLINE_CONFIG.items() if isinstance(v, (float, list))))
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_parse_config_text_refuses_non_finite_numbers(key, value):
    """Every float key, and every entry of a list key, must be finite."""
    if isinstance(HEADLINE_CONFIG[key], list):
        value = f"0.5, {value}"
    with pytest.raises(ParameterError) as info:
        parse_config_text(f"# lab\n{key} = {value}\n")
    assert str(info.value) == f"config line 2: {key} must be finite, got {value}"


def test_parse_config_text_rejects_unknown_and_malformed():
    with pytest.raises(ParameterError, match="line 2: unknown key 'mystery'"):
        parse_config_text("hurst = 0.2\nmystery = 1\n")
    with pytest.raises(ParameterError, match="line 1: expected key=value"):
        parse_config_text("just words\n")
    with pytest.raises(ParameterError, match="line 3"):
        parse_config_text("hurst = 0.2\n\nsteps = many\n")


def _write_config(tmp_path, text):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text(text)
    return str(cfg)


def test_hurst_threshold_violation_exits_2(tmp_path, capsys):
    path = _write_config(tmp_path, "hurst = 0.3\n")  # singular default, d=1 p=2
    assert main(["verify", "--config", path]) == 2
    assert "H exceeds H_max=0.25" in capsys.readouterr().err


def test_gamma_integrability_violation_exits_2(tmp_path, capsys):
    path = _write_config(tmp_path, "gamma = 0.5\n")  # needs gamma < d/p = 0.5
    assert main(["verify", "--config", path]) == 2
    assert "gamma" in capsys.readouterr().err


def test_eps_and_x0_validation_exit_2(tmp_path, capsys):
    path = _write_config(tmp_path, "eps = 0.25, 0.25\n")
    assert main(["solve", "--config", path]) == 2
    assert "strictly decreasing" in capsys.readouterr().err
    path = _write_config(tmp_path, "x0 = 0.0, 0.0\n")
    assert main(["solve", "--config", path]) == 2
    assert "x0" in capsys.readouterr().err


def _no_allocation(*_args, **_kwargs):
    raise AssertionError("build_scenario drew the fBm path")


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("x0", ["nan", "inf", "-inf", "2000000", "-1000000.5"])
def test_x0_beyond_the_blowup_bound_exits_2_before_any_allocation(
        tmp_path, monkeypatch, capsys, command, x0):
    """Every path would blow up at its first step; the sweep used to run in
    full and exit 3."""
    monkeypatch.setattr(experiments, "generate_fbm", _no_allocation)
    path = _write_config(tmp_path, IDENTITY_CONFIG.replace("x0 = 0.0", f"x0 = {x0}"))
    assert main([command, "--config", path]) == 2
    message = ("config line 9: x0 must be finite, got " if x0.endswith(("nan", "inf"))
               else "x0 must be finite with |x0| <= 1e+06")
    assert message in capsys.readouterr().err
    for edge in (solver.BLOWUP_BOUND, -solver.BLOWUP_BOUND):
        assert resolve_config({"x0": [edge]})["x0"] == [edge]


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_no_radius_exits_2_before_any_allocation(tmp_path, monkeypatch, capsys,
                                                 command):
    monkeypatch.setattr(experiments, "generate_fbm", _no_allocation)
    path = _write_config(tmp_path, "eps =\n")
    assert main([command, "--config", path]) == 2
    assert "at least one radius" in capsys.readouterr().err


def test_verify_with_one_radius_exits_2_before_any_allocation(tmp_path, monkeypatch,
                                                              capsys):
    """The sweep needs two radii for its moment trend; fbmlab solve does not."""
    one_radius = IDENTITY_CONFIG.replace("eps = 0.5, 0.25", "eps = 0.5")
    with monkeypatch.context() as patch:
        patch.setattr(experiments, "generate_fbm", _no_allocation)
        assert main(["verify", "--config", _write_config(tmp_path, one_radius)]) == 2
    assert "at least two radii" in capsys.readouterr().err
    assert main(["solve", "--config", _write_config(tmp_path, one_radius)]) == 0


def test_verify_with_one_path_exits_2_before_any_allocation(tmp_path, monkeypatch,
                                                            capsys):
    """A one-path ensemble has no standard error, so every identity of the
    sweep would fail with stderr 0.0; fbmlab solve still runs it."""
    one_path = IDENTITY_CONFIG.replace("paths = 500", "paths = 1").replace(
        "steps = 128", "steps = 64")
    with monkeypatch.context() as patch:
        patch.setattr(experiments, "generate_fbm", _no_allocation)
        assert main(["verify", "--config", _write_config(tmp_path, one_path)]) == 2
    assert "at least two paths" in capsys.readouterr().err
    assert main(["solve", "--config", _write_config(tmp_path, one_path)]) == 0


@pytest.mark.parametrize("setting,message", [
    ("p = 0", "p must be positive, got 0.0"),
    ("p = -1", "p must be positive, got -1.0"),
    ("m = 1.5", "m must be >= 2, got 1.5"),
    ("m = 0", "m must be positive, got 0.0"),
    ("m = -2", "m must be positive, got -2.0"),
    ("m = nan", "m must be finite, got nan"),
])
def test_verify_refuses_m_and_p_before_any_allocation(tmp_path, monkeypatch,
                                                      capsys, setting, message):
    """p <= 0 and m <= 0 are refused for every command; 0 < m < 2 only for
    verify, whose moment ratios need it.  On the identity config p = 0 used
    to run the whole sweep and die in the cross-term report, and solve with
    m = -2 wrote a moment table of inf and nan (a frozen path's zero
    increment to the power -2), with m = 0 one of 1.0 and with m = nan one
    of nan."""
    text = IDENTITY_CONFIG.replace("m = 2.0", "m = 2.0\n" + setting)
    path = _write_config(tmp_path, text)
    refused_by_all = ">= 2" not in message
    with monkeypatch.context() as patch:
        patch.setattr(experiments, "generate_fbm", _no_allocation)
        assert main(["verify", "--config", path]) == 2
        assert message in capsys.readouterr().err
        if refused_by_all:
            assert main(["solve", "--config", path]) == 2
            assert message in capsys.readouterr().err
    if not refused_by_all:
        assert main(["solve", "--config", path]) == 0
        capsys.readouterr()


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("setting,message", [
    ("radius = nan", "radius must be finite, got nan"),
    ("radius = -inf", "radius must be finite, got -inf"),
    ("radius = inf", "radius must be finite, got inf"),
    ("p = inf", "p must be finite, got inf"),
    ("m = inf", "m must be finite, got inf"),
    ("sigma = identity\nradius = nan\ngamma0 = nan",
     "config line 2: radius must be finite, got nan"),
    ("sigma = identity\neps = inf, 1", "config line 2: eps must be finite, got inf, 1"),
])
def test_non_finite_config_numbers_exit_2_before_any_allocation(
        tmp_path, monkeypatch, capsys, command, setting, message):
    """On the singular defaults a NaN or infinite radius died in family_grid
    with a ValueError or OverflowError traceback, and solve with m = inf
    exited 0 with a moment table of inf and nan.  The identity field reads
    neither the radius nor gamma0 for solve, nor eps's values for its
    field, so those configs exited 0 and wrote bare NaN and Infinity
    tokens, which strict JSON refuses, into config.json and verify.json."""
    monkeypatch.setattr(experiments, "generate_fbm", _no_allocation)
    out_dir = tmp_path / "out"
    argv = [command, "--config", _write_config(tmp_path, setting + "\n"),
            "--out", str(out_dir)]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


def _strict_json(path: Path):
    """path's JSON, refusing NaN and Infinity, which are not JSON."""
    def refuse(token):
        raise ValueError(f"{path.name} holds {token}")

    return json.loads(path.read_text(), parse_constant=refuse)


@pytest.mark.filterwarnings("ignore:(overflow|invalid value) encountered:RuntimeWarning")
@pytest.mark.parametrize("command", ["solve", "verify"])
def test_overflowing_moments_exit_2_before_their_artifacts(tmp_path, capsys, command):
    """At m = 400 the moment statistics of this config overflow: verify
    wrote Infinity ratios and spread into verify.json (exit 1), and solve
    twelve non-finite values into moments.json (exit 0).  Both now refuse
    the m, and write neither; at the default m every JSON file they write
    is strict JSON."""
    config = "paths = 64\nsteps = 64\n"
    out_dir = tmp_path / "refused"
    argv = [command, "--out", str(out_dir), "--format", "json", "--config"]
    assert main(argv + [_write_config(tmp_path, config + "m = 400\n")]) == 2
    assert "m=400 overflows the moment statistics" in capsys.readouterr().err
    assert not (out_dir / "verify.json").exists()
    assert not list(out_dir.glob("moments.*"))
    out_dir = tmp_path / "written"
    argv[2] = str(out_dir)
    assert main(argv + [_write_config(tmp_path, config)]) in ((0,) if command == "solve"
                                                              else (0, 1))
    capsys.readouterr()
    written = sorted(out_dir.glob("*.json"))
    assert len(written) == 3 - (command == "solve")
    for path in written:
        _strict_json(path)


# The eps = 1e300 lattice reaches points whose norm overflows to inf.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("setting,radius", [("radius = 1e-300", 0.25),
                                            ("eps = 1e300, 1e299", 1e300)],
                         ids=["tiny-support", "huge-radii"])
def test_a_field_that_vanishes_on_every_path_exits_2(tmp_path, capsys, setting, radius):
    """A singular field supported on radius 1e-300, or mollified at radii
    far beyond its support, is 0 along every path, so every moment ratio
    is 0.0; the trend's spread max/min raised ZeroDivisionError, whose
    traceback exited 1 as a failed check does.  The run exits 2 with one
    error line naming the first radius and writes no verify.json."""
    out_dir = tmp_path / "out"
    path = _write_config(tmp_path, f"paths = 8\nsteps = 64\n{setting}\n")
    assert main(["verify", "--config", path, "--out", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if "rror" in line] == [
        f"error: the moment ratio at epsilon={radius} is 0: the solution does not "
        "move along any surviving path, so the trend has no spread"]
    assert not (out_dir / "verify.json").exists()


@pytest.mark.parametrize("setting,h", [("eps = 1e-300, 1e-301", "2.5e-302"),
                                       ("horizon = 1e-300", "1.56e-302")],
                         ids=["family-lattice", "quantization-grid"])
def test_a_grid_too_fine_for_its_box_exits_2_naming_its_bins(tmp_path, capsys,
                                                             setting, h):
    """At eps = 1e-301 family_grid asks for 1.2e302 bins, and at horizon
    1e-300 the quantization grid's bins are that fine: both were refused
    with advice to shift the box by half a bin, which no config can do.
    The refusal names the bin width and the bin count."""
    path = _write_config(tmp_path, f"paths = 8\nsteps = 64\n{setting}\n")
    assert main(["verify", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: bin width {h} and ")
    assert "2**52 or more bin widths from the origin" in captured.err
    assert "half a bin" not in captured.err and captured.err.count("\n") == 1


def test_artifacts_refuse_nan_and_infinity(tmp_path):
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            _dump_json(tmp_path / "x.json", {"value": [1.0, value]})
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("sigma,gamma0,message", [
    ("singular", "0.95", "gamma0=0.95 exceeds 1 - H*d/2 = 0.9"),
    ("singular", "nan", "config line 2: gamma0 must be finite, got nan"),
    ("identity", "nan", "config line 2: gamma0 must be finite, got nan"),
    ("identity", "-inf", "config line 2: gamma0 must be finite, got -inf"),
])
def test_only_verify_reads_and_checks_gamma0(tmp_path, monkeypatch, capsys,
                                             sigma, gamma0, message):
    """verify's moment ratios are gamma0's one reader.  verify refuses a
    gamma0 out of range before anything is drawn; it used to run the whole
    sweep with gamma0 = nan and write a NaN spread.  solve, which used to
    refuse 0.95, runs; a non-finite gamma0 is a malformed number, which the
    config parser refuses for every command."""
    path = _write_config(tmp_path, f"sigma = {sigma}\ngamma0 = {gamma0}\n"
                                   "paths = 40\nsteps = 64\neps = 0.25, 0.125\n")
    with monkeypatch.context() as patch:
        patch.setattr(experiments, "generate_fbm", _no_allocation)
        assert main(["verify", "--config", path]) == 2
        assert message in capsys.readouterr().err
        if "finite" in message:
            assert main(["solve", "--config", path]) == 2
            assert message in capsys.readouterr().err
    if "finite" not in message:
        assert main(["solve", "--config", path]) == 0
        capsys.readouterr()


@pytest.mark.parametrize("hurst", ["0", "1.5"])
def test_hurst_outside_the_unit_interval_exits_2_before_any_driver(
        tmp_path, monkeypatch, capsys, hurst):
    """The fBm sampler refuses the Hurst index before it allocates, so
    the config needs no check of its own."""
    def no_draw(*_args):
        raise AssertionError("fbmlab solve drew drivers")

    monkeypatch.setattr(solver, "_bm_rows", no_draw)
    out_dir = tmp_path / "out"
    path = _write_config(tmp_path, f"sigma = identity\nhurst = {hurst}\n")
    assert main(["solve", "--config", path, "--out", str(out_dir)]) == 2
    assert f"hurst must lie in (0, 1), got {float(hurst)}" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_seed_is_a_config_key_not_a_flag(tmp_path, capsys, command):
    """base_seed is set in the config alone; --seed was a second way to set
    it that could not set fbm_seed."""
    with pytest.raises(SystemExit) as info:
        main([command, "--seed", "9"])
    assert info.value.code == 2
    assert "unrecognized arguments: --seed 9" in capsys.readouterr().err


def test_solve_refuses_steps_off_the_moment_table_before_solving(tmp_path,
                                                                 monkeypatch,
                                                                 capsys):
    """The moment table's finest windows need 2**6 to divide the steps;
    992 steps are refused before any driver is drawn."""
    def no_draw(*_args):
        raise AssertionError("fbmlab solve drew drivers")

    monkeypatch.setattr(solver, "_bm_rows", no_draw)
    path = _write_config(tmp_path, "steps = 992\npaths = 50\n")
    assert main(["solve", "--config", path]) == 2
    assert "steps 992 not divisible by 2**6" in capsys.readouterr().err


def test_unknown_experiment_is_an_argparse_error():
    with pytest.raises(SystemExit) as info:
        main(["run", "--experiment", "E9"])
    assert info.value.code == 2


@pytest.mark.parametrize("extra", [["--seed", "9"], ["--config", "lab.cfg"]])
def test_run_takes_no_config(capsys, extra):
    """The experiments read no config, so run has no --config or --seed;
    --seed used to be recorded in config.json and change nothing else."""
    with pytest.raises(SystemExit) as info:
        main(["run", "--experiment", "E0", *extra])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert build_parser().parse_args(["run"]).experiment == "E5"


def test_readme_command_lines_parse():
    """Every fbmlab line of README's sh blocks parses, so a stale flag in
    the documented usage fails here, and its config file lists every key
    at its headline default."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [shlex.split(line)[1:]
             for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
             for line in block.splitlines() if line.startswith("fbmlab ")]
    assert {argv[0] for argv in lines} == {
        "gen-fbm", "local-time", "average", "sew", "admissibility", "solve",
        "verify", "run"}
    parser = build_parser()
    for argv in lines:
        parser.parse_args(argv)
    ini, = re.findall(r"```ini\n(.*?)```", readme, re.S)
    assert parse_config_text(ini) == HEADLINE_CONFIG


def test_gen_fbm_writes_deterministic_csv(tmp_path, capsys):
    args = ["gen-fbm", "--hurst", "0.4", "--dim", "2", "--steps", "10",
            "--seed", "5"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    capsys.readouterr()
    text = first.read_text()
    lines = text.splitlines()
    assert lines[0] == "# H=0.4 d=2 seed=5 N=10 T=1.0"
    assert lines[1] == "t,w_1,w_2"
    assert len(lines) == 13  # comment + header + 11 nodes
    assert text == second.read_text()


def test_gen_fbm_rejects_keys_outside_the_philox_fields(capsys):
    """Seeds outside [0, 2**64) and path indices outside [0, 2**32) would
    reuse another path's stream; they exit 2 instead."""
    base = ["gen-fbm", "--hurst", "0.4", "--dim", "1", "--steps", "8"]
    for extra in (["--seed", "5", "--path-index", str(2 ** 32)],
                  ["--seed", str(2 ** 64)], ["--seed", "-1"]):
        assert main(base + extra) == 2
        assert "must lie in" in capsys.readouterr().err
    assert main(base + ["--seed", str(2 ** 64 - 1),
                        "--path-index", str(2 ** 32 - 1)]) == 0
    capsys.readouterr()


def test_sew_subcommand_reports_rate_and_value(capsys):
    assert main(["sew", "--germ", "left-linear"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == pytest.approx(0.5, abs=1e-9)
    assert out["rate"] == pytest.approx(1.0, abs=1e-6)
    assert not out["diverged"]
    with pytest.raises(SystemExit) as info:
        main(["sew", "--germ", "nope"])
    assert info.value.code == 2
    assert "invalid choice: 'nope'" in capsys.readouterr().err


def test_admissibility_subcommand_json(capsys):
    assert main(["admissibility", "--dim", "1", "--p", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["hurst_max_main"] == 0.25
    assert main(["admissibility", "--dim", "1", "--p", "2",
                 "--hurst", "0.1", "--driver-hurst", "0.75"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["regularity_budget"]["lambda_max"] == 4.5
    assert out["hurst_max_fbm_driver"] == 0.1
    assert main(["admissibility", "--dim", "2", "--p", "2"]) == 2
    capsys.readouterr()
    for extra in (["--dim", "-2", "--p", "2"],
                  ["--dim", "0", "--p", "2", "--driver-hurst", "0.7"]):
        assert main(["admissibility", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "dimension must be >= 1" in captured.err


@pytest.mark.parametrize("extra", [
    ["--p", "inf"], ["--p", "nan"], ["--p", "2", "--hurst", "inf"],
    ["--p", "2", "--hurst", "nan"], ["--p", "2", "--driver-hurst", "nan"],
    ["--p", "2", "--driver-hurst=-inf"],
], ids=["p-inf", "p-nan", "hurst-inf", "hurst-nan", "driver-hurst-nan",
        "driver-hurst-minus-inf"])
def test_admissibility_refuses_non_finite_numbers(capsys, extra):
    """--p inf exited 0 and printed "p": Infinity, which is not JSON."""
    with pytest.raises(SystemExit) as info:
        main(["admissibility", "--dim", "1", *extra])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "must be finite, got" in captured.err


@pytest.mark.parametrize("out, written", [("lt.csv", "lt.csv"), ("lt.txt", "lt.csv"),
                                          ("table", "table.csv")])
def test_local_time_subcommand_smoke(tmp_path, capsys, out, written):
    """--out names the table; it is written with the suffix .csv, and the
    'wrote' line names that file."""
    assert main(["local-time", "--hurst", "0.3", "--steps", "512",
                 "--seed", "9", "--width", "0.05", "--out", str(tmp_path / out)]) == 0
    captured = capsys.readouterr().out.splitlines()
    assert captured[0] == f"wrote {tmp_path / written}"
    stats = json.loads(captured[-1])
    assert stats["covered_mass"] == 1.0  # cover box loses nothing
    assert stats["escaped_mass"] == 0.0
    assert sorted(p.name for p in tmp_path.iterdir()) == [written]
    table = (tmp_path / written).read_bytes()
    assert table.splitlines()[0] == b"local_time,x_1"
    assert hashlib.sha256(table).hexdigest() == \
        "84e4550de29769f46ef33c6d324136077ec337da0e6d2e119dec7f3ca01269bc"


def test_average_subcommand_smoke(capsys):
    assert main(["average", "--hurst", "0.3", "--steps", "512", "--seed", "9",
                 "--width", "0.02", "--field", "well"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert 0.0 < out["sup_norm"] <= 1.0 + 1e-12
    assert not out["degenerate"]
    with pytest.raises(SystemExit) as info:
        main(["average", "--hurst", "0.3", "--steps", "512", "--seed", "9",
              "--width", "0.02", "--field", "nope"])
    assert info.value.code == 2
    assert "invalid choice: 'nope'" in capsys.readouterr().err
    # Too coarse a lattice leaves the regularity fit without scales.
    assert main(["average", "--hurst", "0.3", "--steps", "512", "--seed", "9",
                 "--width", "0.2", "--field", "well"]) == 1
    capsys.readouterr()


def test_solve_subcommand_writes_moment_table(tmp_path, capsys):
    cfg = _write_config(tmp_path, IDENTITY_CONFIG)
    out_dir = tmp_path / "solve-run"
    assert main(["solve", "--config", cfg, "--out", str(out_dir)]) == 0
    capsys.readouterr()
    moments = out_dir / "moments.csv"
    assert (out_dir / "config.json").exists()
    assert moments.exists()
    header = moments.read_text().splitlines()[0]
    assert header == "epsilon,m,moment,s,stderr,t"


SOLVE_CONFIGS = {
    "singular-d1": "paths = 150\nsteps = 128\n",
    "singular-d2": "dimension = 2\np = 4\nhurst = 0.2\ngamma = 0.4\n"
                   "gamma0 = 0.7\nx0 = 0.5, 0.3\nsteps = 128\npaths = 90\n"
                   "eps = 0.25, 0.125\n",
    "identity": IDENTITY_CONFIG.replace("paths = 500", "paths = 120"),
}


def _per_radius_solve(text: str):
    """fbmlab solve as one whole-ensemble recursion per radius: the moment
    rows and stdout lines up to the first radius that aborts, and that
    radius's (epsilon, blow-up count), or None."""
    cfg = resolve_config(parse_config_text(text))
    scenario, fields = experiments.build_scenario(cfg)
    rows, lines = [], []
    for eps in scenario.eps_seq:
        ens, = solver.solve_fields(scenario, [fields[eps]])
        if ens.blowup_count > solver.BLOWUP_ABORT_FRACTION * ens.n_paths:
            return rows, lines, (eps, ens.blowup_count)
        rows += [{"epsilon": eps, **row} for row in ens.moment_table(cfg["m"])]
        lines.append(f"eps={eps:g}: {ens.blowup_count} of {ens.n_paths} "
                     "paths flagged")
    return rows, lines, None


def _chunk_budget(text: str, paths_per_chunk: int) -> int:
    """CHUNK_BYTES for chunks of paths_per_chunk paths of fbmlab solve."""
    cfg = resolve_config(parse_config_text(text))
    n_fields = 1 if cfg["sigma"] == "identity" else len(cfg["eps"])
    d, steps = cfg["dimension"], cfg["steps"]
    return paths_per_chunk * 8 * (n_fields * d * (steps + 1) + d * steps)


@pytest.mark.parametrize("case", sorted(SOLVE_CONFIGS))
def test_solve_moments_do_not_depend_on_the_chunk_size(tmp_path, monkeypatch,
                                                       capsys, case):
    """fbmlab solve runs every radius in one chunked recursion.  Its moment
    rows and stdout equal one whole-ensemble solve per radius, bit for bit,
    with chunks of 1, 37 and all paths as with the default; a field shared
    by all radii is solved once per chunk."""
    text = SOLVE_CONFIGS[case]
    rows, lines, abort = _per_radius_solve(text)
    assert abort is None
    n_paths = parse_config_text(text)["paths"]
    n_fields = 1 if case == "identity" else len(lines)
    recursions = []
    euler_batch = solver._euler_batch

    def counted(fields, *args):
        recursions.append(len(fields))
        return euler_batch(fields, *args)

    monkeypatch.setattr(solver, "_euler_batch", counted)
    for budget in (None, 1, 37, n_paths):
        if budget is not None:
            monkeypatch.setattr(experiments, "CHUNK_BYTES",
                                _chunk_budget(text, budget))
        recursions.clear()
        out_dir = tmp_path / f"budget-{budget}"
        assert main(["solve", "--config", _write_config(tmp_path, text),
                     "--out", str(out_dir), "--format", "json"]) == 0
        stdout = capsys.readouterr().out.splitlines()
        assert stdout == lines + [f"wrote {out_dir / 'moments.json'}"]
        assert json.loads((out_dir / "moments.json").read_text()) == rows
        chunks = 1 if budget is None else math.ceil(n_paths / budget)
        assert recursions == [n_fields] * chunks


@pytest.mark.parametrize("case", ["low-bound", "late-radius"])
def test_solve_blowup_names_the_radius_of_the_per_radius_solves(
        tmp_path, monkeypatch, capsys, case):
    """With chunks of 37 paths, fbmlab solve exits 3 on the radius, and with
    the whole-ensemble count, that one solve per radius in eps_seq order
    aborts on, after the same stdout lines.  In the late-radius case the
    first radius stays bounded and the second does not."""
    text = SOLVE_CONFIGS["singular-d1"]
    if case == "low-bound":
        monkeypatch.setattr(solver, "BLOWUP_BOUND", 0.9)
    else:
        def constant_family(scenario):
            return {eps: constant_field(np.array([[1e9 if e in (1, 3) else 0.5]]))
                    for e, eps in enumerate(scenario.eps_seq)}

        monkeypatch.setattr(experiments, "mollified_family", constant_family)
    _rows, lines, (eps, count) = _per_radius_solve(text)
    assert (case, len(lines)) in (("low-bound", 0), ("late-radius", 1))
    monkeypatch.setattr(experiments, "CHUNK_BYTES", _chunk_budget(text, 37))
    out_dir = tmp_path / "out"
    assert main(["solve", "--config", _write_config(tmp_path, text),
                 "--out", str(out_dir)]) == 3
    captured = capsys.readouterr()
    assert captured.out.splitlines() == lines
    assert captured.err == (f"blow-up abort: {count} of 150 paths blew up at "
                            f"epsilon={eps} (abort threshold 1.0%)\n")
    assert (out_dir / "config.json").exists()
    assert not (out_dir / "moments.csv").exists()


def test_verify_subcommand_identity_config(tmp_path, capsys):
    cfg = _write_config(tmp_path, IDENTITY_CONFIG)
    out_dir = tmp_path / "verify-run"
    assert main(["verify", "--config", cfg, "--out", str(out_dir)]) == 0
    capsys.readouterr()
    payload = json.loads((out_dir / "verify.json").read_text())
    assert payload["passed"]
    assert payload["moment_trend"]["uniform"]
    assert payload["cauchy"]["diffs"] == [0.0]  # identity needs no smoothing
    assert (out_dir / "identities.csv").exists()


def test_run_e0_artifacts_are_byte_stable(tmp_path, capsys):
    first = tmp_path / "r1"
    second = tmp_path / "r2"
    assert main(["run", "--experiment", "E0", "--out", str(first)]) == 0
    stdout = capsys.readouterr().out
    assert "[PASS] constant-field-identities" in stdout
    assert "experiment E0: PASS" in stdout
    assert main(["run", "--experiment", "E0", "--out", str(second)]) == 0
    capsys.readouterr()
    for name in ("config.json", "summary.json", "run_meta.json"):
        assert (first / name).exists()
    summary = json.loads((first / "summary.json").read_text())
    assert summary["passed"]
    assert (first / "summary.json").read_bytes() == (second / "summary.json").read_bytes()
    assert (first / "config.json").read_bytes() == (second / "config.json").read_bytes()
    assert json.loads((first / "config.json").read_text()) == {"experiment": "E0",
                                                              "format": "csv"}


def test_run_e1_summary_holds_no_wall_time(tmp_path, monkeypatch, capsys):
    """E1's summary.json has the same bytes however long its covariance
    audit takes; run_meta.json holds the seconds, by criterion id."""
    monkeypatch.setitem(ALL_CRITERIA, "fbm-covariance", functools.partial(
        experiments.criterion_fbm_covariance, n_paths=200, steps=64))
    summaries, metas = [], []
    for step in (1.0, 2.5):
        clock = itertools.count(0.0, step)
        monkeypatch.setattr(time, "perf_counter", lambda: next(clock))
        out_dir = tmp_path / f"step-{step}"
        assert main(["run", "--experiment", "E1", "--out", str(out_dir)]) == 0
        summaries.append((out_dir / "summary.json").read_bytes())
        metas.append(json.loads((out_dir / "run_meta.json").read_text()))
    capsys.readouterr()
    assert summaries[0] == summaries[1]
    for meta in metas:
        assert list(meta["criterion_s"]) == ["fbm-covariance"]
        assert meta["criterion_s"]["fbm-covariance"] > 0


def test_run_meta_records_the_simd_extensions_numpy_found(tmp_path, capsys):
    """The pinned digests hold only where numpy finds the SIMD extensions
    they were recorded with, so run_meta.json records numpy's list, read
    without printing it; summary.json does not."""
    assert main(["run", "--experiment", "E4", "--out", str(tmp_path)]) == 0
    stdout = capsys.readouterr().out
    simd = json.loads((tmp_path / "run_meta.json").read_text())["numpy_simd"]
    assert simd == np.show_config(mode="dicts")["SIMD Extensions"]
    assert "found" in simd
    assert "SIMD" not in stdout
    assert "numpy_simd" not in (tmp_path / "summary.json").read_text()


# sha256 of fbmlab run --experiment E0's summary.json, pinned with numpy 2.4
# on Python 3.11 (x86-64).  Any change to the identity-field control's
# solve, walk or reports that moves a bit of it fails here.
E0_SUMMARY_SHA256 = "ee479942cba366624e2e40ed17dbdbae59ac644d070cd1c1d8f1c03c49ae64b8"


def test_run_e0_summary_matches_its_pinned_digest(tmp_path, capsys):
    experiments._identity_field_reports.cache_clear()  # solve and walk anew
    assert main(["run", "--experiment", "E0", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256((tmp_path / "summary.json").read_bytes()).hexdigest()
    assert digest == E0_SUMMARY_SHA256


# sha256 of fbmlab run --experiment E2's and E3's summary.json, pinned with
# numpy 2.4 on Python 3.11 (x86-64).  Both read correctly rounded sums from
# occupation._exact_sum (through occupation_formula_residual and
# average_direct), so a sum that misses math.fsum by one bit fails here.
RUN_SUMMARY_SHA256 = {
    "E2": "60fe81d669b4a3ddc26535b3d69a91282b30bd64fb8593f8b0e74c186470068f",
    "E3": "08697de8f9b4715a1f1280ce71bb0b928b90885a64b9ed749213df22e8917fa5",
}


@pytest.mark.parametrize("experiment", sorted(RUN_SUMMARY_SHA256))
def test_run_summary_matches_its_pinned_digest(tmp_path, capsys, experiment):
    assert main(["run", "--experiment", experiment, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256((tmp_path / "summary.json").read_bytes()).hexdigest()
    assert digest == RUN_SUMMARY_SHA256[experiment]


# sha256 of fbmlab verify --out's verify.json for two d = 2 sweeps on top of
# the headline defaults, pinned with numpy 2.4 on Python 3.11 (x86-64).  The
# benchmark's workloads and the E0 pin are all d = 1; these catch a drift
# in a d = 2 label or sum.
D2_VERIFY = {
    "singular": ("dimension = 2\np = 4\ngamma0 = 0.7\nx0 = 0.5, -0.2\n"
                 "paths = 70\nsteps = 32\neps = 0.25, 0.125\n",
                 "d79ddbfee0ab0411829dc67954560d8e3bca19a6fbaf72179001538940a32ef4"),
    "identity": ("sigma = identity\ndimension = 2\nx0 = 0.5, -0.2\n"
                 "paths = 70\nsteps = 32\neps = 0.25, 0.125\n",
                 "29b37832bdc7c5001ed795c6d68d18f46c8392c6099f3c2d507616e74423a7b4"),
}


@pytest.mark.parametrize("case", sorted(D2_VERIFY))
def test_d2_verify_matches_its_pinned_digest(tmp_path, capsys, case):
    text, expected = D2_VERIFY[case]
    out_dir = tmp_path / "out"
    assert main(["verify", "--config", _write_config(tmp_path, text),
                 "--out", str(out_dir)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256((out_dir / "verify.json").read_bytes()).hexdigest()
    assert digest == expected


def test_identity_control_is_solved_and_walked_once(tmp_path, monkeypatch, capsys):
    """fbmlab run E0 and the constant-field halves of the ito-isometry and
    martingale-residuals criteria share one solve and one walk of the
    4000-path identity-field ensemble."""
    # A small sweep stands in for the headline one, which those criteria
    # also read but which is not under test here.
    small = {**HEADLINE_CONFIG, "sigma": "identity", "steps": 64, "paths": 64,
             "eps": [0.5, 0.25]}
    windows = [(0.25, 0.5)]
    sweep = experiments.verify_scenario(*experiments.build_scenario(small, windows),
                                        2.0, 0.5, windows)
    monkeypatch.setattr(experiments, "run_headline", lambda: (sweep, 0.0))
    solved, walked = [], []

    def logged(log, fn):
        def call(*args, **kwargs):
            log.append(args[0])
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(experiments, "solve_fields",
                        logged(solved, experiments.solve_fields))
    monkeypatch.setattr(experiments, "walk_ensemble",
                        logged(walked, experiments.walk_ensemble))
    experiments._identity_field_reports.cache_clear()
    assert main(["run", "--experiment", "E0", "--out", str(tmp_path)]) == 0
    iso = ALL_CRITERIA["ito-isometry"]()["details"]["constant_field"]
    mart = ALL_CRITERIA["martingale-residuals"]()["details"]
    capsys.readouterr()
    assert [r["tag"] for r in iso] == ["ito_isometry", "cross_term",
                                       "quadratic_variation"]
    assert all(r["passed"] for r in iso)
    assert mart["identity_passed"] and mart["identity_compensators_exact"]
    assert [s.ensemble_size for s in solved] == [4000]
    assert [[ens.n_paths for ens in part] for part in walked] == [[4000]]


def test_run_calls_each_criterion_once_and_propagates_type_errors(
        tmp_path, monkeypatch, capsys):
    # The stubs accept any arguments, so only a retry can call them twice.
    calls = []

    def criterion(*args, **kwargs):
        calls.append("ok")
        return {"id": "sewing-engine", "passed": True, "summary": "stub",
                "details": {}}

    def broken(*args, **kwargs):
        calls.append("broken")
        raise TypeError("raised inside the criterion")

    monkeypatch.setitem(ALL_CRITERIA, "sewing-engine", criterion)
    assert main(["run", "--experiment", "E4", "--out", str(tmp_path / "a")]) == 0
    assert calls == ["ok"]
    capsys.readouterr()

    monkeypatch.setitem(ALL_CRITERIA, "sewing-engine", broken)
    with pytest.raises(TypeError, match="raised inside the criterion"):
        main(["run", "--experiment", "E4", "--out", str(tmp_path / "b")])
    assert calls == ["ok", "broken"]


def test_lattice_beyond_physical_memory_exits_2_early(tmp_path, capsys):
    """A d=3 singular sweep would need 896^3-cell lattices (about 52 GB per
    radius); the estimate rejects it before anything large is allocated."""
    path = _write_config(tmp_path, "dimension = 3\np = 4\nhurst = 0.15\n"
                                   "gamma0 = 0.7\nx0 = 0.5, 0.5, 0.5\n")
    start = time.perf_counter()
    assert main(["verify", "--config", path]) == 2
    assert time.perf_counter() - start < 30.0
    err = capsys.readouterr().err
    assert "physical memory" in err
    assert "259 GB of mollified lattices" in err


class _DrewDrivers(Exception):
    pass


def test_pre_flight_estimates_one_chunk_of_the_sweep(tmp_path, monkeypatch, capsys):
    """d = 1, 1024 steps and 2*10^6 paths: the whole driver array alone would
    be 16 GB, but fbmlab solve and verify hold one chunk of paths at a time,
    so the pre-flight passes, and nothing path-sized is allocated.  solve's
    kept moment-table nodes come to about 5.3 GB; it gets as far as
    drawing the drivers of its first chunk.  10^9 paths are refused."""
    cfg = {**HEADLINE_CONFIG, "paths": 2_000_000}
    start = time.perf_counter()
    scenario, _fields = experiments.build_scenario(cfg)
    assert time.perf_counter() - start < 30.0
    assert "driver_increments" not in vars(scenario)
    with pytest.raises(ParameterError, match="physical memory"):
        experiments.build_scenario({**cfg, "paths": 10 ** 9})

    drawn = []

    def first_draw(*args):
        drawn.append(args[-1])
        raise _DrewDrivers

    monkeypatch.setattr(solver, "_bm_rows", first_draw)
    with pytest.raises(_DrewDrivers):
        main(["solve", "--config", _write_config(tmp_path, "paths = 2000000\n")])
    assert drawn == [experiments._chunk_paths(scenario, len(scenario.eps_seq))[0]]
    assert drawn[0] < 10 ** 4
    for command in ("solve", "verify"):
        path = _write_config(tmp_path, "paths = 1000000000\n")
        assert main([command, "--config", path]) == 2
        assert "physical memory" in capsys.readouterr().err
    assert len(drawn) == 1


def _physical_memory(monkeypatch, n_bytes: int) -> None:
    """Make the physical-memory read report n_bytes."""
    sysconf = os.sysconf
    read = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": n_bytes}
    monkeypatch.setattr(os, "sysconf",
                        lambda name: read[name] if name in read else sysconf(name))


class _PassedPreFlight(Exception):
    pass


def test_pre_flight_counts_the_nodes_each_command_keeps(tmp_path, monkeypatch,
                                                        capsys):
    """At the headline settings fbmlab verify keeps 17 nodes of each path,
    the level-4 dyadic end points (which hold the martingale nodes), and
    fbmlab solve the moment table's 65.  At 1000 paths the pre-flight
    estimates 50,123,840 bytes for verify and 51,867,840 for solve; with
    51,000,000 bytes of physical memory verify passes it and solve does
    not.  It used to count 65 nodes for verify too, and refuse it.
    Verify's count holds the walk's 22 sums per path (_walk_floats)."""
    def passed(*_args):
        raise _PassedPreFlight

    monkeypatch.setattr(experiments, "mollified_family", passed)
    _physical_memory(monkeypatch, 51_000_000)
    path = _write_config(tmp_path, "paths = 1000\n")
    with pytest.raises(_PassedPreFlight):
        main(["verify", "--config", path])
    assert main(["solve", "--config", path]) == 2
    assert "needs at least 51,867,840 bytes" in capsys.readouterr().err
    _physical_memory(monkeypatch, 50_000_000)
    assert main(["verify", "--config", path]) == 2
    assert "needs at least 50,123,840 bytes" in capsys.readouterr().err

    grid = paths.TimeGrid(1.0, 1024)
    halves = [grid.window(0.25, 0.5), grid.window(0.5, 1.0)]
    assert len(experiments._kept_nodes(grid, halves)) == 17
    assert len(experiments._kept_nodes(grid, None)) == 65


@pytest.mark.parametrize("args,what", [
    (["local-time", "--hurst", "0.3", "--seed", "1", "--width", "1e-5",
      "--steps", "64"], "binning the occupation measure"),
    (["average", "--hurst", "0.3", "--seed", "1", "--width", "0.001",
      "--span", "100", "--steps", "64"], "the mesh of bin centers"),
    (["gen-fbm", "--hurst", "0.4", "--steps", "4096", "--seed", "1"],
     "sampling 1 path(s) of 4096 steps"),
    (["sew", "--levels", "16"], "sewing at 16 levels"),
], ids=["local-time-bins", "average-span", "gen-fbm-steps", "sew-levels"])
def test_allocations_beyond_physical_memory_exit_2(monkeypatch, capsys, args, what):
    """An input that sizes an allocation beyond physical memory (here
    patched to 100,000 bytes) exits 2 with the bytes it needs, before the
    allocation.  Unpatched, local-time at width 1e-9 died allocating
    13.5 GiB of bin counts, and sew at 100000 levels ran without end."""
    _physical_memory(monkeypatch, 100_000)
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {what} needs at least " in captured.err
    assert "bytes, more than the 100,000 bytes of physical memory" in captured.err


def test_refused_circulant_embedding_exits_2(capsys):
    """At H = 0.9999 the circulant embedding of 65536 increments is not
    nonnegative definite; gen-fbm exits 2 naming the embedding, H and the
    step count, and writes nothing to stdout."""
    assert main(["gen-fbm", "--hurst", "0.9999", "--steps", "65536", "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the circulant embedding of fBm increments at H=0.9999 and 65536 "
        "steps is not nonnegative definite, so they cannot be sampled exactly\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args", [
    ["average", "--width", "0.05", "--span", "nan"],
    ["average", "--width", "0.05", "--span", "inf"],
    ["local-time", "--width", "0"],
    ["local-time", "--width", "nan"],
], ids=["span-nan", "span-inf", "width-0", "width-nan"])
def test_non_finite_boxes_exit_2_without_a_warning(capsys, args):
    """A NaN or infinite span used to exit 0 and print a NaN Holder
    exponent, which is not JSON, and a zero or NaN width set off numpy's
    invalid-cast warning before it exited 2."""
    assert main(args + ["--hurst", "0.3", "--seed", "1", "--steps", "64"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize("args", [
    ["local-time", "--hurst", "0.3", "--seed", "1", "--width", "0.05", "--s", "nan"],
    ["local-time", "--hurst", "0.3", "--seed", "1", "--width", "0.05", "--t", "inf"],
    ["average", "--hurst", "0.3", "--seed", "1", "--width", "0.05", "--t", "nan"],
    ["sew", "--t", "inf"],
    ["sew", "--s=-inf"],
    ["sew", "--s=-1e308", "--t", "1e308"],
], ids=["local-time-s-nan", "local-time-t-inf", "average-t-nan", "sew-t-inf",
        "sew-s-minus-inf", "sew-t-minus-s-overflows"])
@pytest.mark.filterwarnings("error")
def test_non_finite_window_bounds_exit_2(capsys, args):
    """local-time and average ended in a ValueError or OverflowError
    traceback from the grid lookup, and sew exited 0 printing NaN and
    Infinity, which are not JSON; finite bounds whose difference
    overflows did so after a numpy overflow warning."""
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be finite" in captured.err or "need finite s < t" in captured.err


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_radius_near_the_float_maximum_exits_2(tmp_path, capsys, command):
    """The singular sweep's lattice would need infinitely many bins; it
    used to end in an OverflowError traceback."""
    path = _write_config(tmp_path, "eps = 1e308, 0.25\npaths = 2\nsteps = 64\n")
    assert main([command, "--config", path]) == 2
    assert "infinitely many bins" in capsys.readouterr().err
