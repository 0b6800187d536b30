"""Front-end parsing, validation exit codes and artifact layout."""

import json
import time

import pytest

from fbmlab import ParameterError, experiments, verify
from fbmlab.cli import main, parse_config_text
from fbmlab.experiments import ALL_CRITERIA, HEADLINE_CONFIG

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
    assert main(["run", "--experiment", "E0", "--config", path]) == 2
    assert "H exceeds H_max=0.25" in capsys.readouterr().err


def test_gamma_integrability_violation_exits_2(tmp_path, capsys):
    path = _write_config(tmp_path, "gamma = 0.5\n")  # needs gamma < d/p = 0.5
    assert main(["run", "--experiment", "E0", "--config", path]) == 2
    assert "gamma" in capsys.readouterr().err


def test_eps_and_x0_validation_exit_2(tmp_path, capsys):
    path = _write_config(tmp_path, "eps = 0.25, 0.25\n")
    assert main(["solve", "--config", path]) == 2
    assert "strictly decreasing" in capsys.readouterr().err
    path = _write_config(tmp_path, "x0 = 0.0, 0.0\n")
    assert main(["solve", "--config", path]) == 2
    assert "x0" in capsys.readouterr().err


def test_unknown_experiment_is_an_argparse_error():
    with pytest.raises(SystemExit) as info:
        main(["run", "--experiment", "E9"])
    assert info.value.code == 2


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
    assert main(["sew", "--germ", "nope"]) == 2


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


def test_local_time_subcommand_smoke(tmp_path, capsys):
    out_csv = tmp_path / "lt.csv"
    assert main(["local-time", "--hurst", "0.3", "--steps", "512",
                 "--seed", "9", "--width", "0.05", "--out", str(out_csv)]) == 0
    captured = capsys.readouterr().out.splitlines()
    stats = json.loads(captured[-1])
    assert stats["covered_mass"] == 1.0  # cover box loses nothing
    assert stats["escaped_mass"] == 0.0
    assert out_csv.exists()
    header = out_csv.read_text().splitlines()[0]
    assert header == "local_time,x_1"


def test_average_subcommand_smoke(capsys):
    assert main(["average", "--hurst", "0.3", "--steps", "512", "--seed", "9",
                 "--width", "0.02", "--field", "well"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert 0.0 < out["sup_norm"] <= 1.0 + 1e-12
    assert not out["degenerate"]
    assert main(["average", "--hurst", "0.3", "--steps", "512", "--seed", "9",
                 "--width", "0.02", "--field", "nope"]) == 2
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


def test_identity_control_is_solved_and_walked_once(tmp_path, monkeypatch, capsys):
    """fbmlab run E0 and the constant-field halves of the ito-isometry and
    martingale-residuals criteria share one solve and one walk of the
    4000-path identity-field ensemble."""
    # A small sweep stands in for the headline one, which those criteria
    # also read but which is not under test here.
    small = {**HEADLINE_CONFIG, "sigma": "identity", "steps": 64, "paths": 64,
             "eps": [0.5, 0.25]}
    sweep = experiments.verify_scenario(*experiments.build_scenario(small), 2.0,
                                        0.5, [(0.25, 0.5)])
    monkeypatch.setattr(experiments, "run_headline", lambda: sweep)
    solved, walked = [], []

    def logged(log, fn):
        def call(*args, **kwargs):
            log.append(args[0])
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(experiments, "solve_ensemble",
                        logged(solved, experiments.solve_ensemble))
    for module in (experiments, verify):
        monkeypatch.setattr(module, "walk_ensemble",
                            logged(walked, module.walk_ensemble))
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
    assert [ens.n_paths for ens in walked] == [4000]


def test_run_calls_each_criterion_once_and_propagates_type_errors(
        tmp_path, monkeypatch, capsys):
    # The stubs accept any arguments, so only a retry can call them twice.
    calls = []

    def criterion(*args, **kwargs):
        calls.append("ok")
        return {"id": "sewing-engine", "passed": True, "summary": "stub",
                "details": {}, "elapsed_s": 0.0}

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
