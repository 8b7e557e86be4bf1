import json
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import hypball
from hypball.cli import RunConfig, _build_parser, main, parse_config, run
from hypball.geometry import BallDomain, unit_sphere_area
from hypball.kernels import poisson_coefficient
from hypball.specfun import Dimension


def read_table(path):
    header, rows = [], []
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("#"):
                header.append(line)
            else:
                rows.append(line.split(","))
    return header, rows[0], rows[1:]


def test_defaults_and_command_kmax():
    cfg = parse_config(["coeffs"])
    assert cfg.command == "coeffs"
    assert cfg.n == "4" and cfg.r == 0.6 and cfg.x == 0.3
    assert cfg.k_max == 10  # per-command default, not the series cutoff
    assert cfg.output == "./coeffs.csv"
    assert parse_config(["pk-eval"]).k_max == 2000


def test_config_file_merge_flags_win(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("command=coeffs\nr=0.5\nkmax=6\npaths=777\n# comment\n\n")
    cfg = parse_config(["--config", str(f)])
    assert (cfg.command, cfg.r, cfg.k_max, cfg.n_paths) == ("coeffs", 0.5, 6, 777)
    over = parse_config(["--config", str(f), "--kmax", "8"])
    assert over.k_max == 8 and over.r == 0.5


def test_config_file_rejects_unknown_key(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("command=coeffs\nstep=0.1\n")
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config(["--config", str(f)])
    with pytest.raises(ValueError, match="no command"):
        parse_config(["--r", "0.5"])


def test_runconfig_validation():
    with pytest.raises(ValueError, match=r"\[0, r\)"):
        RunConfig(command="coeffs", x=0.7)
    with pytest.raises(ValueError, match="n must lie"):
        RunConfig(command="coeffs", n="9")
    with pytest.raises(ValueError, match="n spec"):
        RunConfig(command="coeffs", n="4..x")
    dims = RunConfig(command="identity-check", n="3..5").dims()
    assert [d.n for d in dims] == [3, 4, 5]
    with pytest.raises(ValueError, match="single n"):
        RunConfig(command="coeffs", n="3..5").dim()
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tolerances"):
            RunConfig(command="pk-eval", series_tol=bad)
        with pytest.raises(ValueError, match="tolerances"):
            RunConfig(command="pk-closed", quad_tol=bad)
        with pytest.raises(ValueError, match="dt"):
            RunConfig(command="mc-validate", dt=bad)


def test_one_flag_per_config_field():
    # the parser is derived from RunConfig: one flag per field, spelled as
    # the field with dashes, or as its config-file alias
    flags = {a.dest: a.option_strings for a in _build_parser()._actions
             if a.option_strings and a.dest not in ("help", "config")}
    assert sorted(flags) == sorted(f.name for f in fields(RunConfig)[1:])
    assert sorted(s for spellings in flags.values() for s in spellings) == sorted(
        ["--n", "--r", "--x", "--y", "--theta-grid", "--kmax", "--series-tol",
         "--quad-tol", "--dt", "--paths", "--seed", "--max-steps", "--scheme",
         "--exit-mode", "--suite", "--which", "--output", "--format"])


def test_invalid_choices_exit_2_with_error_record(tmp_path, capsys):
    out = str(tmp_path / "out.csv")
    cases = [
        (["mc-validate", "--scheme", "milstein"],
         "scheme must be 'cartesian' or 'polar'"),
        (["mc-validate", "--exit-mode", "reflect"],
         "exit_mode must be 'bridge' or 'grid'"),
        (["identity-check", "--suite", "bogus"], "unknown suite 'bogus'"),
        (["conjecture-scan", "--which", "3"], "which must be 1, 2 or both"),
        (["coeffs", "--format", "xml"], "format must be csv or json"),
        (["frobnicate"], "unknown command 'frobnicate'"),
        # the seed keys the Philox stream unmasked: no two seeds alias
        (["mc-validate", "--seed", "-1"], "seed must lie in [0, 2**64)"),
        (["mc-validate", "--seed", str(2**64 + 5)], "seed must lie in [0, 2**64)"),
    ]
    for argv, message in cases:
        with pytest.raises(SystemExit) as exit_:
            main(argv + ["--output", out])
        assert exit_.value.code == 2
        rec = json.loads(capsys.readouterr().err)
        assert rec == {"error": "ValueError", "status": 2, "message": message}
    with pytest.raises(SystemExit) as exit_:
        main(["coeffs", "--r", "wide"])
    assert exit_.value.code == 2
    assert json.loads(capsys.readouterr().err)["status"] == 2
    assert not os.path.exists(out)


def test_outdir_env_names_default_output(tmp_path, monkeypatch):
    monkeypatch.setenv("HYPBALL_OUTDIR", str(tmp_path))
    cfg = parse_config(["identity-check", "--format", "json"])
    assert cfg.output == str(tmp_path / "identity_check.json")


def test_coeffs_table_round_trips(tmp_path, capsys):
    out = tmp_path / "c.csv"
    cfg = parse_config(["coeffs", "--kmax", "6", "--output", str(out)])
    assert run(cfg) == 0
    assert capsys.readouterr().out.strip() == f"wrote {out}"
    header, columns, rows = read_table(out)
    assert header[0].startswith("# hypball ")
    assert "command=coeffs" in header[1] and "seed=12345" in header[1]
    assert columns == ["k", "coefficient"]
    assert rows[0] == ["0", "1"]  # exact, not 0.99999...
    D = BallDomain(Dimension(4), 0.6)
    for row in rows:
        # 17 significant digits round-trip the doubles exactly
        assert float(row[1]) == poisson_coefficient(D, int(row[0]), 0.3)


def test_pk_eval_rows_integrate_to_one(tmp_path):
    out = tmp_path / "pk.csv"
    assert run(parse_config(["pk-eval", "--output", str(out)])) == 0
    _, _, rows = read_table(out)
    theta = np.array([float(r[0]) for r in rows])
    val = np.array([float(r[1]) for r in rows])
    mass = (
        unit_sphere_area(2) * 0.6**3 * (math.pi / len(rows))
        * float(np.sum(val * np.sin(theta) ** 2))
    )
    assert mass == pytest.approx(1.0, abs=1e-9)


def test_python_dash_m_runs_the_cli(tmp_path):
    # `python -m hypball` must run cli.main and write what it writes
    out = tmp_path / "c.csv"
    argv = ["coeffs", "--n", "4", "--r", "0.6", "--x", "0.3", "--kmax", "10",
            "--output", str(out)]
    with pytest.raises(SystemExit) as done:
        main(argv)
    assert done.value.code == 0
    expected = out.read_bytes()
    out.unlink()
    src = str(Path(hypball.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "hypball", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == expected


def test_json_document_structure(tmp_path):
    out = tmp_path / "c.json"
    cfg = parse_config(["coeffs", "--kmax", "3", "--format", "json",
                        "--output", str(out)])
    assert run(cfg) == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["tool"] == "hypball"
    assert doc["meta"]["config"]["command"] == "coeffs"
    assert doc["meta"]["config"]["k_max"] == 3
    assert [r["k"] for r in doc["rows"]] == [0, 1, 2, 3]
    assert doc["rows"][0]["coefficient"] == 1.0


def test_reruns_are_byte_identical(tmp_path):
    out = tmp_path / "mc.json"
    argv = ["mc-validate", "--paths", "2000", "--dt", "2e-3", "--kmax", "3",
            "--format", "json", "--output", str(out)]
    assert run(parse_config(argv)) == 0
    first = out.read_bytes()
    assert run(parse_config(argv)) == 0
    assert out.read_bytes() == first


def test_mc_validate_report(tmp_path, capsys):
    out = tmp_path / "mc.csv"
    argv = ["mc-validate", "--paths", "4000", "--dt", "2e-3", "--kmax", "2",
            "--output", str(out)]
    assert run(parse_config(argv)) == 0
    assert capsys.readouterr().out.strip().endswith("pass")
    header, columns, rows = read_table(out)
    assert columns == ["k", "analytic", "empirical", "std_error", "z_score"]
    assert any(h.startswith("# censored_fraction=") for h in header)
    # k = 0 is deterministic on both sides
    assert rows[0][1] == "1" and rows[0][2] == "1" and rows[0][4] == "0"
    for row in rows[1:]:
        assert abs(float(row[4])) < 3.0


def test_identity_check_wronskian_passes(tmp_path):
    out = tmp_path / "w.csv"
    argv = ["identity-check", "--suite", "wronskian", "--n", "3..8",
            "--output", str(out)]
    assert run(parse_config(argv)) == 0
    header, _, rows = read_table(out)
    assert "# pass=true" in header
    assert len(rows) == 6 * 31
    assert all(r[-1] == "true" for r in rows)


def test_usage_errors_exit_2(tmp_path, capsys):
    out = tmp_path / "g.csv"
    cfg = parse_config(["green-closed", "--n", "5", "--output", str(out)])
    assert run(cfg) == 2
    rec = json.loads(capsys.readouterr().err)
    assert rec == {"error": "ValueError", "status": 2,
                   "message": "green-closed needs n in {4, 6}"}
    assert not out.exists()
    # NaN fails every comparison, so a "<= 0" check lets it through to the
    # computation, which then fails with status 3
    for argv in (["pk-eval", "--n", "4", "--series-tol", "nan"],
                 ["pk-closed", "--quad-tol", "nan"],
                 ["mc-validate", "--dt", "nan"]):
        with pytest.raises(SystemExit) as exit_:
            main(argv + ["--output", str(out)])
        assert exit_.value.code == 2
        assert json.loads(capsys.readouterr().err)["status"] == 2
        assert not out.exists()


def test_unwritable_output_exits_2_with_error_record(tmp_path, capsys, monkeypatch):
    # a missing directory or a directory as --output fails before anything
    # is computed, and a writer failure after it gets the same record
    missing = tmp_path / "missing"
    for argv in (["coeffs", "--output", str(missing / "c.csv")],
                 ["mc-validate", "--paths", "1000000", "--output", str(tmp_path)]):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        rec = json.loads(capsys.readouterr().err)
        assert rec["error"] == "ValueError" and rec["status"] == 2
    monkeypatch.setenv("HYPBALL_OUTDIR", str(missing))
    with pytest.raises(ValueError, match="does not exist"):
        parse_config(["coeffs"])
    cfg = parse_config(["coeffs", "--output", str(tmp_path / "c.csv")])
    assert run(replace(cfg, output=str(missing / "c.csv"))) == 2
    rec = json.loads(capsys.readouterr().err)
    assert rec["error"] == "FileNotFoundError" and rec["status"] == 2
    assert list(tmp_path.iterdir()) == []


def test_numerical_failures_exit_3(tmp_path, capsys):
    # |x|/r = 0.917 needs far more than 10 terms at tol 1e-10
    # and one Monte Carlo path leaves no standard error for the z-scores
    cases = [
        (["pk-eval", "--kmax", "10", "--x", "0.55"], "SeriesTruncationError"),
        (["mc-validate", "--paths", "1"], "RuntimeError"),
    ]
    for argv, error in cases:
        out = tmp_path / "out.csv"
        assert run(parse_config(argv + ["--output", str(out)])) == 3
        rec = json.loads(capsys.readouterr().err)
        assert rec["error"] == error and rec["status"] == 3
        assert not out.exists()


def test_green_eval_at_equal_radii(tmp_path):
    # |x| = |y|: the image series converges like (|x||y|/r^2)^k = 0.25^k
    out = tmp_path / "g.csv"
    argv = ["green-eval", "--n", "6", "--x", "0.3", "--y", "0.3", "--output", str(out)]
    assert run(parse_config(argv)) == 0
    _, _, rows = read_table(out)
    values = [float(r[1]) for r in rows]
    assert len(values) == 64
    assert all(math.isfinite(v) and v > 0 for v in values)
