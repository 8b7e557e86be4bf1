import errno
import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from mp_reference import radial_zeros

import hypball
from hypball import cli
from hypball.cli import (RunConfig, _build_parser, _config_echo, _fmt, _theta_table,
                         _write_csv, _write_json, main, parse_config, run)
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
         "--exit-mode", "--suite", "--output", "--format"])


def test_invalid_choices_exit_2_with_error_record(tmp_path, capsys):
    out = str(tmp_path / "out.csv")
    cases = [
        (["mc-validate", "--scheme", "milstein"],
         "scheme must be 'cartesian' or 'polar'"),
        (["mc-validate", "--exit-mode", "reflect"],
         "exit_mode must be 'bridge' or 'grid'"),
        (["identity-check", "--suite", "bogus"], "unknown suite 'bogus'"),
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
    # each command twice in one process: the shared parser and quadrature
    # rule carry nothing from one call into the next
    for argv in (["mc-validate", "--paths", "2000", "--dt", "2e-3", "--kmax", "3",
                  "--format", "json"],
                 ["pk-eval"],
                 ["pk-closed", "--format", "json"],
                 ["green-eval"],
                 ["identity-check", "--suite", "normalization", "--n", "4..5"]):
        out = tmp_path / "out"
        argv = argv + ["--output", str(out)]
        assert run(parse_config(argv)) == 0
        first = out.read_bytes()
        assert run(parse_config(argv)) == 0
        assert out.read_bytes() == first


# SHA-256 prefixes of the rows after the header (so the `output=` echo does
# not count; a JSON file from its "rows" line on) of tables that the warm
# array path of the kernels writes. A change to the float operations of a
# series sum, or to any rounding step between the tables and the text, moves
# them.
# Like the seeded Monte Carlo digests they hold for one platform and NumPy
# build.
_ROW_DIGESTS = {
    ("pk-eval", "--n", "4", "--theta-grid", "256"): "bde4842e00355546",
    ("pk-eval", "--n", "5", "--theta-grid", "256"): "ce9311fd2d793c08",
    ("pk-eval", "--n", "6", "--theta-grid", "256"): "4b29662d52ad87e9",
    ("green-eval", "--n", "4", "--theta-grid", "256"): "41ea9a95e6d00f95",
    # odd n: G_0's a z^rho term without the log
    ("green-eval", "--n", "5", "--theta-grid", "256"): "29f8a0870e753f34",
    ("green-eval", "--n", "6", "--theta-grid", "256"): "df25fb7c345bef5b",
    # every z below G_0's split between its two forms
    ("green-eval", "--n", "6", "--r", "0.2", "--x", "0.1", "--theta-grid", "256"):
        "99a7d02fe5dab7ac",
    ("pk-closed", "--n", "6", "--theta-grid", "256", "--format", "json"):
        "50633485e63300b5",
    ("pk-closed", "--n", "8", "--theta-grid", "256", "--format", "json"):
        "34be85c233d176f5",
    ("green-closed", "--n", "4", "--theta-grid", "256"): "32559e79fb1ecf25",
    ("green-closed", "--n", "6", "--theta-grid", "256"): "45a7563c4bb77e66",
    ("coeffs", "--kmax", "40"): "1656532786078cd9",
    ("identity-check", "--suite", "normalization", "--n", "5"): "ecfd43fc212ef2cf",
    # the discrete identity on one F_k range and one G_k array per (n, z),
    # k = 1..30 against 1e-12 relative to its terms
    ("identity-check", "--suite", "wronskian", "--n", "3..8"): "168fd58fa91c2fbc",
}


@pytest.mark.parametrize("argv", list(_ROW_DIGESTS),
                         ids=lambda argv: "_".join(a.lstrip("-") for a in argv))
def test_table_rows_are_pinned(tmp_path, argv):
    out = tmp_path / "out.csv"
    assert run(parse_config(list(argv) + ["--output", str(out)])) == 0
    with open(out, "rb") as f:
        lines = f.readlines()
    if "json" in argv:
        lines = lines[lines.index(b'  "rows": [\n'):]
    data = b"".join(line for line in lines if not line.startswith(b"#"))
    assert hashlib.sha256(data).hexdigest()[:16] == _ROW_DIGESTS[argv]


@pytest.mark.parametrize("grid", [1, 7, 256])
def test_theta_table_rows_are_one_product(grid):
    # the cached unit circle times the radius is the one IEEE product
    # radius * math.cos(theta) per coordinate, bit for bit
    for radius in (0.6, 0.3, 1 / 3, 0.59999999999999, 0.1 + 0.2):
        cfg = RunConfig(command="pk-closed", n="6", theta_grid=grid)
        seen = []
        _, rows = _theta_table(cfg, radius, lambda D, x, ys, ctl: seen.append(ys) or ys[:, 0],
                               None)
        thetas = [theta for theta, _ in rows]
        assert thetas == [(j + 0.5) * math.pi / grid for j in range(grid)]
        expected = np.zeros((grid, 6))
        expected[:, 0] = [radius * math.cos(t) for t in thetas]
        expected[:, 1] = [radius * math.sin(t) for t in thetas]
        assert seen[0].tobytes() == expected.tobytes()
        assert [v for _, v in rows] == expected[:, 0].tolist()


def test_normalization_circle_is_one_product(monkeypatch):
    # the Gauss-node circles of the normalization suite, pinned the same way
    seen = []

    def record(D, x, ys, ctl):
        seen.append((D.r, ys))
        return np.ones(len(ys))

    monkeypatch.setattr(cli, "poisson_kernel", record)
    cli._suite_normalization(RunConfig(command="identity-check", n="4..5"))
    theta = cli._half_turn_rule()[0].tolist()
    assert len(seen) == 18
    for r, ys in seen:
        expected = np.zeros(ys.shape)
        expected[:, 0] = [r * math.cos(t) for t in theta]
        expected[:, 1] = [r * math.sin(t) for t in theta]
        assert ys.tobytes() == expected.tobytes()


def test_parser_is_shared_and_keeps_no_flag():
    assert _build_parser() is _build_parser()
    first = parse_config(["coeffs", "--y", "0.2", "--format", "json"])
    assert (first.y, first.format, first.output) == (0.2, "json", "./coeffs.json")
    second = parse_config(["coeffs"])
    assert second == RunConfig(command="coeffs", k_max=10, output="./coeffs.csv")


def test_writers_are_pinned(tmp_path):
    cfg = RunConfig(command="coeffs", output="table.csv")
    columns = ("k", "flag", "value")
    rows = [(0, True, 0.1 + 0.2), (1, False, math.nan), (2, True, math.inf)]
    meta = {"pass": False, "max_abs_z": 1 / 3}
    _write_csv(tmp_path / "t.csv", cfg, columns, rows, meta)
    _write_json(tmp_path / "t.json", cfg, columns, rows, meta)
    v = hypball.__version__
    assert (tmp_path / "t.csv").read_bytes().decode() == f"""\
# hypball {v}
# command=coeffs n=4 r=0.59999999999999998 x=0.29999999999999999 y=None \
theta_grid=64 k_max=2000 series_tol=1e-10 quad_tol=1e-10 \
dt=0.00050000000000000001 n_paths=100000 seed=12345 max_steps=20000 \
scheme=cartesian exit_mode=bridge suite=wronskian output=table.csv format=csv
# max_abs_z=0.33333333333333331
# pass=false
k,flag,value
0,true,0.30000000000000004
1,false,nan
2,true,inf
"""
    assert (tmp_path / "t.json").read_bytes().decode() == f"""\
{{
  "meta": {{
    "tool": "hypball",
    "version": "{v}",
    "config": {{
      "command": "coeffs",
      "n": "4",
      "r": 0.6,
      "x": 0.3,
      "y": null,
      "theta_grid": 64,
      "k_max": 2000,
      "series_tol": 1e-10,
      "quad_tol": 1e-10,
      "dt": 0.0005,
      "n_paths": 100000,
      "seed": 12345,
      "max_steps": 20000,
      "scheme": "cartesian",
      "exit_mode": "bridge",
      "suite": "wronskian",
      "output": "table.csv",
      "format": "csv"
    }},
    "pass": false,
    "max_abs_z": 0.3333333333333333
  }},
  "rows": [
    {{
      "k": 0,
      "flag": true,
      "value": 0.30000000000000004
    }},
    {{
      "k": 1,
      "flag": false,
      "value": NaN
    }},
    {{
      "k": 2,
      "flag": true,
      "value": Infinity
    }}
  ]
}}
"""


def _reference_csv(path, cfg, columns, rows, meta):
    # the writer's text as one _fmt call per cell
    lines = [f"# hypball {hypball.__version__}", f"# {_config_echo(cfg)}"]
    lines += [f"# {key}={_fmt(meta[key])}" for key in sorted(meta)]
    lines += [",".join(columns)] + [",".join(map(_fmt, row)) for row in rows]
    with open(path, "w", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def _reference_json(path, cfg, columns, rows, meta):
    # the writer's text from the pure-Python indent=2 encoder
    doc = {
        "meta": {
            "tool": "hypball",
            "version": hypball.__version__,
            "config": {f.name: getattr(cfg, f.name) for f in fields(cfg)},
            **meta,
        },
        "rows": [dict(zip(columns, row)) for row in rows],
    }
    with open(path, "w", newline="\n") as f:
        f.write(json.dumps(doc, indent=2) + "\n")


_TEXT = st.text(st.sampled_from('"\\%,:{}[]\n\t aé€😀'), max_size=5) | st.text(max_size=5)
_CELLS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-310]),
    st.floats().map(np.float64),
    st.integers(),
    st.booleans(),
    st.none(),
    _TEXT,
)


@given(
    table=st.lists(_TEXT, max_size=4).flatmap(lambda columns: st.tuples(
        st.just(columns),
        st.lists(st.tuples(*[_CELLS] * len(columns)), max_size=6))),
    meta=st.dictionaries(_TEXT, _CELLS, max_size=3),
)
@settings(max_examples=300, deadline=None)
# tables a writer that formats whole columns must get right: a repeated
# column name (the dict keeps its first place and its last cell), a column
# that mixes floats with other cells, a bool column, NumPy floats, and a
# CLI-sized table of floats
@example(table=(["a", "a"], [(1, 2.5), (0.5, "x")]), meta={})
@example(table=(["a", "b", "a", "c"], [(1, 2.0, True, None)] * 3), meta={"a": 1.0})
@example(table=(["k", "pass"], [(0, True), (1, False)]), meta={"pass": True})
@example(table=(["theta", "value"], [(np.float64(0.1), 1.5), (0.25, np.float64(-0.0)),
                                     (np.float64(math.nan), np.float64(1e-310))]),
         meta={})
@example(table=(["theta", "value"],
                [((j + 0.5) * math.pi / 256, math.sin(j) / 3) for j in range(256)]),
         meta={})
def test_writers_match_per_cell_formatting(tmp_path_factory, table, meta):
    columns, rows = table
    cfg = RunConfig(command="coeffs", output="table.csv")
    d = tmp_path_factory.mktemp("w")
    for writer, reference in ((_write_csv, _reference_csv), (_write_json, _reference_json)):
        writer(d / "new", cfg, columns, rows, meta)
        reference(d / "ref", cfg, columns, rows, meta)
        assert (d / "new").read_bytes() == (d / "ref").read_bytes()


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
    # the simulator counters are deterministic, so a rerun writes the same
    # bytes; bridge exits are a share of the exits, and grid mode takes none
    for mode in ("bridge", "grid"):
        cfg = parse_config(argv + ["--exit-mode", mode])
        assert run(cfg) == 0
        first = out.read_bytes()
        assert run(cfg) == 0
        assert out.read_bytes() == first
        meta = dict(h[2:].split("=", 1) for h in read_table(out)[0][1:])
        exits = 4000 * (1 - float(meta["censored_fraction"]))
        bridged = int(meta["bridge_exits"])
        assert int(meta["path_steps"]) >= exits and int(meta["floor_clamps"]) == 0
        assert bridged <= exits and (bridged > 0) == (mode == "bridge")


def test_identity_check_wronskian_passes(tmp_path):
    out = tmp_path / "w.csv"
    argv = ["identity-check", "--suite", "wronskian", "--n", "3..8",
            "--output", str(out)]
    assert run(parse_config(argv)) == 0
    header, _, rows = read_table(out)
    assert "# pass=true" in header
    assert len(rows) == 6 * 30
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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_rerun_over_an_existing_file_is_a_fresh_write(tmp_path, fmt):
    # the file is rewritten in place and cut to the new length: no old byte
    # survives a longer file, and a shorter one grows
    out = tmp_path / f"c.{fmt}"
    cfg = parse_config(["coeffs", "--format", fmt, "--output", str(out)])
    assert run(cfg) == 0
    fresh = out.read_bytes()
    for old in (b"x" * (3 * len(fresh)), b"y\n"):
        out.write_bytes(old)
        assert run(cfg) == 0
        assert out.read_bytes() == fresh


def test_device_output_exits_0():
    # a device is written without truncation, which it does not support
    with pytest.raises(SystemExit) as exit_:
        main(["coeffs", "--output", os.devnull])
    assert exit_.value.code == 0


def test_failed_write_leaves_an_empty_file(tmp_path, capsys, monkeypatch):
    out = tmp_path / "c.csv"
    out.write_bytes(b"x" * 100_000)
    real_write = os.write
    calls = []

    def short_then_fail(fd, data):
        calls.append(len(data))
        if len(calls) > 1:
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        return real_write(fd, data[: len(data) // 2])

    monkeypatch.setattr(os, "write", short_then_fail)
    assert run(parse_config(["coeffs", "--output", str(out)])) == 2
    assert len(calls) == 2 and calls[1] == calls[0] - calls[0] // 2
    rec = json.loads(capsys.readouterr().err)
    assert rec["error"] == "OSError" and rec["status"] == 2
    assert out.read_bytes() == b""


def test_read_only_output_exits_2_and_is_left_unchanged(tmp_path, capsys, monkeypatch):
    out = tmp_path / "c.csv"
    out.write_bytes(b"old table\n")
    out.chmod(0o444)
    if os.geteuid() == 0:
        # mode bits do not stop root: refuse the open as the kernel does for
        # any other user
        real_open = os.open

        def refuse(path, flags, *args):
            if os.fspath(path) == str(out) and flags & (os.O_WRONLY | os.O_RDWR):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
            return real_open(path, flags, *args)

        monkeypatch.setattr(os, "open", refuse)
    assert run(parse_config(["coeffs", "--output", str(out)])) == 2
    rec = json.loads(capsys.readouterr().err)
    assert rec["error"] == "PermissionError" and rec["status"] == 2
    assert out.read_bytes() == b"old table\n"


def test_rewrite_neither_opens_with_o_trunc_nor_truncates_to_zero(tmp_path, monkeypatch):
    out = tmp_path / "c.json"
    out.write_bytes(b"x" * 100_000)
    real_open, real_ftruncate = os.open, os.ftruncate
    opened, cut = [], []

    def record_open(path, flags, *args):
        opened.append(flags)
        return real_open(path, flags, *args)

    def record_ftruncate(fd, length):
        cut.append(length)
        return real_ftruncate(fd, length)

    monkeypatch.setattr(os, "open", record_open)
    monkeypatch.setattr(os, "ftruncate", record_ftruncate)
    assert run(parse_config(["pk-closed", "--format", "json", "--output", str(out)])) == 0
    assert len(opened) == 1 and not opened[0] & os.O_TRUNC
    assert cut == [out.stat().st_size] and 0 < cut[0] < 100_000


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


@pytest.mark.parametrize("argv", [
    ["conjecture-scan", "--n", "3"],
    ["identity-check", "--suite", "laplace", "--n", "5"],
    ["identity-check", "--suite", "laplace", "--n", "7"],
    ["conjecture-scan", "--n", "7"],
])
def test_empty_selections_exit_2(tmp_path, capsys, argv):
    # no row of the suite or probe applies to these n; an empty table
    # would report pass=true
    out = tmp_path / "out.csv"
    assert run(parse_config(argv + ["--output", str(out)])) == 2
    rec = json.loads(capsys.readouterr().err)
    n = argv[argv.index("--n") + 1]
    assert rec == {"error": "ValueError", "status": 2,
                   "message": f"no {argv[0]} row applies to n={n}"}
    assert not out.exists()


@pytest.mark.parametrize("r", [0.05, 0.2, math.sqrt(7 - 4 * math.sqrt(3)), 0.6, 0.95])
def test_conjecture_scan_reads_the_rightmost_zero(tmp_path, r):
    # per even n, one conj2 row: the weight's decay rate, which is minus the
    # rightmost zero of F_k(r^2) in k, against n/2; the radii span both shapes
    # of the n = 6 pair and its double zero at the critical radius
    out = tmp_path / "c.csv"
    argv = ["conjecture-scan", "--n", "4..8", "--r", repr(r), "--x", "0", "--output", str(out)]
    assert run(parse_config(argv)) == 0
    header, _, rows = read_table(out)
    assert "# pass=true" in header
    conj2 = [row for row in rows if row[0] == "conj2"]
    assert [row[1:3] for row in conj2] == [["4", "2"], ["6", "3"], ["8", "4"]]
    for _, n, _, rate, ok in conj2:
        exact = -max(mp.re(p) for p in radial_zeros(int(n), r * r))
        assert float(rate) == pytest.approx(float(exact), rel=1e-12, abs=0)
        assert ok == "true" and float(rate) > int(n) / 2


def test_conjecture_scan_raises_on_an_unresolved_margin(tmp_path, capsys):
    # n = 4: the rate is 2/(1 - r^2), 2e-10 above n/2 at r = 1e-5, below the
    # rate's rounding; no table is written
    out = tmp_path / "c.csv"
    argv = ["conjecture-scan", "--n", "4", "--r", "1e-5", "--x", "0", "--output", str(out)]
    assert run(parse_config(argv)) == 3
    rec = json.loads(capsys.readouterr().err)
    assert rec["error"] == "RuntimeError" and rec["status"] == 3
    assert "within its rounding of n/2" in rec["message"]
    assert not out.exists()


def test_stdout_output_keeps_the_table_whole(tmp_path):
    # --output /dev/stdout with stdout a regular file: the table is the whole
    # file and the summary goes to stderr, not over the table's head
    out = tmp_path / "c.csv"
    argv = ["coeffs", "--kmax", "2"]
    assert run(parse_config(argv + ["--output", str(out)])) == 0
    src = str(Path(hypball.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    with open(tmp_path / "stdout.txt", "w+b") as f:
        proc = subprocess.run([sys.executable, "-m", "hypball", *argv, "--output", "/dev/stdout"],
                              env=env, stdout=f, stderr=subprocess.PIPE, text=True, timeout=120)
        f.seek(0)
        table = f.read()
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "wrote /dev/stdout\n"
    assert table == out.read_bytes().replace(str(out).encode(), b"/dev/stdout")


@pytest.mark.parametrize("argv, skipped, ran", [
    (["conjecture-scan", "--n", "4..8"], "conj1:5,conj1:7,conj2:5,conj2:7",
     {"4", "6", "8"}),
    (["identity-check", "--suite", "laplace", "--n", "3..8"],
     "laplace:3,laplace:5,laplace:7", {"4", "6", "8"}),
    (["identity-check", "--suite", "normalization", "--n", "3..8"], None,
     {"3", "4", "5", "6", "7", "8"}),
])
def test_skipped_dimensions_are_named(tmp_path, argv, skipped, ran):
    # a requested n that the suite or probe does not cover is named in the
    # header, and the key is absent when every n ran
    out = tmp_path / "out.csv"
    assert run(parse_config(argv + ["--output", str(out)])) == 0
    header, _, rows = read_table(out)
    assert "# pass=true" in header
    assert [h for h in header if h.startswith("# skipped=")] == (
        [f"# skipped={skipped}"] if skipped else [])
    assert {row[1 if argv[0] == "conjecture-scan" else 0] for row in rows} == ran
    assert {row[-1] for row in rows} == {"true"}
