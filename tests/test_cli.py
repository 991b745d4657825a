import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nablatc
from nablatc.cli import main
from nablatc.errors import ConfigError
from nablatc.signals import read_signal_csv
from nablatc.suite import GROUPS, reports_to_json_dict, run_suite


def run(argv):
    return main(argv)


def test_eval_gl_writes_body_rows(tmp_path):
    out = str(tmp_path / "out.csv")
    assert run(
        ["eval", "--kind", "gl", "--order", "0.5", "--signal", "sin10k",
         "--weight", "case1", "--N", "100", "--out", out]
    ) == 0
    lines = open(out).read().strip().splitlines()
    assert lines[0] == "k,value"
    assert len(lines) == 101  # header + one row per evaluation point


def test_eval_order_zero_reproduces_signal(tmp_path):
    out = str(tmp_path / "id.csv")
    run(["eval", "--kind", "gl", "--order", "0", "--signal", "sin10k",
         "--N", "20", "--out", out])
    sig = read_signal_csv(out)
    expected = [math.sin(10.0 * k) for k in range(1, 21)]
    np.testing.assert_allclose(sig.window(1, 19), expected[1:], rtol=1e-15)
    assert sig.at(0) == pytest.approx(expected[0])


def test_eval_gl_vs_rl_difference(tmp_path):
    g_out = str(tmp_path / "gl.csv")
    r_out = str(tmp_path / "rl.csv")
    for kind, out in (("gl", g_out), ("rl", r_out)):
        assert run(
            ["eval", "--kind", kind, "--order", "0.5", "--signal", "sin10k",
             "--weight", "case2", "--N", "100", "--out", out]
        ) == 0
    g = read_signal_csv(g_out)
    r = read_signal_csv(r_out)
    assert np.max(np.abs(g.values - r.values)) <= 1.2e-15


def test_eval_csv_signal_roundtrip(tmp_path):
    first = str(tmp_path / "first.csv")
    second = str(tmp_path / "second.csv")
    run(["eval", "--kind", "gl", "--order", "-1", "--signal", "poly:0,1",
         "--N", "10", "--out", first])
    # feed the output back in as a CSV signal
    assert run(
        ["eval", "--kind", "gl", "--order", "0", "--signal", first,
         "--N", "9", "--out", second]
    ) == 0


def test_byte_identical_reruns(tmp_path):
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    args = ["eval", "--kind", "caputo", "--order", "1.5", "--signal", "sin10k",
            "--weight", "case4", "--N", "64", "--out"]
    run(args + [a])
    run(args + [b])
    assert open(a, "rb").read() == open(b, "rb").read()


def test_exit_code_config_error(tmp_path):
    out = str(tmp_path / "x.csv")
    # integer order for the fractional kind is a configuration error
    assert run(
        ["eval", "--kind", "rl", "--order", "1", "--signal", "sin10k", "--out", out]
    ) == 2
    assert not os.path.exists(out)
    assert run(
        ["eval", "--kind", "gl", "--order", "0.5", "--signal", "nosuch",
         "--out", out]
    ) == 2


@pytest.mark.parametrize(
    "argv, history, need",
    [
        (["eval", "--kind", "rl", "--order", "0.5"], "0", "order 0.5 needs history >= 1"),
        (["taylor", "--kind", "gl", "--order", "0.5", "--rep", "initial", "--degree", "5"],
         "2", "degree 5 needs history >= 6"),
        (["taylor", "--kind", "rl", "--order", "0.5", "--rep", "future", "--degree", "4"],
         "2", "degree 4 needs history >= 5"),
        (["eval", "--kind", "caputo", "--order", "1.5", "--weight", "case4"],
         "1", "order 1.5 needs history >= 2"),
    ],
    ids=["eval-rl", "taylor-initial", "taylor-future", "eval-caputo"],
)
def test_short_history_is_one_line_exit_2(tmp_path, capsys, argv, history, need):
    # only --history sets a grid short of what the form reads: without it
    # the grid covers the form
    out = tmp_path / "o.csv"
    argv = [*argv, "--signal", "sin10k", "--N", "10", "--out", str(out)]
    assert run([*argv, "--history", history]) == 2
    assert capsys.readouterr().err == f"nt: configuration error: {need}\n"
    assert not out.exists()
    assert run(argv) == 0


def test_exit_code_numeric_error(tmp_path):
    out = str(tmp_path / "x.csv")
    # rate-0.5 weight underflows the zero threshold at this horizon
    code = run(
        ["eval", "--kind", "gl", "--order", "0.5", "--signal", "sin10k",
         "--weight", "exp:0.5", "--N", "1200", "--out", out]
    )
    assert code == 3
    assert not os.path.exists(out)


def test_argparse_usage_error_is_exit_2():
    with pytest.raises(SystemExit) as exc:
        run(["eval", "--kind", "nosuchkind", "--order", "1", "--signal", "s",
             "--out", "o"])
    assert exc.value.code == 2


# each (option, value) pair is a negative value in exponent form, which
# argparse's own pattern takes for an option
@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--alpha", "0.7", ("--mu", "-4e-1"), "--weight", "case4", "--x0", "1.3",
         "--N", "40"],
        ["eval", "--kind", "gl", ("--order", "-5e-1"), "--signal", "sin10k", ("--a", "-2e0"),
         "--weight", "case2", "--N", "40"],
        ["laplace", "--signal", "sin10k", "--N", "400", "--s-re", "0.9", ("--s-im", "-1e-1"),
         "--rule", "caputo", "--order", "1.5", ("--lambda", "-2E-2")],
    ],
    ids=["solve", "eval", "laplace"],
)
def test_negative_exponent_values(tmp_path, capsys, argv):
    outputs = []
    for form, join in (("spaced", list), ("joined", lambda pair: ["=".join(pair)])):
        args = [a for arg in argv for a in (join(arg) if isinstance(arg, tuple) else [arg])]
        out = tmp_path / f"{form}.csv"
        if args[0] != "laplace":
            args += ["--out", str(out)]
        assert run(args) == 0
        outputs.append(capsys.readouterr().out + (out.read_text() if out.exists() else ""))
    assert outputs[0] == outputs[1]


def test_taylor_subcommand_matches_eval(tmp_path):
    t_out = str(tmp_path / "taylor.csv")
    e_out = str(tmp_path / "eval.csv")
    common = ["--kind", "gl", "--order", "0.5", "--signal", "sin10k",
              "--weight", "case3", "--N", "16"]
    assert run(["taylor", *common, "--rep", "current", "--out", t_out]) == 0
    assert run(["eval", *common, "--out", e_out]) == 0
    t = read_signal_csv(t_out)
    e = read_signal_csv(e_out)
    np.testing.assert_allclose(t.values, e.values, atol=1e-11)


@pytest.mark.parametrize("rep", ["initial", "future"])
def test_taylor_default_history_covers_the_degree(tmp_path, rep):
    # without --history, the series forms keep the degree + 1 points below
    # the base that the default --degree 5 reads
    common = ["taylor", "--kind", "gl", "--order", "0.5", "--signal", "sin10k",
              "--rep", rep]
    default, explicit = tmp_path / "y.csv", tmp_path / "y6.csv"
    assert run([*common, "--out", str(default)]) == 0
    assert run([*common, "--history", "6", "--out", str(explicit)]) == 0
    assert default.read_bytes() == explicit.read_bytes()


def test_verify_default_passes(tmp_path):
    out = str(tmp_path / "report.json")
    assert run(["verify", "--only", "integer-defect", "--out", out]) == 0
    payload = json.loads(open(out).read())
    assert payload["all_pass"] is True
    entry = payload["reports"][0]
    assert set(entry) >= {"identity-id", "params", "max_abs_dev", "tolerance", "pass", "seed"}


def test_verify_perturbation_flagged(tmp_path):
    out = str(tmp_path / "report.json")
    assert run(
        ["verify", "--only", "gl-rl-agree", "--perturb", "1e-6", "--out", out]
    ) == 1
    payload = json.loads(open(out).read())
    assert payload["failures"] > 0
    # the fault hook is restored afterwards
    import nablatc.operators as operators

    assert operators._fault_eps.get() == 0.0


def test_verify_prints_one_summary_line_per_group(tmp_path, capsys):
    import re

    out = str(tmp_path / "report.json")
    assert run(["verify", "--only", "ml-solver", "--seed", "3", "--out", out]) == 0
    lines = capsys.readouterr().err.splitlines()
    # ml-solver-mu-zero has tolerance 0: counted as exact, not divided by
    assert re.fullmatch(
        r"verify: ml-solver: 18 checks, \d+\.\d ms, worst dev/tol [0-9.e+-]+ \(1 exact\)",
        lines[0],
    )
    assert lines[1:] == ["verify: 18 checks, 0 failures (seed 3)"]
    assert run(["verify", "--only", "i", "--seed", "3", "--out", out]) == 0
    lines = capsys.readouterr().err.splitlines()
    names = [m.group(1) for m in map(re.compile(r"verify: ([a-z-]+): ").match, lines) if m]
    assert names == [name for name, _ in GROUPS if "i" in name]
    assert all(re.search(r" checks, \d+\.\d ms, worst dev/tol \d", line) for line in lines[:-1])
    # the JSON report is the in-process result, byte for byte
    payload = reports_to_json_dict(run_suite(seed=3, only="i", tolerance_scale=1.0), 3, 1.0, None)
    assert open(out).read() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["in-process", "forked"])
def test_verify_numeric_error_is_the_first_groups(tmp_path, capfd, monkeypatch, cpus):
    # every group overflows under this fault; a child's errors rerun in
    # this process, where registry order picks the first group's, and no
    # child writes to the terminal
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    out = tmp_path / "report.json"
    assert run(["verify", "--perturb", "1e308", "--out", str(out)]) == 3
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "nt: numeric error: signal contains non-finite samples from lattice offset 2: "
        "this signal admits a horizon of at most 1 from its base point\n"
    )
    assert not out.exists()


def test_verify_unknown_only_is_config_error(tmp_path):
    assert run(["verify", "--only", "bogus-identity", "--out",
                str(tmp_path / "r.json")]) == 2


def test_solve_subcommand(tmp_path):
    out = str(tmp_path / "sol.csv")
    assert run(
        ["solve", "--alpha", "0.5", "--mu", "-0.2", "--weight", "one",
         "--x0", "1", "--N", "12", "--out", out]
    ) == 0
    sol = read_signal_csv(out)
    assert sol.values[0] == 1.0
    assert len(sol.values) == 13


@pytest.mark.parametrize("opt", ["--mu=inf", "--mu=-inf", "--mu=nan", "--x0=nan", "--x0=inf"])
def test_solve_nonfinite_parameter_is_config_error(tmp_path, capsys, opt):
    out = tmp_path / "sol.csv"
    args = {"--mu": "-0.2", "--x0": "1"}
    name, value = opt.split("=")
    args[name] = value
    argv = ["solve", "--alpha", "0.5", "--N", "5", "--out", str(out)]
    argv += [f"{k}={v}" for k, v in args.items()]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("nt: configuration error:") and err.count("\n") == 1
    assert name in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--alpha", "0.5", "--mu", "0.99", "--x0", "1e300", "--N", "400"],
        ["eval", "--kind", "gl", "--order", "0.5", "--signal", "sin10k",
         "--weight", "case2", "--N", "900"],
        ["eval", "--kind", "gl", "--order", "0.5", "--signal", "sin10k",
         "--weight", "case1", "--N", "2200"],
    ],
)
def test_numeric_error_prints_no_warning(tmp_path, argv):
    # a separate process: numpy warnings would reach its stderr ahead of the error
    src = os.path.dirname(os.path.dirname(os.path.abspath(nablatc.__file__)))
    env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="default")
    out = tmp_path / "out.csv"
    res = subprocess.run(
        [sys.executable, "-m", "nablatc.cli", *argv, "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert res.returncode == 3
    assert res.stderr.startswith("nt: numeric error:") and res.stderr.count("\n") == 1
    assert "Warning" not in res.stderr
    assert not out.exists()


def test_gl_rule_overflow_prints_no_warning():
    # the single-sum operator overflows when it divides by the weight; a
    # separate process, so numpy warnings would reach its stderr
    src = os.path.dirname(os.path.dirname(os.path.abspath(nablatc.__file__)))
    env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="default")
    res = subprocess.run(
        [sys.executable, "-m", "nablatc.cli", "laplace", "--signal", "sin10k",
         "--s-re", "1.1", "--rule", "gl", "--lambda", "0.1", "--order", "2000"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert res.returncode == 3
    assert res.stderr.startswith("nt: numeric error:") and res.stderr.count("\n") == 1
    assert "Warning" not in res.stderr
    assert res.stdout == ""


def test_laplace_subcommand_value(capsys):
    assert run(
        ["laplace", "--signal", "sin10k", "--N", "400", "--s-re", "0.9",
         "--s-im", "0.1"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is True


def test_laplace_rule_check(capsys):
    assert run(
        ["laplace", "--signal", "sin10k", "--N", "2000", "--s-re", "0.95",
         "--s-im", "0.1", "--rule", "gl", "--order", "0.5", "--lambda", "0"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True


def test_laplace_rule_requires_lambda():
    assert run(
        ["laplace", "--signal", "sin10k", "--N", "100", "--s-re", "0.9",
         "--rule", "gl"]
    ) == 2


@pytest.mark.parametrize(
    "extra",
    [["--lambda", "0.3"], ["--order", "7"], ["--lambda", "0.3", "--order", "7"]],
    ids=["lambda", "order", "both"],
)
def test_laplace_rule_options_need_a_rule(capsys, extra):
    # a transform value reads neither option, so giving one is an error
    argv = ["laplace", "--signal", "sin10k", "--N", "64", "--s-re", "0.9"]
    assert run([*argv, *extra]) == 2
    captured = capsys.readouterr()
    assert captured.err == "nt: configuration error: --lambda and --order need --rule\n"
    assert captured.out == ""
    # under a rule, --order defaults to 0.5
    assert run([*argv, "--rule", "rl", "--lambda", "0.3"]) == 0
    default = capsys.readouterr().out
    assert json.loads(default)["params"]["alpha"] == 0.5
    assert run([*argv, "--rule", "rl", "--lambda", "0.3", "--order", "0.5"]) == 0
    assert capsys.readouterr().out == default


def test_laplace_rule_with_initial_conditions(capsys):
    assert run(
        ["laplace", "--signal", "sin10k", "--N", "1500", "--s-re", "0.9",
         "--s-im", "0.2", "--rule", "caputo", "--order", "1.5", "--lambda", "0"]
    ) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True
    assert run(
        ["laplace", "--signal", "sin10k", "--N", "100", "--s-re", "0.9",
         "--rule", "int", "--order", "1.5", "--lambda", "0"]
    ) == 2


def test_weight_option_only_where_it_is_read(tmp_path, capsys):
    # laplace reads no weight, so --weight is an unknown option there
    with pytest.raises(SystemExit) as exc:
        run(["laplace", "--signal", "sin10k", "--N", "64", "--s-re", "0.9",
             "--weight", "case2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("nt: configuration error:") and err.count("\n") == 1
    assert "--weight" in err
    for command in ("eval", "taylor"):
        out = tmp_path / f"{command}.csv"
        assert run([command, "--kind", "gl", "--order", "0.5", "--signal", "sin10k",
                    "--N", "16", "--weight", "case2", "--out", str(out)]) == 0
        assert out.exists()


@pytest.mark.parametrize("order", ["0.5", "1029", "1e6"])
def test_laplace_gl_rule_reads_no_history_by_default(capsys, order):
    # the single-sum rule runs as with --history 0 at any order
    argv = ["laplace", "--signal", "sin10k", "--N", "64", "--s-re", "0.9",
            "--rule", "gl", "--lambda", "0", "--order", order]
    assert run(argv) == 0
    default = capsys.readouterr()
    assert run([*argv, "--history", "0"]) == 0
    assert capsys.readouterr() == default and default.err == ""


@pytest.mark.parametrize("ks", ["0,nan,2", "0,1,3", "0,inf,2"], ids=["nan", "gap", "inf"])
@pytest.mark.parametrize("role", ["signal", "weight"])
def test_malformed_csv_k_is_one_line_exit_2(tmp_path, capsys, ks, role):
    bad = tmp_path / "bad.csv"
    bad.write_text("k,value\n" + "".join(f"{k},1.0\n" for k in ks.split(",")))
    out = tmp_path / "out.csv"
    files = {"signal": "sin10k", "weight": "one", role: str(bad)}
    assert run(["eval", "--kind", "gl", "--order", "0.5", "--signal", files["signal"],
                "--weight", files["weight"], "--N", "2", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("nt: configuration error:") and captured.err.count("\n") == 1
    assert "non-unit step" in captured.err
    assert not out.exists()


def test_eval_weight_from_csv(tmp_path):
    # build a weight file on the extended grid, then consume it
    wpath = str(tmp_path / "w.csv")
    lines = ["k,value"] + [f"{float(k)!r},{1.0 + 0.5 * math.cos(k)!r}" for k in range(-1, 13)]
    open(wpath, "w").write("\n".join(lines) + "\n")
    out = str(tmp_path / "y.csv")
    assert run(
        ["eval", "--kind", "caputo", "--order", "0.5", "--signal", "sin10k",
         "--weight", wpath, "--N", "12", "--history", "1", "--out", out]
    ) == 0
    assert len(open(out).read().strip().splitlines()) == 13


def test_repro_targets(tmp_path):
    outdir = str(tmp_path / "repro")
    for target in ("fig1", "fig2", "fig3", "fig4", "error-table"):
        assert run(["repro", target, "--outdir", outdir]) == 0
    names = sorted(os.listdir(outdir))
    assert len([n for n in names if n.startswith("fig1")]) == 4
    assert len([n for n in names if n.startswith("fig2")]) == 8
    assert len([n for n in names if n.startswith("fig3")]) == 8
    assert len([n for n in names if n.startswith("fig4")]) == 12
    assert "error_table.csv" in names


def test_repro_outdir_is_made_with_its_parents(tmp_path):
    outdir = tmp_path / "new" / "sub"
    assert run(["repro", "fig2", "--outdir", str(outdir)]) == 0
    assert len(os.listdir(outdir)) == 8


def test_repro_outdir_onto_a_file_is_config_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert run(["repro", "fig2", "--outdir", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("nt: configuration error:") and err.count("\n") == 1
    assert taken.read_text() == ""


def test_repro_fig3_case1_column_identically_zero(tmp_path):
    outdir = str(tmp_path / "repro")
    run(["repro", "fig3", "--outdir", outdir])
    sig = read_signal_csv(os.path.join(outdir, "fig3_case1_minus_case1_alphap0_5.csv"))
    np.testing.assert_array_equal(sig.body, np.zeros(99))


def test_repro_error_table_values(tmp_path):
    outdir = str(tmp_path / "repro")
    run(["repro", "error-table", "--outdir", outdir])
    rows = open(os.path.join(outdir, "error_table.csv")).read().strip().splitlines()
    assert rows[0] == "case,min_gl_minus_rl,max_gl_minus_rl"
    assert len(rows) == 5
    for row in rows[1:]:
        _, lo, hi = row.split(",")
        assert -5e-15 <= float(lo) <= float(hi) <= 5e-15


def test_tolerance_scale_env(tmp_path, monkeypatch):
    # an absurdly small scale makes rounding-level deviations fail
    monkeypatch.setenv("NT_TOLERANCE_SCALE", "1e-12")
    out = str(tmp_path / "r.json")
    assert run(["verify", "--only", "gl-rl-agree", "--out", out]) == 1
    monkeypatch.setenv("NT_TOLERANCE_SCALE", "1.0")
    assert run(["verify", "--only", "gl-rl-agree", "--out", out]) == 0


# TOL_EXACT times 1e-300 or 1e-320 is subnormal or 0, where every check
# would fail; the 1e-12 of test_tolerance_scale_env is accepted
@pytest.mark.parametrize("raw", ["abc", "nan", "inf", "0", "-1", "1e-300", "1e-320"])
def test_tolerance_scale_rejected_is_config_error(tmp_path, monkeypatch, capsys, raw):
    monkeypatch.setenv("NT_TOLERANCE_SCALE", raw)
    out = tmp_path / "r.json"
    assert run(["verify", "--only", "convolution", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("nt: configuration error:") and err.count("\n") == 1
    assert "NT_TOLERANCE_SCALE" in err
    assert not out.exists()


def test_run_suite_rejects_bad_tolerance_scale(monkeypatch):
    monkeypatch.setenv("NT_TOLERANCE_SCALE", "nan")
    with pytest.raises(ConfigError):
        run_suite(groups=("convolution",))
    with pytest.raises(ConfigError):
        run_suite(groups=("convolution",), tolerance_scale=-1.0)


def test_missing_signal_csv_is_config_error(tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert run(["eval", "--kind", "gl", "--order", "0.5", "--signal",
                str(tmp_path / "missing.csv"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("nt: configuration error:") and err.count("\n") == 1
    assert not out.exists()


def test_out_in_missing_directory_is_config_error(tmp_path, capsys):
    out = tmp_path / "nodir" / "out.csv"
    assert run(["eval", "--kind", "gl", "--order", "0.5", "--signal", "sin10k",
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("nt: configuration error:") and err.count("\n") == 1
    assert str(out) in err
    assert not out.parent.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--kind", "rl", "--order", "nan"],
        ["eval", "--kind", "nabla", "--order", "inf"],
        ["eval", "--kind", "gl", "--order", "nan"],
        ["taylor", "--kind", "caputo", "--order", "nan"],
        ["laplace", "--rule", "gl", "--order", "nan", "--lambda", "0", "--s-re", "0.9"],
        ["laplace", "--rule", "int", "--order", "0", "--lambda", "0", "--s-re", "0.9"],
        ["eval", "--kind", "nabla", "--order", "1e20"],
        ["eval", "--kind", "nabla", "--order", "1030"],
        ["eval", "--kind", "rl", "--order", "1029.5"],
        ["laplace", "--rule", "int", "--order", "1e6", "--lambda", "0", "--s-re", "0.9"],
    ],
)
def test_bad_order_is_config_error(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    if argv[0] != "laplace":
        argv = [*argv, "--out", str(out)]
    assert run([*argv, "--signal", "sin10k", "--N", "8"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("nt: configuration error:") and err.count("\n") == 1
    assert "order" in err
    assert not out.exists()


def test_laplace_nonfinite_transform_is_numeric_error(capsys):
    # |1-s| = 4: the partial sum overflows long before the horizon ends
    assert run(["laplace", "--signal", "sin10k", "--s-re", "5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("nt: numeric error:")
    assert captured.err.count("\n") == 1


def _exits_cleanly(argv, env=None):
    """Run ``nt argv`` in this process, with ``env`` added to the
    environment, and check how it ended: exit 0 (or 1, ``verify``'s failed
    checks), or exit 2 or 3 with exactly one ``nt: ...`` line on stderr, and
    no warning either way.  A traceback surfaces as an uncaught exception."""
    err = io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.dict(os.environ, env or {}))
        caught = stack.enter_context(warnings.catch_warnings(record=True))
        warnings.simplefilter("always")
        stack.enter_context(contextlib.redirect_stderr(err))
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse rejected an option
            code = exc.code
    assert not caught, [str(w.message) for w in caught]
    if code in (2, 3):
        lines = err.getvalue().splitlines(keepends=True)
        assert len(lines) == 1 and lines[0].startswith("nt: "), lines
    else:
        assert code == 0 or (code == 1 and argv[0] == "verify"), code


orders = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.floats(min_value=-8.0, max_value=8.0),
    st.integers(min_value=-8, max_value=8).map(float),
    # integer stages past the cap: rejected before any history is allocated
    st.sampled_from([1029.5, 1030.0, 1e6, 1e20, 2.0**53 + 2.0, 1e300]),
)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["eval", "taylor", "laplace"]),
    st.sampled_from(["gl", "rl", "caputo", "nabla", "int"]),
    orders,
)
@example("eval", "nabla", 1e20)
@example("taylor", "caputo", 1029.5)
@example("laplace", "int", 1e6)
def test_any_order_exits_cleanly(command, kind, order):
    with tempfile.TemporaryDirectory() as tmp:
        if command == "laplace":
            rule = "gl" if kind == "nabla" else kind
            argv = ["laplace", "--signal", "sin10k", "--N", "64", "--s-re", "0.9",
                    "--rule", rule, "--lambda", "0"]
        else:
            kind = "nabla" if kind == "int" else kind
            argv = [command, "--kind", kind, "--signal", "sin10k", "--N", "8",
                    "--out", os.path.join(tmp, "out.csv")]
        _exits_cleanly([*argv, f"--order={order!r}"])


#: NaN, infinities, signed zeros, subnormal, tiny and huge values, and any
#: float at all
numbers = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-300, -1e-300,
                     1e300, -1e300, 1.7976931348623157e308]),
    st.floats(min_value=-8.0, max_value=8.0),
    st.floats(),
)
#: each number a command reads -> values it runs on; a case draws some of
#: them from ``numbers`` instead
TAME = {
    "a": st.floats(-100.0, 100.0),
    "order": st.sampled_from([0.5, 1.5, 2.0, -0.5]),
    "alpha": st.floats(0.05, 0.95),
    "mu": st.floats(-2.0, 0.5),
    "x0": st.floats(-10.0, 10.0),
    "s-re": st.floats(0.6, 1.4),
    "s-im": st.floats(-0.3, 0.3),
    "lambda": st.floats(-0.5, 0.5),
    "perturb": st.floats(-1e-3, 1e-3),
    "NT_TOLERANCE_SCALE": st.floats(0.1, 10.0),
    "signal": st.floats(0.1, 2.0),  # the geom: ratio or a poly: coefficient
    "weight": st.floats(-0.5, 0.5),  # the exp: rate
}
#: command -> the numbers of ``TAME`` that it reads
READS = {
    "eval": ("a", "order", "signal", "weight"),
    "taylor": ("a", "order", "signal", "weight"),
    "solve": ("a", "alpha", "mu", "x0", "weight"),
    "laplace": ("a", "order", "s-re", "s-im", "lambda", "signal"),
    "verify": ("perturb", "NT_TOLERANCE_SCALE"),
}
#: groups that --only selects alone, so that verify runs in this process
ONE_GROUP = ("gl-rl-agree", "integer-defect", "uniform-convergence", "convolution")


#: stands for the output path in the argv of ``cli_cases``
OUT = "<out>"


@st.composite
def cli_cases(draw):
    """``(argv, env)`` of one nt command, writing to ``OUT``: some of the
    numbers it reads come from ``numbers``, and its sizes from ranges that
    allocate nothing large (``verify`` runs one group, in this process)."""
    command = draw(st.sampled_from(sorted(READS)))
    wild = draw(st.sets(st.sampled_from(READS[command])))

    def num(name):
        return repr(draw(numbers if name in wild else TAME[name]))

    def opt(name):
        return f"--{name}={num(name)}"

    out = ["--out", OUT]
    if command == "verify":
        group = draw(st.sampled_from(ONE_GROUP))
        argv = ["verify", "--only", group, f"--seed={draw(st.integers(0, 3))}", *out]
        return [*argv, opt("perturb")], {"NT_TOLERANCE_SCALE": num("NT_TOLERANCE_SCALE")}
    form = draw(st.sampled_from(["one", "case1", "case2", "case3", "case4", "halfgeom", "exp"]))
    weight = f"exp:{num('weight')}" if form == "exp" else form
    N = f"--N={draw(st.integers(1, 48 if command == 'taylor' else 2000))}"
    if command == "solve":
        return ["solve", *map(opt, ("alpha", "mu", "x0", "a")), N, "--weight", weight, *out], {}
    form = draw(st.sampled_from(["sin10k", "geom", "poly"]))
    if form == "poly":
        signal = "poly:" + ",".join(num("signal") for _ in range(draw(st.integers(1, 3))))
    else:
        signal = f"geom:{num('signal')}" if form == "geom" else form
    argv = [command, "--signal", signal, opt("a"), N]
    if draw(st.booleans()):
        argv.append(f"--history={draw(st.integers(0, 3000))}")
    if command == "laplace":
        rule = draw(st.sampled_from([None, "gl", "rl", "caputo", "int"]))
        argv += [opt("s-re"), opt("s-im")]
        if rule is None:  # --order and --lambda apply only to a rule
            return argv, {}
        # without --order, a rule checks order 0.5
        order = [opt("order")] if draw(st.booleans()) else []
        return argv + ["--rule", rule, *order, opt("lambda")], {}
    kind = draw(st.sampled_from(["gl", "rl", "caputo", "nabla"]))
    argv += [opt("order"), "--kind", kind, "--weight", weight, *out]
    if command == "taylor":
        rep = draw(st.sampled_from(["initial", "current", "future"]))
        argv += ["--rep", rep, f"--degree={draw(st.integers(0, 1100))}"]
    return argv, {}


@settings(max_examples=150, deadline=None)
@given(cli_cases())
# the weighted product w·x of the evaluation-point forms overflows
@example((["taylor", "--signal", "geom:1.7976931348623157e+308", "--a=0.0", "--order=0.5",
           "--N=1", "--kind", "gl", "--weight", "case1", "--rep", "current", "--degree=0",
           "--out", OUT], {}))
# the tail bound of a sample near the largest float is past binary64
@example((["laplace", "--signal", "poly:1.7976931348623157e+308", "--a=0.0", "--N=2",
           "--s-re=0.75", "--s-im=0.5"], {}))
# |1 - s| is past binary64, where abs of a complex raises
@example((["laplace", "--signal", "sin10k", "--a=0.0", "--N=1",
           "--s-re=1.7976931348623157e+308", "--s-im=1.7976931348623157e+308"], {}))
def test_any_option_exits_cleanly(case):
    argv, env = case
    with tempfile.TemporaryDirectory() as tmp:
        _exits_cleanly([os.path.join(tmp, "out") if a == OUT else a for a in argv], env)


@pytest.mark.parametrize(
    "argv, option",
    [
        (["verify", "--seed", "-1"], "--seed"),
        (["eval", "--kind", "gl", "--order", "0.5", "--signal", "sin10k",
          "--history", "-1"], "--history"),
        (["eval", "--kind", "gl", "--order", "0.5", "--signal", "sin10k",
          "--a", "nan"], "--a"),
        (["solve", "--alpha", "0.5", "--mu=-0.2", "--x0", "1", "--N", "5",
          "--a", "inf"], "--a"),
    ],
    ids=["seed", "history", "a-nan", "solve-a-inf"],
)
def test_bad_numeric_option_is_one_line_exit_2(tmp_path, capsys, argv, option):
    out = tmp_path / "out"
    if argv[0] != "verify":
        argv = [*argv, "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("nt: configuration error: argument " + option) and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, where",
    [
        (["eval", "--kind", "gl", "--order", "0.5", "--signal", "sin10k",
          "--weight", "case2", "--N", "620"],
         "signal contains non-finite samples from lattice offset 620: "
         "this signal admits a horizon of at most 619 from its base point"),
        (["solve", "--alpha", "0.5", "--mu", "0.99", "--x0", "1e300", "--N", "400"],
         "signal contains non-finite samples from lattice offset 5: "
         "this signal admits a horizon of at most 4 from its base point"),
        # offset 1 fails: no horizon of at least 1 avoids it
        (["eval", "--kind", "gl", "--order", "0.5", "--signal", "poly:1e308,1e308", "--N", "10"],
         "sampled function returned a non-finite value at lattice offset 1, "
         "the first point past the base point, which every horizon reaches"),
        (["eval", "--kind", "nabla", "--order", "1029", "--signal", "sin10k", "--N", "10"],
         "signal contains non-finite samples at lattice offset 1, "
         "the first point past the base point, which every horizon reaches"),
    ],
    ids=["eval-case2", "solve-overflow", "poly-offset-1", "nabla-offset-1"],
)
def test_nonfinite_output_names_its_offset(tmp_path, capsys, argv, where):
    out = tmp_path / "out.csv"
    assert run([*argv, "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"nt: numeric error: {where}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--kind", "gl", "--order", "0.5", "--signal", "sin10k", "--weight", "exp:nan"],
        ["eval", "--kind", "gl", "--order", "0.5", "--signal", "sin10k", "--weight", "exp:1"],
        ["solve", "--alpha", "0.5", "--mu", "-0.5", "--x0", "1", "--N", "10", "--weight", "exp:1"],
        ["eval", "--kind", "gl", "--order", "0.5", "--signal", "geom:nan"],
        ["eval", "--kind", "gl", "--order", "0.5", "--signal", "poly:1,nan"],
        ["verify", "--perturb", "nan"],
        ["verify", "--perturb", "inf"],
        ["taylor", "--kind", "gl", "--order", "0.5", "--signal", "sin10k",
         "--degree", "-1", "--rep", "future"],
        ["taylor", "--kind", "gl", "--order", "0.5", "--signal", "sin10k",
         "--degree", "-1", "--rep", "initial"],
        ["taylor", "--kind", "nabla", "--order", "2", "--signal", "sin10k",
         "--rep", "future"],
        ["taylor", "--kind", "caputo", "--order", "1.5", "--signal", "sin10k",
         "--rep", "initial", "--degree", "2", "--history", "3"],
    ],
    ids=["weight-exp-nan", "weight-exp-1", "solve-weight-exp-1", "signal-geom-nan",
         "signal-poly-nan", "perturb-nan", "perturb-inf", "degree-future", "degree-initial",
         "future-integer-kind", "initial-degree-at-stage"],
)
def test_bad_spec_or_option_value_is_one_line_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "out"
    if argv[0] != "verify":
        argv = [*argv, "--out", str(out)]
    try:
        code = run(argv)
    except SystemExit as exc:  # argparse rejects the option value
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("nt: configuration error:")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("kind, order", [("rl", "0.5"), ("nabla", "2")])
def test_tempered_difference_overflow_prints_no_warning(tmp_path, kind, order):
    # the closing tempered difference overflows at offset 620 under case2;
    # a separate process, so numpy warnings would reach its stderr
    src = os.path.dirname(os.path.dirname(os.path.abspath(nablatc.__file__)))
    env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="default")
    out = tmp_path / "x.csv"
    res = subprocess.run(
        [sys.executable, "-m", "nablatc.cli", "eval", "--kind", kind, "--order", order,
         "--signal", "sin10k", "--weight", "case2", "--N", "620", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert res.returncode == 3
    assert res.stderr.startswith("nt: numeric error:") and res.stderr.count("\n") == 1
    assert "Warning" not in res.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, option",
    [
        (["laplace", "--signal", "sin10k", "--s-re", "nan"], "--s-re"),
        (["laplace", "--signal", "sin10k", "--s-re", "1.5", "--s-im", "inf"], "--s-im"),
        (["laplace", "--signal", "sin10k", "--rule", "gl", "--lambda", "nan",
          "--order", "0.5", "--s-re", "1.5"], "--lambda"),
    ],
    ids=["s-re-nan", "s-im-inf", "lambda-nan"],
)
def test_nonfinite_transform_option_is_one_line_exit_2(capsys, argv, option):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("nt: configuration error: argument " + option)
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_huge_order_prints_one_error_line(tmp_path):
    # the weights overflow past offset 2, and the lagged sum takes its
    # per-lag route on the non-finite weights; a separate process, so numpy
    # warnings from either would reach its stderr
    src = os.path.dirname(os.path.dirname(os.path.abspath(nablatc.__file__)))
    env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="default")
    out = tmp_path / "x.csv"
    res = subprocess.run(
        [sys.executable, "-m", "nablatc.cli", "eval", "--kind", "gl", "--order", "1e300",
         "--signal", "sin10k", "--N", "50", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert res.returncode == 3
    assert res.stderr.startswith("nt: numeric error:") and res.stderr.count("\n") == 1
    assert "Warning" not in res.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--rep", "initial", "--degree", "100000"], 2),
        (["--rep", "initial", "--degree", "1029"], 2),
        (["--rep", "initial", "--degree", "1000"], 3),
        (["--rep", "future", "--degree", "5000"], 2),
        (["--rep", "initial", "--degree", "200"], 0),
        (["--rep", "future", "--degree", "400"], 0),
        # the differences read only the history the degree needs, not the
        # weight's 2^1001 at offset -1001, whose differences overflow
        (["--rep", "future", "--degree", "43", "--history", "1001", "--weight", "halfgeom"], 0),
    ],
)
def test_taylor_degree_prints_no_warning(tmp_path, capsys, argv, code):
    # the forms check their top stage, the difference of order degree + 1,
    # before any work, and sum their series where an overflow reaches the
    # output's finiteness check; a warning here raises instead
    out = tmp_path / "y.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = run(["taylor", "--kind", "gl", "--order", "0.5", "--signal", "sin10k",
                   "--N", "30", *argv, "--out", str(out)])
    assert got == code
    err = capsys.readouterr().err
    assert err.count("\n") == (1 if code else 0)
    assert out.exists() == (code == 0)


def test_huge_taylor_order_is_numeric_error(tmp_path, capsys):
    # q = i - 1e300 absorbs every unit shift m, so the base-point series
    # would be 1/Gamma(d) at every point
    out = tmp_path / "x.csv"
    assert run(["taylor", "--kind", "gl", "--order", "1e300", "--rep", "initial",
                "--history", "7", "--signal", "sin10k", "--N", "4", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("nt: numeric error:") and err.count("\n") == 1
    assert "2**53" in err
    assert not out.exists()


@pytest.mark.parametrize("weight, first", [("one", 677), ("case4", 693)])
def test_current_form_past_the_gamma_ratio_range_names_its_first_bad_offset(
    tmp_path, capsys, weight, first
):
    # from N = 1031 on a basis value of the order-0.5 form leaves binary64;
    # the sums overflow earlier, at the offset a horizon of 1030 names
    out = tmp_path / "x.csv"
    assert run(["taylor", "--kind", "rl", "--order", "0.5", "--signal", "sin10k",
                "--weight", weight, "--N", "1100", "--rep", "current", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == (
        f"nt: numeric error: signal contains non-finite samples from lattice offset {first}: "
        f"this signal admits a horizon of at most {first - 1} from its base point\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("rep, first", [("future", 1014), ("initial", 12)])
def test_degree_1000_forms_past_the_gamma_ratio_range_name_their_first_bad_offset(
    tmp_path, capsys, rep, first
):
    # at N = 1100 the degree-1000 basis leaves binary64, which a bare
    # Gamma-ratio error reported; the shorter horizons give finite bases,
    # and the sums overflow at the offset the message names
    out = tmp_path / "x.csv"
    assert run(["taylor", "--kind", "gl", "--order", "0.5", "--signal", "poly:1", "--weight", "one",
                "--N", "1100", "--rep", rep, "--degree", "1000", "--history", "1001",
                "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == (
        f"nt: numeric error: signal contains non-finite samples from lattice offset {first}: "
        f"this signal admits a horizon of at most {first - 1} from its base point\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "kind, order, rep, first", [("nabla", "1", "initial", 538), ("gl", "250.5", "future", 838)]
)
def test_degree_300_binomial_rows_past_binary64_name_their_first_bad_offset(
    tmp_path, capsys, kind, order, rep, first
):
    # at N = 2000 a degree-300 binomial row leaves binary64 (the integer
    # kind's basis C(m+i-1, i), the future residual's C(t, 300)), which
    # ended in an OverflowError traceback; the shorter horizons give finite
    # rows, and the sums overflow at the offset the message names
    out = tmp_path / "x.csv"
    assert run(["taylor", "--kind", kind, "--order", order, "--signal", "poly:1", "--weight", "one",
                "--N", "2000", "--rep", rep, "--degree", "300", "--history", "301",
                "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == (
        f"nt: numeric error: signal contains non-finite samples from lattice offset {first}: "
        f"this signal admits a horizon of at most {first - 1} from its base point\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "rep", [["--rep", "current"], ["--rep", "initial", "--history", "7"]], ids=["current", "initial"]
)
def test_gamma_ratio_overflow_is_numeric_error(tmp_path, rep):
    # a sum order of -1e15 puts a Taylor basis value past binary64 from
    # k - a = 23 on, where math.exp raises OverflowError; a separate
    # process, so a traceback would reach its stderr
    src = os.path.dirname(os.path.dirname(os.path.abspath(nablatc.__file__)))
    env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="default")
    out = tmp_path / "x.csv"
    res = subprocess.run(
        [sys.executable, "-m", "nablatc.cli", "taylor", "--kind", "gl", "--order=-1e15",
         "--signal", "sin10k", "--N", "30", *rep, "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert res.returncode == 3
    assert res.stderr.startswith("nt: numeric error:") and res.stderr.count("\n") == 1
    assert "overflows binary64" in res.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--kind", "gl", "--order", "0.5", "--signal", "sin10k", "--a", "1e300"],
        ["eval", "--kind", "gl", "--order", "0.5", "--signal", "sin10k",
         "--a", "9007199254740990"],
        ["taylor", "--kind", "gl", "--order", "0.5", "--signal", "sin10k", "--a=-1e17"],
        ["solve", "--alpha", "0.5", "--mu=-0.2", "--x0", "1", "--a", "1e300"],
        ["laplace", "--signal", "sin10k", "--s-re", "1.5", "--a", "1e300"],
    ],
    ids=["eval-1e300", "eval-2**53", "taylor", "solve", "laplace"],
)
def test_base_point_without_unit_steps_is_config_error(tmp_path, capsys, argv):
    # a + m rounds onto its neighbours: the lattice the reader would reject
    out = tmp_path / "x.csv"
    if argv[0] != "laplace":  # laplace prints to stdout
        argv = [*argv, "--out", str(out)]
    assert run([*argv, "--N", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("nt: configuration error: --a")
    assert captured.err.count("\n") == 1 and "non-unit step" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("a", [1e6, 100000000.1, -4194303.5])
def test_large_base_point_with_unit_steps_round_trips(tmp_path, a):
    # a + m is exact for these, so the output reads back as a unit lattice
    out = str(tmp_path / "x.csv")
    assert run(["eval", "--kind", "gl", "--order", "0.5", "--signal", "sin10k",
                f"--a={a!r}", "--N", "20", "--out", out]) == 0
    y = read_signal_csv(out, history=0)
    assert y.grid.a == a + 1 and y.grid.horizon == 19


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--kind", "gl", "--order", "0.5", "--signal", "sin10k", "--N", "0"],
        ["taylor", "--kind", "gl", "--order", "0.5", "--signal", "sin10k", "--N", "-3"],
        ["laplace", "--signal", "sin10k", "--s-re", "0.9", "--N", "0"],
        ["solve", "--alpha", "0.5", "--mu=-0.2", "--x0", "1", "--N", "0"],
    ],
    ids=["eval", "taylor", "laplace", "solve"],
)
def test_nonpositive_horizon_is_one_line_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    if argv[0] != "laplace":
        argv = [*argv, "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("nt: configuration error: argument --N: must be a positive")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()


def _cap_address_space():
    # the allocation must fail on any overcommit policy
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))


@pytest.mark.skipif(sys.platform != "linux", reason="address-space limit via RLIMIT_AS")
@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--kind", "gl", "--order", "0.5", "--signal", "sin10k",
         "--N", "1000000000000"],
        ["eval", "--kind", "gl", "--order", "0.5", "--signal", "sin10k",
         "--history", "1000000000000"],
        ["solve", "--alpha", "0.5", "--mu=-0.2", "--x0", "1", "--N", "1000000000000"],
    ],
    ids=["eval-N", "eval-history", "solve-N"],
)
def test_unallocatable_grid_is_one_line_exit_2(tmp_path, argv):
    # a separate process under a 4 GiB address-space limit: numpy refuses
    # the 7 TiB grid at once
    src = os.path.dirname(os.path.dirname(os.path.abspath(nablatc.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = tmp_path / "x.csv"
    res = subprocess.run(
        [sys.executable, "-m", "nablatc.cli", *argv, "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=_cap_address_space,
    )
    assert res.returncode == 2
    assert res.stderr.startswith("nt: configuration error:") and res.stderr.count("\n") == 1
    assert "allocate" in res.stderr
    assert not out.exists()
