"""Command-line interface: subcommands, config precedence, exit codes,
and reproducible file output."""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brstkdv.cli import run
from brstkdv.graded import odd_gradient, to_string
from brstkdv.reductions import build_system


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- euler ------------------------------------------------------------------

def test_euler_quadratic_density(capsys):
    code, out, _ = invoke(capsys, "euler", "--density", "1/2*u^2", "--field", "u")
    assert code == 0
    assert out.strip() == "u"


def test_euler_with_odd_symbols(capsys):
    code, out, _ = invoke(capsys, "euler", "--density", "u*c_x",
                          "--field", "u", "--odd", "c")
    assert code == 0
    assert out.strip() == "c_x"


def test_euler_with_respect_to_an_odd_field(capsys):
    # the left derivative: d/dc of c*c_x is c_x, d/dc_x is -c
    code, out, _ = invoke(capsys, "euler", "--density", "c*c_x", "--field", "c", "--odd", "c")
    assert code == 0
    assert out == "2*c_x\n"


def test_euler_total_derivative_gives_zero(capsys):
    code, out, _ = invoke(capsys, "euler", "--density", "3*u^2*u_x", "--field", "u")
    assert code == 0
    assert out.strip() == "0"


def test_euler_rejects_bad_input(capsys):
    code, _, err = invoke(capsys, "euler", "--density", "1/2*u^", "--field", "u")
    assert code == 2
    assert "euler:" in err


@pytest.mark.parametrize("argv, flag, name", [
    (("--density", "u^3", "--field", "u_x"), "--field", "u_x"),
    (("--density", "u^3", "--field", ""), "--field", ""),
    (("--density", "u^3", "--field", "u_t"), "--field", "u_t"),
    (("--density", "c*c_x", "--field", "c", "--odd", "c_x"), "--odd", "c_x"),
    (("--density", "u*c_x", "--field", "u", "--odd", "c, 1c"), "--odd", "1c"),
])
def test_euler_rejects_names_the_grammar_cannot_read(capsys, argv, flag, name):
    # each used to print an answer (0, or c_x with 1c ignored) or blame a
    # second time derivative
    code, out, err = invoke(capsys, "euler", *argv)
    assert (code, out) == (2, "")
    assert f"euler: {flag} {name!r} is not a name the grammar reads" in err


# --- catalog ------------------------------------------------------------------

def test_list_systems(capsys):
    code, out, _ = invoke(capsys, "list-systems")
    assert code == 0
    assert "kdv  (alpha=1, s=2)" in out
    assert "harry-dym  (beta=1/2, s=1)" in out
    assert "u_t = 3*u*u_x + u_xxx" in out


def test_conserved_lists_densities(capsys):
    code, out, _ = invoke(capsys, "conserved", "--system", "kdv")
    assert code == 0
    for name in ("H0", "H1", "Ht0", "Ht1", "H1g", "H3", "H5"):
        assert name in out
    code, out, _ = invoke(capsys, "conserved", "--system", "mkdv")
    assert code == 0 and "H1" in out
    code, out, _ = invoke(capsys, "conserved", "--system", "ckdv")
    assert code == 0 and "no catalogued densities" in out


def test_conserved_output_reads_back_as_a_density(capsys):
    # the t-form's Ht1 at symbolic (beta, s), as printed, is euler's input
    code, out, _ = invoke(capsys, "conserved", "--system", "t-form", "--beta", "beta", "--s", "s")
    assert code == 0
    [ht1] = [ln.split("] ", 1)[1] for ln in out.splitlines() if ln.startswith("Ht1 ")]
    code, out, err = invoke(capsys, "euler", "--density", ht1, "--field", "c", "--odd", "c")
    assert (code, err) == (0, "")
    want = odd_gradient(build_system("t-form", beta="beta", s="s").densities["Ht1"].density, "c")
    assert out == to_string(want) + "\n"


def test_conserved_requires_system(capsys):
    code, _, err = invoke(capsys, "conserved")
    assert code == 2


# --- verify ---------------------------------------------------------------------

def test_verify_single_check(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = invoke(capsys, "verify", "check_nilpotency",
                          "--out", str(out_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["check"] == "check_nilpotency"
    assert doc["status"] == "pass"
    assert json.loads(out_path.read_text()) == doc


def test_verify_unknown_check(capsys):
    code, _, err = invoke(capsys, "verify", "check_bogus")
    assert code == 2
    assert "available" in err


# --- simulate ---------------------------------------------------------------------

SIM_ARGS = ["simulate", "--system", "kdv", "--soliton", "k=0.5",
            "--L", "40", "--n", "128", "--dt", "1e-3", "--t-end", "0.05",
            "--record-every", "10", "--diag", "H0,H1"]


def test_simulate_writes_outputs(capsys, tmp_path):
    out = tmp_path / "run"
    code, stdout, _ = invoke(capsys, *SIM_ARGS, "--out", str(out))
    assert code == 0
    assert "snapshots" in stdout
    csv = (out / "trajectory.csv").read_text().splitlines()
    assert csv[0] == "t,x,c,u"
    assert len(csv) == 1 + 6 * 128  # 0, 10..50, final coincides with stride
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["grid"] == {"L": 40.0, "N": 128}
    assert doc["meta"]["system"] == "kdv"
    assert doc["config"]["dt"] == "1e-3"
    h0 = np.array(doc["diagnostics"]["H0"])
    assert np.max(np.abs(h0 - h0[0])) < 1e-10


def test_simulate_is_reproducible(capsys, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert invoke(capsys, *SIM_ARGS, "--out", str(a))[0] == 0
    assert invoke(capsys, *SIM_ARGS, "--out", str(b))[0] == 0
    assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()
    da = json.loads((a / "manifest.json").read_text())
    db = json.loads((b / "manifest.json").read_text())
    # the output directory is echoed into the config block and differs by design
    da["config"].pop("out"), db["config"].pop("out")
    assert da == db


def test_simulate_config_file_and_flag_precedence(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment lines and blanks are fine\n"
        "system=kdv\n"
        "soliton=k=0.5\n"
        "n=128\n"
        "dt=2e-3\n"
        "t-end=0.04\n"
        "record-every=20\n"
    )
    out = tmp_path / "run"
    code, _, _ = invoke(capsys, "simulate", "--config", str(cfg),
                        "--dt", "1e-3", "--out", str(out))
    assert code == 0
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["config"]["dt"] == "1e-3"      # flag beats config
    assert doc["config"]["n"] == "128"        # config beats default
    assert doc["grid"]["N"] == 128
    assert doc["meta"]["dt"] == 1e-3


def test_config_file_rejects_unknown_key(capsys, tmp_path):
    # a misspelt key used to be dropped silently: tend=0.01 ran to t = 1
    cfg = tmp_path / "run.cfg"
    cfg.write_text("system=kdv\nsoliton=k=0.5\nn=64\ntend=0.01\n")
    out = tmp_path / "run"
    code, _, err = invoke(capsys, "simulate", "--config", str(cfg), "--out", str(out))
    assert code == 2
    assert err.startswith("simulate:") and "'tend'" in err and str(cfg) in err
    assert not out.exists()
    cfg.write_text("initial=cx\ndirection=mkdv-to-kdv\nseed=1\n")
    code, _, err = invoke(capsys, "miura", "--config", str(cfg), "--n", "16")
    assert code == 2
    assert err.startswith("miura:") and "'seed'" in err


def test_simulate_initial_expression(capsys, tmp_path):
    out = tmp_path / "run"
    code, _, _ = invoke(capsys, "simulate", "--system", "t-form",
                        "--beta", "1", "--s", "2",
                        "--initial", "1 + 1/4*cx", "--ghost-initial", "none",
                        "--n", "128", "--t-end", "0.02", "--dt", "1e-3",
                        "--out", str(out))
    assert code == 0
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["fields"] == ["T", "c"]
    assert doc["meta"]["parameters"] == {"beta": "1", "s": "2"}


def test_simulate_usage_errors(capsys, tmp_path):
    code, _, err = invoke(capsys, "simulate", "--soliton", "k=0.5")
    assert code == 2 and "--system" in err
    code, _, err = invoke(capsys, "simulate", "--system", "kdv")
    assert code == 2 and "--soliton or --initial" in err
    code, _, err = invoke(capsys, "simulate", "--system", "kdv",
                          "--soliton", "k=0.5", "--diag", "H99",
                          "--n", "128", "--t-end", "0.01")
    assert code == 2
    code, _, err = invoke(capsys, "simulate", "--system", "kdv",
                          "--soliton", "wat")
    assert code == 2


def test_unknown_density_prints_the_catalog_message_unquoted(capsys, tmp_path):
    code, _, err = invoke(capsys, "simulate", "--system", "kdv", "--soliton", "k=0.7",
                          "--diag", "H0,Hx", "--out", str(tmp_path))
    assert code == 2
    assert err == ("simulate: system 'kdv' has no density 'Hx'; "
                   "available: H0, H1, H1g, H3, H5, Ht0, Ht1\n")


def test_a_system_without_full_laws_is_refused_for_that_reason(capsys, tmp_path):
    code, _, err = invoke(capsys, "simulate", "--system", "upsilon", "--initial", "1",
                          "--out", str(tmp_path))
    assert code == 2
    assert err == ("simulate: system 'upsilon' leaves ['u', 'c'] without an evolution law "
                   "and cannot be integrated\n")


def test_family_flags_are_the_catalogs_parameters():
    from brstkdv.cli import _build_parser
    from brstkdv.reductions import _CATALOG, FAMILY_PARAMETERS
    keys = {k for _, row in _CATALOG.values() for k in row}
    assert set(FAMILY_PARAMETERS) == keys == {"alpha", "beta", "s"}
    for command in ("simulate", "conserved"):
        args = _build_parser().parse_args([command, *(f"--{k}=v_{k}" for k in keys)])
        assert {k: getattr(args, k) for k in keys} == {k: f"v_{k}" for k in keys}


@pytest.mark.parametrize("source", ["argv", "config"])
@pytest.mark.parametrize("key", ["k", "x0"])
@pytest.mark.parametrize("value", ["x", "inf", "nan"])
def test_soliton_values_must_be_finite_numbers(capsys, tmp_path, source, key, value):
    spec = f"k={value}" if key == "k" else f"k=0.7,x0={value}"
    argv = ["simulate", "--system", "kdv", "--n", "16", "--out", str(tmp_path / "out")]
    if source == "argv":
        argv += ["--soliton", spec]
    else:
        (tmp_path / "run.cfg").write_text(f"soliton = {spec}\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning before the message
        code, stdout, err = invoke(capsys, *argv)
    assert code == 2 and stdout == ""
    assert err == f"simulate: --soliton {key} must be a finite number, got {value!r}\n"
    assert not (tmp_path / "out").exists()


def test_soliton_amplitude_that_overflows_is_one_usage_line(capsys, tmp_path):
    # 4k^2 = inf used to print four numpy warning lines before the error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = invoke(capsys, "simulate", "--system", "kdv", "--soliton", "k=1e200",
                                   "--out", str(tmp_path / "out"))
    assert code == 2 and stdout == ""
    assert err == "simulate: soliton amplitude inf at k = 1e+200 is not finite\n"
    assert not (tmp_path / "out").exists()


def test_narrow_soliton_simulates_without_warnings(capsys, tmp_path):
    # sech^2 overflows in the far tails of k = 20; under -W error that was a traceback
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = invoke(capsys, "simulate", "--system", "kdv", "--soliton", "k=20",
                              "--t-end", "0.001", "--out", str(tmp_path))
    assert code == 0 and err == ""


@pytest.mark.parametrize("argv", [
    ["simulate", "--system", "kdv", "--soliton", "k=0.7", "--L", "0"],
    ["simulate", "--system", "kdv", "--soliton", "k=0.7", "--L", "-5",
     "--ghost-initial", "none"],
    ["simulate", "--system", "kdv", "--soliton", "k=0.7", "--L", "nan"],
    ["miura", "--initial", "sx", "--L", "-5"],
    # the length is checked before the expression is evaluated on the grid
    ["miura", "--initial", "sx", "--L", "nan"],
    ["miura", "--initial", "sx", "--L", "inf"],
    ["simulate", "--system", "kdv", "--initial", "sx", "--L", "nan"],
    ["simulate", "--system", "kdv", "--initial", "sx", "--L", "inf"],
], ids=["simulate-zero", "simulate-negative", "simulate-nan", "miura-negative",
        "miura-nan", "miura-inf", "simulate-initial-nan", "simulate-initial-inf"])
def test_domain_length_must_be_finite_and_positive(capsys, tmp_path, argv):
    code, stdout, err = invoke(capsys, *argv, "--n", "16", "--out", str(tmp_path / "out"))
    assert code == 2
    assert err.startswith(f"{argv[0]}: domain length must be finite and positive")
    assert stdout == ""


def test_domain_too_small_for_the_grid(capsys, tmp_path):
    # (ik)^3 overflows a float on this grid; the run stops with one line
    code, stdout, err = invoke(capsys, "simulate", "--system", "kdv", "--soliton", "k=0.7",
                               "--n", "16", "--t-end", "0.01", "--L", "1e-300",
                               "--out", str(tmp_path))
    assert code in (1, 2)
    assert err.startswith("simulate: domain length 1e-300 is too small")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert stdout == ""


def test_step_size_advisory_prints_a_short_bound(capsys, tmp_path):
    # the bound is ~8e300 on this domain; a fixed-point format printed all
    # 300 digits of it
    with pytest.warns(UserWarning, match=r"kmax\^3 ~ 8\.17e\+300 exceeds") as seen:
        invoke(capsys, "simulate", "--system", "harry-dym", "--initial", "1+1/10*cx",
               "--n", "16", "--t-end", "0.01", "--L", "1e-100", "--out", str(tmp_path))
    assert all(len(str(w.message)) < 150 for w in seen)


@pytest.mark.parametrize("t_end", ["inf", "nan"])
def test_simulate_t_end_must_be_finite(capsys, tmp_path, t_end):
    code, _, err = invoke(capsys, "simulate", "--system", "kdv", "--soliton", "k=0.7",
                          "--n", "16", "--t-end", t_end, "--out", str(tmp_path))
    assert code == 2
    assert err == f"simulate: t_end must be finite, got {t_end}\n"


def test_simulate_t_end_below_one_step_is_one_usage_line(capsys, tmp_path):
    # 1e-12 rounds to zero steps of the default dt 1e-3: no run, not 1 snapshot
    code, _, err = invoke(capsys, "simulate", "--system", "kdv", "--soliton", "k=0.7",
                          "--t-end", "1e-12", "--out", str(tmp_path))
    assert code == 2
    assert err == "simulate: t_end - t must be an integer number of steps\n"


# Numeric flags: valid values, and 0, negative, nan and inf for each.  The
# valid ones keep every run at 50 steps or fewer on 32 points or fewer; a
# huge finite t_end such as 1e300 is left out, as it is a valid run that
# would take forever.
_BAD = ["0", "-1", "nan", "inf", "-inf"]
_NUMERIC_FLAGS = st.fixed_dictionaries({}, optional={
    "--L": st.sampled_from(["20", "40", "1e-3"] + _BAD),
    "--dt": st.sampled_from(["1e-3", "5e-3", "0.01"] + _BAD),
    "--record-every": st.sampled_from(["1", "3", "2.5", "x"] + _BAD),
})


@pytest.mark.filterwarnings("ignore::RuntimeWarning", "ignore::UserWarning")
@settings(max_examples=50, deadline=None)
@given(_NUMERIC_FLAGS, st.sampled_from(["16", "32", "12"] + _BAD),
       st.sampled_from(["0.01", "0.05", "0.0125"] + _BAD))
def test_numeric_simulate_flags_never_escape_run(flags, n, t_end):
    argv = ["simulate", "--system", "kdv", "--soliton", "k=0.7", f"--n={n}", f"--t-end={t_end}"]
    argv += [f"{k}={v}" for k, v in flags.items()]
    with tempfile.TemporaryDirectory() as tmp:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(argv + ["--out", tmp])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert code == 0 or err.getvalue().startswith("simulate:")


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_simulate_decimal_family_parameter(capsys, tmp_path):
    # alpha = 3/2 puts u^(-1/2) in the flow; the soliton's tail is below the
    # positivity floor, so the run stops with a message, not a traceback
    code, _, err = invoke(capsys, "simulate", "--system", "kdv", "--alpha", "1.5",
                          "--soliton", "k=0.5", "--out", str(tmp_path))
    assert code == 1
    assert err.startswith("simulate:") and "Traceback" not in err
    code, _, err = invoke(capsys, "simulate", "--system", "kdv", "--alpha", "1.5x",
                          "--soliton", "k=0.5", "--out", str(tmp_path))
    assert code == 2 and err.startswith("simulate:")


def test_simulate_symbolic_family_parameter(capsys, tmp_path):
    # a parameter left as a symbol is a usage error before any stepping
    code, _, err = invoke(capsys, "simulate", "--system", "t-form", "--beta", "beta",
                          "--s", "2", "--initial", "1 + 1/10*cx", "--t-end", "0.01",
                          "--out", str(tmp_path))
    assert code == 2
    assert err.startswith("simulate:") and "beta" in err and "Traceback" not in err
    assert not (tmp_path / "trajectory.csv").exists()


def test_simulate_duplicate_diagnostic(capsys, tmp_path):
    # one series per name, or the manifest's diagnostics stop matching its times
    code, _, err = invoke(capsys, "simulate", "--system", "kdv", "--soliton", "k=0.5",
                          "--n", "64", "--t-end", "0.01", "--diag", "H0,H1,H0",
                          "--out", str(tmp_path))
    assert code == 2
    assert err.startswith("simulate:") and "'H0'" in err
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("command", ["simulate", "miura"])
@pytest.mark.parametrize("text", ["(beta)*cx", "1 + cx^beta", "(1/0)*cx"])
def test_initial_data_must_be_numeric(capsys, tmp_path, command, text):
    # a symbolic coefficient or exponent, or a zero denominator, is a usage
    # error with a message
    args = ["--system", "kdv"] if command == "simulate" else []
    code, _, err = invoke(capsys, command, *args, "--initial", text, "--n", "16",
                          "--out", str(tmp_path / "out"))
    assert code == 2
    assert err.startswith(f"{command}:") and "Traceback" not in err


@pytest.mark.parametrize("argv, what", [
    (["miura", "--initial", "x^1000"], "not finite"),
    (["simulate", "--system", "kdv", "--initial", "x^(-1)"],
     "'x^(-1)' leaves the domain of its powers: |x| reached 0.000e+00"),
    (["simulate", "--system", "kdv", "--initial", "1 + cx", "--ghost-initial", "x^(-1)"],
     "'x^(-1)' leaves the domain of its powers: |x| reached 0.000e+00"),
], ids=["miura-overflow", "simulate-initial", "simulate-ghost"])
def test_initial_data_must_be_finite(capsys, tmp_path, argv, what):
    # inf on the grid is a usage error before any map or step; x^(-1) at
    # x = 0 meets the evaluator's guard first
    out = tmp_path / "out"
    code, stdout, err = invoke(capsys, *argv, "--n", "16", "--out", str(out))
    assert code == 2
    assert err.startswith(f"{argv[0]}:") and what in err
    assert stdout == "" and not out.exists()


def test_initial_data_outside_a_powers_domain_exits_2(capsys, tmp_path):
    # 1/cos(2 pi x / L) at the grid point where cos is 6e-17 wrote a 1.6e16 spike
    out = tmp_path / "m.csv"
    code, stdout, err = invoke(capsys, "miura", "--initial", "cx^-1", "--out", str(out))
    assert (code, stdout) == (2, "") and not out.exists()
    assert err == ("miura: initial data 'cx^-1' leaves the domain of its powers: "
                   "|cx| reached 6.123e-17 <= nonvanishing floor 1.0e-06\n")


# mostly well-formed initial data; a zero denominator, a parameter name, a
# derivative suffix, the field u or the ghost c turn up now and then
_NUMBERS = st.one_of(
    st.integers(0, 12).map(str),
    st.tuples(st.integers(0, 9), st.sampled_from([1, 2, 3, 4, 0])).map("{0[0]}/{0[1]}".format))
_EXPONENTS = st.one_of(st.integers(1, 3).map(str), st.sampled_from(
    ["(-1)", "(-2)", "(1/2)", "(3/2)", "1/3", "(beta)"]))
_NAMES = st.tuples(st.sampled_from(["x", "cx", "cx", "sx", "sx", "u", "c"]),
                   st.sampled_from(["", "", "", "", "_x"])).map("".join)
_POWERS = st.tuples(_NAMES, st.one_of(st.just(""), _EXPONENTS.map("^{}".format))).map("".join)
_FACTORS = st.one_of(_NUMBERS, _POWERS, _POWERS, st.sampled_from(["(beta)"]))
_TERMS = st.lists(_FACTORS, min_size=1, max_size=3).map("*".join)
_EXPRESSIONS = st.tuples(
    st.sampled_from(["", "", "", "odd: c; "]),
    st.lists(st.tuples(st.sampled_from([" + ", " - "]), _TERMS), min_size=1, max_size=3),
).map(lambda p: p[0] + "".join(sign + t for sign, t in p[1]).lstrip(" +"))


@pytest.mark.filterwarnings("ignore::RuntimeWarning", "ignore::UserWarning")
@settings(max_examples=40)
@given(_EXPRESSIONS)
def test_initial_expressions_never_escape_run(text):
    with tempfile.TemporaryDirectory() as tmp:
        for argv in (["simulate", "--system", "kdv", "--n", "16", "--dt", "1e-3",
                      "--t-end", "1e-3", "--initial", text, "--out", tmp],
                     ["miura", "--n", "16", "--initial", text, "--out", f"{tmp}/m.csv"]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = run(argv)
            assert code in (0, 1, 2)
            assert code == 0 or err.getvalue().startswith(f"{argv[0]}:")


def _quiet_run(argv):
    """run(argv) with stdout dropped: (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue()


def _assert_clean_exit(command, code, err):
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert code == 0 or (err.startswith(f"{command}: ") and err.count("\n") == 1)


# Config-file values per command: good ones and bad ones.  Every file starts
# with a working run that the lines after it change, and n, dt and t-end only
# take values that keep a run to 32 points and 50 steps.
_BASE = {"simulate": ["system=kdv", "soliton=k=0.7", "n=16", "t-end=0.05"],
         "miura": ["initial=1/10*sx", "n=16"], "conserved": ["system=kdv"]}
_CONFIG_VALUES = {
    "simulate": {
        "system": ["kdv", "mkdv", "harry-dym", "upsilon", "bogus", ""],
        "n": ["16", "32", "12", "0", "-16", "x"],
        "L": ["20", "40", "1e-3", "0", "nan", "-1", "x"],
        "dt": ["1e-3", "5e-3", "0.01", "0", "-1e-3", "nan", "x"],
        "t-end": ["0.01", "0.05", "0", "-1", "inf", "x"],
        "record-every": ["1", "3", "0", "2.5", "x"],
        "soliton": ["k=0.7", "k=0.5,x0=3", "k=", "wat", "x0=1"],
        "initial": ["1 + 1/10*cx", "1/10*sx", "u_x", "cx^", "(beta)*cx"],
        "ghost-initial": ["gradient", "none", "sx", "c"],
        "diag": ["H0,H1", "H0,H0", "H99"],
        "alpha": ["1", "2", "x"],
        "seed": ["0", "abc"],
    },
    "miura": {
        "direction": ["mkdv-to-kdv", "ckdv-to-mkdv", "bogus"],
        "initial": ["1/10*sx", "1 + 1/10*cx", "cx", "u_x", "x^1000", ""],
        "L": ["20", "40", "0", "nan", "x"],
        "n": ["16", "32", "12", "0", "x"],
    },
    "conserved": {
        "system": ["kdv", "mkdv", "ckdv", "t-form", "bogus", ""],
        "alpha": ["2", "1/0"],
        "beta": ["1", "beta", "T"],
        "s": ["2", "s", "x"],
    },
}


@st.composite
def _config_runs(draw):
    command = draw(st.sampled_from(sorted(_CONFIG_VALUES)))
    values = _CONFIG_VALUES[command]
    assignment = st.sampled_from(sorted(values)).flatmap(
        lambda key: st.sampled_from(values[key]).map(lambda v: f"{key}={v}"))
    line = st.one_of(
        assignment, assignment, assignment, assignment,
        assignment.map(lambda a: f"  {a.replace('=', ' = ', 1)}  # trailing"),
        st.sampled_from(["", "   ", "# a comment", "#no=value"]),
        st.sampled_from(["bogus=1", "t_end=0.01", "config=x.cfg", "=1", "no equals sign"]),
    )
    lines = _BASE[command] + draw(st.lists(line, max_size=5))
    return command, "\n".join(lines) + "\n"


@pytest.mark.filterwarnings("ignore::RuntimeWarning", "ignore::UserWarning")
@settings(max_examples=60, deadline=None)
@given(_config_runs())
def test_config_files_never_escape_run(command_and_text):
    command, text = command_and_text
    with tempfile.TemporaryDirectory() as tmp:
        cfg = f"{tmp}/run.cfg"
        with open(cfg, "w") as fh:
            fh.write(text)
        argv = [command, "--config", cfg]
        if command != "conserved":
            argv += ["--out", f"{tmp}/out" + (".csv" if command == "miura" else "")]
        code, err = _quiet_run(argv)
    _assert_clean_exit(command, code, err)


@pytest.mark.parametrize("where", ["directory", "file", "under-file"])
@pytest.mark.parametrize("argv, ok", [
    pytest.param(["simulate", "--system", "kdv", "--soliton", "k=0.5", "--n", "16",
                  "--t-end", "0.01"], "directory", id="simulate"),
    pytest.param(["miura", "--initial", "1/10*sx", "--n", "16"], "file", id="miura"),
    pytest.param(["verify", "check_nilpotency"], "file", id="verify"),
])
def test_out_paths_never_escape_run(tmp_path, argv, ok, where):
    # each command writes its --out where it can and names the path in
    # one line where it cannot; the directory and the file both exist
    (tmp_path / "file").write_text("")
    path = {"directory": tmp_path, "file": tmp_path / "file",
            "under-file": tmp_path / "file" / "out"}[where]
    code, err = _quiet_run(argv + ["--out", str(path)])
    _assert_clean_exit(argv[0], code, err)
    assert code == (0 if where == ok else 2)
    assert code == 0 or str(path) in err


@pytest.mark.filterwarnings("ignore:.*stability bound:UserWarning")
def test_a_guard_failure_on_the_last_state_writes_nothing(capsys, tmp_path):
    # no stage reads the last step's output: the run exited 0 with
    # min T = -0.075 in the CSV and NaN in manifest.json
    code, _, err = invoke(capsys, "simulate", "--system", "harry-dym",
                          "--initial", "1 + 9/10*cx", "--n", "128", "--L", "20",
                          "--dt", "0.02", "--t-end", "0.04", "--diag", "H1",
                          "--out", str(tmp_path))
    assert code == 1
    assert err.startswith("simulate: field 'T' reached") and "positivity floor" in err
    assert "at t = 0.04\n" in err
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_simulate_guard_failure_exit_code(capsys, tmp_path):
    # harry-dym data crossing the positivity floor is a runtime failure (1),
    # not a usage error (2); the step-size advisory also fires for this
    # deliberately extreme amplitude
    code, _, err = invoke(capsys, "simulate", "--system", "harry-dym",
                          "--initial", "1 + 2*cx", "--ghost-initial", "none",
                          "--n", "128", "--L", "20", "--t-end", "0.01",
                          "--dt", "1e-3", "--out", str(tmp_path))
    assert code == 1
    assert "floor" in err


@pytest.mark.parametrize("command", [
    ["simulate", "--system", "harry-dym", "--initial", "1 + 1/2*cx"],
    ["miura", "--direction", "ckdv-to-mkdv", "--initial", "cx"],
])
def test_floor_is_not_an_option(capsys, tmp_path, command):
    # the singularity floors are fixed; neither a flag nor a config key sets them
    argv = command + ["--n", "16", "--out", str(tmp_path / "out")]
    code, _, _ = invoke(capsys, *argv, "--floor", "nan")
    assert code == 2
    cfg = tmp_path / "floor.cfg"
    cfg.write_text("floor=nan\n")
    code, _, err = invoke(capsys, *argv, "--config", str(cfg))
    assert code == 2 and "'floor'" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("beta", ["T", "c", "b_1"])
def test_family_parameter_named_like_a_field_or_unreadable(capsys, beta):
    code, out, err = invoke(capsys, "conserved", "--system", "t-form", "--beta", beta,
                            "--s", "1")
    assert code == 2 and out == ""
    assert err.startswith("conserved: family parameter beta is named")


# --- miura ------------------------------------------------------------------------

def test_miura_constant_columns(capsys):
    code, out, _ = invoke(capsys, "miura", "--direction", "ckdv-to-mkdv",
                          "--initial", "1", "--n", "128")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,w,v"
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(1.0)
    assert float(first[2]) == pytest.approx(-0.5)


def test_miura_default_direction_quadratic(capsys):
    code, out, _ = invoke(capsys, "miura", "--initial", "1/2", "--n", "128")
    assert code == 0
    first = out.splitlines()[1].split(",")
    assert float(first[2]) == pytest.approx(-0.5)  # u = -2 R^2 at R = 1/2


def test_miura_singularity_exit_code(capsys):
    code, _, err = invoke(capsys, "miura", "--direction", "ckdv-to-mkdv",
                          "--initial", "cx", "--n", "128")
    assert code == 1
    assert "floor" in err


def test_miura_out_file(capsys, tmp_path):
    path = tmp_path / "map.csv"
    code, _, _ = invoke(capsys, "miura", "--initial", "0", "--n", "128",
                        "--out", str(path))
    assert code == 0
    assert path.read_text().splitlines()[0] == "x,R,u"


def test_miura_usage_errors(capsys):
    code, _, _ = invoke(capsys, "miura", "--n", "128")
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    pytest.param(["simulate", "--soliton", "k=0.5"], "--system is required",
                 id="simulate-without-system"),
    pytest.param(["simulate", "--system", "kdv"], "provide --soliton or --initial",
                 id="simulate-without-initial-data"),
    pytest.param(["verify", "check_bogus"], "unknown check 'check_bogus'",
                 id="verify-unknown-check"),
    pytest.param(["miura", "--n", "16"], "--initial expression is required",
                 id="miura-without-initial"),
    pytest.param(["miura", "--initial", "0", "--n", "16", "--config", "{cfg}"],
                 "unknown direction 'bogus'", id="miura-unknown-direction"),
    pytest.param(["conserved"], "--system is required", id="conserved-without-system"),
    pytest.param(["simulate", "--system", "kdv", "--soliton", "x0=3"],
                 "soliton spec must set k", id="soliton-without-k"),
    pytest.param(["simulate", "--system", "kdv", "--soliton", "k=1,y=2"],
                 "unknown soliton key 'y'", id="soliton-unknown-key"),
    pytest.param(["simulate", "--system", "kdv", "--initial", "x_x"],
                 "derivative generator 'x' is not allowed in initial data",
                 id="initial-derivative"),
    pytest.param(["simulate", "--system", "kdv", "--initial", "odd: c; c"],
                 "initial-data expressions must be even", id="initial-odd"),
])
def test_usage_errors_print_one_line_naming_the_command(capsys, tmp_path, argv, message):
    cfg = tmp_path / "direction.cfg"
    cfg.write_text("direction=bogus\n")
    code, out, err = invoke(capsys, *(a.format(cfg=cfg) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith(f"{argv[0]}: {message}") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, what", [
    (["simulate", "--system", "kdv", "--alpha", "1e400", "--s", "1"], "exponent"),
    (["simulate", "--system", "t-form", "--beta", "1e400", "--s", "1"], "exponent"),
    (["miura", "--n", "8", "--initial", "1" + "0" * 310 + "*x"], "coefficient"),
], ids=["kdv-alpha", "t-form-beta", "miura-initial"])
def test_exact_values_beyond_float_range_exit_2(capsys, tmp_path, argv, what):
    # float() of the exact value raised OverflowError, a traceback
    if argv[0] == "simulate":
        argv = argv + ["--initial", "1+3/10*cx", "--t-end", "0.001"]
    out = tmp_path / "out"
    code, stdout, err = invoke(capsys, *argv, "--out", str(out))
    assert (code, stdout) == (2, "") and not out.exists()
    assert err == f"{argv[0]}: {what} is too large to evaluate on a grid\n"


@pytest.mark.parametrize("extra", [["--dt", "1e-320"], ["--dt", "1e-300", "--t-end", "1e10"]],
                         ids=["dt-1e-320", "t-end-1e10"])
def test_a_step_count_beyond_float_range_exits_2(capsys, tmp_path, extra):
    out = tmp_path / "out"
    code, stdout, err = invoke(capsys, "simulate", "--system", "kdv", "--soliton", "k=0.7",
                               *extra, "--out", str(out))
    assert (code, stdout) == (2, "") and not out.exists()
    assert err == f"simulate: dt {float(extra[1])!r} is too small: (t_end - t) / dt overflows\n"


def test_a_step_count_a_float_cannot_count_exits_2(capsys, tmp_path):
    # 1e300 steps passed as an integer number of steps: the run never ended
    out = tmp_path / "out"
    code, stdout, err = invoke(capsys, "simulate", "--system", "kdv", "--soliton", "k=0.7",
                               "--dt", "1e-300", "--out", str(out))
    assert (code, stdout) == (2, "") and not out.exists()
    assert err == ("simulate: dt 1e-300 is too small: (t_end - t) / dt = 1e+300 "
                   "exceeds 2**53 steps\n")


def test_deep_parentheses_exit_2(capsys):
    # 250 levels overflowed the interpreter's recursion limit
    density = "(" * 250 + "1" + ")" * 250 + "*u"
    code, out, err = invoke(capsys, "euler", "--density", density, "--field", "u")
    assert (code, out) == (2, "")
    assert err == "euler: parentheses nest deeper than 64 (at position 64)\n"


def test_a_huge_domain_has_finite_grid_points(capsys):
    # L * arange(n) / n wrote inf as two x coordinates, with overflow warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = invoke(capsys, "miura", "--initial", "1", "--n", "4", "--L", "1e308")
        assert (code, err) == (0, "") and "inf" not in out
        # cos(2 pi x / L) overflows past x = L / (2 pi): no longer finite data
        code, out, err = invoke(capsys, "miura", "--initial", "cx", "--n", "4", "--L", "1e308")
    assert code == 2 and err == "miura: initial data 'cx' is not finite on the grid\n"


@pytest.mark.parametrize("key, value, what", [
    ("n", "x", "an integer"), ("n", "1.5", "an integer"), ("dt", "x", "a number"),
    ("t-end", "soon", "a number"), ("record-every", "2.0", "an integer"),
    ("L", "", "a number")])
@pytest.mark.parametrize("source", ["argv", "config"])
def test_unparsable_numbers_name_their_option(capsys, tmp_path, key, value, what, source):
    argv = ["simulate", "--system", "kdv", "--soliton", "k=0.5", "--out", str(tmp_path / "out")]
    if key != "n":
        argv += ["--n", "16"]
    if source == "argv":
        argv += [f"--{key}", value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        argv += ["--config", str(cfg)]
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"simulate: --{key} must be {what}, got {value!r}\n"


@pytest.mark.parametrize("case", ["missing-config", "config-is-dir", "simulate-out",
                                  "verify-out", "miura-out"])
def test_file_errors_exit_two_naming_the_path(capsys, tmp_path, case):
    (tmp_path / "afile").write_text("")
    path = {"missing-config": tmp_path / "missing.cfg", "config-is-dir": tmp_path,
            "simulate-out": tmp_path / "afile" / "sub"}.get(case, tmp_path)
    argv = {
        "missing-config": [*SIM_ARGS, "--config", str(path)],
        "config-is-dir": ["miura", "--initial", "0", "--config", str(path)],
        "simulate-out": [*SIM_ARGS, "--out", str(path)],
        "verify-out": ["verify", "check_nilpotency", "--out", str(path)],
        "miura-out": ["miura", "--initial", "0", "--n", "128", "--out", str(path)],
    }[case]
    code, _, err = invoke(capsys, *argv)
    assert code == 2
    assert str(path) in err and "Traceback" not in err
    assert err.startswith(f"{argv[0]}: ") and err.count("\n") == 1


# --- plumbing ----------------------------------------------------------------------

def test_help_screens_exit_zero(capsys):
    # run() converts argparse's SystemExit into a return code
    for args in (["--help"], ["simulate", "--help"], ["verify", "--help"],
                 ["miura", "--help"], ["conserved", "--help"], ["euler", "--help"],
                 ["list-systems", "--help"]):
        assert run(args) == 0
        assert "usage" in capsys.readouterr().out


def test_version_flag(capsys):
    assert run(["--version"]) == 0
    assert "brstkdv" in capsys.readouterr().out


def test_installed_entry_point():
    exe = shutil.which("brstkdv")
    if exe is None:
        pytest.skip("console script not on PATH")
    res = subprocess.run([exe, "list-systems"], capture_output=True, text=True)
    assert res.returncode == 0
    assert "kdv" in res.stdout
