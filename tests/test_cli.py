"""Command-line interface: subcommands, config precedence, exit codes,
and reproducible file output."""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from brstkdv.cli import run


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


def test_euler_total_derivative_gives_zero(capsys):
    code, out, _ = invoke(capsys, "euler", "--density", "3*u^2*u_x", "--field", "u")
    assert code == 0
    assert out.strip() == "0"


def test_euler_rejects_bad_input(capsys):
    code, _, err = invoke(capsys, "euler", "--density", "1/2*u^", "--field", "u")
    assert code == 2
    assert "euler:" in err


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
