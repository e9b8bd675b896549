"""CLI contracts: output schema, exit codes, config merge, determinism."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qetsim
from qetsim import chain, cli
from qetsim.field import Profile


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def load_json(out):
    """CLI stdout as strict JSON: a NaN or Infinity in it fails the test."""
    return json.loads(out, parse_constant=_reject_constant)


@pytest.fixture()
def profile_files(tmp_path):
    lam = tmp_path / "lam.csv"
    p_b = tmp_path / "pb.csv"
    Profile.sin_squared(0.1, 0.0, 1.0).to_csv(lam)
    Profile.sin_squared(0.1, 3.0, 1.0).to_csv(p_b)
    return str(lam), str(p_b)


@pytest.fixture()
def chain_file(tmp_path):
    path = tmp_path / "model.chain"
    path.write_text(
        "n_sites = 8\nboundary = periodic\nx = -1*z\nbond = x ; -1.0\n")
    return str(path)


def test_minimal_json_schema(capsys):
    code, out, _ = run_cli(capsys, "minimal", "--h", "1", "--k", "1")
    assert code == 0
    payload = load_json(out)
    assert payload["E_A"] == pytest.approx(0.7071067811865475, abs=1e-12)
    assert payload["E_B_max"] == pytest.approx(0.114748, abs=1e-6)
    assert payload["theta_opt"] == pytest.approx(0.1608752771983211, abs=1e-12)
    assert payload["bound"]["holds"] is True
    assert payload["version"]
    assert payload["seed"] == 0
    assert payload["probabilities"]["1"] == pytest.approx(0.5, abs=1e-12)


def test_minimal_zero_theta(capsys):
    code, out, _ = run_cli(capsys, "minimal", "--h", "1", "--k", "1",
                           "--theta", "0")
    assert code == 0
    assert load_json(out)["E_B"] == pytest.approx(0.0, abs=1e-13)


def test_minimal_invalid_params_exit_one(capsys):
    code, _, err = run_cli(capsys, "minimal", "--h", "-1", "--k", "1")
    assert code == 1
    assert "positive" in err


def test_usage_error_exit_one(capsys):
    code, _, _ = run_cli(capsys, "minimal", "--h", "1")  # missing --k
    assert code == 1


def test_ising_single_row(capsys):
    code, out, _ = run_cli(capsys, "ising", "--J", "1", "--n", "1")
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert rows[0].startswith("n,sign,ln_abs_delta")
    fields = rows[1].split(",")
    assert int(fields[0]) == 1
    assert int(fields[1]) == -1
    assert float(fields[3]) == pytest.approx(0.0344364, abs=1e-6)


def test_ising_fit_footer(capsys):
    code, out, _ = run_cli(capsys, "ising", "--J", "1", "--n", "30:100",
                           "--fit")
    assert code == 0
    fit_lines = [l for l in out.splitlines() if l.startswith("# fit_")]
    exponent = float(fit_lines[0].split("=")[1])
    c_implied = float(fit_lines[2].split("=")[1])
    assert exponent == pytest.approx(-4.5, abs=0.05)
    assert c_implied == pytest.approx(1.28, rel=0.05)


def test_ising_linear_in_coupling(capsys):
    _, out1, _ = run_cli(capsys, "ising", "--J", "1", "--n", "2:6")
    _, out2, _ = run_cli(capsys, "ising", "--J", "2", "--n", "2:6")
    rows1 = [l for l in out1.splitlines() if l and not l.startswith(("#", "n,"))]
    rows2 = [l for l in out2.splitlines() if l and not l.startswith(("#", "n,"))]
    for r1, r2 in zip(rows1, rows2):
        e1 = float(r1.split(",")[3])
        e2 = float(r2.split(",")[3])
        assert e2 == pytest.approx(2 * e1, rel=1e-12)


def test_ising_numeric_mode(capsys):
    code, out, _ = run_cli(capsys, "ising", "--mode", "numeric", "--N", "8")
    assert code == 0
    assert "E_A_numeric" in out
    assert "# note =" in out


def test_chain_report(capsys, chain_file):
    code, out, _ = run_cli(capsys, "chain", "--model", chain_file,
                           "--site-a", "1", "--site-b", "5",
                           "--direction", "x")
    assert code == 0
    payload = load_json(out)
    assert payload["E_B"] == pytest.approx(payload["E_B_max"], abs=1e-10)
    assert payload["local_energy_B"] == pytest.approx(-payload["E_B"], abs=1e-10)


def test_chain_parse_error_exit_one(capsys, tmp_path):
    bad = tmp_path / "bad.chain"
    bad.write_text("n_sites = 8\nbond = nope\n")
    code, _, err = run_cli(capsys, "chain", "--model", str(bad),
                           "--site-a", "0", "--site-b", "4")
    assert code == 1
    assert "line 2" in err


def test_chain_out_of_range_override_exit_one(capsys, tmp_path):
    bad = tmp_path / "bad.chain"
    bad.write_text("n_sites = 6\nx = -1*z\nbond = x ; -1.0\nx[6] = z\n")
    code, out, err = run_cli(capsys, "chain", "--model", str(bad),
                             "--site-a", "0", "--site-b", "3")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "line 4: site 6 out of range" in err


def test_chain_file_signed_exponent(capsys, tmp_path):
    path = tmp_path / "model.chain"
    outs = []
    for coef in ("2.5e-1", "0.25"):
        path.write_text("n_sites = 8\nboundary = periodic\n"
                        f"x = -1*z + {coef}*x\nbond = x ; -1.0\n")
        code, out, _ = run_cli(capsys, "chain", "--model", str(path),
                               "--site-a", "1", "--site-b", "5")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_chain_file_overflowing_hermitization_exit_one(capsys, tmp_path):
    # each entry is finite; only the on-site sum over the chain overflows
    big = tmp_path / "big.chain"
    big.write_text("n_sites = 8\nboundary = periodic\n"
                   "x = 1e308*z + 1e308*x\nbond = x ; -1.0\n")
    code, out, err = run_cli(capsys, "chain", "--model", str(big),
                             "--site-a", "0", "--site-b", "4")
    _assert_one_line_failure(code, out, err)
    assert "Hamiltonian has non-finite entries" in err


@pytest.mark.parametrize("g_b", ["1", "-1", "x+y"])
def test_chain_identity_generator_exit_one(capsys, chain_file, g_b):
    code, out, err = run_cli(capsys, "chain", "--model", chain_file,
                             "--site-a", "1", "--site-b", "5", "--g-b", g_b)
    _assert_one_line_failure(code, out, err)
    assert err == ("error: --g-b must be a traceless Hermitian involution, "
                   f"got {g_b!r}\n")


@pytest.mark.parametrize("command,scale", [
    ("minimal", "5e-324"), ("minimal", "1e-310"), ("chain", "1e-310"),
    ("ising", "1e-300")])
def test_subnormal_tolerance_scale_exit_one(capsys, tmp_path, command, scale):
    # 1e-12 times the declared scale would be subnormal or zero
    if command == "minimal":
        argv = ["--h", scale, "--k", scale]
        name = "max(h, k)"
    elif command == "chain":
        path = tmp_path / "tiny.chain"
        path.write_text(f"n_sites = 8\nboundary = periodic\nx = -{scale}*z\n"
                        f"bond = x ; -{scale}\n")
        argv = ["--model", str(path), "--site-a", "1", "--site-b", "5"]
        name = "energy scale"
    else:
        argv = ["--J", scale, "--n", "1:3"]
        name = "coupling J"
    code, out, err = run_cli(capsys, command, *argv)
    _assert_one_line_failure(code, out, err)
    assert err.startswith(f"error: {name} ")
    assert "below the smallest normal float" in err


def test_smallest_normal_tolerance_scale_runs(capsys):
    # 1e-290 keeps its tolerances normal, and the energies scale with it
    energies = []
    for c in ("1", "1e-290"):
        code, out, _ = run_cli(capsys, "minimal", "--h", c, "--k", c)
        assert code == 0
        energies.append(load_json(out))
    unit, tiny = energies
    for key in ("E_A", "E_B", "E_B_max"):
        assert abs(tiny[key] - 1e-290 * unit[key]) <= 1e-9 * 1e-290, key


def test_ising_numeric_size_cap(capsys):
    code, out, err = run_cli(capsys, "ising", "--mode", "numeric", "--N", "19")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "18 sites" in err


@pytest.mark.parametrize("n_sites", [19, 40])
def test_chain_file_above_site_limit_exit_one(capsys, tmp_path, monkeypatch,
                                              n_sites):
    def no_model(*args, **kwargs):
        raise AssertionError("a model was built past the site limit")

    # the limit is checked before any per-site data or model is built
    monkeypatch.setattr(chain, "ChainModel", no_model)
    big = tmp_path / "big.chain"
    big.write_text(f"n_sites = {n_sites}\nboundary = periodic\nx = -1*z\n"
                   "bond = x ; -1.0\n")
    code, out, err = run_cli(capsys, "chain", "--model", str(big),
                             "--site-a", "0", "--site-b", "5")
    _assert_one_line_failure(code, out, err)
    assert f"n_sites = {n_sites} is above the 18-site limit" in err


def test_chain_zero_hamiltonian_exit_two(capsys, tmp_path):
    # the all-zero Hamiltonian is reported as degenerate, not as a solver crash
    zero = tmp_path / "zero.chain"
    zero.write_text("n_sites = 13\nboundary = open\nx = 0*z\nbond = x ; 0\n")
    code, out, err = run_cli(capsys, "chain", "--model", str(zero),
                             "--site-a", "0", "--site-b", "6")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "degenerate" in err


@pytest.mark.parametrize("n_sites", [8, 10])
def test_chain_non_finite_coupling_exit_one(capsys, tmp_path, n_sites):
    bad = tmp_path / "nan.chain"
    bad.write_text(f"n_sites = {n_sites}\nboundary = periodic\nx = -1*z\n"
                   "bond = x ; nan\n")
    code, out, err = run_cli(capsys, "chain", "--model", str(bad),
                             "--site-a", "0", "--site-b", "4")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "non-finite" in err


def test_field_report(capsys, profile_files):
    lam, p_b = profile_files
    code, out, _ = run_cli(capsys, "field", "--lambda-file", lam,
                           "--p-file", p_b, "--T", "3")
    assert code == 0
    payload = load_json(out)
    assert payload["theta_opt"] == pytest.approx(
        payload["eta"] / (2 * payload["xi"]), rel=1e-12)
    assert payload["E_B_max"] >= 0


def test_field_oracle_flag(capsys, profile_files):
    lam, p_b = profile_files
    code, out, _ = run_cli(capsys, "field", "--lambda-file", lam,
                           "--p-file", p_b, "--T", "3", "--oracle")
    assert code == 0
    payload = load_json(out)
    assert payload["oracle"]["relative_gap"] < 1e-6


def _assert_one_line_failure(code, out, err):
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("theta", ["1e308", "1e200"])
def test_field_overflowing_theta_exit_one(capsys, profile_files, theta):
    lam, p_b = profile_files
    args = ("field", "--lambda-file", lam, "--p-file", p_b, "--T", "3")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *args, "--theta", theta)
    _assert_one_line_failure(code, out, err)
    assert f"theta {float(theta)!r} is too large" in err
    # a large angle whose output energy stays finite still runs
    code, out, _ = run_cli(capsys, *args, "--theta", "1e100")
    assert code == 0
    assert load_json(out)["E_B"] < 0


@pytest.mark.parametrize("extra", [
    ("--T", "nan"), ("--T", "inf"), ("--T", "3", "--theta", "nan"),
    ("--T", "3", "--theta=-inf"),
])
def test_field_non_finite_delay_or_angle_exit_one(capsys, profile_files,
                                                  extra):
    lam, p_b = profile_files
    code, out, err = run_cli(capsys, "field", "--lambda-file", lam,
                             "--p-file", p_b, *extra)
    _assert_one_line_failure(code, out, err)
    assert "finite" in err


@pytest.mark.parametrize("level", ["-1", "-3"])
def test_field_negative_refine_exit_one(capsys, profile_files, level):
    lam, p_b = profile_files
    code, out, err = run_cli(capsys, "field", "--lambda-file", lam,
                             "--p-file", p_b, "--T", "3", "--refine", level)
    _assert_one_line_failure(code, out, err)
    assert err == f"error: --refine must be at least 0, got {level}\n"


@pytest.mark.parametrize("n_b", [257, 1025], ids=["equal", "unequal"])
def test_field_grid_past_support_runs(capsys, tmp_path, n_b):
    # lambda_A's zero sample at x = 3.5 meets p_B's x = 3.0 at T = 0.5
    x = np.linspace(-1.0, 3.5, 1153)
    vals = np.where((x > 0) & (x < 1), 0.1 * np.sin(math.pi * x) ** 2, 0.0)
    wide, tight, p_b = (tmp_path / name for name in ("wide", "tight", "pb"))
    Profile.from_points(x, vals).to_csv(wide)
    Profile.from_points(x[256:513], vals[256:513]).to_csv(tight)
    Profile.sin_squared(0.1, 3.0, 1.0, n_b).to_csv(p_b)
    payloads = []
    for lam in (wide, tight):
        code, out, err = run_cli(capsys, "field", "--lambda-file", str(lam),
                                 "--p-file", str(p_b), "--T", "0.5")
        assert (code, err) == (0, "")
        payloads.append(load_json(out))
    for key in ("eta", "xi", "E_B_max"):
        assert payloads[0][key] == pytest.approx(payloads[1][key], rel=1e-13)


def test_sweep_field_non_finite_range_exit_one(capsys, profile_files):
    lam, p_b = profile_files
    code, out, err = run_cli(capsys, "sweep", "field", "--param", "T",
                             "--range", "nan:3:2", "--lambda-file", lam,
                             "--p-file", p_b)
    _assert_one_line_failure(code, out, err)
    assert "delay" in err


def test_field_csv_nan_cell_exit_one(capsys, profile_files, tmp_path):
    lam, p_b = profile_files
    lines = open(lam, encoding="utf-8").read().splitlines()
    lines[100] = lines[100].split(",")[0] + ",nan"
    bad = tmp_path / "nan.csv"
    bad.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "field", "--lambda-file", str(bad),
                             "--p-file", p_b, "--T", "3")
    _assert_one_line_failure(code, out, err)
    assert "not finite" in err


def test_sweep_minimal(capsys):
    code, out, _ = run_cli(capsys, "sweep", "minimal", "--param", "k",
                           "--range", "0.1:10:50", "--log", "--h", "1")
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith(("#", "index"))]
    assert len(rows) == 50
    for row in rows:
        e_b_max = float(row.split(",")[6])
        assert e_b_max > 0


def test_sweep_rejects_bad_param(capsys):
    code, _, err = run_cli(capsys, "sweep", "minimal", "--param", "zeta",
                           "--range", "0:1:5")
    assert code == 1
    assert "param" in err


@pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["minimal", "chain"])
def test_non_finite_theta_exit_one(capsys, chain_file, command, theta):
    args = {"minimal": ["--h", "1", "--k", "1"],
            "chain": ["--model", chain_file, "--site-a", "0", "--site-b", "3"]}
    code, out, err = run_cli(capsys, command, *args[command], f"--theta={theta}")
    _assert_one_line_failure(code, out, err)
    assert "theta must be finite" in err


@pytest.mark.parametrize("param, spec", [
    ("k", "1:inf:2"), ("k", "-inf:1:3"), ("theta", "nan:1:2"),
    ("h", "1:nan:1"),
])
def test_sweep_minimal_non_finite_range_exit_one(capsys, param, spec):
    with warnings.catch_warnings():
        # a range end that reached np.linspace would warn before the error
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "sweep", "minimal", "--param", param,
                                 f"--range={spec}")
    _assert_one_line_failure(code, out, err)
    assert "finite ends" in err


@pytest.mark.parametrize("coupling", ["nan", "inf"])
def test_chain_file_non_finite_coupling_names_line(capsys, tmp_path, coupling):
    bad = tmp_path / "bad.chain"
    bad.write_text("n_sites = 6\nboundary = open\nx = -1*z\n"
                   "bond = z ; 0.5\n"
                   f"bond = x ; -1, -1, {coupling}, -1, -1\n")
    code, out, err = run_cli(capsys, "chain", "--model", str(bad),
                             "--site-a", "0", "--site-b", "3")
    _assert_one_line_failure(code, out, err)
    assert "line 5: non-finite coupling" in err


def test_chain_file_overflowing_coefficient_names_line(capsys, tmp_path):
    bad = tmp_path / "bad.chain"
    bad.write_text("n_sites = 6\nboundary = open\nx = -1e999*z\n"
                   "bond = x ; -1\n")
    code, out, err = run_cli(capsys, "chain", "--model", str(bad),
                             "--site-a", "0", "--site-b", "3")
    _assert_one_line_failure(code, out, err)
    assert "line 3: non-finite coefficient" in err


@pytest.mark.parametrize("argv", [
    ("ising", "--J", "inf", "--n", "1:3"),
    ("ising", "--J=-inf", "--n", "1"),
    ("ising", "--mode", "numeric", "--J", "inf", "--N", "8"),
    ("minimal", "--h", "inf", "--k", "1"),
    ("minimal", "--h", "1", "--k", "inf"),
    ("sweep", "minimal", "--param", "k", "--range", "1:2:2", "--h", "inf"),
    ("ising", "--J", "0", "--n", "1"),
    ("minimal", "--h", "-1", "--k", "1"),
    ("sweep", "minimal", "--param", "k", "--range=-1:1:3"),
    ("ising", "--J", "1e308", "--n", "1:3"),
    ("minimal", "--h", "1", "--k", "1e308"),
])
def test_non_finite_coupling_exit_one(capsys, argv):
    with warnings.catch_warnings():
        # a coupling that reached numpy would warn before the error
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    _assert_one_line_failure(code, out, err)
    assert "finite and positive" in err


@pytest.mark.parametrize("argv", [
    ("ising", "--mode", "numeric", "--N", "8", "--J", "1e-9"),
    ("ising", "--mode", "numeric", "--N", "12", "--J", "1e6"),
    ("minimal", "--h", "1e4", "--k", "1e4"),
    ("sweep", "minimal", "--param", "k", "--range", "1e-6:1e6:25", "--log"),
])
def test_scaled_couplings_exit_zero(capsys, argv):
    # tolerances scale with the declared coupling, far from unit coupling too
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert "nan" not in out.lower()


@pytest.mark.parametrize("flag", ["--lambda-file", "--p-file"])
def test_field_overflowing_profile_exit_one(capsys, profile_files, tmp_path,
                                            flag):
    huge = tmp_path / "huge.csv"
    start = 0.0 if flag == "--lambda-file" else 3.0
    Profile.sin_squared(1e200, start, 1.0).to_csv(huge)
    files = dict(zip(("--lambda-file", "--p-file"), profile_files))
    files[flag] = str(huge)
    with warnings.catch_warnings():
        # an overflow inside numpy would warn before the error
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "field", *sum(files.items(), ()),
                                 "--T", "3")
    _assert_one_line_failure(code, out, err)
    name = "lambda_A" if flag == "--lambda-file" else "p_B"
    assert f"profile {name} is out of range" in err


def test_chain_close_pair_warns_once_outside_chain(capsys, chain_file):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, _ = run_cli(capsys, "chain", "--model", chain_file,
                             "--site-a", "1", "--site-b", "5",
                             "--direction", "x")
    assert code == 0
    assert [str(w.message).split(":")[0] for w in caught] == [
        "separation 4 < 5"]
    assert Path(caught[0].filename) == Path(cli.__file__)


@pytest.mark.parametrize("argv", [
    ("minimal", "--h", "1", "--k", "1", "--theta", "1e308"),
    ("sweep", "minimal", "--param", "theta", "--range=1e308:1e308:1"),
    ("sweep", "minimal", "--param", "theta", "--range=-1e308:1e308:3")])
def test_overflowing_theta_exit_one(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    _assert_one_line_failure(code, out, err)
    assert "theta" in err


def test_sweep_negative_range_start(capsys):
    code, out, _ = run_cli(capsys, "sweep", "minimal", "--param", "theta",
                           "--range=-0.5:0.5:3")
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith(("#", "index"))]
    assert [float(row.split(",")[3]) for row in rows] == [-0.5, 0.0, 0.5]
    code, out, err = run_cli(capsys, "sweep", "minimal", "--param", "theta",
                             "--range", "-0.5:0.5:3")
    _assert_one_line_failure(code, out, err)
    assert "--range=" in err


@pytest.mark.parametrize("h, k", [("1e-300", "1"), ("1e-200", "1"),
                                  ("1", "1e-9")])
def test_minimal_bound_out_of_range_exit_one(capsys, h, k):
    code, out, err = run_cli(capsys, "minimal", "--h", h, "--k", k)
    _assert_one_line_failure(code, out, err)
    assert f"h={float(h)}, k={float(k)}" in err


@pytest.mark.parametrize("direction", ["inf,0,0", "nan,0,1", "-inf,1,1"])
def test_non_finite_direction_exit_one(capsys, chain_file, direction):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "chain", "--model", chain_file,
                                 "--site-a", "0", "--site-b", "3",
                                 f"--direction={direction}")
    _assert_one_line_failure(code, out, err)
    assert "direction components must be finite" in err


def test_direction_normalized_without_overflow(capsys, chain_file):
    root = 1 / math.sqrt(2)
    assert cli._parse_direction("1e308,1e308,0") == pytest.approx(
        (root, root, 0.0), abs=1e-15)
    # the power-of-two rescale is exact, so ordinary input keeps its bits
    u = np.array([0.3, -0.4, 0.7])
    assert cli._parse_direction("0.3,-0.4,0.7") == tuple(u / np.linalg.norm(u))
    payloads = []
    for direction in ("1e308,1e308,0", "1,1,0"):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, "chain", "--model", chain_file,
                                     "--site-a", "0", "--site-b", "4",
                                     f"--direction={direction}")
        assert code == 0 and err == ""
        payload = load_json(out)
        del payload["config"]
        payloads.append(payload)
    assert payloads[0] == payloads[1]


_SCIPY_PROBE = """
import contextlib, io, json, sys
from qetsim import cli
report = []
for argv in json.loads(sys.argv[1]):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(argv)
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    report.append([code, loaded])
print(json.dumps(report))
"""


def test_scipy_loaded_only_by_commands_that_run_it(profile_files, chain_file,
                                                   tmp_path):
    # one fresh interpreter, because this one has imported scipy already
    lam, p_b = profile_files
    chain10 = tmp_path / "ten.chain"
    chain10.write_text(
        "n_sites = 10\nboundary = periodic\nx = -1*z\nbond = x ; -1.0\n")
    # up to 8 sites a chain Hamiltonian is a dense ndarray
    cheap = [
        ["minimal", "--h", "1", "--k", "1"],
        ["sweep", "minimal", "--param", "k", "--range", "0.5:2:3"],
        ["field", "--lambda-file", lam, "--p-file", p_b, "--T", "3"],
        ["field", "--lambda-file", lam, "--p-file", p_b, "--T", "3",
         "--refine", "1", "--oracle"],
        ["sweep", "field", "--param", "T", "--range", "2:8:3",
         "--lambda-file", lam, "--p-file", p_b],
        ["ising", "--J", "1", "--n", "1:100", "--fit"],
        ["ising", "--mode", "numeric", "--N", "8"],
        ["chain", "--model", chain_file, "--site-a", "1", "--site-b", "5"],
    ] + [["verify", "--suite", s]
         for s in ("core", "minimal", "ising", "field", "chain", "all")]
    # a 10-site chain is a CSR matrix with a Krylov ground state; it runs
    # no numerical descent
    sparse = [["chain", "--model", str(chain10), "--site-a", "1",
               "--site-b", "6"]]
    runs = cheap + sparse
    src = str(Path(qetsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, json.dumps(runs)],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    for argv, (code, loaded) in zip(cheap, report):
        assert code == 0, argv
        assert loaded == [], f"{' '.join(argv[:3])} loaded {loaded}"
    for argv, (code, loaded) in zip(sparse, report[len(cheap):]):
        assert code == 0, argv
        assert "scipy.sparse" in loaded, f"{' '.join(argv[:3])} loaded {loaded}"
        optimize = [m for m in loaded if m.split(".")[:2] == ["scipy", "optimize"]]
        assert optimize == [], f"{' '.join(argv[:3])} loaded {optimize}"


_COOLING_PROBE = """
import json, sys
import numpy as np
from qetsim import chain, core
model = chain.random_chain_model(6, np.random.default_rng(423), boundary="open")
q, _ = np.linalg.qr(np.arange(8.0).reshape(4, 2) + 1j * np.eye(4, 2))
meas = core.PovmMeasurement(5, ((1.0, core.LocalOperator((5,), q[:2])),
                                (-1.0, core.LocalOperator((5,), q[2:]))))
res = chain.residual_energy(model, 5, meas, search_space="kraus2")
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps([res.e_r, loaded]))
"""


def test_channel_cooling_loads_no_scipy():
    # one fresh interpreter, because this one has imported scipy already
    src = str(Path(qetsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _COOLING_PROBE],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    e_r, loaded = json.loads(proc.stdout)
    assert e_r > 0
    assert loaded == []


def test_config_file_supplies_defaults(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("h = 1.0\nk = 1.0\ntheta = 0\n")
    code, out, _ = run_cli(capsys, "minimal", "--config", str(cfg))
    assert code == 0
    assert load_json(out)["E_B"] == pytest.approx(0.0, abs=1e-13)


def test_config_file_cli_overrides(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("h = 1.0\nk = 1.0\ntheta = 0\n")
    code, out, _ = run_cli(capsys, "minimal", "--config", str(cfg),
                           "--theta", "auto")
    assert code == 0
    assert load_json(out)["E_B"] > 0.1


@pytest.mark.parametrize("command", ["minimal", "chain"])
def test_line_without_equals_names_line(capsys, tmp_path, command):
    # config files and chain files share one 'key = value' reader
    bad = tmp_path / "bad.txt"
    bad.write_text("# comment\n\nn_sites 8\n")
    argv = {"minimal": ("--config", str(bad)),
            "chain": ("--model", str(bad), "--site-a", "0", "--site-b", "4")}
    code, out, err = run_cli(capsys, command, *argv[command])
    _assert_one_line_failure(code, out, err)
    assert f"{bad}: line 3: expected 'key = value'" in err


@pytest.mark.parametrize("value, fit", [("TRUE", True), ("on", True),
                                        ("0", False), ("No", False)])
def test_config_boolean_values(capsys, tmp_path, value, fit):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"fit = {value}\n")
    code, out, _ = run_cli(capsys, "ising", "--config", str(cfg),
                           "--n", "1:3")
    assert code == 0
    assert ("# fit_exponent" in out) is fit


def test_config_bad_boolean_exit_one(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("fit = maybe\n")
    code, out, err = run_cli(capsys, "ising", "--config", str(cfg))
    _assert_one_line_failure(code, out, err)
    assert "config key 'fit': bad value 'maybe'" in err


def test_config_file_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("hh = 1.0\n")
    code, _, err = run_cli(capsys, "minimal", "--config", str(cfg))
    assert code == 1
    assert "hh" in err


def test_out_flag_writes_identical_bytes(capsys, tmp_path):
    out_path = tmp_path / "run.json"
    code, stdout, _ = run_cli(capsys, "minimal", "--h", "2", "--k", "0.5")
    code2, _, _ = run_cli(capsys, "minimal", "--h", "2", "--k", "0.5",
                          "--out", str(out_path))
    assert code == code2 == 0
    assert out_path.read_text() == stdout


def test_determinism_repeated_runs(capsys):
    outputs = set()
    for _ in range(3):
        _, out, _ = run_cli(capsys, "sweep", "minimal", "--param", "h",
                            "--range", "0.5:5:7", "--seed", "3")
        outputs.add(out)
    assert len(outputs) == 1


def test_verify_core_deterministic_and_green(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--suite", "core")
    code, out2, _ = run_cli(capsys, "verify", "--suite", "core")
    assert code == 0
    assert out1 == out2
    assert "FAIL" not in out1


@pytest.mark.parametrize("suite, name, fake, line", [
    ("minimal", "local_cooling_deficit", lambda params, w: math.nan,
     "FAIL minimal.no-local-extraction (max deficit nan)"),
    ("core", "embed_local", lambda op, n: np.full((2**n, 2**n), np.nan),
     "FAIL core.locality-commutators (max nan)"),
], ids=["minimal", "core"])
def test_verify_fails_on_nan(capsys, monkeypatch, suite, name, fake, line):
    # the patched function lives in the module named like the suite
    monkeypatch.setattr(getattr(qetsim, suite), name, fake)
    code, out, _ = run_cli(capsys, "verify", "--suite", suite)
    assert code == 2
    assert line in out.splitlines()
