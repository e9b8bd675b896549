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
from qetsim import chain, cli, field, ising
from qetsim.field import FieldProtocolSpec, Profile


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


@pytest.mark.parametrize("g_b, x", [
    ("1e200*x", "-1*z"), ("1e308*x + 1e308*x", "-1*z"),
    ("y", "-1*z + 1e308*x + 1e308*x")], ids=["square", "sum", "chain-file"])
def test_overflowing_expression_exit_one(capsys, tmp_path, g_b, x):
    model = tmp_path / "model.chain"
    model.write_text(f"n_sites = 6\nboundary = open\nx = {x}\nbond = x ; -1.0\n")
    code, out, err = run_cli(capsys, "chain", "--model", str(model),
                             "--site-a", "0", "--site-b", "5", "--g-b", g_b)
    _assert_one_line_failure(code, out, err)


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


def test_sweep_field_rows_match_output_energy(capsys, profile_files):
    # the sweep takes the delay-free terms once; each row must still be
    # output_energy's result at that delay, to the last digit
    lam, p_b = profile_files
    code, out, _ = run_cli(capsys, "sweep", "field", "--param", "T",
                           "--range", "8:0.5:6", "--lambda-file", lam,
                           "--p-file", p_b)
    assert code == 0
    lines = out.splitlines()
    rows = lines[lines.index("index,T,eta,xi,theta_opt,E_B_max") + 1:]
    assert len(rows) == 6
    lam_prof, p_prof = Profile.from_csv(lam), Profile.from_csv(p_b)
    for idx, row in enumerate(rows):
        delay = float(row.split(",")[1])
        res = field.output_energy(FieldProtocolSpec(lam_prof, p_prof, delay))
        assert row == (f"{idx},{delay!r},{res.eta!r},{res.xi!r},"
                       f"{res.theta_opt!r},{res.e_b_max!r}")


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


def test_ising_numeric_overflowing_shift_exit_one(capsys):
    # the couplings are finite, but shifting the diagonal to ground energy
    # zero overflows
    code, out, err = run_cli(capsys, "ising", "--mode", "numeric", "--N", "8",
                             "--J", "1e307")
    _assert_one_line_failure(code, out, err)
    assert "not finite" in err


@pytest.mark.parametrize("argv", [
    ("ising", "--mode", "numeric", "--N", "8", "--J", "1e-9"),
    ("ising", "--mode", "numeric", "--N", "8", "--J", "1e306"),
    ("ising", "--mode", "numeric", "--N", "12", "--J", "1e6"),
    ("minimal", "--h", "1e4", "--k", "1e4"),
    ("sweep", "minimal", "--param", "k", "--range", "1e-6:1e6:25", "--log"),
])
def test_scaled_couplings_exit_zero(capsys, argv):
    # tolerances scale with the declared coupling, far from unit coupling too
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert "nan" not in out.lower()


def _csv_table(out):
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    header, *rows = (line.split(",") for line in lines)
    return [dict(zip(header, row)) for row in rows]


@pytest.mark.parametrize("coupling", ["1e170", "1e300"])
def test_ising_numeric_huge_coupling_scales_linearly(capsys, coupling):
    # the eigensolver residual is summed in units of J, so it cannot overflow
    tables = []
    for j in ("1", coupling):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "ising", "--mode", "numeric",
                                     "--N", "8", "--J", j)
        assert (code, err) == (0, "")
        tables.append(_csv_table(out))
    assert _compare_scaled_tables(*tables, float(coupling)) >= 12


def _compare_scaled_tables(unit, scaled, scale):
    """Require each number of ``scaled`` above 1e-9 * scale to be ``scale``
    times the ``unit`` one within 1e-9 relative; return how many were.
    Against ``unit``, E_A_numeric and xi are compared on every row, eta and
    E_B on some."""
    compared = 0
    for unit_row, row in zip(unit, scaled, strict=True):
        for key, text in row.items():
            if key == "direction" or not abs(float(text)) > 1e-9 * scale:
                continue
            assert float(text) == pytest.approx(scale * float(unit_row[key]),
                                                rel=1e-9), key
            compared += 1
    return compared


@pytest.mark.parametrize("coupling,code", [
    ("5e306", 0), ("7e306", 1), ("9e306", 1), ("1e307", 1), ("1.2e307", 1)])
def test_ising_numeric_krylov_near_double_range(capsys, coupling, code):
    # the Lanczos Gershgorin bound is summed in units of J: it runs while
    # the chain's norm is a double, and is refused, not overflowed, beyond
    argv = ("ising", "--mode", "numeric", "--N", "12")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = run_cli(capsys, *argv, "--J", coupling)
    if code:
        _assert_one_line_failure(*got)
        return
    assert (got[0], got[2]) == (0, "")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert _compare_scaled_tables(_csv_table(out), _csv_table(got[1]),
                                  float(coupling)) >= 12


def test_chain_huge_coupling_runs_krylov_quietly(capsys, tmp_path,
                                                 krylov_calls):
    big = tmp_path / "big.chain"
    big.write_text("n_sites = 10\nboundary = periodic\nx = -1e200*z\n"
                   "bond = x ; -1e200\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "chain", "--model", str(big),
                                 "--site-a", "1", "--site-b", "6")
    assert (code, err) == (0, "")
    assert krylov_calls == [2**10]
    assert math.isfinite(load_json(out)["E_A"])


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
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            blas = sorted({line.split()[-1] for line in maps
                           if "openblas" in line.lower()})
    except OSError:
        blas = None
    report.append([code, loaded, blas])
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
    # a 10-site chain is a CSR matrix with a Lanczos ground state in plain
    # numpy: no scipy solver, and no second OpenBLAS beside numpy's
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
    for argv, (code, loaded, _) in zip(cheap, report):
        assert code == 0, argv
        assert loaded == [], f"{' '.join(argv[:3])} loaded {loaded}"
    for argv, (code, loaded, blas) in zip(sparse, report[len(cheap):]):
        assert code == 0, argv
        assert "scipy.sparse" in loaded, f"{' '.join(argv[:3])} loaded {loaded}"
        solvers = [m for m in loaded
                   if m.split(".")[:2] == ["scipy", "optimize"]
                   or m.split(".")[:3] == ["scipy", "sparse", "linalg"]]
        assert solvers == [], f"{' '.join(argv[:3])} loaded {solvers}"
        if blas is not None:  # where /proc/self/maps exists
            assert len(blas) == 1, f"{' '.join(argv[:3])} mapped {blas}"


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


def test_config_keys_by_flag_name(capsys, tmp_path, profile_files):
    lam, p_b = profile_files
    argv = ("sweep", "field", "--param", "T")
    want = run_cli(capsys, *argv, "--range", "2:8:3", "--lambda-file", lam,
                   "--p-file", p_b)
    assert want[0] == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"range = 2:8:3\nlambda-file = {lam}\np-file = {p_b}\n")
    assert run_cli(capsys, *argv, "--config", str(cfg)) == want


def test_config_keys_by_dest_name(capsys, tmp_path, profile_files):
    lam, p_b = profile_files
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"range_spec = 2:8:3\nlambda_file = {lam}\np_file = {p_b}\n")
    code, out, err = run_cli(capsys, "sweep", "field", "--param", "T",
                             "--config", str(cfg))
    assert (code, err) == (0, "")
    assert "# range = 2:8:3" in out.splitlines()


@pytest.mark.parametrize("text, keys", [
    ("range = 2:8:3\nrange_spec = 2:8:4\n", "'range' and 'range_spec'"),
    ("lambda_file = a.csv\nlambda-file = b.csv\n",
     "'lambda_file' and 'lambda-file'"),
    ("T = 3\nT = 4\n", "'T' and 'T'")])
def test_config_keys_naming_one_option_twice(capsys, tmp_path, text, keys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code, out, err = run_cli(capsys, "sweep", "field", "--param", "T",
                             "--config", str(cfg))
    _assert_one_line_failure(code, out, err)
    assert f"config keys {keys} both set --" in err


def test_config_values_stay_in_their_own_call(capsys, tmp_path):
    # every call in a process shares one parser, and the common options
    # (--seed, --out) are shared by all subcommands: a config file's values
    # must reach no later call
    cfg = tmp_path / "run.cfg"
    out_path = tmp_path / "run.json"
    cfg.write_text(f"theta = 0\nseed = 5\nout = {out_path}\n")
    code, out, _ = run_cli(capsys, "minimal", "--config", str(cfg),
                           "--h", "1", "--k", "1")
    assert (code, out) == (0, "")
    configured = load_json(out_path.read_text())
    assert configured["seed"] == 5
    assert configured["E_B"] == pytest.approx(0.0, abs=1e-13)
    code, out, _ = run_cli(capsys, "minimal", "--h", "1", "--k", "1")
    assert code == 0
    payload = load_json(out)
    assert payload["seed"] == 0
    assert payload["E_B"] > 0
    code, out, _ = run_cli(capsys, "ising", "--n", "1:3")
    assert code == 0
    assert "# seed = 0" in out.splitlines()


def test_refused_config_leaves_later_calls_alone(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 1:5\nfit = maybe\n")
    before = run_cli(capsys, "ising", "--n", "1:3")
    code, out, err = run_cli(capsys, "ising", "--config", str(cfg))
    _assert_one_line_failure(code, out, err)
    assert run_cli(capsys, "ising", "--n", "1:3") == before
    assert before[0] == 0 and "# fit = False" in before[1].splitlines()


# (command line before the options, options as (key, value)); a switch's
# value is "on" or "off", and {model}, {lam}, {p_b} and {out} are paths
_CONFIG_ROUND_TRIPS = {
    "minimal": (["minimal"], [("h", "2.5"), ("k", "0.5"), ("theta", "0.25"),
                              ("seed", "7")]),
    "minimal-out": (["minimal", "--h", "1"], [("k", "2"), ("out", "{out}")]),
    "chain": (["chain"], [("model", "{model}"), ("site-a", "0"),
                          ("site-b", "4"), ("direction", "z"), ("g-b", "x"),
                          ("theta", "auto")]),
    "ising-analytic": (["ising"], [("J", "2.0"), ("n", "1:4"), ("fit", "on"),
                                   ("mode", "analytic")]),
    "ising-numeric": (["ising"], [("mode", "numeric"), ("N", "6"),
                                  ("fit", "off")]),
    "field": (["field"], [("lambda-file", "{lam}"), ("p-file", "{p_b}"),
                          ("T", "3.0"), ("refine", "1"), ("oracle", "on")]),
    "verify": (["verify"], [("suite", "ising"), ("seed", "3")]),
    "sweep": (["sweep", "minimal"], [("param", "k"), ("range", "0.5:2:3"),
                                     ("log", "on"), ("h", "1.5")]),
}


@pytest.mark.parametrize("name", sorted(_CONFIG_ROUND_TRIPS))
def test_config_file_matches_command_line(capsys, tmp_path, chain_file,
                                          profile_files, name):
    lam, p_b = profile_files
    out_path = tmp_path / "run.out"
    paths = {"model": chain_file, "lam": lam, "p_b": p_b, "out": out_path}
    head, options = _CONFIG_ROUND_TRIPS[name]
    options = [(key, value.format(**paths)) for key, value in options]
    flags = []
    for key, value in options:
        if value not in ("on", "off"):
            flags += [f"--{key}", value]
        elif value == "on":
            flags.append(f"--{key}")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in options))
    runs = []
    for argv in (head + flags, head + ["--config", str(cfg)]):
        out_path.unlink(missing_ok=True)
        result = run_cli(capsys, *argv)
        runs.append((result, out_path.exists() and out_path.read_text()))
    assert runs[0] == runs[1]
    (code, out, _), written = runs[0]
    assert code == 0 and (out or written)


@pytest.mark.parametrize("command, key, choices", [
    ("verify", "suite", "'all', 'core'"), ("ising", "mode", "'analytic'")],
    ids=["suite", "mode"])
def test_config_bad_choice_names_file(capsys, tmp_path, command, key, choices):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = bogus\n")
    code, out, err = run_cli(capsys, command, "--config", str(cfg))
    _assert_one_line_failure(code, out, err)
    assert err.startswith(f"error: {cfg}: argument --{key}: invalid choice: "
                          f"'bogus' (choose from {choices}")
    src = str(Path(qetsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "qetsim.cli", command, "--config", str(cfg)],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=path))
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", err)


@pytest.mark.parametrize("flag", ["--conf", "--confi", "--config="])
def test_config_flag_abbreviated(capsys, tmp_path, flag):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("theta = 0\n")
    config = [flag + str(cfg)] if flag.endswith("=") else [flag, str(cfg)]
    code, out, _ = run_cli(capsys, "minimal", *config, "--h", "1", "--k", "1")
    assert code == 0
    assert load_json(out)["theta"] == 0.0
    assert (code, out) == run_cli(capsys, "minimal", "--config", str(cfg),
                                  "--h", "1", "--k", "1")[:2]


@pytest.mark.parametrize("argv, key", [
    (["minimal", "--h", "1", "--k", "1"], "help"),
    (["sweep", "minimal", "--param", "h", "--range", "1:2:2"], "target")],
    ids=["help", "target"])
def test_config_help_and_positional_are_not_keys(capsys, tmp_path, argv, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = field\n")
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    _assert_one_line_failure(code, out, err)
    assert err == f"error: unknown config keys: {key}\n"


def test_readme_chain_example_warns_in_one_line(capsys, tmp_path):
    # the chain model file and the command line of README.md
    model = tmp_path / "ising.chain"
    model.write_text(
        "n_sites = 8\nboundary = periodic\nx = -1*z\nx[3] = -1*z + 0.2*x\n"
        "bond = x ; -1.0\nbond = y ; 0.1, 0.2, 0.1, 0.2, 0.1, 0.2, 0.1, 0.2\n")
    argv = ["chain", "--model", str(model), "--site-a", "1", "--site-b", "6",
            "--direction", "x"]
    src = str(Path(qetsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "qetsim.cli", *argv],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=path))
    code, out, err = run_cli(capsys, *argv)
    assert (proc.returncode, proc.stdout) == (0, out) and code == 0
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("warning: separation 3 < 5")
    # a caller's filter still applies
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run_cli(capsys, *argv) == (0, out, "")


def test_parser_built_once_per_process(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("theta = 0\n")
    cli.build_parser.cache_clear()
    for argv in (["minimal", "--h", "1", "--k", "1"], ["ising", "--n", "2"],
                 ["minimal", "--config", str(cfg), "--h", "1", "--k", "1"],
                 ["minimal", "--h", "1"], ["verify", "--suite", "bogus"]):
        run_cli(capsys, *argv)
    assert cli.build_parser.cache_info().misses == 1
    # and importing the module builds nothing
    src = str(Path(qetsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import qetsim.cli as c; "
         "print(c.build_parser.cache_info().misses)"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=path))
    assert (proc.returncode, proc.stdout) == (0, "0\n"), proc.stderr


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


def test_verify_log_check_calls_log_h(capsys, monkeypatch):
    log_h = ising.log_h
    monkeypatch.setattr(ising, "log_h", lambda n: log_h(n) * (1 + 1e-6))
    code, out, _ = run_cli(capsys, "verify", "--suite", "ising")
    assert code == 2
    assert "FAIL ising.log-accumulation-stability (rel 1.00e-06)" in out.splitlines()


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


def _with_entry(stack, value, i=17):
    stack = stack.copy()
    stack[i] = value
    return stack


@pytest.mark.parametrize("name, edit, line", [
    ("local_cooling_deficit", lambda d: _with_entry(d, math.nan),
     "FAIL minimal.no-local-extraction (max deficit nan)"),
    ("local_cooling_deficit", lambda d: _with_entry(d, 1e-9),
     "FAIL minimal.no-local-extraction (max deficit 1.000e-09)"),
    ("evolved_local_energies",
     lambda hb_v: (_with_entry(hb_v[0], hb_v[0][7] + 1e-8, 7), hb_v[1]),
     "FAIL minimal.time-evolution (max dev 1.000e-08)"),
    ("local_unitary_energies", lambda e: _with_entry(e, -1e-9),
     "FAIL minimal.passivity (min energy -1.000e-09)"),
], ids=["nan-deficit", "positive-deficit", "hb-off", "negative-energy"])
def test_verify_fails_on_one_planted_sample(capsys, monkeypatch, name, edit,
                                            line):
    # each sampled check evaluates its draws as one stack: one bad entry in
    # the first stack it evaluates must fail the check
    function = getattr(qetsim.minimal, name)
    calls = []

    def planted(*args):
        calls.append(args)
        result = function(*args)
        return edit(result) if len(calls) == 1 else result

    monkeypatch.setattr(qetsim.minimal, name, planted)
    code, out, _ = run_cli(capsys, "verify", "--suite", "minimal")
    assert code == 2
    assert line in out.splitlines()
    assert sum(l.startswith("FAIL ") for l in out.splitlines()) == 1


@pytest.mark.parametrize("seed", range(5))
def test_verify_all_green_across_seeds(capsys, seed):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--seed", str(seed))
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert code == 0
    assert len(lines) == 30
    assert all(l.startswith("ok ") for l in lines)


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "minimal"],
    ["minimal", "--h", "1", "--k", "1"],
    ["ising", "--n", "1:3"],
    ["sweep", "minimal", "--param", "k", "--range", "0.5:1:2"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("seed", ["-1", "-3"])
def test_negative_seed_refused(capsys, argv, seed):
    code, out, err = run_cli(capsys, *argv, "--seed", seed)
    _assert_one_line_failure(code, out, err)
    assert err == f"error: argument --seed: must be a non-negative integer, got {seed}\n"


def test_negative_seed_in_config_refused(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = -1\n")
    code, out, err = run_cli(capsys, "minimal", "--config", str(cfg),
                             "--h", "1", "--k", "1")
    _assert_one_line_failure(code, out, err)
    assert "--seed" in err and str(cfg) in err
