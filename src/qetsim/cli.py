"""Command-line front end: protocol runs, sweeps, verification suites.

Single runs emit JSON, sweeps and tables emit CSV; every output embeds the
package version, the fully resolved configuration and the seed, and
identical configurations produce byte-identical output.  Exit codes:
0 success, 1 usage or parse error, 2 numerical-invariant failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings

import numpy as np

from . import __version__, chain, core, field, ising, minimal, verify
from .core import EigensolverError, InvariantViolation


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        if message.startswith("argument --range: expected one argument"):
            message += "; a negative start needs --range=START:STOP:COUNT"
        raise UsageError(message)


def _seed(text: str) -> int:
    """A ``--seed`` value: numpy's generators take only non-negative seeds."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if seed < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {seed}")
    return seed


def _finite(name: str, value):
    """``value`` itself; a float must be finite, or the output it was
    bound for is refused as an invariant failure naming ``name``."""
    if isinstance(value, (float, np.floating)) and not math.isfinite(value):
        raise InvariantViolation(f"output {name} is {value}, not a finite number")
    return value


def _cell(name: str, value) -> str:
    """A string as it is, a number as its ``repr``."""
    return value if isinstance(value, str) else repr(_finite(name, value))


def _row(columns: str, *cells) -> str:
    """One CSV row of ``cells`` under the comma-separated ``columns``."""
    return ",".join(_cell(name, value) for name, value
                    in zip(columns.split(","), cells, strict=True))


def _note(name: str, value) -> str:
    return f"# {name} = {_cell(name, value)}"


def _json_ready(value, path: str):
    """``value`` with numpy scalars as Python numbers and tuples as lists;
    every number is checked by :func:`_finite` under its key path."""
    if isinstance(value, dict):
        return {key: _json_ready(item, f"{path}.{key}" if path else key)
                for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(item, f"{path}[{i}]") for i, item in enumerate(value)]
    if isinstance(value, (np.integer, np.floating)):
        value = value.item()
    return _finite(path, value)


def _write(args, config: dict, body) -> None:
    """Write one command's output to ``--out`` or stdout.

    A dict ``body`` becomes the JSON record with the version, the seed and
    ``config`` added; a list of lines follows the ``# key = value`` header
    of the same three.  Every number is checked finite before anything is
    written, so a refused output leaves stdout and ``--out`` untouched.
    """
    if isinstance(body, dict):
        record = {"version": __version__, "seed": args.seed, "config": config,
                  **body}
        text = json.dumps(_json_ready(record, ""), indent=2, sort_keys=True,
                          allow_nan=False) + "\n"
    else:
        header = [_note(key, value) for key, value in (
            ("version", __version__), ("seed", args.seed),
            *sorted(config.items()))]
        text = "\n".join(header + body) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _parse_theta(text: str, optimal):
    """``--theta``: a finite angle, or ``optimal`` for ``auto``."""
    if text.lower() == "auto":
        return optimal
    try:
        theta = float(text)
    except ValueError:
        raise UsageError(f"theta must be a number or 'auto', got {text!r}")
    if not math.isfinite(theta):
        raise UsageError(f"theta must be finite, got {text!r}")
    return theta


def _parse_direction(text: str) -> tuple[float, float, float]:
    named = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}
    if text in named:
        return named[text]
    try:
        ux, uy, uz = map(float, text.split(","))
    except ValueError:
        raise UsageError(
            f"--direction must be x|y|z or three numbers ux,uy,uz, got {text!r}")
    u = np.array([ux, uy, uz])
    if not np.isfinite(u).all():
        raise UsageError(f"direction components must be finite, got {text!r}")
    largest = np.abs(u).max()
    if largest == 0:
        raise UsageError("direction vector must be nonzero")
    # Divide by a power of two just above the largest component: the norm
    # cannot overflow, and the exact rescale keeps the unscaled result's bits.
    u = np.ldexp(u, -math.frexp(largest)[1])
    return tuple(float(c) for c in u / np.linalg.norm(u))


def _parse_range(text: str) -> tuple[float, float, int]:
    try:
        start, stop, count = text.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError:
        raise UsageError("--range must be START:STOP:COUNT, two numbers and an "
                         f"integer count, got {text!r}")
    if count < 1:
        raise UsageError("range count must be at least 1")
    return start, stop, count


def _range_values(spec: tuple[float, float, int], log: bool,
                  name: str) -> np.ndarray:
    start, stop, count = spec
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise UsageError(
            f"the {name} range needs finite ends, got {start}:{stop}")
    if not math.isfinite(stop - start):
        raise UsageError(
            f"the {name} range {start}:{stop} is too wide: its span overflows")
    if count == 1:
        return np.array([start])
    if log:
        if start <= 0 or stop <= 0:
            raise UsageError("log ranges need positive endpoints")
        return np.geomspace(start, stop, count)
    return np.linspace(start, stop, count)


@functools.cache
def build_parser() -> tuple[_Parser, dict[str, argparse.ArgumentParser]]:
    """The argument parser and its subparsers by name, built on first use
    and then shared by every :func:`main` call, config files included."""
    parser = _Parser(prog="qetsim", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value file supplying defaults")
    common.add_argument("--seed", type=_seed, default=0)
    common.add_argument("--out", help="write output to this path")

    p_min = sub.add_parser("minimal", parents=[common],
                           help="two-qubit protocol run")
    p_min.add_argument("--h", type=float)
    p_min.add_argument("--k", type=float)
    p_min.add_argument("--theta", default="auto")

    p_chain = sub.add_parser("chain", parents=[common],
                             help="protocol run on a chain model file")
    p_chain.add_argument("--model")
    p_chain.add_argument("--site-a", type=int)
    p_chain.add_argument("--site-b", type=int)
    p_chain.add_argument("--direction", default="x")
    p_chain.add_argument("--g-b", default="y",
                         help="generator at B (x|y|z or expression)")
    p_chain.add_argument("--theta", default="auto")

    p_ising = sub.add_parser("ising", parents=[common],
                             help="critical-chain analytic table / numerics")
    p_ising.add_argument("--J", type=float, default=1.0)
    p_ising.add_argument("--n", default="1",
                         help="separation or range start:stop (inclusive)")
    p_ising.add_argument("--fit", action="store_true")
    p_ising.add_argument("--mode", choices=("analytic", "numeric"),
                         default="analytic")
    p_ising.add_argument("--N", type=int, default=8,
                         help="chain size for numeric mode")

    p_field = sub.add_parser("field", parents=[common],
                             help="field protocol from profile files")
    p_field.add_argument("--lambda-file", dest="lambda_file")
    p_field.add_argument("--p-file", dest="p_file")
    p_field.add_argument("--T", type=float)
    p_field.add_argument("--theta", default="auto")
    p_field.add_argument("--refine", type=int, default=0,
                         help="re-evaluate on 2^l-strided grids, l = 1..N")
    p_field.add_argument("--oracle", action="store_true",
                         help="also run the finite-mode oracle gate")

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run module invariant suites")
    p_verify.add_argument("--suite", default="all",
                          choices=("all",) + tuple(verify.SUITES))

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="fan a subcommand over a parameter range")
    p_sweep.add_argument("target", choices=("minimal", "field"))
    p_sweep.add_argument("--param")
    p_sweep.add_argument("--range", dest="range_spec", metavar="START:STOP:COUNT",
                         help="write --range=START:STOP:COUNT if START is negative")
    p_sweep.add_argument("--log", action="store_true")
    p_sweep.add_argument("--h", type=float, default=1.0)
    p_sweep.add_argument("--k", type=float, default=1.0)
    p_sweep.add_argument("--theta", default="auto")
    p_sweep.add_argument("--lambda-file", dest="lambda_file")
    p_sweep.add_argument("--p-file", dest="p_file")
    p_sweep.add_argument("--T", type=float, default=3.0)
    subparsers = {"minimal": p_min, "chain": p_chain, "ising": p_ising,
                  "field": p_field, "verify": p_verify, "sweep": p_sweep}
    return parser, subparsers


def _require(args, *names) -> None:
    missing = [n for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        raise UsageError(
            "missing required option(s): " + ", ".join(f"--{n}" for n in missing))


def _probabilities(outcomes) -> dict[str, float]:
    return {str(int(o.label)): o.probability for o in outcomes}


def cmd_minimal(args) -> int:
    _require(args, "h", "k")
    params = minimal.MinimalParams(args.h, args.k)
    theta_opt, e_b_max = minimal.optimize(params)
    theta = _parse_theta(args.theta, theta_opt)
    run = minimal.run_protocol(params, theta)
    bound = minimal.entanglement_bound(params, minimal.sigma_x_measurement())
    _write(args, {"h": args.h, "k": args.k, "theta": args.theta}, {
        "h": args.h,
        "k": args.k,
        "theta": theta,
        "theta_opt": theta_opt,
        "E_A": run.e_a,
        "E_B": run.e_b,
        "E_B_max": e_b_max,
        "probabilities": _probabilities(run.outcomes),
        "bound": {
            "delta_S": bound.delta_s,
            "rhs": bound.bound_rhs,
            "holds": bound.holds,
        },
    })
    return 0


def cmd_chain(args) -> int:
    _require(args, "model", "site-a", "site-b")
    direction = _parse_direction(args.direction)
    model = chain.load_chain_model(args.model)
    model = chain.normalize(model)
    meas = core.projective_pauli_measurement(direction, args.site_a)
    sigma_a = core.pauli_component(direction, args.site_a)
    g_b_named = {"x": core.PAULI_X, "y": core.PAULI_Y, "z": core.PAULI_Z}
    if args.g_b in g_b_named:
        g_mat = g_b_named[args.g_b]
    else:
        g_mat = core.parse_pauli_expression(args.g_b)
    g_b = core.LocalOperator((args.site_b,), g_mat)
    if not chain.is_traceless_involution(g_b):
        raise UsageError("--g-b must be a traceless Hermitian involution, "
                         f"got {args.g_b!r}")
    eta, xi = chain.eta_xi(model, sigma_a, g_b)
    theta_opt, e_b_max = chain.optimal_angle(eta, xi)
    theta = _parse_theta(args.theta, theta_opt)
    with warnings.catch_warnings():
        # eta_xi has already warned about this pair's separation
        warnings.filterwarnings("ignore", message="separation")
        run = chain.run_protocol(model, chain.ChainProtocolSpec(
            args.site_a, args.site_b, meas, g_b, theta))
    config = {"model": args.model, "site_a": args.site_a,
              "site_b": args.site_b, "direction": args.direction,
              "g_b": args.g_b, "theta": args.theta}
    _write(args, config, {
        "n_sites": model.n_sites,
        "boundary": model.boundary,
        "theta": theta,
        "theta_opt": theta_opt,
        "eta": eta,
        "xi": xi,
        "E_A": run.e_a,
        "E_B": run.e_b,
        "E_B_max": e_b_max,
        "local_energy_B": -run.e_b,
        "site_energies": run.site_energies,
        "probabilities": _probabilities(run.outcomes),
    })
    return 0


def _parse_n_range(text: str) -> list[int]:
    try:
        bounds = [int(part) for part in text.split(":", 1)]
    except ValueError:
        raise UsageError("--n must be an integer separation or an inclusive "
                         f"range START:STOP, got {text!r}")
    start, stop = bounds[0], bounds[-1]
    if len(bounds) == 1 and start < 1:
        raise UsageError("separation must be at least 1")
    if start < 1 or stop < start:
        raise UsageError("separation range must satisfy 1 <= start <= stop")
    return list(range(start, stop + 1))


def cmd_ising(args) -> int:
    config = {"J": args.J, "n": args.n, "mode": args.mode, "N": args.N,
              "fit": args.fit}
    if args.mode == "analytic":
        ns = _parse_n_range(args.n)
        columns = "n,sign,ln_abs_delta,E_B_analytic,E_B_asymptotic"
        lines = [columns]
        for n in ns:
            dl = ising.delta_log(n)
            e = ising.analytic_energies(args.J, n)
            lines.append(_row(columns, n, dl.sign, dl.log_abs, e.e_b,
                              e.e_b_asymptotic))
        if args.fit:
            fit = ising.asymptote_check(ns, args.J)
            lines += [_note("fit_exponent", fit.exponent),
                      _note("fit_prefactor", fit.prefactor),
                      _note("fit_c_implied", fit.c_implied)]
    else:
        if args.N > chain.SITE_LIMIT:
            raise UsageError(
                f"numeric mode is limited to {chain.SITE_LIMIT} sites")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = ising.numeric_cross_check(args.J, args.N)
        columns = ("direction,u_x,u_y,u_z,E_A_numeric,eta,xi,theta_opt,"
                   "E_B_closed,E_B_numeric")
        lines = [columns]
        for row in report.rows:
            lines.append(_row(columns, row.label, *row.direction, row.e_a,
                              row.eta, row.xi, row.theta_opt, row.e_b_closed,
                              row.e_b_protocol))
        lines += [_note("separation", report.separation),
                  _note("E_A_analytic", report.e_a_analytic),
                  _note("best_direction", report.best_direction),
                  _note("note", report.note)]
    _write(args, config, lines)
    return 0


def cmd_field(args) -> int:
    _require(args, "lambda-file", "p-file", "T")
    if args.refine < 0:
        raise UsageError(f"--refine must be at least 0, got {args.refine}")
    lam, p_b = map(field.Profile.from_csv, (args.lambda_file, args.p_file))
    theta = _parse_theta(args.theta, None)
    res = field.output_energy(field.FieldProtocolSpec(lam, p_b, args.T, theta))
    body = {
        "E_A": res.e_a,
        "eta": res.eta,
        "xi": res.xi,
        "overlap": res.overlap,
        "theta_opt": res.theta_opt,
        "theta": res.theta,
        "E_B_max": res.e_b_max,
        "E_B": res.e_b_at_theta,
    }
    if args.refine:
        levels = []
        for level in range(1, args.refine + 1):
            stride = 2**level
            coarse = field.output_energy(field.FieldProtocolSpec(
                lam.coarsened(stride), p_b.coarsened(stride), args.T, theta))
            levels.append({
                "stride": stride,
                "eta": coarse.eta,
                "xi": coarse.xi,
                "E_B_max": coarse.e_b_max,
            })
        body["refinement"] = levels
    if args.oracle:
        analytic, oracle_val, rel = field.overlap_discrepancy(lam)
        body["oracle"] = {
            "overlap_analytic": analytic,
            "overlap_oracle": oracle_val,
            "relative_gap": rel,
        }
    config = {"lambda_file": args.lambda_file, "p_file": args.p_file,
              "T": args.T, "theta": args.theta}
    _write(args, config, body)
    return 0


def cmd_verify(args) -> int:
    names = tuple(verify.SUITES) if args.suite == "all" else (args.suite,)
    results, all_passed = verify.run_suites(names, args.seed)
    lines = []
    for r in results:
        status = "ok" if r.passed else "FAIL"
        detail = f" ({r.detail})" if r.detail else ""
        lines.append(f"{status} {r.suite}.{r.name}{detail}")
    n_pass = sum(1 for r in results if r.passed)
    lines.append(f"# passed {n_pass}/{len(results)}")
    _write(args, {"suite": args.suite}, lines)
    return 0 if all_passed else 2


def cmd_sweep(args) -> int:
    _require(args, "param")
    if args.range_spec is None:
        raise UsageError("missing required option(s): --range")
    name = "delay T" if args.param == "T" else args.param
    values = _range_values(_parse_range(args.range_spec), args.log, name)
    config = {"target": args.target, "param": args.param,
              "range": args.range_spec, "log": args.log}
    if args.target == "minimal":
        if args.param not in ("h", "k", "theta"):
            raise UsageError("minimal sweep supports --param h|k|theta")
        columns = "index,h,k,theta,E_A,E_B,E_B_max,theta_opt"
        lines = [columns]
        for idx, val in enumerate(values):
            h = float(val) if args.param == "h" else args.h
            k = float(val) if args.param == "k" else args.k
            params = minimal.MinimalParams(h, k)
            theta_opt, e_b_max = minimal.optimize(params)
            if args.param == "theta":
                theta = float(val)
            else:
                theta = _parse_theta(args.theta, theta_opt)
            run = minimal.run_protocol(params, theta)
            lines.append(_row(columns, idx, h, k, theta, run.e_a, run.e_b,
                              e_b_max, theta_opt))
    else:
        if args.param != "T":
            raise UsageError("field sweep supports --param T")
        if not args.lambda_file or not args.p_file:
            raise UsageError("field sweep needs --lambda-file and --p-file")
        lam, p_b = map(field.Profile.from_csv, (args.lambda_file, args.p_file))
        columns = "index,T,eta,xi,theta_opt,E_B_max"
        lines = [columns]
        delays = values.tolist()
        results = field.delay_sweep(lam, p_b, delays)
        for idx, (delay, res) in enumerate(zip(delays, results)):
            lines.append(_row(columns, idx, delay, res.eta, res.xi,
                              res.theta_opt, res.e_b_max))
    _write(args, config, lines)
    return 0


COMMANDS = {
    "minimal": cmd_minimal,
    "chain": cmd_chain,
    "ising": cmd_ising,
    "field": cmd_field,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


_CONFIG_BOOLEANS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
                    **dict.fromkeys(("0", "false", "no", "off"), False)}


def _config_arguments(subparser: argparse.ArgumentParser,
                      path: str) -> list[str]:
    """The config file at ``path`` as ``--flag=value`` arguments of
    ``subparser``.  A key names an option by its long flag or its ``dest``,
    without leading dashes and with ``-`` and ``_`` alike: ``range``,
    ``range_spec`` and ``range-spec`` all name ``--range``.  A switch is
    on (its bare flag) or off (nothing) by the yes/no table."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            pairs = [(key, value) for _, key, value
                     in core.key_value_lines(handle, path) if key != "config"]
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    actions = {}
    for action in subparser._actions:
        flags = [flag for flag in action.option_strings if flag.startswith("--")]
        if flags and action.dest != "help":
            names = [action.dest] + [flag[2:] for flag in flags]
            actions.update((name.replace("-", "_"), action) for name in names)
    unknown = {key for key, _ in pairs if key.replace("-", "_") not in actions}
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    arguments, seen = [], {}
    for key, value in pairs:
        action = actions[key.replace("-", "_")]
        flag = action.option_strings[-1]
        if action.dest in seen:
            raise UsageError(
                f"config keys {seen[action.dest]!r} and {key!r} both set {flag}")
        seen[action.dest] = key
        if action.nargs != 0:
            arguments.append(f"{flag}={value}")
        elif value.lower() not in _CONFIG_BOOLEANS:
            raise UsageError(f"config key {key!r}: bad value {value!r}")
        elif _CONFIG_BOOLEANS[value.lower()]:
            arguments.append(flag)
    return arguments


def _format_warning(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


def main(argv=None) -> int:
    """Run one command line; return its exit code.

    ``main`` can be called any number of times in one process; every call
    parses with the one cached parser.  A ``--config`` file's values are
    parsed as arguments placed before the command line's own, which win.
    A warning that the caller's filters let through is written to stderr
    as the one line ``warning: <message>``; a caller that records warnings
    still gets the warning itself.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = build_parser()
    saved_format, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            file_arguments = _config_arguments(subparsers[args.command],
                                               args.config)
            try:
                args = parser.parse_args(
                    [args.command, *file_arguments, *argv[1:]])
            except UsageError as exc:  # argv parsed alone: the file is at fault
                raise UsageError(f"{args.config}: {exc}")
        handler = COMMANDS[args.command]
        return handler(args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InvariantViolation, EigensolverError) as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = saved_format


if __name__ == "__main__":
    sys.exit(main())
