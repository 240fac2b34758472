"""Command-line front end.

Commands: capacity, chi, hhat, additivity, discontinuity, verify.
Exit codes: 0 success, 1 config error, 2 non-convergence / numerical
error / failed suite.
Output is byte-stable for a fixed seed and config; wall-clock fields are
emitted only with --timing.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from . import additivity as addmod
from .capacity import (
    ExpectationBound,
    Singleton,
    SolverOptions,
    UNCONSTRAINED,
    chi_capacity,
    chi_function,
    convex_closure_output_entropy,
)
from .channels import (
    ClassicalChannelSpec,
    _complex_from_json,
    _complex_to_json,
    channel_from_config,
    channel_from_dict,
    example2_channel,
    example2_limit,
)
from .ensembles import ensemble_to_dict
from .opalg import DensityOperator, HermitianOperator, trace_norm
from .verify import SUITES, run_suite

LN2 = math.log(2.0)


class ConfigError(ValueError):
    pass


def _round12(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _write_json(payload: dict, out_path: str | None):
    text = json.dumps(_round12(payload), indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _write_csv(fieldnames: list[str], rows: list[dict], out_path: str | None):
    """CSV with a header line and LF line ends, to out_path (if given) and
    to stdout; fields with commas or quotes are quoted."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    text = buf.getvalue()
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _load_json_arg(arg: str):
    if arg.startswith("@"):
        path = arg[1:]
        if not os.path.exists(path):
            raise ConfigError(f"referenced file does not exist: {path}")
        with open(path) as fh:
            return json.load(fh)
    try:
        return json.loads(arg)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"not valid JSON: {exc}") from exc


def _channel_from_arg(arg: str):
    data = _load_json_arg(arg)
    try:
        if isinstance(data, dict) and "kraus" in data and "kind" not in data:
            return channel_from_dict(data)
        return channel_from_config(data)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad channel spec: {exc}") from exc


def _constraint_from_arg(arg: str | None):
    if not arg:
        return UNCONSTRAINED
    data = _load_json_arg(arg)
    kind = data.get("kind", "unconstrained")
    try:
        if kind == "unconstrained":
            return UNCONSTRAINED
        if kind == "singleton":
            return Singleton(DensityOperator(_complex_from_json(data["state"])))
        if kind == "expectation":
            return ExpectationBound(HermitianOperator(_complex_from_json(data["H"])),
                                    float(data["h"]))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad constraint spec: {exc}") from exc
    raise ConfigError(f"unknown constraint kind {kind!r}")


def _state_from_arg(arg: str) -> DensityOperator:
    data = _load_json_arg(arg)
    if isinstance(data, dict):
        data = data.get("state", data)
    try:
        return DensityOperator(_complex_from_json(data))
    except ValueError as exc:
        raise ConfigError(f"bad state spec: {exc}") from exc


def _apply_config_file(args) -> None:
    """Merge a JSON config file into the parsed arguments; keys present
    in the config override the corresponding flags."""
    if not getattr(args, "config", None):
        return
    if not os.path.exists(args.config):
        raise ConfigError(f"config file does not exist: {args.config}")
    with open(args.config) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad config JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    for key, value in cfg.items():
        field = key.replace("-", "_")
        if not hasattr(args, field):
            raise ConfigError(f"unknown config key {key!r}")
        if isinstance(value, (dict, list)):
            value = json.dumps(value)
        setattr(args, field, value)


def _opts_from_args(args) -> SolverOptions:
    if float(args.tol) <= 0:
        raise ConfigError("tol must be positive")
    return SolverOptions(tol=float(args.tol), max_iter=int(args.max_iter),
                         seed=int(args.seed), grid=int(args.resolution))


def _display(value: float, base: str) -> float:
    return value / LN2 if base == "bits" else value


def _converged(result, tol: float) -> bool:
    """The bracket is within tol, and the upper bound as found (before it
    is raised to the lower bound) does not lie below the lower bound."""
    return result.gap <= tol and result.info["raw_upper"] >= result.lower_bound - 1e-12


# ---------------------------------------------------------------------------
# commands

def cmd_capacity(args) -> int:
    _apply_config_file(args)
    if not args.channel:
        raise ConfigError("no channel given (flag --channel or config key)")
    channel = _channel_from_arg(args.channel)
    constraint = _constraint_from_arg(args.constraint)
    opts = _opts_from_args(args)
    result = chi_capacity(channel, constraint, opts)
    payload = {
        "value": _display(result.value, args.base),
        "lower_bound": _display(result.lower_bound, args.base),
        "upper_bound": _display(result.upper_bound, args.base),
        "gap": _display(result.gap, args.base),
        "base": args.base,
        "witness": ensemble_to_dict(result.witness),
        "omega": _complex_to_json(result.omega.mat),
        "iterations": result.iterations,
        "heuristic_upper": result.heuristic_upper,
        "seed": args.seed,
        "tol": args.tol,
        "wall_time_s": result.wall_time_s if args.timing else None,
    }
    _write_json(payload, args.out)
    return 0 if _converged(result, args.tol) else 2


def cmd_chi(args) -> int:
    _apply_config_file(args)
    if not args.channel or not args.state:
        raise ConfigError("chi needs --channel and --state (or config keys)")
    channel = _channel_from_arg(args.channel)
    rho = _state_from_arg(args.state)
    opts = _opts_from_args(args)
    value = chi_function(channel, rho, opts)
    _write_json({"chi": _display(value, args.base), "base": args.base,
                 "seed": args.seed}, args.out)
    return 0


def cmd_hhat(args) -> int:
    _apply_config_file(args)
    if not args.channel or not args.state:
        raise ConfigError("hhat needs --channel and --state (or config keys)")
    channel = _channel_from_arg(args.channel)
    rho = _state_from_arg(args.state)
    opts = _opts_from_args(args)
    value = convex_closure_output_entropy(channel, rho, opts)
    _write_json({"hhat": _display(value, args.base), "base": args.base,
                 "seed": args.seed}, args.out)
    return 0


def cmd_additivity(args) -> int:
    _apply_config_file(args)
    instances = []
    if getattr(args, "instances", None):
        data = args.instances if isinstance(args.instances, list) \
            else json.loads(args.instances)
        for item in data:
            instances.append((json.dumps(item["left"]), json.dumps(item["right"]),
                              json.dumps(item["constraint_left"]) if "constraint_left" in item else None,
                              json.dumps(item["constraint_right"]) if "constraint_right" in item else None,
                              item.get("label", "instance")))
    else:
        if not args.left or not args.right:
            raise ConfigError("additivity needs --left and --right (or config instances)")
        instances.append((args.left, args.right, args.constraint_left,
                          args.constraint_right, args.label))

    opts = _opts_from_args(args)
    rows, reports = [], []
    for left_arg, right_arg, ca_arg, cb_arg, label in instances:
        left = _channel_from_arg(left_arg)
        right = _channel_from_arg(right_arg)
        ca = _constraint_from_arg(ca_arg)
        cb = _constraint_from_arg(cb_arg)
        report = addmod.additivity_report(left, ca, right, cb, opts, label=label)
        row = addmod.report_row(report, left_arg, right_arg, ca_arg or "unconstrained")
        if not args.timing:
            row["runtime_s"] = ""
        rows.append(row)
        reports.append(report)

    if args.format == "csv":
        _write_csv(addmod.REPORT_COLUMNS, rows, args.out or "additivity.csv")
    else:
        _write_json({"rows": [{k: r[k] for k in addmod.REPORT_COLUMNS}
                              for r in rows]}, args.out)
    converged = all(_converged(res, args.tol)
                    for rep in reports for res in (rep.lhs, rep.rhs_left, rep.rhs_right))
    return 0 if converged else 2


def cmd_discontinuity(args) -> int:
    if args.c_target <= 0:
        raise ConfigError("C target must be positive")
    try:
        n_list = [int(x) for x in args.n_list.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad n list: {exc}") from exc
    opts = _opts_from_args(args)
    rows = []
    for n in n_list:
        q = args.c_target / math.log(n + 1)
        if not 0.0 < q < 1.0:
            raise ConfigError(
                f"n={n} gives q={q:.4g} outside (0,1); pick a larger n or smaller C")
        big_n = max(n + 1, args.input_dim or 0)
        spec = ClassicalChannelSpec(n=n, q=q, N=big_n)
        channel = example2_channel(spec)
        limit = example2_limit(big_n, d_out=channel.d_out)
        norm_est = 0.0
        for k in range(big_n):
            e = np.zeros((big_n, big_n), dtype=complex)
            e[k, k] = 1.0
            norm_est = max(norm_est, trace_norm(channel.apply_raw(e)
                                                - limit.apply_raw(e)))
        result = chi_capacity(channel, UNCONSTRAINED, opts)
        rows.append({
            "n": n,
            "q": f"{q:.12g}",
            "norm_distance": f"{norm_est:.12g}",
            "capacity": f"{result.value:.12g}",
            "gap": f"{result.gap:.12g}",
        })
    _write_csv(["n", "q", "norm_distance", "capacity", "gap"], rows, args.out)
    return 0


def cmd_verify(args) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        if name not in SUITES:
            raise ConfigError(f"unknown suite {name!r}; known: {sorted(SUITES)} or 'all'")
    results = [run_suite(name, cases=args.cases, seed=args.seed) for name in names]
    payload = {"suites": [r.as_dict() for r in results],
               "seed": args.seed,
               "pass": all(r.ok for r in results)}
    _write_json(payload, args.out)
    return 0 if payload["pass"] else 2


# ---------------------------------------------------------------------------

def _add_common(p, resolution_default=4096):
    p.add_argument("--config", default=None,
                   help="JSON file supplying any of this command's options")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-iter", dest="max_iter", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--resolution", type=int, default=resolution_default,
                   help="grid size for qubit inner maximizations")
    p.add_argument("--out", default=None)
    p.add_argument("--base", choices=["nats", "bits"], default="nats",
                   help="display base for entropic values (storage is nats)")
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock fields (breaks byte stability)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holevo-lab",
        description="Constrained Holevo chi-capacity with certified bounds")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capacity", help="chi-capacity of a constrained channel")
    p.add_argument("--channel", default=None,
                   help="inline JSON constructor config or @file with Kraus schema")
    p.add_argument("--constraint", default=None)
    _add_common(p)
    p.set_defaults(fn=cmd_capacity)

    p = sub.add_parser("chi", help="chi-function at a fixed input state")
    p.add_argument("--channel", default=None)
    p.add_argument("--state", default=None)
    _add_common(p)
    p.set_defaults(fn=cmd_chi)

    p = sub.add_parser("hhat", help="convex closure of the output entropy")
    p.add_argument("--channel", default=None)
    p.add_argument("--state", default=None)
    _add_common(p)
    p.set_defaults(fn=cmd_hhat)

    p = sub.add_parser("additivity", help="joint vs single-channel capacities")
    p.add_argument("--left", default=None)
    p.add_argument("--right", default=None)
    p.add_argument("--instances", default=None,
                   help="JSON list of instances (usually via --config)")
    p.add_argument("--constraint-left", dest="constraint_left", default=None)
    p.add_argument("--constraint-right", dest="constraint_right", default=None)
    p.add_argument("--label", default="instance")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_common(p, resolution_default=2048)
    p.set_defaults(fn=cmd_additivity)

    p = sub.add_parser("discontinuity",
                       help="capacity stays near C while the channel family "
                            "collapses to the constant channel in norm")
    p.add_argument("--c-target", dest="c_target", type=float, default=0.3)
    p.add_argument("--n-list", dest="n_list", default="1,3,7,15,31")
    p.add_argument("--input-dim", dest="input_dim", type=int, default=None,
                   help="input truncation dimension (default n+1 per row)")
    _add_common(p, resolution_default=2048)
    p.set_defaults(fn=cmd_discontinuity)

    p = sub.add_parser("verify", help="run a residual suite")
    p.add_argument("suite", help=f"one of {sorted(SUITES)} or 'all'")
    p.add_argument("--cases", type=int, default=None)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 1
    except (np.linalg.LinAlgError, RuntimeError) as exc:
        # LinAlgError subclasses ValueError, so it is caught first
        sys.stderr.write(f"numerical error: {exc}\n")
        return 2
    except (ValueError, KeyError, OSError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
