"""Command-line surface: classification, selection, identity and solver runs.

Exit codes: 0 = ran (including "no theorem applies"), 2 = usage or
configuration error, 3 = internal numerical failure (Newton stall
without fallback).
"""

from __future__ import annotations

import argparse
import csv
import importlib
import io
import json
import sys
import time

from . import __version__
from .classify import classify
from .errors import AdmissibilityError
from .instance import ProblemInstance
from .ishii_lions import il_parameter_window
from .params import ParamError, expand_instances, parse_params, radial_settings
from .report import Report, atomic_write_text
from .selection import select_b_product, sum_selection
from .trinomial import product_trinomial, verify_negativity

DEFAULT_ORACLE_POINTS = 2048
TOLERANCE_DEFAULTS = {"identity_factor": 25.0, "newton_tol": 1e-10}

# Names the solve-radial and verify-identities handlers use from the
# numpy/scipy-backed modules.  They are bound into this module's globals on
# first use, so the other commands import neither library.  A name already
# bound (a tracing wrapper, a test monkeypatch) is kept and gets the call.
_HEAVY = {
    "fields": ("CATALOG",),
    "identities": ("attach_order", "bochner_check", "change_of_variable_check",
                   "refinement_order", "scaling_check"),
    "radial": ("RadialProblem", "default_fit_window", "fit_blowup_exponent",
               "gradient_vs_distance", "solve_radial"),
}


def _bind_heavy(*modules: str) -> None:
    for module_name in modules:
        module = importlib.import_module(f"{__package__}.{module_name}")
        for name in _HEAVY[module_name]:
            globals().setdefault(name, getattr(module, name))


def __getattr__(name: str):
    for module_name, names in _HEAVY.items():
        if name in names:
            _bind_heavy(module_name)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _parse_tolerances(pairs: list[str]) -> dict:
    out = dict(TOLERANCE_DEFAULTS)
    for pair in pairs or []:
        name, _, value = pair.partition("=")
        if name not in out:
            raise CliError(f"unknown tolerance {name!r}")
        try:
            out[name] = float(value)
        except ValueError:
            raise CliError(f"tolerance {name!r}: not a number: {value!r}") from None
    return out


def _load_params(args) -> dict[str, list[str]]:
    if args.params:
        try:
            with open(args.params) as fh:
                text = fh.read()
        except OSError as exc:
            raise CliError(f"cannot read parameter file: {exc}") from None
        return parse_params(text)
    return {}


def _instances(args, params: dict[str, list[str]]) -> list[ProblemInstance]:
    """Expand the parameter-file map, with inline flags overriding its keys."""
    merged = dict(params)
    for key in ("kind", "N", "p", "q", "s", "m", "M"):
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = [str(value)]
    if not merged:
        raise CliError("no instance parameters given (use --params or inline flags)")
    return expand_instances(merged)


def _instance_args(sub):
    sub.add_argument("--kind", choices=("hamilton_jacobi", "product", "sum"))
    sub.add_argument("--N", type=int)
    sub.add_argument("--p", type=float)
    sub.add_argument("--q", type=float)
    sub.add_argument("--s", type=float)
    sub.add_argument("--m", type=float)
    sub.add_argument("--M", type=float)


def _int_at_least(minimum: int):
    """argparse type: an integer no smaller than minimum."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def _common_args(sub):
    sub.add_argument("--params", help="parameter file (flat key = value, grids allowed)")
    sub.add_argument("--out", help="output path (stdout when omitted)")
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--optimal-search", action="store_true", dest="optimal_search")
    sub.add_argument("--tol", action="append", metavar="name=value")
    sub.add_argument("--timing", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pqliouville", description=__doc__)
    parser.add_argument("--version", action="version", version=f"pqliouville {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    for name in ("classify", "search-b"):
        sub = subs.add_parser(name)
        _common_args(sub)
        _instance_args(sub)
        if name == "search-b":
            sub.add_argument("--oracle-points", type=_int_at_least(1000),
                             default=DEFAULT_ORACLE_POINTS)

    sub = subs.add_parser("il-window")
    _common_args(sub)
    sub.add_argument("--q", type=float, required=True)
    sub.add_argument("--m", type=float, required=True)
    sub.add_argument("--gamma-samples", type=_int_at_least(1), default=9)

    sub = subs.add_parser("verify-identities")
    _common_args(sub)
    sub.add_argument("--resolution", type=_int_at_least(5), default=65,
                     help="coarse nodes per axis")

    sub = subs.add_parser("solve-radial")
    _common_args(sub)
    _instance_args(sub)
    sub.add_argument("--r0", type=float)
    sub.add_argument("--r1", type=float)
    sub.add_argument("--u0", type=float)
    sub.add_argument("--u1", type=float)
    sub.add_argument("--mesh-n", type=int, dest="mesh_n")
    sub.add_argument("--reg-eps", type=float, dest="reg_eps")
    sub.add_argument("--fit", action="store_true", help="fit the near-boundary gradient rate")

    sub = subs.add_parser("sweep")
    _common_args(sub)
    sub.add_argument("--task", choices=("classify", "search-b"), default="classify")

    sub = subs.add_parser("plot-data")
    sub.add_argument("--report", required=True)
    sub.add_argument("--selector", required=True)
    sub.add_argument("--out")
    return parser


def _config_echo(args, params: dict[str, list[str]], extra: dict | None = None) -> dict:
    echo = {
        "command": args.command,
        "seed": getattr(args, "seed", 0),
        "format": getattr(args, "format", "json"),
        "optimal_search": getattr(args, "optimal_search", False),
        "tolerances": _parse_tolerances(getattr(args, "tol", None)),
    }
    if params:
        echo["params"] = {k: list(v) for k, v in sorted(params.items())}
    if extra:
        echo.update(extra)
    return echo


def _search_one(inst: ProblemInstance, oracle_points: int | None) -> dict:
    """Selection row; product rows add the trinomial and its grid oracle.

    oracle_points None gives the selection alone (sweep rows).  With
    m+s-q+1 <= 0 there is no trinomial: selection reports infeasible and
    the row stops there.
    """
    selection = select_b_product(inst) if inst.kind == "product" else sum_selection(inst)
    row = {"instance": inst.as_dict(), "selection": selection.as_dict()}
    if oracle_points is not None and inst.kind == "product" and inst.combined_exponent > 0.0:
        import numpy as np

        coeffs = product_trinomial(inst, 0.0)
        row["trinomial"] = coeffs.as_dict()
        t_ref = selection.t_star if selection.feasible else 1.0
        t_max = 2.0 * max(t_ref, 1.0)
        t_min, value_min = verify_negativity(coeffs, t_max, oracle_points)
        grid = np.linspace(0.0, t_max, oracle_points)
        row["oracle"] = {
            "t_max": t_max,
            "grid_points": oracle_points,
            "t_min": t_min,
            "value_min": value_min,
            "curve_t": grid.tolist(),
            "curve_value": coeffs.value(grid).tolist(),
        }
    return row


def _cmd_classify(args, params) -> tuple[Report, int]:
    instances = _instances(args, params)
    started = time.perf_counter()
    results = [classify(inst, optimal_search=args.optimal_search).as_dict() for inst in instances]
    timing = [{"total_s": time.perf_counter() - started}]
    return Report(__version__, _config_echo(args, params), results, timing), 0


def _cmd_search_b(args, params) -> tuple[Report, int]:
    instances = _instances(args, params)
    oracle_points = args.oracle_points
    started = time.perf_counter()
    results = [_search_one(inst, oracle_points) for inst in instances]
    timing = [{"total_s": time.perf_counter() - started}]
    echo = _config_echo(args, params, {"oracle_points": oracle_points})
    return Report(__version__, echo, results, timing), 0


def _cmd_il_window(args, params) -> tuple[Report, int]:
    window = il_parameter_window(args.q, args.m, gamma_samples=args.gamma_samples)
    results = [{"q": args.q, "m": args.m, "window": window.as_dict()}]
    echo = _config_echo(args, params, {"q": args.q, "m": args.m})
    return Report(__version__, echo, results), 0


def _identity_suite(resolution: int, factor: float) -> list[dict]:
    _bind_heavy("fields", "identities")
    results = []
    n_coarse = resolution
    n_fine = 2 * (resolution - 1) + 1
    # One sample per field and resolution: the checks on a field share
    # its cached derivatives (GridField.derivatives).
    v_coarse = CATALOG["offset_sine"].sample(n_coarse)
    v_fine = CATALOG["offset_sine"].sample(n_fine)
    for b in (0.5, 1.0, 2.0, 5.0):
        for p in (2.2, 3.0):
            for q in (1.5, 2.0):
                coarse = change_of_variable_check(
                    v_coarse, b, p, q, tolerance=factor / (n_coarse - 1) ** 2,
                )
                fine = change_of_variable_check(
                    v_fine, b, p, q, tolerance=factor / (n_fine - 1) ** 2,
                )
                fine = attach_order(fine, refinement_order(coarse, fine))
                results.append(
                    {
                        "check": "change_of_variable",
                        "params": {"b": b, "p": p, "q": q, "h": 1.0 / (n_fine - 1)},
                        "report": fine.as_dict(),
                    }
                )
    for name in ("saddle", "offset_sine", "sine_product"):
        v = v_fine if name == "offset_sine" else CATALOG[name].sample(n_fine)
        rep = bochner_check(v, 2, tolerance=factor / (n_fine - 1) ** 2)
        results.append(
            {"check": "bochner", "params": {"field": name, "h": 1.0 / (n_fine - 1)}, "report": rep.as_dict()}
        )
    for fname, k, alpha, p in (("radial_square", 2.0, 1.0, 2.0), ("sine_x1", 0.5, 2.0, 3.0)):
        f = CATALOG[fname]
        rep = scaling_check(f, k, alpha, p, n=n_coarse,
                            tolerance=factor * ((f.hi - f.lo) / (n_coarse - 1)) ** 2)
        results.append(
            {
                "check": "scaling",
                "params": {"field": fname, "k": k, "alpha": alpha, "p": p},
                "report": rep.as_dict(),
            }
        )
    return results


def _cmd_verify_identities(args, params) -> tuple[Report, int]:
    tolerances = _parse_tolerances(args.tol)
    started = time.perf_counter()
    results = _identity_suite(args.resolution, tolerances["identity_factor"])
    timing = [{"total_s": time.perf_counter() - started}]
    echo = _config_echo(args, params, {"resolution": args.resolution})
    return Report(__version__, echo, results, timing), 0


def _cmd_solve_radial(args, params) -> tuple[Report, int]:
    instances = _instances(args, params)
    if len(instances) != 1:
        raise CliError("solve-radial expects exactly one instance")
    _bind_heavy("radial")
    inst = instances[0]
    settings = radial_settings(params)
    for key, arg_key in (("r0", "r0"), ("r1", "r1"), ("u0", "u0"), ("u1", "u1"),
                         ("mesh_n", "mesh_n"), ("reg_eps", "reg_eps")):
        value = getattr(args, arg_key, None)
        if value is not None:
            settings[key] = value
    for required in ("r0", "r1", "u0", "u1"):
        if required not in settings:
            raise CliError(f"solve-radial requires {required}")
    tolerances = _parse_tolerances(args.tol)
    try:
        prob = RadialProblem(
            inst=inst,
            r0=settings["r0"],
            r1=settings["r1"],
            u_at_r0=settings["u0"],
            u_at_r1=settings["u1"],
            mesh_n=int(settings.get("mesh_n", 256)),
            reg_eps=settings.get("reg_eps", 1e-8),
            log_transform=bool(settings.get("log_transform", False)),
        )
    except AdmissibilityError as exc:
        raise CliError(str(exc)) from None
    started = time.perf_counter()
    sol = solve_radial(prob, tol=tolerances["newton_tol"])
    timing = [{"total_s": time.perf_counter() - started}]
    row = {
        "instance": inst.as_dict(),
        "radial": {k: settings.get(k) for k in sorted(settings)},
        "converged": sol.converged,
        "failure": sol.failure,
        "residual_norm": sol.residual_norm,
        "newton_iters": sol.newton_iters,
        "continuation_steps": sol.continuation_steps,
        "r": sol.r.tolist(),
        "u": sol.u.tolist(),
        "du": sol.du.tolist(),
    }
    code = 0
    if sol.converged:
        profile = gradient_vs_distance(sol)
        row["gradient_profile"] = profile.tolist()
        if args.fit:
            window = default_fit_window(sol)
            try:
                row["fit"] = fit_blowup_exponent(profile, window).as_dict()
            except AdmissibilityError as exc:
                row["fit"] = {"error": str(exc)}
    else:
        code = 3
    echo = _config_echo(args, params, {"radial": {k: settings.get(k) for k in sorted(settings)}})
    return Report(__version__, echo, [row], timing), code


def _cmd_sweep(args, params) -> tuple[Report, int]:
    instances = _instances(args, params)
    started = time.perf_counter()
    if args.task == "classify":
        results = [classify(inst, optimal_search=args.optimal_search).as_dict() for inst in instances]
    else:
        results = [_search_one(inst, None) for inst in instances]
    timing = [{"total_s": time.perf_counter() - started}]
    echo = _config_echo(args, params, {"task": args.task})
    return Report(__version__, echo, results, timing), 0


def _plot_rows(report: dict, selector: str) -> tuple[str, list]:
    results = report.get("results", [])
    if selector == "gradient_profile":
        for row in results:
            if "gradient_profile" in row:
                return "# d,abs_du", row["gradient_profile"]
        raise CliError("report contains no gradient profile")
    if selector == "trinomial":
        for row in results:
            oracle = row.get("oracle")
            if oracle and "curve_t" in oracle:
                return "# t,value", list(zip(oracle["curve_t"], oracle["curve_value"]))
        raise CliError("report contains no trinomial oracle curve")
    raise CliError(f"unknown selector {selector!r}")


def _cmd_plot_data(args) -> int:
    try:
        with open(args.report) as fh:
            report = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read report: {exc}") from None
    header, rows = _plot_rows(report, args.selector)
    buf = io.StringIO()
    buf.write(header + "\n")
    for row in rows:
        buf.write(",".join(repr(float(x)) for x in row) + "\n")
    if args.out:
        atomic_write_text(args.out, buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())
    return 0


def _csv_text(report: Report, command: str) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if command in ("classify", "sweep"):
        writer.writerow(
            ["index", "kind", "N", "p", "q", "s", "m", "M", "theorem", "liouville", "estimate_exponent"]
        )
        for i, row in enumerate(report.results):
            inst = row["instance"]
            writer.writerow(
                [
                    i,
                    inst["kind"],
                    inst["N"],
                    inst["p"],
                    inst["q"],
                    inst["s"],
                    inst["m"],
                    inst["M"],
                    row.get("theorem", ""),
                    row.get("liouville", ""),
                    row.get("estimate_exponent", ""),
                ]
            )
    elif command == "solve-radial":
        writer.writerow(["r", "u", "du_face"])
        row = report.results[0]
        du = row["du"]
        for i, (r, u) in enumerate(zip(row["r"], row["u"])):
            writer.writerow([r, u, du[i] if i < len(du) else ""])
    else:
        raise CliError("csv format is supported for classify, sweep and solve-radial")
    return buf.getvalue()


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "plot-data":
            return _cmd_plot_data(args)
        handler = {
            "classify": _cmd_classify,
            "search-b": _cmd_search_b,
            "il-window": _cmd_il_window,
            "verify-identities": _cmd_verify_identities,
            "solve-radial": _cmd_solve_radial,
            "sweep": _cmd_sweep,
        }[args.command]
        report, code = handler(args, _load_params(args))
        if args.format == "csv":
            text = _csv_text(report, args.command)
        else:
            text = report.to_json(include_timing=args.timing)
    except (CliError, ParamError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "code", 2)
    except AdmissibilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
