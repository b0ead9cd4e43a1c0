"""Command-line surface: classification, selection, identity and solver runs.

Exit codes: 0 = ran (including "no theorem applies"), 2 = usage or
configuration error, 3 = internal numerical failure (Newton stall
without fallback).
"""

from __future__ import annotations

import argparse
import csv
import functools
import importlib
import io
import json
import sys
import time

from . import _DEFERRED, __version__
from .classify import classify
from .errors import AdmissibilityError
from .instance import KINDS, ProblemInstance
from .ishii_lions import il_parameter_window
from .params import INSTANCE_KEYS, ParamError, expand_instances, parse_params, radial_settings
from .report import ConditionTemplates, Report, atomic_write_text, load
from .selection import select_b_product, sum_selection
from .trinomial import TrinomialCoeffs, oracle_curve, product_trinomial, verify_negativity

DEFAULT_ORACLE_POINTS = 2048
# Size limits: the largest accepted run peaks near 200 MB RSS (oracle about 16 B
# a point, il-window about 0.6 kB a sample, identities about 170 B a fine node).
MAX_ORACLE_POINTS = 10_000_000
MAX_GAMMA_SAMPLES = 100_000
MAX_RESOLUTION = 513
TOLERANCE_DEFAULTS = {"identity_factor": 25.0, "newton_tol": 1e-10}


def _bind_heavy(*modules: str) -> None:
    """Bind the deferred names of the numpy/scipy-backed modules into this module.

    Only solve-radial, verify-identities and plot-data need them, so the
    other commands import neither library.  A name already bound (a
    tracing wrapper, a test monkeypatch) is kept and gets the call.
    """
    for name, module_name in _DEFERRED.items():
        if module_name in modules:
            module = importlib.import_module(f"{__package__}.{module_name}")
            globals().setdefault(name, getattr(module, name))


def __getattr__(name: str):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind_heavy(_DEFERRED[name])
    return globals()[name]


class CliError(Exception):
    """A usage or configuration error (exit 2)."""


def _load_params(args) -> dict[str, list[str]]:
    if getattr(args, "params", None):
        try:
            with open(args.params) as fh:
                text = fh.read()
        except OSError as exc:
            raise CliError(f"cannot read parameter file: {exc}") from None
        return parse_params(text)
    return {}


def _merged_params(args, params: dict[str, list[str]]) -> dict[str, list[str]]:
    """The parameter-file map with the inline instance flags overriding its keys."""
    merged = dict(params)
    for key in INSTANCE_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = [str(value)]
    if not merged:
        raise CliError("no instance parameters given (use --params or inline flags)")
    return merged


def _instances(args, params: dict[str, list[str]]) -> list[ProblemInstance]:
    """Expand the parameter-file map, with inline flags overriding its keys."""
    return expand_instances(_merged_params(args, params))


def _int_between(minimum: int, maximum: int):
    """argparse type: an integer in [minimum, maximum]."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        if value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum:,}, got {value:,}")
        return value

    return parse


def _tolerance(key: str):
    """argparse type: `key=value` for the one tolerance a command reads."""

    def parse(text: str) -> float:
        name, _, value = text.partition("=")
        if name != key:
            raise argparse.ArgumentTypeError(f"unknown tolerance {name!r}; expected {key}")
        try:
            return float(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{key}: not a number: {value!r}") from None

    return parse


def _tol(key: str) -> tuple:
    """The --tol option group of a command that reads the tolerance `key`."""
    return (("--tol", dict(type=_tolerance(key), default=TOLERANCE_DEFAULTS[key], dest=key,
                           metavar=f"{key}=VALUE")),)


def _config_echo(args, params: dict[str, list[str]], extra: dict) -> dict:
    """The command, the values of its shared options, a parameter map and extra."""
    given = vars(args)
    echo = {"command": args.command}
    echo.update((key, given[key]) for key in ("format", "optimal_search") if key in given)
    tolerances = {key: given[key] for key in TOLERANCE_DEFAULTS if key in given}
    if tolerances:
        echo["tolerances"] = tolerances
    if params:
        echo["params"] = {k: list(v) for k, v in sorted(params.items())}
    echo.update(extra)
    return echo


def _search_one(inst: ProblemInstance, oracle_points: int) -> dict:
    """Selection row; product rows add the trinomial and its grid oracle.

    With m+s-q+1 <= 0 there is no trinomial: selection reports
    infeasible and the row stops there.
    """
    selection = select_b_product(inst) if inst.kind == "product" else sum_selection(inst)
    row = {"instance": inst.as_dict(), "selection": selection.as_dict()}
    if inst.kind == "product" and inst.combined_exponent > 0.0:
        coeffs = product_trinomial(inst, 0.0)
        row["trinomial"] = coeffs.as_dict()
        t_ref = selection.t_star if selection.feasible else 1.0
        t_max = 2.0 * max(t_ref, 1.0)
        t_min, value_min = verify_negativity(coeffs, t_max, oracle_points)
        row["oracle"] = {
            "t_max": t_max,
            "grid_points": oracle_points,
            "t_min": t_min,
            "value_min": value_min,
        }
    return row


# Each handler returns its Report fields (results, and for classify and
# sweep condition_templates), the config_echo entries only it knows, and
# the exit code; _report times the call and builds the report.


def _cmd_classify(args, params):
    # The rows store no instance: report.load rebuilds it from the echoed map.
    merged = _merged_params(args, params)
    templates = ConditionTemplates()
    results = [classify(inst, optimal_search=args.optimal_search).as_dict(templates)
               for inst in expand_instances(merged)]
    return {"results": results, "condition_templates": templates.table()}, {"params": merged}, 0


def _cmd_search_b(args, params):
    instances = _instances(args, params)
    if any(inst.kind == "hamilton_jacobi" for inst in instances):
        raise CliError("search-b selects b only for product and sum instances")
    results = [_search_one(inst, args.oracle_points) for inst in instances]
    return {"results": results}, {"oracle_points": args.oracle_points}, 0


def _cmd_il_window(args, params):
    window = il_parameter_window(args.q, args.m, gamma_samples=args.gamma_samples)
    results = [{"q": args.q, "m": args.m, "window": window.as_dict()}]
    return {"results": results}, {"q": args.q, "m": args.m, "gamma_samples": args.gamma_samples}, 0


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


def _cmd_verify_identities(args, params):
    results = _identity_suite(args.resolution, args.identity_factor)
    return {"results": results}, {"resolution": args.resolution}, 0


def _cmd_solve_radial(args, params):
    instances = _instances(args, params)
    if len(instances) != 1:
        raise CliError("solve-radial expects exactly one instance")
    _bind_heavy("radial")
    inst = instances[0]
    settings = radial_settings(params)
    for key in ("r0", "r1", "u0", "u1", "mesh_n", "reg_eps"):
        value = getattr(args, key)
        if value is not None:
            settings[key] = value
    for required in ("r0", "r1", "u0", "u1"):
        if required not in settings:
            raise CliError(f"solve-radial requires {required}")
    # Settings not given keep RadialProblem's defaults.
    renamed = {"u0": "u_at_r0", "u1": "u_at_r1"}
    prob = RadialProblem(inst=inst, **{renamed.get(k, k): v for k, v in settings.items()})
    sol = solve_radial(prob, tol=args.newton_tol)
    radial = {k: settings[k] for k in sorted(settings)}
    # No r or du: readers rebuild both from r0, r1 and u (_row_solution).
    row = {
        "instance": inst.as_dict(),
        "radial": radial,
        "converged": sol.converged,
        "failure": sol.failure,
        "residual_norm": sol.residual_norm,
        "newton_iters": sol.newton_iters,
        "continuation_steps": sol.continuation_steps,
        "u": sol.u.tolist(),
    }
    if sol.converged and args.fit:
        profile = gradient_vs_distance(sol)
        try:
            row["fit"] = fit_blowup_exponent(profile, default_fit_window(sol)).as_dict()
        except AdmissibilityError as exc:
            row["fit"] = {"error": str(exc)}
    return {"results": [row]}, {"radial": radial}, 0 if sol.converged else 3


def _row_solution(row: dict):
    """The RadialSolution of a loaded solve-radial row (see report.load)."""
    import numpy as np

    _bind_heavy("radial")
    return RadialSolution(
        r=np.array(row["r"]), u=np.array(row["u"]), residual_norm=row["residual_norm"],
        newton_iters=row["newton_iters"], continuation_steps=row["continuation_steps"],
        converged=row["converged"], failure=row["failure"],
    )


def _plot_rows(results: list, selector: str) -> tuple[str, list]:
    """Rebuild a plotted array from the first loaded result row that stores its inputs.

    Reports store no derived arrays: the gradient profile comes from a
    solve-radial row's mesh and u, the oracle curve from a search-b row's
    trinomial, t_max and grid_points, through the code that made them.
    """
    if selector == "gradient_profile":
        for row in results:
            if "radial" in row:
                sol = _row_solution(row)
                return "# d,abs_du", gradient_vs_distance(sol).tolist()
        raise CliError("report contains no radial solution")
    if selector == "trinomial":
        for row in results:
            oracle = row.get("oracle")
            if oracle:
                coeffs = TrinomialCoeffs(**row["trinomial"])
                t, values = oracle_curve(coeffs, oracle["t_max"], oracle["grid_points"])
                return "# t,value", list(zip(t.tolist(), values.tolist()))
        raise CliError("report contains no trinomial oracle")
    raise CliError(f"unknown selector {selector!r}")


def _cmd_plot_data(args) -> str:
    try:
        with open(args.report) as fh:
            report = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read report: {exc}") from None
    try:
        header, rows = _plot_rows(load(report)["results"], args.selector)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise CliError(f"malformed report: {exc!r}") from None
    return "".join([header + "\n", *(",".join(repr(float(x)) for x in row) + "\n" for row in rows)])


def _csv_text(report: dict) -> str:
    """The CSV table of a classify, sweep or solve-radial report, read through report.load."""
    results = load(report)["results"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if report["config_echo"]["command"] == "solve-radial":
        writer.writerow(["r", "u", "du_face"])
        row = results[0]
        du = row["du"]
        for i, (r, u) in enumerate(zip(row["r"], row["u"])):
            writer.writerow([r, u, du[i] if i < len(du) else ""])
        return buf.getvalue()
    writer.writerow(["index", *INSTANCE_KEYS, "theorem", "liouville", "estimate_exponent"])
    for i, row in enumerate(results):
        writer.writerow([i, *(row["instance"][k] for k in INSTANCE_KEYS),
                         row["theorem"], row["liouville"], row["estimate_exponent"]])
    return buf.getvalue()


# Option groups: (flag, add_argument keywords) pairs.
_INSTANCE = (("--kind", dict(choices=KINDS)), ("--N", dict(type=int)),
             *((f"--{key}", dict(type=float)) for key in ("p", "q", "s", "m", "M")))
_PARAMS_HELP = "parameter file (flat key = value, grids allowed)"
_PARAMS = (("--params", dict(help=_PARAMS_HELP)),)
_GRID = (("--params", dict(required=True, help=_PARAMS_HELP)),)
_OUT = (("--out", dict(help="output path (stdout when omitted)")),)
_TIMING = (("--timing", dict(action="store_true", help="add the wall-clock timing section")),)
_FORMAT = (("--format", dict(choices=("json", "csv"), default="json")),)
_OPTIMAL = (("--optimal-search", dict(action="store_true", dest="optimal_search",
                                      help="numeric feasibility region for the convex case")),)
_RADIAL = (*((f"--{key}", dict(type=float)) for key in ("r0", "r1", "u0", "u1")),
           ("--mesh-n", dict(type=int, dest="mesh_n")),
           ("--reg-eps", dict(type=float, dest="reg_eps")),
           ("--fit", dict(action="store_true", help="fit the near-boundary gradient rate")))

# command -> (handler, option groups); build_parser and _report both read it.
COMMANDS = {
    "classify": (_cmd_classify, (_PARAMS, _INSTANCE, _OUT, _FORMAT, _OPTIMAL, _TIMING)),
    "search-b": (_cmd_search_b, (_PARAMS, _INSTANCE, _OUT, _TIMING, (
        ("--oracle-points", dict(type=_int_between(1000, MAX_ORACLE_POINTS),
                                 default=DEFAULT_ORACLE_POINTS)),))),
    "il-window": (_cmd_il_window, (_OUT, _TIMING, (
        ("--q", dict(type=float, required=True)), ("--m", dict(type=float, required=True)),
        ("--gamma-samples", dict(type=_int_between(1, MAX_GAMMA_SAMPLES), default=9))))),
    "verify-identities": (_cmd_verify_identities, (_OUT, _tol("identity_factor"), _TIMING, (
        ("--resolution", dict(type=_int_between(5, MAX_RESOLUTION), default=65,
                              help="coarse nodes per axis")),))),
    "solve-radial": (_cmd_solve_radial, (_PARAMS, _INSTANCE, _RADIAL, _OUT, _FORMAT,
                                         _tol("newton_tol"), _TIMING)),
    "sweep": (_cmd_classify, (_GRID, _OUT, _FORMAT, _OPTIMAL, _TIMING)),
    "plot-data": (_cmd_plot_data, (_OUT, (("--report", dict(required=True)),
                                          ("--selector", dict(required=True))))),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    parse_args keeps no state between calls (each call fills a fresh
    namespace), so main can reuse it; building it costs milliseconds.
    """
    parser = argparse.ArgumentParser(prog="pqliouville", description=__doc__)
    parser.add_argument("--version", action="version", version=f"pqliouville {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, groups) in COMMANDS.items():
        sub = subs.add_parser(name)
        for group in groups:
            for flag, kwargs in group:
                sub.add_argument(flag, **kwargs)
    return parser


def _report(args) -> tuple[Report, int]:
    """Run a report command's handler under the timer; return its report and exit code."""
    handler, _ = COMMANDS[args.command]
    params = _load_params(args)
    started = time.perf_counter()
    fields, extra, code = handler(args, params)
    timing = [{"total_s": time.perf_counter() - started}]
    # classify and sweep echo the map they expanded: the file and the inline flags.
    echo = _config_echo(args, extra.pop("params", params), extra)
    return Report(__version__, echo, timing=timing, **fields), code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "plot-data":
            text, code = _cmd_plot_data(args), 0
        else:
            csv_format = getattr(args, "format", "json") == "csv"
            if csv_format and args.timing:
                raise CliError("--timing needs --format json: a CSV table has no timing section")
            report, code = _report(args)
            if csv_format:
                text = _csv_text(report.as_dict())
            else:
                text = report.to_json(include_timing=args.timing)
    except (CliError, ParamError, AdmissibilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
