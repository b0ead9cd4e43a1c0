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
import marshal
import math
import os
import sys
import time

from . import _DEFERRED, __version__
from .classify import classify
from .errors import AdmissibilityError
from .instance import KINDS, ProblemInstance
from .ishii_lions import il_parameter_window
from .params import INSTANCE_KEYS, KEYS, ParamError, expand_instances, parse_params, radial_settings
from .report import ConditionTable, Report, atomic_write_text, encode_rows, worker_count
from .selection import select_b_product, sum_selection
from .trinomial import (MAX_ORACLE_POINTS, MIN_ORACLE_POINTS, TrinomialCoeffs, oracle_curve,
                        product_trinomial, verify_negativity)

DEFAULT_ORACLE_POINTS = 2048
# Instances per row worker at least, a fork's break-even (2 cores: 1,000
# instances took 9.3 ms in one process, 9.1 ms in two; 2,000 17.6 and 14.3 ms).
MIN_CHUNK = 1000
# Rows per encoded piece: the parent encodes and drops a grid's rows, and
# a row worker sends them, this many at a time.  A 96,000-instance sweep's
# parent peaked at 65.8, 66.4, 69.2 and 73.6 MB with 100, 250, 1,000 and
# 4,000 rows a piece, in times within the run-to-run spread.
PIECE_ROWS = 250
# Size limits: the largest accepted run peaks near 200 MB RSS (oracle about 16 B
# a point, identities about 80 B a fine node, most of it the whole-grid Bochner check).
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
            with open(args.params, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise CliError(f"cannot read parameter file: {exc}") from None
        return parse_params(text)
    return {}


def _merged_params(args, params: dict[str, list[str]], keys=INSTANCE_KEYS) -> dict[str, list[str]]:
    """The parameter-file map with each inline flag's token as its key's value.

    `keys` are the keys the command reads.  A flag gives one raw token,
    which params.py reads by the file's rules, and a file key outside
    `keys` is refused, as its flag would be.
    """
    for key in params:
        if key not in keys:
            raise ParamError(key, f"not read by {args.command}, which reads {', '.join(keys)}")
    merged = dict(params)
    for key in keys:
        token = getattr(args, key, None)
        if token is not None:
            merged[key] = [token]
    if not merged:
        raise CliError("no instance parameters given (use --params or inline flags)")
    return merged


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
            number = float(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{key}: not a number: {value!r}") from None
        if not (math.isfinite(number) and number > 0.0):
            raise argparse.ArgumentTypeError(f"{key}: must be finite and positive, got {value!r}")
        return number

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


def _send(row, chunk, pipe) -> None:
    """Build `chunk`'s rows on a table of their own, then write them to `pipe` in pieces.

    A piece is the marshal of (the next PIECE_ROWS rows, the table
    entries those rows filed first) after its length in 8 bytes, so that
    the reader numbers each piece's conditions as it arrives.
    """
    table, built = ConditionTable(), []
    for lo in range(0, len(chunk), PIECE_ROWS):
        built.append(([row(inst, table) for inst in chunk[lo:lo + PIECE_ROWS]], len(table.entries)))
    sent = 0
    for rows, upto in built:
        data = marshal.dumps((rows, table.entries[sent:upto]))
        pipe.write(len(data).to_bytes(8, "little"))
        pipe.write(data)
        sent = upto


def _fork(row, chunk, read_ends) -> tuple[int, int] | None:
    """(pid, read end) of a child that `_send`s chunk's rows down a pipe, or None."""
    fds = ()
    try:
        fds = r, w = os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    if pid == 0:
        code = 1
        try:
            for fd in (r, *read_ends):  # so that the parent's close reaches each writer
                os.close(fd)
            with open(w, "wb") as pipe:
                _send(row, chunk, pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, r


def _receive(child: tuple[int, int], lo: int, hi: int, table: ConditionTable, encode):
    """The encoded pieces of rows lo..hi from a forked child, or None when it failed;
    closes its pipe and reaps it.

    Each piece's entries are numbered in `table` as it arrives, and its
    rows' conditions renumbered to them, before its rows are encoded.
    The child fails at its exit code or at any piece: a short read or bad data.
    """
    pid, fd = child
    pieces, index = [], []
    try:
        with open(fd, "rb") as pipe:
            for start in range(lo, hi, PIECE_ROWS):
                size = int.from_bytes(pipe.read(8), "little")
                data = pipe.read(size)
                if not size or len(data) < size:
                    raise EOFError("short read")
                rows, entries = marshal.loads(data)
                if len(rows) != min(PIECE_ROWS, hi - start):
                    raise ValueError("wrong row count")
                index += table.merge(entries)
                if index:
                    for filed in rows:
                        filed["conditions"] = [index[i] for i in filed["conditions"]]
                pieces.append(encode(rows, start))
    except (EOFError, TypeError, ValueError):
        pieces = None
    finally:
        failed = os.waitpid(pid, 0)[1]
    return None if failed else pieces


def _grid_rows(instances, row, table: ConditionTable, encode) -> tuple[list[str], int]:
    """The encoded pieces of row(inst, table) of each instance, and how many processes built them.

    encode(rows, start) gives the piece of up to PIECE_ROWS rows, the first
    of them row `start`.  k contiguous chunks: one per CPU this process may
    run on and MIN_CHUNK instances, one alone without os.fork or with
    another thread running (an idle grid-kernel pool is retired first).
    Forked children build chunks 2..k on tables of their own and stream
    them back (`_send`); the parent builds and encodes chunk 1 a piece at a
    time, then each child's pieces in order, numbering the conditions of
    rows that file them as the serial loop does.  It drops the pieces of a
    chunk whose fork or child fails and builds that chunk itself: the
    entries merged from the child's earlier pieces are a prefix of those
    the rebuild files, in the same order.  Every child is reaped before
    this returns or raises, so pieces, table and any exception are the
    serial loop's.
    """

    def build(lo, hi):
        for start in range(lo, hi, PIECE_ROWS):
            stop = min(start + PIECE_ROWS, hi)
            pieces.append(encode([row(inst, table) for inst in instances[start:stop]], start))

    k = max(1, min(worker_count(), len(instances) // MIN_CHUNK))
    if k > 1:
        import threading  # loaded already wherever a thread runs

        operators = sys.modules.get(f"{__package__}.operators")  # not imported here: it loads numpy
        if operators is not None:
            operators.retire_idle_pool()
        k = k if hasattr(os, "fork") and threading.active_count() == 1 else 1
    bounds = [len(instances) * i // k for i in range(k + 1)]
    spans = list(zip(bounds, bounds[1:]))
    pieces, children = [], []
    try:
        for lo, hi in spans[1:]:
            children.append(_fork(row, instances[lo:hi], [child[1] for child in children if child]))
        build(*spans[0])
        workers = 1
        for n, (lo, hi) in enumerate(spans[1:]):
            child, children[n] = children[n], None
            received = child and _receive(child, lo, hi, table, encode)
            if received is None:
                build(lo, hi)
            else:
                pieces += received
                workers += 1
        return pieces, workers
    finally:
        for pid, fd in filter(None, children):
            os.close(fd)
            os.waitpid(pid, 0)


def _grid_fields(instances, row, encode, started: float) -> dict:
    """A grid command's report fields: `_grid_rows` pieces, condition table and timing.

    The timing's expand_s runs from `started` to this call, rows_s over
    building and encoding the rows.
    """
    expanded = time.perf_counter()
    table = ConditionTable()
    results, workers = _grid_rows(instances, row, table, encode)
    stages = {"expand_s": expanded - started, "rows_s": time.perf_counter() - expanded,
              "workers": workers}
    return {"results": results, "conditions": table.entries, "timing": stages}


def _json_rows(rows, _start) -> str:
    """The grid commands' JSON encoder: rows store no index."""
    return encode_rows(rows)


# Each handler returns its Report fields (results, encoded in pieces; for classify, sweep
# and search-b the condition table as "conditions", empty for search-b and
# CSV rows, and as "timing" the times of their stages and the number of
# processes that built their rows; for verify-identities "timing" with the
# seconds in each kind of check and "workers", the size of the grid
# kernels' thread pool), the config_echo entries only it knows, and the
# exit code; _report times the call and builds the report.  With --format
# csv the pieces are the table's lines, header first.


def _cmd_classify(args, params):
    merged = _merged_params(args, params)
    optimal = args.optimal_search
    started = time.perf_counter()
    instances = expand_instances(merged)
    if args.format == "csv":
        def row(inst, _):
            d = classify(inst, optimal_search=optimal)
            return [*(getattr(inst, k) for k in INSTANCE_KEYS), d.theorem, d.liouville, d.estimate_exponent]

        def encode(lines, start):
            return _csv_table([start + i, *line] for i, line in enumerate(lines))
    else:
        # The rows store no instance: row i is instance i of the echoed map's expansion.
        def row(inst, table):
            return classify(inst, optimal_search=optimal).as_dict(table)

        encode = _json_rows
    fields = _grid_fields(instances, row, encode, started)
    if args.format == "csv":
        header = ["index", *INSTANCE_KEYS, "theorem", "liouville", "estimate_exponent"]
        fields["results"].insert(0, _csv_table([header]))
    return fields, {"params": merged}, 0


def _cmd_search_b(args, params):
    merged = _merged_params(args, params)
    started = time.perf_counter()
    instances = expand_instances(merged)
    if any(inst.kind == "hamilton_jacobi" for inst in instances):
        raise CliError("search-b selects b only for product and sum instances")
    fields = _grid_fields(instances, lambda inst, _: _search_one(inst, args.oracle_points),
                          _json_rows, started)
    # The rows store their instance: the map is echoed only when a file gave one.
    extra = {"oracle_points": args.oracle_points, "params": merged if params else {}}
    return fields, extra, 0


def _cmd_il_window(args, params):
    window = il_parameter_window(args.q, args.m)
    results = [{"q": args.q, "m": args.m, "window": window.as_dict()}]
    return {"results": [encode_rows(results)]}, {"q": args.q, "m": args.m}, 0


def _identity_suite(resolution: int, factor: float) -> tuple[list[dict], dict]:
    """The suite's rows, and the seconds spent in each kind of check."""
    _bind_heavy("fields", "identities")
    results = []
    stages = dict.fromkeys(("change_of_variable_s", "bochner_s", "scaling_s"), 0.0)

    def timed(stage, check, *args, **kwargs):
        started = time.perf_counter()
        rep = check(*args, **kwargs)
        stages[stage] += time.perf_counter() - started
        return rep

    n_coarse = resolution
    n_fine = 2 * (resolution - 1) + 1
    # One sample per field and resolution, and one batch of every (b, p, q)
    # per sample: each block of planes builds lap v and <grad z, grad v> once
    # for all the cases.
    v_coarse = CATALOG["offset_sine"].sample(n_coarse)
    v_fine = CATALOG["offset_sine"].sample(n_fine)
    bpq = [(b, p, q) for b in (0.5, 1.0, 2.0, 5.0) for p in (2.2, 3.0) for q in (1.5, 2.0)]
    coarse, fine = (
        timed("change_of_variable_s", change_of_variable_checks, v,
              [(*case, factor / (n - 1) ** 2) for case in bpq])
        for v, n in ((v_coarse, n_coarse), (v_fine, n_fine)))
    for (b, p, q), rep_h, rep_h2 in zip(bpq, coarse, fine):
        rep = rep_h2._replace(observed_order=refinement_order(rep_h, rep_h2))
        results.append(
            {
                "check": "change_of_variable",
                "params": {"b": b, "p": p, "q": q, "h": 1.0 / (n_fine - 1)},
                "report": rep.as_dict(),
            }
        )
    for name in ("saddle", "offset_sine", "sine_product"):
        v = v_fine if name == "offset_sine" else CATALOG[name].sample(n_fine)
        rep = timed("bochner_s", bochner_check, v, 2, tolerance=factor / (n_fine - 1) ** 2)
        results.append(
            {"check": "bochner", "params": {"field": name, "h": 1.0 / (n_fine - 1)}, "report": rep.as_dict()}
        )
    for fname, k, alpha, p in (("radial_square", 2.0, 1.0, 2.0), ("sine_x1", 0.5, 2.0, 3.0)):
        f = CATALOG[fname]
        rep = timed("scaling_s", scaling_check, f, k, alpha, p, n=n_coarse,
                    tolerance=factor * ((f.hi - f.lo) / (n_coarse - 1)) ** 2)
        results.append(
            {
                "check": "scaling",
                "params": {"field": fname, "k": k, "alpha": alpha, "p": p},
                "report": rep.as_dict(),
            }
        )
    return results, stages


def _cmd_verify_identities(args, params):
    results, stages = _identity_suite(args.resolution, args.identity_factor)
    fields = {"results": [encode_rows(results)], "timing": {**stages, "workers": worker_count()}}
    return fields, {"resolution": args.resolution}, 0


def _cmd_solve_radial(args, params):
    merged = _merged_params(args, params, KEYS)
    instances = expand_instances(merged)
    if len(instances) != 1:
        raise CliError("solve-radial expects exactly one instance")
    _bind_heavy("radial")
    inst = instances[0]
    settings = radial_settings(merged)
    for required in ("r0", "r1", "u0", "u1"):
        if required not in settings:
            raise CliError(f"solve-radial requires {required}")
    # Settings not given keep RadialProblem's defaults.
    renamed = {"u0": "u_at_r0", "u1": "u_at_r1"}
    prob = RadialProblem(inst=inst, **{renamed.get(k, k): v for k, v in settings.items()})
    sol = solve_radial(prob, tol=args.newton_tol)
    code = 0 if sol.converged else 3
    if args.format == "csv":
        rows = zip(sol.r.tolist(), sol.u.tolist(), [*sol.du.tolist(), ""])
        return {"results": [_csv_table([["r", "u", "du_face"], *rows])]}, {}, code
    radial = {k: settings[k] for k in sorted(settings)}
    # No r or du: readers rebuild both from r0, r1 and u (RadialSolution.from_row).
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
    # As in search-b, the map is echoed only when a file gave one.
    extra = {"radial": radial, "params": merged if params else {}}
    return {"results": [encode_rows([row])]}, extra, code


def _plot_rows(results: list, selector: str) -> list:
    """CSV rows, header first, of an array rebuilt from the first report row that stores its inputs.

    Reports store no derived arrays: the gradient profile comes from a
    solve-radial row's r0, r1 and u, the oracle curve from a search-b row's
    trinomial, t_max and grid_points, through the code that made them.
    Every schema writes these keys alike, so rows are read as written.
    """
    if selector == "gradient_profile":
        for row in results:
            if "radial" in row:
                _bind_heavy("radial")
                sol = RadialSolution.from_row(row)
                return [["# d", "abs_du"], *gradient_vs_distance(sol).tolist()]
        raise CliError("report contains no radial solution")
    if selector == "trinomial":
        for row in results:
            oracle = row.get("oracle")
            if oracle:
                coeffs = TrinomialCoeffs(**row["trinomial"])
                t, values = oracle_curve(coeffs, oracle["t_max"], oracle["grid_points"])
                return [["# t", "value"], *zip(t.tolist(), values.tolist())]
        raise CliError("report contains no trinomial oracle")
    raise CliError(f"unknown selector {selector!r}")


def _cmd_plot_data(args) -> str:
    try:
        with open(args.report, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or not UTF-8
        raise CliError(f"cannot read report: {exc}") from None
    if not isinstance(report, dict):
        raise CliError(f"malformed report: top level is {type(report).__name__}, not an object")
    try:
        rows = _plot_rows(report["results"], args.selector)
    except AdmissibilityError:  # a row that cannot be plotted, such as an unconverged solve
        raise
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
        raise CliError(f"malformed report: {exc!r}") from None
    return _csv_table(rows)


def _csv_table(rows) -> str:
    """CSV lines of `rows`, floats as their repr: every CSV the CLI writes, in pieces."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


# Option groups: (flag, add_argument keywords) pairs.
# The instance and radial flags keep their raw token for params.py to read.
_INSTANCE = (("--kind", dict(metavar="{" + ",".join(KINDS) + "}")),
             *((f"--{key}", {}) for key in INSTANCE_KEYS[1:]))
_PARAMS_HELP = "parameter file (flat key = value, grids allowed)"
_PARAMS = (("--params", dict(help=_PARAMS_HELP)),)
_GRID = (("--params", dict(required=True, help=_PARAMS_HELP)),)
_OUT = (("--out", dict(help="output path (stdout when omitted)")),)
_TIMING = (("--timing", dict(action="store_true", help="add the wall-clock timing section")),)
_FORMAT = (("--format", dict(choices=("json", "csv"), default="json")),)
_OPTIMAL = (("--optimal-search", dict(action="store_true", dest="optimal_search",
                                      help="numeric feasibility region for the convex case")),)
_RADIAL = (*((f"--{key}", {}) for key in ("r0", "r1", "u0", "u1")),
           ("--mesh-n", dict(dest="mesh_n")), ("--reg-eps", dict(dest="reg_eps")),
           ("--fit", dict(action="store_true", help="fit the near-boundary gradient rate")))

# command -> (handler, option groups); build_parser and _report both read it.
COMMANDS = {
    "classify": (_cmd_classify, (_PARAMS, _INSTANCE, _OUT, _FORMAT, _OPTIMAL, _TIMING)),
    "search-b": (_cmd_search_b, (_PARAMS, _INSTANCE, _OUT, _TIMING, (
        ("--oracle-points", dict(type=_int_between(MIN_ORACLE_POINTS, MAX_ORACLE_POINTS),
                                 default=DEFAULT_ORACLE_POINTS)),))),
    "il-window": (_cmd_il_window, (_OUT, _TIMING, (
        ("--q", dict(type=float, required=True)), ("--m", dict(type=float, required=True))))),
    "verify-identities": (_cmd_verify_identities, (_OUT, _tol("identity_factor"), _TIMING, (
        ("--resolution", dict(type=_int_between(5, MAX_RESOLUTION), default=65,
                              help="coarse nodes per axis")),))),
    "solve-radial": (_cmd_solve_radial, (_PARAMS, _INSTANCE, _RADIAL, _OUT, _FORMAT,
                                         _tol("newton_tol"), _TIMING)),
    "sweep": (_cmd_classify, (_GRID, _OUT, _FORMAT, _OPTIMAL, _TIMING)),
    "plot-data": (_cmd_plot_data, (_OUT, (("--report", dict(required=True)),
                                          ("--selector", dict(required=True))))),
}


# Flags that take a value; main joins each with a next token such as -1e3.
_VALUE_FLAGS = frozenset(flag for _, groups in COMMANDS.values() for group in groups
                         for flag, kwargs in group if "action" not in kwargs)


def _joined_values(argv: list[str]) -> list[str]:
    """argv with each value flag joined to a next token that starts with
    one `-` (`--u0 -1e3` -> `--u0=-1e3`).  argparse takes only plain
    decimals such as -4096 for such a value; joined, `-1e3` or `-inf`
    reaches its reader as a file line does."""
    out = []
    for token in argv:
        if out and out[-1] in _VALUE_FLAGS and token[:1] == "-" and token[:2] != "--":
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


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
    timing = [{**fields.pop("timing", {}), "total_s": time.perf_counter() - started}]
    # A command that expands instances returns the map to echo, the file
    # with the inline flags laid over it, as extra["params"].
    echo = _config_echo(args, extra.pop("params", {}), extra)
    return Report(__version__, echo, timing=timing, **fields), code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_joined_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.out and os.path.isdir(args.out):
            raise CliError(f"--out: names a directory, not a file: {args.out!r}")
        if args.out and not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
            raise CliError(f"--out: no such directory: {os.path.dirname(args.out)!r}")
        if args.command == "plot-data":
            pieces, code = [_cmd_plot_data(args)], 0
        else:
            csv_format = getattr(args, "format", "json") == "csv"
            if csv_format and args.timing:
                raise CliError("--timing needs --format json: a CSV table has no timing section")
            if csv_format and getattr(args, "fit", False):
                raise CliError("--fit needs --format json: a CSV table has no fit section")
            report, code = _report(args)
            pieces = report.results if csv_format else report.to_json(include_timing=args.timing)
    except (CliError, ParamError, AdmissibilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        atomic_write_text(args.out, pieces)
    else:
        sys.stdout.writelines(pieces)
    return code


if __name__ == "__main__":
    sys.exit(main())
