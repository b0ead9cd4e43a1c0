import argparse
import hashlib
import json
import marshal
import math
import os
import stat
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import schema5_view, schema6_view

import pqliouville.cli as cli
import pqliouville.operators as operators
import pqliouville.params
from pqliouville.classify import classify
from pqliouville.cli import _load_params, _report, build_parser, main
from pqliouville.identities import DEFAULT_TOLERANCE_FACTOR
from pqliouville.instance import KINDS, MAX_FIELD, ProblemInstance
from pqliouville.params import (MAX_INSTANCES, ParamError, expand_instances, parse_params,
                                radial_settings)
from pqliouville.radial import (
    MAX_MESH_N,
    NEWTON_TOL,
    RadialProblem,
    RadialSolution,
    gradient_vs_distance,
    radial_mesh,
    solve_radial,
)
from pqliouville.report import ConditionTable, Report, encode_rows, worker_count
from pqliouville.trinomial import product_trinomial

PRODUCT_GRID = Path(__file__).resolve().parents[1] / "bench" / "inputs" / "product_grid.par"
TINY_GRID = str(PRODUCT_GRID.with_name("tiny_product_grid.par"))
# Below the stated convex-case window but numerically feasible, so
# --optimal-search changes its theorem.
PRODUCT = ["--kind", "product", "--N", "2", "--p", "2.61", "--q", "2.24", "--s", "0.06",
           "--m", "1.7"]
RADIAL_SUM = ["--kind", "sum", "--N", "3", "--p", "2.5", "--q", "2", "--s", "1.5", "--m", "1",
              "--M", "1", "--r0", "1", "--r1", "2", "--u0", "1", "--u1", "2", "--mesh-n", "64"]
HJ = ["--kind", "hamilton_jacobi", "--N", "2", "--p", "3", "--q", "2"]
RADIAL_HJ = ["solve-radial", *HJ, "--m", "2.5", "--r0", "1", "--mesh-n", "64"]
# The direct Hamilton-Jacobi solve with large boundary data (continuation).
RADIAL_HJ_4096 = [*HJ, "--m", "2.5", "--r0", "1", "--r1", "2", "--u0", "-4096", "--u1", "0",
                  "--mesh-n", "1024"]
PRODUCT_A = ["--kind", "product", "--N", "2", "--p", "2.2", "--q", "2", "--s", "0.5", "--m", "2.0"]
# A solve whose Newton iteration does not converge (exit 3).
FAILING_SOLVE = ["solve-radial", "--kind", "product", "--N", "2", "--p", "2", "--q", "2", "--s", "0.5",
                 "--m", "0", "--r0", "1", "--r1", "2", "--u0", "-1", "--u1", "-1", "--mesh-n", "64"]
# Q is 1 ulp below Q2: it routes to case 1, where L1 evaluates to 0.
PRODUCT_L1_ZERO = ["--kind", "product", "--N", "3", "--p", "2.159947555903314", "--q",
                   "2.159947555903314", "--s", "0.5175873612214492", "--m", "2.1889569358862833"]
PRODUCT_FILE = "kind = product\np = 2.2\nq = 2\ns = 0.5\nm = 2\n"
RADIAL_FILE = "kind = hamilton_jacobi\nN = 2\np = 3\nq = 2\nm = 2.5\nr0 = 1\nr1 = 2\nu0 = -64\nu1 = 0\n"
# Non-finite, non-integral, out-of-range and malformed inputs: (argv, parameter
# file text or None, the error line without its "error: ").
FINITE = "parameter 'instance': N, p, q, s, m and M must be finite"
# The keys classify, sweep and search-b read: a radial key in their file is refused.
READ_KEYS = "kind, N, p, q, s, m, M"
TOO_LARGE = f"N, p, q, s, m and M must be at most {MAX_FIELD:g}"
HUGE = f"parameter 'instance': {TOO_LARGE}"
HUGE_PRODUCT = ["--kind", "product", "--N", "2", "--p", "1e200", "--q", "1e200", "--s", "1",
                "--m", "1e200"]
REFUSED = {
    "s-nan": (["classify", "--kind", "product", "--N", "2", "--p", "2.2", "--q", "2",
               "--s", "nan", "--m", "2"], None, FINITE),
    "p-inf": (["classify", "--kind", "product", "--N", "2", "--p", "inf", "--q", "2",
               "--s", "0.5", "--m", "2"], None, FINITE),
    "hj-m-inf": (["classify", *HJ, "--m", "inf"], None, FINITE),
    "file-N-2.5": (["classify"], PRODUCT_FILE + "N = 2.5\n",
                   "parameter 'instance': N must be an integer >= 2"),
    "flag-N-2.5": (["classify", "--kind", "product", "--N", "2.5", "--p", "2.2", "--q", "2",
                    "--s", "0.5", "--m", "2"], None,
                   "parameter 'instance': N must be an integer >= 2"),
    "file-N-nan": (["classify"], PRODUCT_FILE + "N = nan\n", FINITE),
    "file-N-inf": (["sweep"], PRODUCT_FILE + "N = inf\n", FINITE),
    "file-N-missing": (["classify"], PRODUCT_FILE, "parameter 'N': missing"),
    "file-p-missing": (["classify"], PRODUCT_FILE.replace("p = 2.2\n", "N = 2\n"),
                       "parameter 'p': missing"),
    "file-q-missing": (["sweep"], PRODUCT_FILE.replace("q = 2\n", "N = 2\n"),
                       "parameter 'q': missing"),
    "file-no-equals": (["classify"], PRODUCT_FILE + "N 2\n",
                       "parameter 'line 6': expected key = value"),
    "file-empty-key": (["classify"], PRODUCT_FILE + " = 2\n", "parameter 'line 6': empty key"),
    "file-empty-value": (["classify"], PRODUCT_FILE + "N =\n", "parameter 'N': empty value"),
    "file-tied-to-absent-key": (["classify"], PRODUCT_FILE.replace("q = 2", "q = M") + "N = 2\n",
                                "parameter 'q': tied to unavailable key 'M'"),
    "file-mesh_n-100.7": (["solve-radial"], RADIAL_FILE + "mesh_n = 100.7\n",
                          "parameter 'mesh_n': not an integer: '100.7'"),
    "flag-mesh_n-100.7": (["solve-radial", *HJ, "--m", "2.5", "--r0", "1", "--r1", "2",
                           "--u0", "-64", "--u1", "0", "--mesh-n", "100.7"], None,
                          "parameter 'mesh_n': not an integer: '100.7'"),
    "file-mesh_n-grid": (["solve-radial"], RADIAL_FILE + "mesh_n = 64 128\n",
                         "parameter 'mesh_n': radial settings must be scalars"),
    "file-misspelled-key": (["solve-radial"], RADIAL_FILE + "mesh-n = 1024\n",
                            "parameter 'mesh-n': unknown key; known keys: kind, N, p, q, s, m, "
                            "M, r0, r1, u0, u1, mesh_n, reg_eps, log_transform"),
    "file-log_transform-on": (["solve-radial"], RADIAL_FILE + "log_transform = on\n",
                              "parameter 'log_transform': expected 1/true/yes or 0/false/no, "
                              "got 'on'"),
    "file-two-instances": (["solve-radial"], RADIAL_FILE.replace("p = 3", "p = 3 4"),
                           "solve-radial expects exactly one instance"),
    "file-r0-missing": (["solve-radial"], RADIAL_FILE.replace("r0 = 1\n", ""),
                        "solve-radial requires r0"),
    "u0-inf": ([*RADIAL_HJ, "--r1", "2", "--u0", "inf", "--u1", "0"], None,
               "u0 and u1 must be finite"),
    "u0-nan": ([*RADIAL_HJ, "--r1", "2", "--u0", "nan", "--u1", "0"], None,
               "u0 and u1 must be finite"),
    "u1-nan": ([*RADIAL_HJ, "--r1", "2", "--u0", "-64", "--u1", "nan"], None,
               "u0 and u1 must be finite"),
    "r1-inf": ([*RADIAL_HJ, "--r1", "inf", "--u0", "-64", "--u1", "0"], None,
               "annulus requires finite 0 < r0 < r1, got r0=1.0, r1=inf"),
    "file-u0-classify": (["classify"], PRODUCT_FILE + "N = 2\nu0 = 5\nmesh_n = 7\n",
                         f"parameter 'u0': not read by classify, which reads {READ_KEYS}"),
    "file-mesh_n-sweep": (["sweep"], PRODUCT_FILE + "N = 2\nmesh_n = 7\n",
                          f"parameter 'mesh_n': not read by sweep, which reads {READ_KEYS}"),
    "file-log_transform-search-b": (["search-b"], PRODUCT_FILE + "N = 2\nlog_transform = 1\n",
                                    "parameter 'log_transform': not read by search-b, which "
                                    f"reads {READ_KEYS}"),
    # past instance.MAX_FIELD, where Q3 was NaN (s) or a square raised OverflowError
    "product-s-1e200": (["classify", "--kind", "product", "--N", "2", "--p", "2.2", "--q", "2",
                         "--s", "1e200", "--m", "1"], None, HUGE),
    "product-p-q-m-1e200": (["classify", *HUGE_PRODUCT], None, HUGE),
    "search-b-p-q-m-1e200": (["search-b", *HUGE_PRODUCT], None, HUGE),
    "sum-p-q-1e200": (["classify", "--kind", "sum", "--N", "2", "--p", "1e200", "--q", "1e200",
                       "--s", "1", "--m", "1", "--M", "1"], None, HUGE),
    "file-s-1e200": (["sweep"], PRODUCT_FILE.replace("s = 0.5", "s = 0.5 1e200") + "N = 2\n",
                     "parameter 'instance': grid index 1 of 2 (N=2.0, p=2.2, q=2.0, "
                     f"kind=product, s=1e+200, m=2.0, M=0.0): {TOO_LARGE}"),
    "il-window-q-nan": (["il-window", "--q", "nan", "--m", "3"], None, "q and m must be finite"),
    "il-window-m-inf": (["il-window", "--q", "2", "--m", "inf"], None, "q and m must be finite"),
    "il-window-m-minus-1e3": (["il-window", "--q", "2", "--m", "-1e3"], None,
                              "m must be positive"),
    # past instance.MAX_FIELD, where 1 - 1/(m+1-q) rounds to gamma_hi = 1
    "il-window-m-1e300": (["il-window", "--q", "2", "--m", "1e300"], None,
                          f"q and m must be at most {MAX_FIELD:g}"),
    "il-window-q-m-1e300": (["il-window", "--q", "1e300", "--m", "1e301"], None,
                            f"q and m must be at most {MAX_FIELD:g}"),
}

# Each instance and radial key of one solve-radial run: (flag, token, bad token).
# A flag gives one token, read by the same rules as the file line.
PARITY = {
    "kind": ("--kind", "sum", "bogus"), "N": ("--N", "3.0", "2.5"), "p": ("--p", "2.5", "oops"),
    "q": ("--q", "2", "nan"), "s": ("--s", "1.5", "x"), "m": ("--m", "1", "inf"),
    "M": ("--M", "1", "nan"), "r0": ("--r0", "1", "inf"), "r1": ("--r1", "2", "nan"),
    "u0": ("--u0", "1", "oops"), "u1": ("--u1", "2", "-inf"),
    "mesh_n": ("--mesh-n", "6.4e1", "100.7"), "reg_eps": ("--reg-eps", "1e-8", "1"),
}

# Size options one above their limits, or not integers: (argv, what the error
# line names).
OVERSIZED = {
    "oracle-points": (["search-b", *PRODUCT, "--oracle-points", str(cli.MAX_ORACLE_POINTS + 1)],
                      f"--oracle-points: must be at most {cli.MAX_ORACLE_POINTS:,}"),
    "resolution": (["verify-identities", "--resolution", str(cli.MAX_RESOLUTION + 1)],
                   f"--resolution: must be at most {cli.MAX_RESOLUTION:,}"),
    "resolution-5.5": (["verify-identities", "--resolution", "5.5"],
                       "error: argument --resolution: not an integer: '5.5'"),
    "mesh-n": (["solve-radial", *RADIAL_SUM, "--mesh-n", str(MAX_MESH_N + 1)],
               f"error: mesh_n must lie in [64, {MAX_MESH_N:,}]"),
}
# Tolerances that are not finite and positive: (argv, what the error line names).
BAD_TOLERANCES = {
    f"tol-{key}-{value}": ([*command, "--tol", f"{key}={value}"],
                           f"--tol: {key}: must be finite and positive, got {value!r}")
    for key, command in (("identity_factor", ["verify-identities", "--resolution", "5"]),
                         ("newton_tol", ["solve-radial", *RADIAL_SUM]))
    for value in ("inf", "nan", "0", "-1")
}

# Files from outside that are not what their option reads: (argv before the
# path, file bytes or the argv of the command that writes the file, the start
# of the error line).
PLOT_TRINOMIAL = ["plot-data", "--selector", "trinomial", "--report"]
BAD_FILES = {
    "params-not-utf8": (["classify", "--params"], b"kind = product\nN = 2\xff\n",
                        "error: cannot read parameter file: 'utf-8' codec can't decode"),
    "report-not-utf8": (PLOT_TRINOMIAL, b'{"\xff": 1}',
                        "error: cannot read report: 'utf-8' codec can't decode"),
    "report-list": (PLOT_TRINOMIAL, b"[]", "error: malformed report: top level is list"),
    "report-string": (PLOT_TRINOMIAL, b'"x"', "error: malformed report: top level is str"),
    "report-no-results": (PLOT_TRINOMIAL, b"{}", "error: malformed report: KeyError('results')"),
    "report-results-int": (PLOT_TRINOMIAL, b'{"results": 5}', "error: malformed report: TypeError"),
    "report-results-object": (PLOT_TRINOMIAL, b'{"results": {"a": 1}}',
                              "error: malformed report: AttributeError"),
    "report-row-int": (PLOT_TRINOMIAL, b'{"results": [5]}', "error: malformed report: AttributeError"),
    "report-solve-radial": (PLOT_TRINOMIAL, ["solve-radial", *RADIAL_SUM],
                            "error: report contains no trinomial oracle\n"),
}


# Report fields plot-data rebuilds an array from, set to values it must refuse:
# (command writing the report, selector, section, field, value).
TAMPERED = {
    "grid_points-0": (["search-b", *PRODUCT_A], "trinomial", "oracle", "grid_points", 0),
    "grid_points-true": (["search-b", *PRODUCT_A], "trinomial", "oracle", "grid_points", True),
    "t_max-nan": (["search-b", *PRODUCT_A], "trinomial", "oracle", "t_max", math.nan),
    "r0-above-r1": (["solve-radial", *RADIAL_SUM], "gradient_profile", "radial", "r0", 3.0),
    "r0-negative": (["solve-radial", *RADIAL_SUM], "gradient_profile", "radial", "r0", -1.0),
    "r0-nan": (["solve-radial", *RADIAL_SUM], "gradient_profile", "radial", "r0", math.nan),
}


def run(argv):
    return main(argv)


class TestParamFiles:
    def test_parse_and_expand(self):
        text = "# demo\nkind = product\nN = 2, 3\np = 1.5 2\nq = p\ns = 0.5\nm = 0\n"
        params = parse_params(text)
        instances = expand_instances(params)
        assert len(instances) == 4
        assert all(inst.p == inst.q for inst in instances)
        # fixed key order: N varies slower than p
        assert [(i.N, i.p) for i in instances] == sorted(
            (i.N, i.p) for i in instances
        )

    def test_round_trip_through_echo(self):
        text = "kind = product\nN = 2\np = 2.2\nq = 2\ns = 0.5\nm = 2\n"
        params = parse_params(text)
        echo = {k: list(v) for k, v in sorted(params.items())}
        rebuilt = parse_params("\n".join(f"{k} = {' '.join(v)}" for k, v in echo.items()))
        assert expand_instances(rebuilt) == expand_instances(params)

    def test_first_offending_field_named(self):
        with pytest.raises(ParamError, match="'p'"):
            expand_instances(parse_params("kind = product\nN = 2\np = oops\nq = 2\n"))
        with pytest.raises(ParamError, match="'kind'"):
            expand_instances(parse_params("N = 2\np = 2\nq = 2\n"))
        with pytest.raises(ParamError, match="duplicate"):
            parse_params("N = 2\nN = 3\n")

    def test_oversized_grid_exits_two_before_building(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("an instance was built")

        monkeypatch.setattr(pqliouville.params, "ProblemInstance", refuse)

        def values(count):
            return " ".join(str(2 + k) for k in range(count))

        # N, p, q, s and m take 10 values and M 100: 10^7 instances
        par = tmp_path / "huge.par"
        par.write_text("kind = sum\n" + "".join(f"{key} = {values(10)}\n" for key in "Npqsm")
                       + f"M = {values(100)}\n")
        assert run(["sweep", "--params", str(par), "--out", str(tmp_path / "out.json")]) == 2
        assert "10,000,000 instances" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    def test_bad_token_is_refused_before_building(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an instance was built")

        monkeypatch.setattr(pqliouville.params, "ProblemInstance", refuse)
        with pytest.raises(ParamError, match="'p': not a number: 'oops'"):
            expand_instances(parse_params("kind = product\nN = 2\np = 2.2 oops\nq = 2\n"))

    def test_unknown_key_is_refused(self):
        known = "kind, N, p, q, s, m, M, r0, r1, u0, u1, mesh_n, reg_eps, log_transform"
        with pytest.raises(ParamError, match=f"'mesh-n': unknown key; known keys: {known}$"):
            parse_params("kind = sum\nmesh-n = 1024\n")

    def test_benchmark_grid_is_under_the_cap(self):
        instances = expand_instances(parse_params(PRODUCT_GRID.read_text()))
        assert len(instances) == 9600 <= MAX_INSTANCES


class TestCommands:
    def test_classify_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = run([
            "classify", "--kind", "product", "--N", "2", "--p", "2.2",
            "--q", "2", "--s", "0.5", "--m", "2.0", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == 7
        assert "timing" not in report
        row = report["results"][0]
        assert row["theorem"] == "thm_product_A"
        assert row["liouville"] is True
        # one instance files each of its conditions once, so the row indexes the whole table
        assert row["conditions"] == list(range(len(report["conditions"])))

    def test_classify_none_is_exit_zero(self, tmp_path, capsys):
        code = run([
            "classify", "--kind", "hamilton_jacobi", "--N", "2", "--p", "3",
            "--q", "2", "--m", "1.5",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"][0]["theorem"] == "none"

    def test_sweep_determinism(self, tmp_path):
        par = tmp_path / "sweep.par"
        par.write_text("kind = product\nN = 2 3\np = 1.5 2 3\nq = p\ns = 0.5\nm = 0\n")
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert run(["sweep", "--params", str(par), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_report_is_compact_sorted_json(self, tmp_path):
        par = tmp_path / "sweep.par"
        par.write_text("kind = product\nN = 2 3\np = 2.2 3\nq = 2\ns = 0.5\nm = 0.5 2\n")
        out = tmp_path / "sweep.json"
        argv = ["sweep", "--params", str(par), "--out", str(out)]
        assert run(argv) == 0
        text = out.read_text()
        assert text.endswith("\n") and text.count("\n") == 1
        args = build_parser().parse_args(argv)
        params = _load_params(args)
        report, _ = _report(args)
        assert "".join(report.to_json()) == text
        assert json.loads(text)["config_echo"]["params"] == params
        assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"

    def test_search_b_degenerate_product_writes_selection_row(self, tmp_path):
        # m = 0.5 gives m+s-q+1 = -0.4, where no trinomial exists; m = 2 is regular
        par = tmp_path / "mixed.par"
        par.write_text("kind = product\nN = 2\np = 2\nq = 2\ns = 0.1\nm = 0.5 2\n")
        out = tmp_path / "grid.json"
        assert run(["search-b", "--params", str(par), "--out", str(out)]) == 0
        degenerate, regular = json.loads(out.read_text())["results"]
        assert sorted(degenerate) == ["instance", "selection"]
        assert degenerate["instance"]["m"] == 0.5
        assert degenerate["selection"]["case_tag"] == "infeasible"
        assert {"trinomial", "oracle"} <= set(regular)
        out = tmp_path / "single.json"
        assert run([
            "search-b", "--kind", "product", "--N", "2", "--p", "2", "--q", "2",
            "--s", "0.1", "--m", "0.5", "--out", str(out),
        ]) == 0
        assert json.loads(out.read_text())["results"] == [degenerate]

    def test_sweep_single_operator_thresholds(self, tmp_path, capsys):
        par = tmp_path / "sweep.par"
        par.write_text("kind = product\nN = 2 3\np = 1.5 2 3\nq = p\ns = 0.5\nm = 0\n")
        assert run(["sweep", "--params", str(par)]) == 0
        report = json.loads(schema6_view(capsys.readouterr().out))
        instances = expand_instances(report["config_echo"]["params"])
        for inst, row in zip(instances, report["results"], strict=True):
            th = row["product_thresholds"]
            assert th["R"] == 0.0
            assert abs(th["Q1"]) <= 1e-14
            assert th["Q2"] == pytest.approx(4.0 * (inst.p - 1.0) / inst.N, rel=1e-14)

    def test_search_b_and_plot_data(self, tmp_path, capsys):
        out = tmp_path / "search.json"
        assert run([
            "search-b", "--kind", "product", "--N", "2", "--p", "2.2", "--q", "2",
            "--s", "0.5", "--m", "2.0", "--out", str(out),
        ]) == 0
        report = json.loads(out.read_text())
        row = report["results"][0]
        assert row["selection"]["case_tag"] == "case1_L1neg"
        assert row["oracle"]["value_min"] <= -0.5
        assert sorted(row["oracle"]) == ["grid_points", "t_max", "t_min", "value_min"]
        assert run(["plot-data", "--report", str(out), "--selector", "trinomial"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# t,value"
        # the curve is rebuilt from the stored trinomial by the oracle's own grid
        coeffs = product_trinomial(ProblemInstance(N=2, p=2.2, q=2.0, kind="product", s=0.5, m=2.0))
        t = np.linspace(0.0, row["oracle"]["t_max"], row["oracle"]["grid_points"])
        assert lines[1:] == [f"{a!r},{b!r}" for a, b in zip(t.tolist(), coeffs.value(t).tolist())]

    def test_case1_with_L1_zero_is_infeasible(self, capsys):
        assert run(["search-b", *PRODUCT_L1_ZERO]) == 0
        [row] = json.loads(capsys.readouterr().out)["results"]
        assert row["selection"]["case_tag"] == "infeasible"
        assert row["selection"]["trace"][-1] == {"label": "L1_negative", "passed": False,
                                                 "rendering": "L1 = 0 < 0"}
        assert run(["classify", *PRODUCT_L1_ZERO]) == 0
        [row] = json.loads(capsys.readouterr().out)["results"]
        assert row["theorem"] == "thm_IL"  # m > q: Ishii-Lions

    def test_plot_data_unknown_selector(self, tmp_path, capsys):
        out = tmp_path / "search.json"
        run([
            "search-b", "--kind", "product", "--N", "2", "--p", "2.2", "--q", "2",
            "--s", "0.5", "--m", "2.0", "--out", str(out),
        ])
        code = run(["plot-data", "--report", str(out), "--selector", "bogus"])
        assert code == 2

    def test_plot_data_builds_no_instance(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("an instance was built")

        report = tmp_path / "sweep.json"
        assert run(["sweep", "--params", TINY_GRID, "--out", str(report)]) == 0
        monkeypatch.setattr(pqliouville.params, "ProblemInstance", refuse)
        assert run(["plot-data", "--report", str(report), "--selector", "gradient_profile"]) == 2
        assert capsys.readouterr().err == "error: report contains no radial solution\n"

    def test_il_window(self, capsys):
        # The window is stated in closed form: no sampled alpha table.
        assert run(["il-window", "--q", "2", "--m", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"] == [{"q": 2.0, "m": 3.0, "window": {
            "feasible": True, "gamma_lo": 0.5, "gamma_hi": 1.0}}]
        assert report["config_echo"] == {"command": "il-window", "q": 2.0, "m": 3.0}
        assert run(["il-window", "--q", "2", "--m", "2"]) == 0
        [row] = json.loads(capsys.readouterr().out)["results"]
        assert row["window"] == {"feasible": False, "gamma_lo": None, "gamma_hi": None}

    def test_out_file_gets_the_mode_of_a_plain_open(self, tmp_path):
        # A new file gets 0o666 less the umask; an overwritten one keeps its mode.
        out = tmp_path / "window.json"
        argv = ["il-window", "--q", "2", "--m", "3", "--out", str(out)]
        umask = os.umask(0o022)
        try:
            assert run(argv) == 0
            assert stat.S_IMODE(out.stat().st_mode) == 0o644
            out.chmod(0o604)
            assert run(argv) == 0
            assert stat.S_IMODE(out.stat().st_mode) == 0o604
            out.unlink()
            os.umask(0o007)
            assert run(argv) == 0
            assert stat.S_IMODE(out.stat().st_mode) == 0o660
        finally:
            os.umask(umask)
        assert [path.name for path in tmp_path.iterdir()] == ["window.json"]

    def test_solve_radial_with_fit_and_profile(self, tmp_path, capsys):
        out = tmp_path / "radial.json"
        code = run([
            "solve-radial", "--kind", "hamilton_jacobi", "--N", "2", "--p", "3",
            "--q", "2", "--m", "2.5", "--r0", "1", "--r1", "2", "--u0", "-64",
            "--u1", "0", "--mesh-n", "128", "--reg-eps", "1e-8", "--fit",
            "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        row = report["results"][0]
        assert row["converged"] is True
        assert "r" not in row
        assert len(row["u"]) == 129
        assert "du" not in row
        assert "fit" in row
        assert "gradient_profile" not in row
        assert run([
            "plot-data", "--report", str(out), "--selector", "gradient_profile",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# d,abs_du"
        inst = ProblemInstance(N=2, p=3.0, q=2.0, kind="hamilton_jacobi", m=2.5)
        sol = solve_radial(RadialProblem(inst, 1.0, 2.0, -64.0, 0.0, mesh_n=128, reg_eps=1e-8))
        profile = gradient_vs_distance(sol).tolist()
        assert lines[1:] == [f"{d!r},{g!r}" for d, g in profile]

    def test_solve_radial_failure_exit_code(self, tmp_path, capsys):
        out = tmp_path / "bad.json"
        code = run([*FAILING_SOLVE, "--out", str(out)])
        assert code == 3
        report = json.loads(out.read_text())
        assert report["results"][0]["converged"] is False
        capsys.readouterr()
        assert run(["plot-data", "--report", str(out), "--selector", "gradient_profile"]) == 2
        assert capsys.readouterr().err == "error: gradient profile requires a converged solution\n"

    def test_module_entry_exit_codes(self, tmp_path):
        # python -m pqliouville.cli in a new interpreter: 0 on a run, 2 with one
        # error line and no --out, 3 on a solve that does not converge
        out = tmp_path / "out.json"
        done = cli_in_fresh_process(["solve-radial", *RADIAL_SUM, "--out", str(out)])
        assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
        assert json.loads(out.read_text())["results"][0]["converged"] is True
        out.unlink()
        done = cli_in_fresh_process(["il-window", "--q", "nan", "--m", "3", "--out", str(out)])
        assert (done.returncode, done.stderr) == (2, "error: q and m must be finite\n")
        assert not out.exists()
        done = cli_in_fresh_process([*FAILING_SOLVE, "--out", str(out)])
        assert done.returncode == 3, done.stderr
        assert json.loads(out.read_text())["results"][0]["converged"] is False

    @pytest.mark.parametrize("N", ["2000", "1e15"])
    def test_radial_weight_overflow_exits_two(self, N, tmp_path, capsys):
        # r1^(N-1) on [1, 2] is beyond float range: refused before any Newton step
        argv = [*RADIAL_HJ, "--N", N, "--r1", "2", "--u0", "-64", "--u1", "0",
                "--out", str(tmp_path / "out.json")]
        error = f"error: radial weight r1^(N-1) overflows a float: N={int(float(N))}, r1=2.0\n"
        assert run(argv) == 2
        assert capsys.readouterr().err == error
        done = cli_in_fresh_process(argv)
        assert (done.returncode, done.stdout, done.stderr) == (2, "", error)
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("N, r0, r1", [("2000", "0.5", "0.9"), ("600", "0.1", "0.2")])
    def test_radial_weight_underflow_solves(self, N, r0, r1, tmp_path):
        out = tmp_path / "out.json"
        argv = [*RADIAL_HJ, "--N", N, "--r0", r0, "--r1", r1, "--u0", "-64", "--u1", "0",
                "--out", str(out)]
        assert run(argv) == 0
        out.unlink()
        done = cli_in_fresh_process(argv)
        assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
        assert json.loads(out.read_text())["results"][0]["converged"] is True

    def test_cached_parser_carries_no_state(self, tmp_path, capsys):
        argv = ["verify-identities", "--resolution", "5"]

        def echo(extra):
            assert run(argv + extra) == 0
            return json.loads(capsys.readouterr().out)["config_echo"]

        tuned = echo(["--tol", "identity_factor=30"])
        assert tuned["tolerances"]["identity_factor"] == 30.0
        plain = echo([])
        assert plain["tolerances"] == {"identity_factor": 25.0}
        assert run(argv + ["--tol", "identity_factor=7", "--bogus"]) == 2
        capsys.readouterr()
        assert echo(["--resolution", "7"]) == dict(plain, resolution=7)
        assert build_parser() is build_parser()

    def test_config_errors_exit_two(self, tmp_path):
        assert run(["classify"]) == 2
        bad = tmp_path / "bad.par"
        bad.write_text("kind = product\nN = 2\np = oops\nq = 2\n")
        assert run(["classify", "--params", str(bad)]) == 2
        assert run(["classify", "--kind", "product", "--N", "2", "--p", "2.2",
                    "--q", "2", "--tol", "nosuch=1"]) == 2
        assert run(["il-window", "--q", "2", "--m", "3", "--format", "csv"]) == 2

    def test_invalid_inputs_exit_two_with_an_error_line(self, capsys):
        for argv, message in (
            (["il-window", "--q", "0.5", "--m", "3"], "error: q must exceed 1"),
            (["il-window", "--q", "2", "--m", "0"], "error: m must be positive"),
            (["verify-identities", "--resolution", "1"], "--resolution: must be at least 5"),
            (["verify-identities", "--resolution", "4"], "--resolution: must be at least 5"),
            (["search-b", "--kind", "product", "--N", "2", "--p", "2.2", "--q", "2",
              "--s", "0.5", "--m", "2.0", "--oracle-points", "10"],
             "--oracle-points: must be at least 1000"),
            (["verify-identities", "--tol", "newton_tol=1"],
             "--tol: unknown tolerance 'newton_tol'; expected identity_factor"),
            (["solve-radial", *RADIAL_SUM, "--tol", "newton_tol=tiny"],
             "--tol: newton_tol: not a number: 'tiny'"),
            (["classify", *PRODUCT, "--format", "csv", "--timing"],
             "error: --timing needs --format json"),
            (["sweep", "--params", TINY_GRID, "--format", "csv", "--timing"],
             "error: --timing needs --format json"),
            (["solve-radial", *RADIAL_SUM, "--format", "csv", "--timing"],
             "error: --timing needs --format json"),
            (["sweep"], "error: the following arguments are required: --params"),
            (["search-b", *HJ, "--m", "2"],
             "error: search-b selects b only for product and sum instances\n"),
        ):
            assert run(argv) == 2
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, params, message", REFUSED.values(), ids=list(REFUSED))
    def test_nonfinite_and_nonintegral_inputs_exit_two(self, argv, params, message, tmp_path,
                                                       capsys):
        if params is not None:
            par = tmp_path / "bad.par"
            par.write_text(params)
            argv = [*argv, "--params", str(par)]
        out = tmp_path / "out.json"
        assert run([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.data())
    def test_any_finite_input_exits_zero_or_two_without_nan(self, tmp_path_factory, data):
        """Finite floats up to 1e308 in every key, as flags or as a small
        sweep grid: a report without NaN, or exit 2, never a traceback."""
        value = st.one_of(st.floats(0.0, 1e308), st.floats(1.0, 6.0),
                          st.integers(-320, 308).map(lambda e: 10.0 ** e))

        def values():
            return data.draw(st.lists(value, min_size=1, max_size=2, unique=True))

        command = data.draw(st.sampled_from(["classify", "search-b", "sweep", "il-window"]))
        q = data.draw(value)
        keys = {"N": data.draw(st.lists(st.one_of(st.integers(2, 6), value), min_size=1,
                                        max_size=2, unique=True)),
                "p": sorted({max(p, q) for p in values()}), "q": [q],
                "s": values(), "m": values(), "M": values()}
        folder = tmp_path_factory.mktemp("finite")
        if command == "il-window":
            argv = [command, "--q", repr(keys["q"][0]), "--m", repr(keys["m"][0])]
        elif command == "sweep":
            par = folder / "grid.par"
            par.write_text(f"kind = {data.draw(st.sampled_from(KINDS))}\n" + "".join(
                f"{key} = {' '.join(map(repr, grid))}\n" for key, grid in keys.items()))
            argv = [command, "--params", str(par)]
        else:
            argv = [command, "--kind", data.draw(st.sampled_from(KINDS)), "--oracle-points", "64"]
            argv = argv[:3] if command == "classify" else argv
            argv += [arg for key, grid in keys.items() for arg in (f"--{key}", repr(grid[0]))]
        out = folder / "out.json"
        code = run([*argv, "--out", str(out)])
        assert code in (0, 2)
        assert code == 2 or "NaN" not in out.read_text()
        if code == 0 and command == "il-window":
            window = json.loads(out.read_text())["results"][0]["window"]
            assert not window["feasible"] or window["gamma_lo"] < window["gamma_hi"], window

    def test_refused_grid_point_names_its_index_and_values(self, tmp_path, capsys):
        # a one-instance input keeps the bare message (the REFUSED cases)
        par = tmp_path / "grid.par"
        par.write_text("kind = product\nN = 2\np = 3 1.5\nq = 2\n")
        out = tmp_path / "out.json"
        assert run(["sweep", "--params", str(par), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: parameter 'instance': grid index 1 of 2 (N=2.0, p=1.5, q=2.0, kind=product, "
            "s=0.0, m=0.0, M=0.0): exponents must satisfy p >= q > 1\n")
        assert not out.exists()

    @pytest.mark.parametrize("key", sorted(PARITY))
    def test_flag_and_file_line_read_alike(self, key, tmp_path, capsys):
        def outcome(token, as_flag):
            lines = {k: token if k == key else good for k, (_, good, _) in PARITY.items()}
            par = tmp_path / "radial.par"
            par.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()
                                   if not (as_flag and k == key)))
            flag = [PARITY[key][0], token] if as_flag else []
            code = run(["solve-radial", "--params", str(par), *flag])
            out, err = capsys.readouterr()
            return code, json.loads(out)["results"] if code == 0 else err

        _, good, bad = PARITY[key]
        assert outcome(good, True) == outcome(good, False)
        refused = outcome(bad, True)
        assert refused[0] == 2 and refused[1].startswith("error: ")
        assert refused == outcome(bad, False)

    def test_negative_exponent_token_reads_as_its_file_line(self, tmp_path, capsys):
        # argparse took a "-" token that is not a plain decimal for an option
        results = []
        for flag, line in ((["--u0", "-1e3"], ""), ([], "u0 = -1e3\n")):
            par = tmp_path / "radial.par"
            par.write_text(RADIAL_FILE.replace("u0 = -64\n", line))
            assert run(["solve-radial", "--params", str(par), *flag]) == 0
            results.append(json.loads(capsys.readouterr().out)["results"])
        assert results[0] == results[1]

    def test_flag_tokens_follow_the_file_rules(self, tmp_path, capsys):
        base = RADIAL_SUM[:6] + RADIAL_SUM[8:-2]  # without --q and --mesh-n
        par = tmp_path / "radial.par"
        for key, flag, token, other in (("mesh_n", "--mesh-n", "1e3", ["--q", "2"]),
                                        ("q", "--q", "p", ["--mesh-n", "64"])):
            par.write_text(f"{key} = {token}\n")
            assert run(["solve-radial", *base, *other, "--params", str(par)]) == 0
            from_file = json.loads(capsys.readouterr().out)["results"]
            assert run(["solve-radial", *base, *other, flag, token]) == 0
            [row] = json.loads(capsys.readouterr().out)["results"]
            assert [row] == from_file
            if key == "mesh_n":
                assert row["radial"]["mesh_n"] == 1000 and len(row["u"]) == 1001
            else:
                assert row["instance"]["q"] == row["instance"]["p"] == 2.5

    def test_missing_out_directory_exits_two_before_any_work(self, tmp_path, monkeypatch,
                                                              capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("the command ran")

        monkeypatch.setattr(pqliouville.params, "ProblemInstance", refuse)
        monkeypatch.setattr(cli, "il_parameter_window", refuse)
        out = tmp_path / "missing" / "x.json"
        # An --out that names a directory is refused the same way.
        for path, message in ((out, f"no such directory: {str(out.parent)!r}"),
                              (tmp_path, f"names a directory, not a file: {str(tmp_path)!r}")):
            for argv in (["classify", *HJ, "--m", "2.5"], ["sweep", "--params", TINY_GRID],
                         ["il-window", "--q", "2", "--m", "3"]):
                assert run([*argv, "--out", str(path)]) == 2, argv
                assert capsys.readouterr().err == f"error: --out: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [*OVERSIZED.values(), *BAD_TOLERANCES.values()],
                             ids=[*OVERSIZED, *BAD_TOLERANCES])
    def test_oversized_inputs_exit_two_before_any_work(self, argv, message, tmp_path,
                                                        monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("the command ran")

        for name in ("select_b_product", "il_parameter_window", "_identity_suite",
                     "solve_radial"):
            monkeypatch.setattr(cli, name, refuse, raising=False)
        out = tmp_path / "out.json"
        assert run([*argv, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_csv_format(self, tmp_path):
        out = tmp_path / "table.csv"
        assert run([
            "classify", "--kind", "product", "--N", "2", "--p", "2.2", "--q", "2",
            "--s", "0.5", "--m", "2.0", "--format", "csv", "--out", str(out),
        ]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("index,kind,N,p,q")
        assert "thm_product_A" in lines[1]

    def test_timing_flag_adds_section(self, tmp_path):
        # classify, sweep and search-b time their expansion and their rows
        # and give the number of processes that built the rows,
        # verify-identities times each kind of check and gives the size of
        # the grid kernels' thread pool; il-window gives the total alone
        stages = {"expand_s", "rows_s", "workers", "total_s"}
        checks = ("change_of_variable_s", "bochner_s", "scaling_s")
        for argv, keys in (
            (["classify", *PRODUCT_A], stages),
            (["sweep", "--params", TINY_GRID], stages),
            (["search-b", *PRODUCT_A], stages),
            (["il-window", "--q", "2", "--m", "3"], {"total_s"}),
            (["verify-identities", "--resolution", "5"], {*checks, "workers", "total_s"}),
        ):
            out = tmp_path / "t.json"
            assert run([*argv, "--timing", "--out", str(out)]) == 0
            timing = json.loads(out.read_text())["timing"]
            assert [set(entry) for entry in timing] == [keys]
            assert all(seconds >= 0.0 for seconds in timing[0].values())
            if keys == stages:
                assert timing[0]["expand_s"] + timing[0]["rows_s"] <= timing[0]["total_s"]
                assert timing[0]["workers"] == 1
        assert timing[0]["workers"] == worker_count() >= 1
        assert all(timing[0][key] > 0.0 for key in checks)
        assert sum(timing[0][key] for key in checks) <= timing[0]["total_s"]
        # Without --timing the report is the one the suite always wrote.
        assert run([*argv, "--out", str(out)]) == 0
        assert "timing" not in json.loads(out.read_text())

    def test_verify_identities_reruns_are_byte_identical(self, tmp_path):
        paths = [tmp_path / "first.json", tmp_path / "second.json"]
        for path in paths:
            assert run(["verify-identities", "--resolution", "17", "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_verify_identities_default_catalog(self, capsys):
        assert run(["verify-identities", "--resolution", "33"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["results"]) == 21
        assert all(row["report"]["passed"] for row in report["results"])
        checks = {row["check"] for row in report["results"]}
        assert checks == {"change_of_variable", "bochner", "scaling"}
        orders = [row["report"]["observed_order"] for row in report["results"]
                  if row["check"] == "change_of_variable"]
        assert orders and all(order is not None and 1.7 <= order <= 2.3 for order in orders)
        # an identity report's constant is always null, so it is not written
        assert not any("constant" in row["report"] for row in report["results"])


# SHA-256 of reports on the full benchmark grids, pinned at schema 5 and
# read through `oracles.schema5_view` after `oracles.schema6_view`: plain sweeps, and the reports whose
# selection traces together reach every selection case.  The sum digests
# here, in SWEEP_BYTES, SCHEMA6_BYTES and CSV_RESULTS were re-taken when the
# sum exponents became the product ones at m = 0: only exponents.beta2,
# exponents.gamma and estimate_exponent moved, in their last digits, and
# each moved nearer the exact rational value.
FULL_SWEEP_BYTES = {
    "sweep product_grid.par": "ae0a47bbfbe88457031efbe8f73ae2012171f084e892d25c793bcbbeb80c66e6",
    "sweep sum_grid.par": "88b845778f81f6a53704e671dd269366e399359155f98c839a0d87b8b01f2ee8",
    "sweep --optimal-search sum_grid.par":
        "293185409480b36d55c5a2db3c3dd2bdc353c5b1217031b9e6178b5294d98023",
}
TRACE_BYTES = {
    "search-b product_grid.par": "35be79b7496fb39ac807c44e5aa6d61ffa14eaa89e168f75c225252f9f2fddf3",
    "search-b sum_grid.par": "f024e1fb907790d5c09681dde1aa2a485ba5d9fbf313acba7b5f249879bb4d3c",
    "sweep --optimal-search product_grid.par":
        "3e86f04cfe4dd8fea3d9326199d21773f4f68b03d7cf771ed12e59d24e3b3b9d",
}

# SHA-256 of `--format csv` output, pinned at schema 4, when the CSV writer
# read the instance stored in each row.
CSV_RESULTS = {
    "classify --kind product --N 2 --p 2.2 --q 2 --s 0.5 --m 2.0":
        "e860eda0c662feab0a6b83e584778fc28e5df9f49358e733bb7fbdeb0fa21f0e",
    "sweep product_grid.par": "ff5f7cac8ad16e056bc135d7a492ce74e75b285c733b541d4ce012a6a35ea24c",
    "sweep --optimal-search sum_grid.par":
        "01546a1a6e161359f056cbac3221a1f9d80b187e9ccd10656cc1706ab1c60006",
    # a header and 16 instance lines
    "sweep tiny_product_grid.par": "36bebfba7f8cd6e53371d52e59daaf8b727f195a43c379bd0b61c93404537710",
}

# SHA-256 of sweep reports on the tiny grids, pinned at schema 5 and read
# through `oracles.schema5_view` after `oracles.schema6_view`.
SWEEP_BYTES = {
    "sweep tiny_product_grid.par": "a13c47fba6ad3fb730a4e2c02ec6f9ae05c9a2687fda9108eabfcad632f68be7",
    "sweep --optimal-search tiny_product_grid.par":
        "9dc651493d4d0768fb3024434e172efdffef0d723e2fb25e308c5bcbbd659922",
    "sweep tiny_sum_grid.par": "60ec7a538ad6805d70a4c7081c2c37fbf785f8c0b5919166b3d2cd15473d95af",
    "sweep --optimal-search tiny_sum_grid.par":
        "b0c7d55a00c542b5c24c4fac6b52cf4658620f825c62558306a2b6d47a2ba20b",
}

# SHA-256 of the schema-6 bytes of the sweep reports above, read through
# `oracles.schema6_view`.
SCHEMA6_BYTES = {
    "sweep product_grid.par": "a95a3d334c95a7e69f593628ec69dc36346c667150b28307840f6e780574c6b4",
    "sweep sum_grid.par": "c7cf0195a20d41869ec2c5ef6d5d119151477a57699b5a2225c5c8a235a7d1ff",
    "sweep --optimal-search product_grid.par":
        "f3b6fd31655afc180e273cd8086c8f54aedfb53d87c27c1d5cbdad7c61a640aa",
    "sweep --optimal-search sum_grid.par":
        "8a97f5a11f491275faec54f4eb057c3ac41d58fdfcc4a72737df048dd45ba603",
    "sweep tiny_product_grid.par": "0825ef6f5dc5b3af1e09e259a33544b37505efdaa6dae48b872dbe10c7950f57",
    "sweep --optimal-search tiny_product_grid.par":
        "27471ae35f37ad9d613bd85c5bd8b3c9ebce26c1d8770376df2e2c0c44f50969",
    "sweep tiny_sum_grid.par": "23aff7509e3eb75977757c4001f2e41880d630fcda487863dad4fd2719abeeac",
    "sweep --optimal-search tiny_sum_grid.par":
        "8999ed28ece76a4f839dd5cc40f015f6d5db79c23c043bf34a0494d1d32f8eec",
}

# SHA-256 of the raw schema-7 bytes of the same sweep reports.
SCHEMA7_BYTES = {
    "sweep product_grid.par": "33805f8c61310f9e9c75922a1b9227ee401b6738a9802a30cc46cebad7e9e50a",
    "sweep sum_grid.par": "860f04d78e6f1f91cd2c59c2b6a4f176c24c57edd8e33f98cd1d83a9c309a0a6",
    "sweep --optimal-search product_grid.par":
        "224a4b4f4ae4b8b5d8ad8c0eaf1d9ee397cbfb6bb1371df8a09e656fe4dfaf78",
    "sweep --optimal-search sum_grid.par":
        "2cceaf114f83b6e3721e3e16c86bc70c5887f9961b780ac85d1c0299a63a6152",
    "sweep tiny_product_grid.par": "ac63f5b5c3d4488bebe84c418b7b753df5a4b68e6c10abb1c5f83ade6bd38a5c",
    "sweep --optimal-search tiny_product_grid.par":
        "d2ba05258d0e25c5103c9d13cd7b2b8fe598439be6bd5dd6551df5f2d14208a2",
    "sweep tiny_sum_grid.par": "53ae2144b18f9d7617810f78cd6a85d07849ea002cca0b136d58c1db42682c98",
    "sweep --optimal-search tiny_sum_grid.par":
        "8e7679cf8ca9c6afc8a4bd311f7c55257233f1f24d0dbf8b62745ab5dde0314d",
}

# SHA-256 of the solve-radial CSV tables and plot-data curves: (argv, argv
# of the command whose report plot-data reads or None, digest).  The radial
# pins here and in RECORD_BYTES hash floats from numpy's SIMD kernels, and
# were taken with its AVX-512 kernels (ROADMAP item 17).
TABLE_RESULTS = {
    # the three radial pins were re-taken when the Jacobian became exact and
    # the solve coarse to fine; u moved by at most 3.7e-10 max|u|.  Re-taken
    # again when only the last solve ran tight, to its Newton correction:
    # here u moved by 4.0e-15 max|u| and newton_iters went 38 -> 19
    "solve-radial-direct": (["solve-radial", *RADIAL_HJ_4096, "--format", "csv"], None,
                            "a2b427564f4206acb062d44f84de5a98738004cfabc9187c5bbe0681d71bdab3"),
    # re-taken with the stop rule: u moved by 2.2e-16 max|u|, newton_iters 4 -> 5
    "solve-radial-log": (["solve-radial", "--params", str(PRODUCT_GRID.with_name("log_product.par")),
                          "--format", "csv"], None,
                         "08749f48ce5b600bdd9def743da9b9fe76a216c143a10567771dadf6932ea2f0"),
    # re-taken when the profile came to read the steeper wall only: the
    # 512 faces nearer r0, not all 1,024 faces at the nearer-wall distance;
    # and with the stop rule, from the solve-radial-direct run above
    "plot-data-gradient_profile": (["plot-data", "--selector", "gradient_profile"],
                                   ["solve-radial", *RADIAL_HJ_4096],
                                   "111be7ac2879673346ebde75be39f0854df0d2f92b8746502009b8bdd5a1626c"),
    "plot-data-trinomial": (["plot-data", "--selector", "trinomial"], ["search-b", *PRODUCT_A],
                            "c62cd8e90e95d790126be6d383144a2995585a1bad208d356f7f7574d6af948e"),
}

# SHA-256 of the JSON reports, written to stdout, that serialise an
# IdentityReport or a BlowupFit: (argv, digest), pinned at schema 5 and read
# through `oracles.schema5_view`, which changes only their `schema`.
RECORD_BYTES = {
    "verify-identities": (["verify-identities", "--resolution", "33"],
                          "9209af26a8199a9119e8e5b25d0267aeeb50aa7854f1d6d0308cb70fe7c2c03b"),
    # re-taken with the one-wall profile: only "fit" moved, from exponent
    # 0.8257 (r^2 0.037) to 1.7265 (r^2 0.996).  Re-taken with the stop
    # rule: u moved by 4.0e-15 max|u|, newton_iters 38 -> 19, residual_norm
    # 1.6e-15 -> 4.7e-16, the exponent in its 14th digit
    "solve-radial-fit": (["solve-radial", *RADIAL_HJ_4096, "--fit"],
                         "4d6e51bd708fe1de83a822fad26b92d63f9abe3d5e09c7c78be4c7a7002dfc92"),
    # the same run with u0 written as an exponent token gives the same bytes
    "solve-radial-fit-u0-exponent": (
        ["solve-radial", *[token.replace("-4096", "-4.096e3") for token in RADIAL_HJ_4096], "--fit"],
        "4d6e51bd708fe1de83a822fad26b92d63f9abe3d5e09c7c78be4c7a7002dfc92"),
}

# The keys a classify row may hold, and those of the threshold dicts that
# schema 6 wrote and `oracles.schema6_view` gives back.
ROW_KEYS = {"instance", "theorem", "matches", "conditions", "liouville", "estimate_exponent",
            "estimate_target", "exponents", "selection"}
THRESHOLD_KEYS = {"product_thresholds": {"R", "Q", "discriminant_ok", "Q1", "Q2", "Q3", "a"},
                  "sum_thresholds": {"delta_pq", "m_max", "gap_ok", "s_minus", "s_plus"}}


def schema5_conditions(decisions) -> list[str]:
    """Each decision's conditions as schema 5 wrote them, as JSON text: one
    [template_index, passed, values] per condition, the index numbering
    (theorem, label, template) in first-use order across the report."""
    templates: dict[tuple, int] = {}
    return [json.dumps([[templates.setdefault(c[:3], len(templates)), c.passed, list(c.values)]
                        for c in decision.conditions]) for decision in decisions]


def viewed_conditions(text: str) -> list[str]:
    """Each row's conditions of a report, expanded through its table by the schema-5 view."""
    return [json.dumps(row["conditions"]) for row in json.loads(schema5_view(text))["results"]]


def grid_report(key: str, tmp_path: Path) -> bytes:
    """The report bytes of a `command [flags] grid` key, the grid read from bench/inputs."""
    *command, grid = key.split()
    out = tmp_path / "report.json"
    assert run([*command, "--params", str(PRODUCT_GRID.with_name(grid)), "--out", str(out)]) == 0
    return out.read_bytes()


def python_in_fresh_process(args: list[str]) -> subprocess.CompletedProcess:
    """`python args` in a new interpreter that imports this checkout's package.

    A RuntimeWarning is an error there, as pyproject makes it one in this process.
    """
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)


def cli_in_fresh_process(argv: list[str]) -> subprocess.CompletedProcess:
    """`python -m pqliouville.cli argv` in a new interpreter, where nothing is bound yet."""
    return python_in_fresh_process(["-m", "pqliouville.cli", *argv])


def plot_in_fresh_process(report: Path) -> str:
    """plot-data gradient_profile in a new interpreter."""
    done = cli_in_fresh_process(["plot-data", "--report", str(report), "--selector",
                                 "gradient_profile"])
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestReportSchema:
    @pytest.mark.parametrize("key", sorted(TRACE_BYTES))
    def test_selection_traces_keep_their_bytes(self, key, tmp_path):
        text = grid_report(key, tmp_path)
        assert b"epsilon_used" not in text
        assert hashlib.sha256(schema5_view(schema6_view(text))).hexdigest() == TRACE_BYTES[key]
        if key in SCHEMA6_BYTES:
            assert hashlib.sha256(schema6_view(text)).hexdigest() == SCHEMA6_BYTES[key]
            assert hashlib.sha256(text).hexdigest() == SCHEMA7_BYTES[key]

    @pytest.mark.parametrize("key", sorted(SWEEP_BYTES.keys() | FULL_SWEEP_BYTES.keys()))
    def test_sweep_reports_keep_their_bytes(self, key, tmp_path):
        text = grid_report(key, tmp_path)
        digest = hashlib.sha256(schema5_view(schema6_view(text))).hexdigest()
        assert digest == {**SWEEP_BYTES, **FULL_SWEEP_BYTES}[key]
        assert hashlib.sha256(schema6_view(text)).hexdigest() == SCHEMA6_BYTES[key]
        assert hashlib.sha256(text).hexdigest() == SCHEMA7_BYTES[key]

    @pytest.mark.parametrize("key", sorted(CSV_RESULTS))
    def test_csv_keeps_its_bytes(self, key, tmp_path):
        argv = key.split()
        if argv[0] == "sweep":
            argv[-1:] = ["--params", str(PRODUCT_GRID.with_name(argv[-1]))]
        out = tmp_path / "table.csv"
        assert run([*argv, "--format", "csv", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == CSV_RESULTS[key]

    def test_classify_echoes_the_merged_parameter_map(self, tmp_path, capsys):
        par = tmp_path / "grid.par"
        par.write_text("kind = sum\nN = 3\np = 3 4\nq = 2\ns = 1\nm = 0.5\nM = 2\n")
        assert run(["classify", "--params", str(par), "--kind", "product", "--q", "1.5"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config_echo"]["params"] == {
            "M": ["2"], "N": ["3"], "kind": ["product"], "m": ["0.5"], "p": ["3", "4"],
            "q": ["1.5"], "s": ["1"]}
        # row i is instance i of the echoed map's expansion
        assert len(report["results"]) == 2
        assert expand_instances(report["config_echo"]["params"]) == [
            ProblemInstance(N=3, p=p, q=1.5, kind="product", s=1.0, m=0.5, M=2.0)
            for p in (3.0, 4.0)]

    def test_search_b_and_solve_radial_echo_the_merged_parameter_map(self, tmp_path, capsys):
        # An inline flag overrides its file key in the echo as in the run.
        par = tmp_path / "one.par"
        for command, text, (flag, token) in (("search-b", PRODUCT_FILE + "N = 2\n", ("--s", "0.3")),
                                             ("solve-radial", RADIAL_FILE, ("--u0", "-32"))):
            par.write_text(text)
            assert run([command, "--params", str(par), flag, token]) == 0
            report = json.loads(capsys.readouterr().out)
            params = report["config_echo"]["params"]
            assert params == dict(parse_params(text), **{flag[2:]: [token]})
            [row] = report["results"]
            assert expand_instances(params) == [ProblemInstance(**row["instance"])]
            if command == "solve-radial":
                assert radial_settings(params) == row["radial"]
        # With inline flags only, the row's instance is the whole input: no map is echoed.
        assert run(["search-b", *PRODUCT_A]) == 0
        assert "params" not in json.loads(capsys.readouterr().out)["config_echo"]

    def test_negative_infinity_survives_the_report(self, capsys):
        assert run(["classify", "--kind", "sum", "--N", "2", "--p", "1.3", "--q", "1.3",
                    "--s", "0.3", "--m", "0.2", "--M", "1"]) == 0
        text = capsys.readouterr().out
        assert "-Infinity" in text
        report = json.loads(text)
        [row] = report["results"]
        [limit] = [report["conditions"][index] for index in row["conditions"]
                   if report["conditions"][index][1] == "beta2_limit_positive"]
        theorem, _, template, passed, values = limit
        assert (theorem, passed, values) == ("thm_sum_liouville", False, [-math.inf])
        assert template.format(*values) == "1 - (p-q)(1+s)/(s-q+1) > 0: -inf"

    def test_one_instance_report_lists_only_its_templates(self, capsys):
        assert run(["classify", "--kind", "hamilton_jacobi", "--N", "2", "--p", "3",
                    "--q", "2", "--m", "2.5"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["conditions"] == [
            ["thm_HJ", "superlinear_gradient", "m > p-1: {:.6g} > {:.6g}", True, [2.5, 2.0]],
            ["thm_IL", "m_gt_q",
             "m > q (gradient-dominated reaction, bounded solutions): {:.6g} > {:.6g}",
             True, [2.5, 2.0]],
        ]
        assert report["results"][0]["conditions"] == [0, 1]
        assert run(["classify", *PRODUCT]) == 0
        report = json.loads(capsys.readouterr().out)
        used = report["results"][0]["conditions"]
        # first-use order, and no condition the row does not use
        assert used == list(range(len(used))) == list(range(len(report["conditions"])))

    @pytest.mark.parametrize("optimal", [False, True])
    def test_rows_hold_no_threshold_records(self, optimal, capsys):
        flag = ["--optimal-search"] if optimal else []
        for argv in (["--params", TINY_GRID], ["--params", TINY_GRID.replace("product", "sum")],
                     [*HJ, "--m", "2.5"]):
            assert run(["classify", *argv, *flag]) == 0
            rows = json.loads(capsys.readouterr().out)["results"]
            assert not any({"product_thresholds", "sum_thresholds"} & set(row) for row in rows)
            assert any("selection" in row for row in rows) or argv[0] != "--params"

    def test_reports_without_conditions_have_no_template_table(self, capsys):
        assert run(["search-b", *PRODUCT]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "conditions" not in report and "condition_templates" not in report
        [row] = report["results"]
        assert "epsilon_used" not in row["selection"]

    def test_search_b_reports_of_every_schema_plot_alike(self, tmp_path, capsys):
        new = tmp_path / "schema6.json"
        assert run(["search-b", *PRODUCT, "--out", str(new)]) == 0
        report = json.loads(new.read_text())
        [row] = report["results"]
        assert run(["plot-data", "--report", str(new), "--selector", "trinomial"]) == 0
        plot = capsys.readouterr().out
        assert plot.count("\n") == cli.DEFAULT_ORACLE_POINTS + 1
        # Schemas 1 to 4 stored a selection's epsilon_used, always 0.0; a
        # schema-5 row is the schema-6 row.
        old_row = dict(row, selection=dict(row["selection"], epsilon_used=0.0))
        for schema in (1, 2, 3, 4, 5):
            old = tmp_path / f"schema{schema}.json"
            rows = [row if schema == 5 else old_row]
            old.write_text(json.dumps(dict(report, schema=schema, results=rows)))
            assert run(["plot-data", "--report", str(old), "--selector", "trinomial"]) == 0
            assert capsys.readouterr().out == plot, schema

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_sweep_rows_leave_out_instances_and_null_keys(self, tmp_path_factory, data):
        def grid(lo, hi):
            values = st.floats(lo, hi, allow_nan=False, allow_infinity=False)
            return data.draw(st.lists(values, min_size=1, max_size=2, unique=True))

        q = grid(1.05, 3.0)
        lines = {"kind": [data.draw(st.sampled_from(KINDS))],
                 "N": data.draw(st.lists(st.integers(2, 5), min_size=1, max_size=2, unique=True)),
                 "p": grid(max(q), 5.0), "q": q,
                 "s": grid(0.0, 3.0), "m": grid(0.0, 6.0), "M": grid(0.0, 2.0)}
        par = tmp_path_factory.mktemp("grid") / "grid.par"
        par.write_text("".join(f"{key} = {' '.join(map(str, values))}\n"
                               for key, values in lines.items()))
        optimal = data.draw(st.booleans())
        argv = ["sweep", "--params", str(par)] + (["--optimal-search"] if optimal else [])
        text = "".join(_report(build_parser().parse_args(argv))[0].to_json())
        report = json.loads(text)
        instances = expand_instances(report["config_echo"]["params"])
        assert len(instances) == len(report["results"])
        decisions = [classify(inst, optimal_search=optimal) for inst in instances]
        assert viewed_conditions(text) == schema5_conditions(decisions)
        table = report["conditions"]
        for theorem, label, template, passed, values in table:
            assert isinstance(passed, bool) and isinstance(values, list)
        for row in report["results"]:
            assert set(row) <= ROW_KEYS - {"instance"}
            assert None not in row.values() and row.get("matches") != []
            for index in row["conditions"]:
                assert type(index) is int and 0 <= index < len(table)
        for row in json.loads(schema6_view(text))["results"]:
            for key, fields in THRESHOLD_KEYS.items():
                if key in row:
                    assert set(row[key]) <= fields and None not in row[key].values()

    def test_condition_table_keeps_zero_signs_infinities_and_nan(self, tmp_path):
        # -0 gives s = -0.0, which equals 0.0; s = MAX_FIELD keeps Q3 finite
        # (NaN at s = 1e200, which is now refused); s = q - 1 makes the sum
        # beta2 limit -inf.
        grids = {"product": "kind = product\nN = 2\np = 2.2 2\nq = 2\ns = 0 -0 0.5 1e15\n"
                            "m = 0 -0 1 2\n",
                 "sum": "kind = sum\nN = 2\np = 1.3\nq = 1.3\ns = 0.3 0 -0\nm = 0.2 0 -0\n"
                        "M = 1 0 -0\n"}
        for kind, lines in grids.items():
            par = tmp_path / f"{kind}.par"
            par.write_text(lines)
            out = tmp_path / f"{kind}.json"
            assert run(["sweep", "--params", str(par), "--out", str(out)]) == 0
            text = out.read_text()
            decisions = [classify(inst) for inst in expand_instances(parse_params(lines))]
            assert viewed_conditions(text) == schema5_conditions(decisions), kind
            # each distinct condition once: no two entries write the same JSON
            entries = [json.dumps(entry) for entry in json.loads(text)["conditions"]]
            assert len(entries) == len(set(entries)), kind
            assert "-0.0" in text and "0.0" in text, kind
        assert "NaN" not in (tmp_path / "product.json").read_text()
        assert "-Infinity" in (tmp_path / "sum.json").read_text()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_int_fields_report_as_their_float_values(self, data):
        # library callers may pass int fields: the instance stores floats, so
        # no condition value is an int (2 == 2.0, but JSON tells them apart)
        def field(*choices):
            return data.draw(st.sampled_from(choices))

        given_fields = []
        for _ in range(data.draw(st.integers(1, 6))):
            q = field(2, 2.0, 1.5)
            p = field(q, float(q), 2, 2.0, 3, 2.2)
            given_fields.append((field(2, 3), max(p, q), q, field(*KINDS),
                                 field(0, 0.0, -0.0, 1, 1.0, 0.5, MAX_FIELD),
                                 field(0, 0.0, -0.0, 1, 1.0, 2, 2.0, 2.5), field(0, -0.0, 1, 1.0)))
        optimal = data.draw(st.booleans())

        def report(instances):
            decisions = [classify(inst, optimal_search=optimal) for inst in instances]
            table = ConditionTable()
            results = [decision.as_dict(table) for decision in decisions]
            report = Report("0", {}, [encode_rows(results)], conditions=table.entries)
            return decisions, "".join(report.to_json())

        decisions, text = report([ProblemInstance(*fields) for fields in given_fields])
        as_floats = [ProblemInstance(N, float(p), float(q), kind, float(s), float(m), float(M))
                     for N, p, q, kind, s, m, M in given_fields]
        assert report(as_floats)[1] == text
        assert int not in {type(v) for d in decisions for c in d.conditions for v in c.values}
        assert viewed_conditions(text) == schema5_conditions(decisions)
        entries = [json.dumps(entry) for entry in json.loads(text)["conditions"]]
        assert len(entries) == len(set(entries))

    def test_radial_reports_of_every_schema_plot_alike(self, tmp_path):
        new = tmp_path / "schema6.json"
        assert run(["solve-radial", *RADIAL_SUM, "--out", str(new)]) == 0
        report = json.loads(new.read_text())
        row = report["results"][0]
        assert "r" not in row and "du" not in row
        # Schemas 1 and 2 stored the mesh r, schemas 1 to 3 du = np.diff(u) / h
        # on it, and schema 1 the gradient profile; plot-data rebuilds all three.
        r = radial_mesh(row["radial"]["r0"], row["radial"]["r1"], len(row["u"]) - 1)
        h = float(r[1] - r[0])
        du = [(b - a) / h for a, b in zip(row["u"], row["u"][1:])]
        profile = gradient_vs_distance(RadialSolution.from_row(row)).tolist()
        stored = {5: {}, 4: {}, 3: {"du": du}, 2: {"r": r.tolist(), "du": du},
                  1: {"r": r.tolist(), "du": du, "gradient_profile": profile}}
        plot = plot_in_fresh_process(new)
        for schema, extra in stored.items():
            old = tmp_path / f"schema{schema}.json"
            old.write_text(json.dumps(dict(report, schema=schema, results=[dict(row, **extra)])))
            assert plot_in_fresh_process(old) == plot, schema
        # The CSV table, written from the solution itself, has the same r, u and du.
        table = tmp_path / "table.csv"
        assert run(["solve-radial", *RADIAL_SUM, "--format", "csv", "--out", str(table)]) == 0
        columns = list(zip(*(line.split(",") for line in table.read_text().splitlines()[1:])))
        assert list(columns[0]) == [repr(x) for x in r.tolist()]
        assert list(columns[1]) == [repr(x) for x in row["u"]]
        assert list(columns[2]) == [repr(x) for x in du] + [""]

    def test_timing_with_csv_exits_before_any_work(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("an instance was built")

        monkeypatch.setattr(pqliouville.params, "ProblemInstance", refuse)
        for argv in (["classify", *PRODUCT], ["sweep", "--params", TINY_GRID],
                     ["solve-radial", *RADIAL_SUM]):
            assert run(argv + ["--format", "csv", "--timing"]) == 2
            assert capsys.readouterr().err.startswith("error: --timing needs --format json")
        # --fit fits a rate that a CSV table has no column for
        assert run(["solve-radial", *RADIAL_SUM, "--format", "csv", "--fit"]) == 2
        assert capsys.readouterr().err.startswith("error: --fit needs --format json")

    @pytest.mark.parametrize("argv, source, digest", TABLE_RESULTS.values(),
                             ids=list(TABLE_RESULTS))
    def test_tables_keep_their_bytes(self, argv, source, digest, tmp_path):
        if source is not None:
            report = tmp_path / "source.json"
            assert run([*source, "--out", str(report)]) == 0
            argv = [*argv, "--report", str(report)]
        out = tmp_path / "table.csv"
        assert run([*argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("argv, digest", RECORD_BYTES.values(), ids=list(RECORD_BYTES))
    def test_records_keep_their_bytes(self, argv, digest, capsys):
        assert run(argv) == 0
        text = capsys.readouterr().out
        assert json.loads(text)["schema"] == 7 and "conditions" not in json.loads(text)
        assert hashlib.sha256(schema5_view(text)).hexdigest() == digest

    @pytest.mark.parametrize("source, selector, section, field, value", TAMPERED.values(),
                             ids=list(TAMPERED))
    def test_tampered_reports_exit_two(self, source, selector, section, field, value, tmp_path,
                                       capsys):
        report = tmp_path / "report.json"
        assert run([*source, "--out", str(report)]) == 0
        doc = json.loads(report.read_text())
        doc["results"][0][section][field] = value
        report.write_text(json.dumps(doc))
        out = tmp_path / "out.csv"
        assert run(["plot-data", "--report", str(report), "--selector", selector,
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, content, message", BAD_FILES.values(), ids=list(BAD_FILES))
    def test_bad_files_exit_two_with_an_error_line(self, argv, content, message, tmp_path,
                                                   capsys):
        path = tmp_path / "bad"
        if isinstance(content, list):
            assert run([*content, "--out", str(path)]) == 0
        else:
            path.write_bytes(content)
        out = tmp_path / "out.csv"
        assert run([*argv, str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and "Traceback" not in err
        assert not out.exists()


# Both zero signs of s on either side of a chunk boundary, so that conditions
# the condition table keys by their repr cross chunks.
ZERO_SIGNS = "kind = product\nN = 2\np = 2.5\nq = 2\ns = 0 -0.0\nm = 1.5 2.5\n"


def split_rows(monkeypatch, workers: int) -> list:
    """Give the grid commands `workers` row workers on any grid of that many
    instances; return the list that each os.fork call of this process appends to."""
    monkeypatch.setattr(cli, "MIN_CHUNK", 1)
    monkeypatch.setattr(cli, "worker_count", lambda: workers)
    forks, fork = [], os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def fail_in(monkeypatch, parent: bool, name: str = "classify") -> None:
    """Make the row function cli.`name` raise in the parent process only, or
    in its children only."""
    pid, original = os.getpid(), getattr(cli, name)

    def failing(inst, *args, **kwargs):
        if (os.getpid() == pid) == parent:
            raise RuntimeError(f"cannot classify {inst}")
        return original(inst, *args, **kwargs)

    monkeypatch.setattr(cli, name, failing)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# The grid commands' row kinds on the tiny grids besides the JSON sweeps:
# search-b rows and CSV lines.
OTHER_ROWS = [f"{command} {grid}" for command in ("search-b", "sweep --format csv")
              for grid in ("tiny_product_grid.par", "tiny_sum_grid.par")]
# Every row kind on the committed grids: JSON sweeps with and without the
# selection, CSV lines and search-b rows.
COMMITTED_ROWS = [*(f"{command} {grid}" for command in ("sweep", "sweep --optimal-search",
                                                        "sweep --format csv")
                    for grid in ("product_grid.par", "sum_grid.par")), "search-b product_grid.par"]
# Each grid key, and the row worker counts that must give its one-worker bytes.
WORKER_COUNTS = {**dict.fromkeys([*(key for key in sorted(SCHEMA7_BYTES) if "tiny" in key),
                                  *OTHER_ROWS], (1, 2, 3)),
                 **dict.fromkeys(COMMITTED_ROWS, (3,))}
# The serial bytes of a key without a pin here are those of one worker.
ROW_PINS = {**SCHEMA7_BYTES,
            **{f"sweep --format csv {grid}": CSV_RESULTS[f"sweep {grid}"]
               for grid in ("tiny_product_grid.par", "product_grid.par")}}


def serial_digest(key: str, tmp_path: Path, monkeypatch) -> str:
    """The digest of a grid key's report built by one worker, checked against its pin."""
    split_rows(monkeypatch, 1)
    digest = hashlib.sha256(grid_report(key, tmp_path)).hexdigest()
    assert digest == ROW_PINS.get(key, digest)
    return digest


class TestRowWorkers:
    @pytest.mark.parametrize("key", WORKER_COUNTS)
    def test_any_worker_count_gives_the_serial_bytes(self, key, tmp_path, monkeypatch):
        serial = serial_digest(key, tmp_path, monkeypatch)
        for workers in WORKER_COUNTS[key]:
            forks = split_rows(monkeypatch, workers)
            assert hashlib.sha256(grid_report(key, tmp_path)).hexdigest() == serial
            assert len(forks) == workers - 1
            assert_no_child_left()

    @pytest.mark.parametrize("key", WORKER_COUNTS)
    def test_any_piece_length_gives_the_serial_bytes(self, key, tmp_path, monkeypatch):
        # one row a piece, and one piece longer than any chunk
        serial = serial_digest(key, tmp_path, monkeypatch)
        grid = PRODUCT_GRID.with_name(key.split()[-1])
        for length in (1, len(expand_instances(parse_params(grid.read_text()))) + 1):
            monkeypatch.setattr(cli, "PIECE_ROWS", length)
            for workers in (1, 2, 3):
                forks = split_rows(monkeypatch, workers)
                assert hashlib.sha256(grid_report(key, tmp_path)).hexdigest() == serial
                assert len(forks) == workers - 1
                assert_no_child_left()

    def test_an_idle_pool_is_retired_before_forking(self, tmp_path, monkeypatch):
        key = "sweep tiny_product_grid.par"
        serial = serial_digest(key, tmp_path, monkeypatch)
        field = pqliouville.CATALOG["offset_sine"].sample(49, 3)  # two blocks of planes
        assert not operators.fits_one_block(field.values)
        assert pqliouville.change_of_variable_check(field, 2.0, 3.0, 1.5, tolerance=1.0).passed
        assert operators._pool is not None and threading.active_count() > 1
        forks = split_rows(monkeypatch, 2)
        assert hashlib.sha256(grid_report(key, tmp_path)).hexdigest() == serial
        assert len(forks) == 1 and operators._pool is None
        assert_no_child_left()

    def test_stdout_gets_the_out_bytes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "PIECE_ROWS", 2)
        forks = split_rows(monkeypatch, 3)
        out = tmp_path / "report"
        for argv in (*(["sweep", *fmt, "--params", str(PRODUCT_GRID.with_name(grid))]
                       for fmt in ([], ["--format", "csv"])
                       for grid in ("tiny_product_grid.par", "tiny_sum_grid.par")),
                     ["il-window", "--q", "2", "--m", "3"]):
            assert run([*argv, "--out", str(out)]) == 0
            assert run(argv) == 0
            assert capsys.readouterr().out.encode() == out.read_bytes(), argv
        assert len(forks) == 2 * 2 * 4
        assert_no_child_left()

    def test_zero_signs_cross_chunks(self, tmp_path, monkeypatch):
        par, out = tmp_path / "zeros.par", tmp_path / "report.json"
        par.write_text(ZERO_SIGNS)
        reports = []
        for workers in (1, 2, 3, 4):
            split_rows(monkeypatch, workers)
            assert run(["sweep", "--params", str(par), "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert len(set(reports)) == 1
        shown = [repr(values) for _, label, _, _, values in json.loads(reports[0])["conditions"]
                 if label == "s_positive"]
        assert shown == ["[0.0]", "[-0.0]"]

    @pytest.mark.parametrize("failure", ["child-raises", "fork-raises", "payload-bad",
                                         "fails-after-its-first-piece"])
    def test_failed_workers_give_the_serial_bytes(self, failure, tmp_path, monkeypatch):
        # each kind of row: classify's JSON and CSV rows and search-b's
        rows = {"sweep --optimal-search tiny_product_grid.par": "classify",
                "sweep --format csv tiny_sum_grid.par": "classify",
                "search-b tiny_product_grid.par": "_search_one"}
        serial = {key: serial_digest(key, tmp_path, monkeypatch) for key in rows}
        split_rows(monkeypatch, 3)
        monkeypatch.setattr(cli, "PIECE_ROWS", 2)  # each child's 3 to 6 rows take 2 or 3 pieces
        if failure == "fork-raises":
            def refuse():
                raise OSError("no fork")

            monkeypatch.setattr(os, "fork", refuse)
        elif failure == "payload-bad":
            def bad(data):
                raise ValueError("bad marshal data")

            monkeypatch.setattr(cli, "marshal", SimpleNamespace(dumps=marshal.dumps, loads=bad))
        elif failure == "fails-after-its-first-piece":
            pid, sent = os.getpid(), []

            def second_fails(obj):
                if os.getpid() != pid:  # a child counts its own pieces
                    sent.append(1)
                    if len(sent) == 2:
                        raise RuntimeError("cannot encode the second piece")
                return marshal.dumps(obj)

            monkeypatch.setattr(cli, "marshal", SimpleNamespace(dumps=second_fails,
                                                                loads=marshal.loads))
        for key, name in rows.items():
            with monkeypatch.context() as patch:
                if failure == "child-raises":
                    fail_in(patch, parent=False, name=name)
                assert hashlib.sha256(grid_report(key, tmp_path)).hexdigest() == serial[key]
                if "csv" not in key:
                    out = tmp_path / "timed.json"
                    command = key.split()[0]
                    assert run([command, "--params", TINY_GRID, "--timing", "--out", str(out)]) == 0
                    assert json.loads(out.read_text())["timing"][0]["workers"] == 1
                assert_no_child_left()

    def test_parent_failure_raises_the_serial_exception(self, tmp_path, monkeypatch):
        argv = ["sweep", "--params", TINY_GRID, "--out", str(tmp_path / "report.json")]
        fail_in(monkeypatch, parent=True)
        errors = []
        for workers in (1, 3):
            forks = split_rows(monkeypatch, workers)
            with pytest.raises(RuntimeError) as info:
                run(argv)
            errors.append(str(info.value))
            assert len(forks) == workers - 1
            assert_no_child_left()
        assert errors[0] == errors[1] and errors[0].startswith("cannot classify")

    def test_one_instance_never_forks(self, tmp_path, monkeypatch):
        split_rows(monkeypatch, 4)

        def refuse():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", refuse)
        for argv in (["classify"], ["classify", "--format", "csv"], ["search-b"]):
            assert run([*argv, *PRODUCT_A, "--out", str(tmp_path / "report")]) == 0

    def test_a_second_search_b_forks_once_numpy_is_loaded(self, tmp_path):
        # A fresh process loads numpy in its first search-b, after that run has
        # forked; the second run forks with numpy loaded.
        serial = grid_report("search-b tiny_product_grid.par", tmp_path)
        outs = [tmp_path / "first.json", tmp_path / "second.json"]
        script = ("import os, sys\n"
                  "import pqliouville.cli as cli\n"
                  "cli.MIN_CHUNK, cli.worker_count = 1, lambda: 2\n"
                  "forks, fork = [], os.fork\n"
                  "os.fork = lambda: forks.append(1) or fork()\n"
                  "for out in sys.argv[2:]:\n"
                  "    print('numpy' in sys.modules, len(forks))\n"
                  "    assert cli.main(['search-b', '--params', sys.argv[1], '--out', out]) == 0\n"
                  "print('numpy' in sys.modules, len(forks))\n")
        done = python_in_fresh_process(["-c", script, TINY_GRID, *map(str, outs)])
        assert done.returncode == 0, done.stderr
        assert done.stdout.split("\n") == ["False 0", "True 1", "True 2", ""]
        assert [out.read_bytes() for out in outs] == [serial, serial]

    @pytest.mark.parametrize("grid, instances", [(PRODUCT_GRID, 9600), (Path(TINY_GRID), 16)])
    def test_timing_reports_the_split_rule(self, grid, instances, tmp_path):
        out = tmp_path / "report.json"
        assert run(["sweep", "--params", str(grid), "--timing", "--out", str(out)]) == 0
        split = max(1, min(worker_count(), instances // cli.MIN_CHUNK))
        assert json.loads(out.read_text())["timing"][0]["workers"] == split
        assert_no_child_left()


def test_identity_reports_are_the_same_for_any_pool(tmp_path, monkeypatch):
    # At 257 coarse nodes the 513^2 fine grid splits into four blocks a kernel.
    reports = []
    for threads in (1, 3):
        started = []
        pool = ThreadPoolExecutor(threads, initializer=started.append, initargs=(threads,))
        monkeypatch.setattr(operators, "_pool", pool)
        out = tmp_path / f"threads-{threads}.json"
        try:
            assert run(["verify-identities", "--resolution", "257", "--out", str(out)]) == 0
        finally:
            pool.shutdown()
        assert 1 <= len(started) <= threads
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def accepted_options() -> dict[str, set[str]]:
    """Each subcommand's option strings, read from the parser main uses."""
    subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {flag for action in sub._actions for flag in action.option_strings}
            - {"-h", "--help"} for name, sub in subs.choices.items()}


# (command, flag, value) pairs that the parser no longer accepts: each was
# parsed and echoed but changed nothing, sweep --task search-b was a
# second search-b path, and il-window --gamma-samples sampled a closed form.
REMOVED = (
    ("classify", "--tol", "newton_tol=1"),
    ("search-b", "--format", "csv"),
    ("search-b", "--optimal-search", None),
    ("search-b", "--tol", "newton_tol=1"),
    ("il-window", "--params", TINY_GRID),
    ("il-window", "--format", "csv"),
    ("il-window", "--optimal-search", None),
    ("il-window", "--tol", "identity_factor=1"),
    ("il-window", "--gamma-samples", "3"),
    ("verify-identities", "--params", TINY_GRID),
    ("verify-identities", "--format", "csv"),
    ("verify-identities", "--optimal-search", None),
    ("solve-radial", "--optimal-search", None),
    ("sweep", "--tol", "newton_tol=1"),
    ("sweep", "--task", "search-b"),
)


class TestOptions:
    BASES = {
        "classify": ["classify", *PRODUCT],
        "search-b": ["search-b", *PRODUCT],
        "il-window": ["il-window", "--q", "2", "--m", "3"],
        "verify-identities": ["verify-identities", "--resolution", "5"],
        "solve-radial": ["solve-radial", *RADIAL_SUM],
        "sweep": ["sweep", "--params", TINY_GRID],
    }

    def test_option_count(self):
        options = accepted_options()
        assert sum(len(flags) for flags in options.values()) == 58
        for command, flag, _ in REMOVED:
            assert flag not in options[command]

    def test_cli_defaults_equal_the_library_defaults(self):
        # cli.py imports no numpy-backed module at start-up, so it repeats these values.
        assert cli.TOLERANCE_DEFAULTS == {"identity_factor": DEFAULT_TOLERANCE_FACTOR,
                                          "newton_tol": NEWTON_TOL}

    def test_every_option_changes_the_run(self, tmp_path, capsys):
        par = tmp_path / "extra.par"
        par.write_text("M = 1\n")
        radial_par = tmp_path / "radial.par"
        radial_par.write_text("M = 1\nreg_eps = 1e-6\n")
        search = tmp_path / "search.json"
        other = tmp_path / "other.json"
        assert run(["search-b", *PRODUCT, "--out", str(search)]) == 0
        assert run(["search-b", *PRODUCT, "--m", "2", "--out", str(other)]) == 0
        instance = {"--kind": "sum", "--N": "3", "--p": "3", "--q": "1.5", "--s": "1",
                    "--m": "0.5", "--M": "2"}
        cases = {
            "classify": {**instance, "--params": par, "--format": "csv",
                         "--optimal-search": None, "--timing": None},
            "search-b": {**instance, "--params": par, "--oracle-points": "4096",
                         "--timing": None},
            "il-window": {"--q": "3", "--m": "4", "--timing": None},
            "verify-identities": {"--resolution": "9", "--tol": "identity_factor=1e-6",
                                  "--timing": None},
            "solve-radial": {**instance, "--kind": "product", "--N": "2", "--params": radial_par,
                             "--r0": "0.5", "--r1": "3", "--u0": "2", "--u1": "3",
                             "--mesh-n": "128", "--reg-eps": "1e-6", "--fit": None,
                             "--format": "csv", "--tol": "newton_tol=1e-3", "--timing": None},
            "sweep": {"--params": PRODUCT_GRID.with_name("tiny_sum_grid.par"),
                      "--format": "csv", "--optimal-search": None, "--timing": None},
            "plot-data": {"--report": other, "--selector": "gradient_profile"},
        }
        bases = dict(self.BASES, **{"plot-data": ["plot-data", "--report", str(search),
                                                  "--selector", "trinomial"]})

        def outcome(argv):
            code = run(argv)
            out = capsys.readouterr().out
            try:
                report = json.loads(out)
            except ValueError:
                return code, out
            # classify and sweep rows store no instance: compare the instances
            # the run classified, expanded from the echo, but not the echo
            echo = report.pop("config_echo")
            classified = "conditions" in report
            return code, report, expand_instances(echo["params"]) if classified else None

        options = accepted_options()
        assert set(cases) == set(options)
        for command, extras in cases.items():
            assert set(extras) == options[command] - {"--out"}, command
            base = outcome(bases[command])
            for flag, value in extras.items():
                argv = bases[command] + [flag] + ([] if value is None else [str(value)])
                assert outcome(argv) != base, argv

    def test_removed_options_exit_two_at_parse_time(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("the command ran")

        monkeypatch.setattr(pqliouville.params, "ProblemInstance", refuse)
        monkeypatch.setattr(cli, "il_parameter_window", refuse)
        monkeypatch.setattr(cli, "_identity_suite", refuse)
        for command, flag, value in REMOVED:
            argv = self.BASES[command] + [flag] + ([] if value is None else [value])
            assert run(argv) == 2, argv
            assert f"error: unrecognized arguments: {flag}" in capsys.readouterr().err
