import argparse
import hashlib
import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pqliouville.cli as cli
import pqliouville.params
from pqliouville.cli import _load_params, _report, build_parser, main
from pqliouville.identities import DEFAULT_TOLERANCE_FACTOR
from pqliouville.instance import KINDS, ProblemInstance
from pqliouville.operators import worker_count
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
    "il-window-q-nan": (["il-window", "--q", "nan", "--m", "3"], None, "q and m must be finite"),
    "il-window-m-inf": (["il-window", "--q", "2", "--m", "inf"], None, "q and m must be finite"),
    "il-window-m-minus-1e3": (["il-window", "--q", "2", "--m", "-1e3"], None,
                              "m must be positive"),
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
        assert report["schema"] == 5
        assert "timing" not in report
        row = report["results"][0]
        assert row["theorem"] == "thm_product_A"
        assert row["liouville"] is True

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
        assert json.loads(text) == report.as_dict()
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
        report = json.loads(capsys.readouterr().out)
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
        # classify and sweep time their expansion and their rows (classify
        # and as_dict), verify-identities gives the size of the grid
        # kernels' thread pool; other commands give the total alone
        stages = {"expand_s", "rows_s", "total_s"}
        for argv, keys in (
            (["classify", *PRODUCT_A], stages),
            (["sweep", "--params", TINY_GRID], stages),
            (["search-b", *PRODUCT_A], {"total_s"}),
            (["il-window", "--q", "2", "--m", "3"], {"total_s"}),
            (["verify-identities", "--resolution", "5"], {"workers", "total_s"}),
        ):
            out = tmp_path / "t.json"
            assert run([*argv, "--timing", "--out", str(out)]) == 0
            timing = json.loads(out.read_text())["timing"]
            assert [set(entry) for entry in timing] == [keys]
            assert all(seconds >= 0.0 for seconds in timing[0].values())
            if keys == stages:
                assert timing[0]["expand_s"] + timing[0]["rows_s"] <= timing[0]["total_s"]
        assert timing[0]["workers"] == worker_count() >= 1

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


# SHA-256 of the raw bytes of reports on the full benchmark grids: plain
# sweeps, and the reports whose selection traces together reach every
# selection case.
FULL_SWEEP_BYTES = {
    "sweep product_grid.par": "ae0a47bbfbe88457031efbe8f73ae2012171f084e892d25c793bcbbeb80c66e6",
    "sweep sum_grid.par": "743e8f72f1c7061b934674e16f4acb84a09ef8fada00f3395ecd19508c40e88f",
    "sweep --optimal-search sum_grid.par":
        "3ff3da0914e6d21a2c4c0ae314e1f1a10a64849674eb2121d41267b293f415e3",
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
        "b41fc9e56930c288319af77e63ecfbae2fea10537ed230169faa6f48717671b8",
    # a header and 16 instance lines
    "sweep tiny_product_grid.par": "36bebfba7f8cd6e53371d52e59daaf8b727f195a43c379bd0b61c93404537710",
}

# SHA-256 of the raw bytes of sweep reports on the tiny grids.
SWEEP_BYTES = {
    "sweep tiny_product_grid.par": "a13c47fba6ad3fb730a4e2c02ec6f9ae05c9a2687fda9108eabfcad632f68be7",
    "sweep --optimal-search tiny_product_grid.par":
        "9dc651493d4d0768fb3024434e172efdffef0d723e2fb25e308c5bcbbd659922",
    "sweep tiny_sum_grid.par": "82ecd125c0147c93466126e80c13b6dc238d5daf3a8e720455f9deae550ed12a",
    "sweep --optimal-search tiny_sum_grid.par":
        "bd3b51e9d61334369dd095d019438c6b3e0a72621356c6f78c42032ab66644ac",
}

# SHA-256 of the solve-radial CSV tables and plot-data curves: (argv, argv
# of the command whose report plot-data reads or None, digest).
TABLE_RESULTS = {
    # the three radial pins were re-taken when the Jacobian became exact and
    # the solve coarse to fine; u moved by at most 3.7e-10 max|u|
    "solve-radial-direct": (["solve-radial", *RADIAL_HJ_4096, "--format", "csv"], None,
                            "68a4ff1183be86dba648cd642a45d4394381ae31f0977653bffcab936b31c4cc"),
    "solve-radial-log": (["solve-radial", "--params", str(PRODUCT_GRID.with_name("log_product.par")),
                          "--format", "csv"], None,
                         "ad72104389f102beb8da014cf22894588968e90e0c838415934961ef7aa336ae"),
    # re-taken when the profile came to read the steeper wall only: the
    # 512 faces nearer r0, not all 1,024 faces at the nearer-wall distance
    "plot-data-gradient_profile": (["plot-data", "--selector", "gradient_profile"],
                                   ["solve-radial", *RADIAL_HJ_4096],
                                   "d930f8ecb70510289781deb34980df0a5f48b9dba035078171145839a8dda58d"),
    "plot-data-trinomial": (["plot-data", "--selector", "trinomial"], ["search-b", *PRODUCT_A],
                            "c62cd8e90e95d790126be6d383144a2995585a1bad208d356f7f7574d6af948e"),
}

# SHA-256 of the JSON reports, written to stdout, that serialise an
# IdentityReport or a BlowupFit: (argv, digest).
RECORD_BYTES = {
    "verify-identities": (["verify-identities", "--resolution", "33"],
                          "9209af26a8199a9119e8e5b25d0267aeeb50aa7854f1d6d0308cb70fe7c2c03b"),
    # re-taken with the one-wall profile: only "fit" moved, from exponent
    # 0.8257 (r^2 0.037) to 1.7265 (r^2 0.996)
    "solve-radial-fit": (["solve-radial", *RADIAL_HJ_4096, "--fit"],
                         "15775bb702c92442f4d3b3b6108125c216e9191af25b0ff1aa69f4f93790935d"),
    # the same run with u0 written as an exponent token gives the same bytes
    "solve-radial-fit-u0-exponent": (
        ["solve-radial", *[token.replace("-4096", "-4.096e3") for token in RADIAL_HJ_4096], "--fit"],
        "15775bb702c92442f4d3b3b6108125c216e9191af25b0ff1aa69f4f93790935d"),
}

# The keys a classify row may hold, and those of its threshold dicts.
ROW_KEYS = {"instance", "theorem", "matches", "conditions", "liouville", "estimate_exponent",
            "estimate_target", "exponents", "product_thresholds", "sum_thresholds", "selection"}
THRESHOLD_KEYS = {"product_thresholds": {"R", "Q", "discriminant_ok", "Q1", "Q2", "Q3", "a"},
                  "sum_thresholds": {"delta_pq", "m_max", "gap_ok", "s_minus", "s_plus"}}


def grid_report(key: str, tmp_path: Path) -> bytes:
    """The report bytes of a `command [flags] grid` key, the grid read from bench/inputs."""
    *command, grid = key.split()
    out = tmp_path / "report.json"
    assert run([*command, "--params", str(PRODUCT_GRID.with_name(grid)), "--out", str(out)]) == 0
    return out.read_bytes()


def cli_in_fresh_process(argv: list[str]) -> subprocess.CompletedProcess:
    """`python -m pqliouville.cli argv` in a new interpreter, where nothing is bound yet."""
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "pqliouville.cli", *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)


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
        assert hashlib.sha256(text).hexdigest() == TRACE_BYTES[key]

    @pytest.mark.parametrize("key", sorted(SWEEP_BYTES.keys() | FULL_SWEEP_BYTES.keys()))
    def test_sweep_reports_keep_their_bytes(self, key, tmp_path):
        digest = hashlib.sha256(grid_report(key, tmp_path)).hexdigest()
        assert digest == {**SWEEP_BYTES, **FULL_SWEEP_BYTES}[key]

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
        [limit] = [(report["condition_templates"][index], passed, values)
                   for index, passed, values in row["conditions"]
                   if report["condition_templates"][index][1] == "beta2_limit_positive"]
        (theorem, _, template), passed, values = limit
        assert (theorem, passed, values) == ("thm_sum_liouville", False, [-math.inf])
        assert template.format(*values) == "1 - (p-q)(1+s)/(s-q+1) > 0: -inf"

    def test_one_instance_report_lists_only_its_templates(self, capsys):
        assert run(["classify", "--kind", "hamilton_jacobi", "--N", "2", "--p", "3",
                    "--q", "2", "--m", "2.5"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["condition_templates"] == [
            ["thm_HJ", "superlinear_gradient", "m > p-1: {:.6g} > {:.6g}"],
            ["thm_IL", "m_gt_q",
             "m > q (gradient-dominated reaction, bounded solutions): {:.6g} > {:.6g}"],
        ]
        assert report["results"][0]["conditions"] == [[0, True, [2.5, 2.0]], [1, True, [2.5, 2.0]]]
        assert run(["classify", *PRODUCT]) == 0
        report = json.loads(capsys.readouterr().out)
        used = [c[0] for c in report["results"][0]["conditions"]]
        # first-use order, and no template the row does not use
        assert used == list(range(len(used))) == list(range(len(report["condition_templates"])))

    def test_reports_without_conditions_have_no_template_table(self, capsys):
        assert run(["search-b", *PRODUCT]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "condition_templates" not in report
        [row] = report["results"]
        assert "epsilon_used" not in row["selection"]

    def test_search_b_reports_of_every_schema_plot_alike(self, tmp_path, capsys):
        new = tmp_path / "schema5.json"
        assert run(["search-b", *PRODUCT, "--out", str(new)]) == 0
        report = json.loads(new.read_text())
        [row] = report["results"]
        assert run(["plot-data", "--report", str(new), "--selector", "trinomial"]) == 0
        plot = capsys.readouterr().out
        assert plot.count("\n") == cli.DEFAULT_ORACLE_POINTS + 1
        # Schemas 1 to 4 stored a selection's epsilon_used, always 0.0.
        old_row = dict(row, selection=dict(row["selection"], epsilon_used=0.0))
        for schema in (1, 2, 3, 4):
            old = tmp_path / f"schema{schema}.json"
            old.write_text(json.dumps(dict(report, schema=schema, results=[old_row])))
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
        argv = ["sweep", "--params", str(par)] + data.draw(st.sampled_from([[], ["--optimal-search"]]))
        report = json.loads(_report(build_parser().parse_args(argv))[0].to_json())
        assert len(expand_instances(report["config_echo"]["params"])) == len(report["results"])
        templates = report["condition_templates"]
        for row in report["results"]:
            assert set(row) <= ROW_KEYS - {"instance"}
            assert None not in row.values() and row.get("matches") != []
            for index, passed, values in row["conditions"]:
                assert 0 <= index < len(templates) and isinstance(passed, bool)
                assert isinstance(values, list)
            for key, fields in THRESHOLD_KEYS.items():
                if key in row:
                    assert set(row[key]) <= fields and None not in row[key].values()

    def test_radial_reports_of_every_schema_plot_alike(self, tmp_path):
        new = tmp_path / "schema5.json"
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
        stored = {4: {}, 3: {"du": du}, 2: {"r": r.tolist(), "du": du},
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
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

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
            classified = "condition_templates" in report
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
