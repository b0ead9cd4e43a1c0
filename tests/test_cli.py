import argparse
import hashlib
import json
import os
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
from pqliouville.instance import KINDS, ProblemInstance
from pqliouville.params import MAX_INSTANCES, ParamError, expand_instances, parse_params
from pqliouville.radial import (
    MAX_MESH_N,
    RadialProblem,
    gradient_vs_distance,
    radial_mesh,
    solve_radial,
)
from pqliouville.report import load
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
PRODUCT_FILE = "kind = product\np = 2.2\nq = 2\ns = 0.5\nm = 2\n"
RADIAL_FILE = "kind = hamilton_jacobi\nN = 2\np = 3\nq = 2\nm = 2.5\nr0 = 1\nr1 = 2\nu0 = -64\nu1 = 0\n"
# Non-finite and non-integral inputs: (argv, parameter file text or None).
REFUSED = {
    "s-nan": (["classify", "--kind", "product", "--N", "2", "--p", "2.2", "--q", "2",
               "--s", "nan", "--m", "2"], None),
    "p-inf": (["classify", "--kind", "product", "--N", "2", "--p", "inf", "--q", "2",
               "--s", "0.5", "--m", "2"], None),
    "hj-m-inf": (["classify", *HJ, "--m", "inf"], None),
    "file-N-2.5": (["classify"], PRODUCT_FILE + "N = 2.5\n"),
    "file-N-nan": (["classify"], PRODUCT_FILE + "N = nan\n"),
    "file-N-inf": (["sweep"], PRODUCT_FILE + "N = inf\n"),
    "file-mesh_n-100.7": (["solve-radial"], RADIAL_FILE + "mesh_n = 100.7\n"),
    "file-log_transform-on": (["solve-radial"], RADIAL_FILE + "log_transform = on\n"),
    "u0-inf": ([*RADIAL_HJ, "--r1", "2", "--u0", "inf", "--u1", "0"], None),
    "u0-nan": ([*RADIAL_HJ, "--r1", "2", "--u0", "nan", "--u1", "0"], None),
    "u1-nan": ([*RADIAL_HJ, "--r1", "2", "--u0", "-64", "--u1", "nan"], None),
    "r1-inf": ([*RADIAL_HJ, "--r1", "inf", "--u0", "-64", "--u1", "0"], None),
    "il-window-q-nan": (["il-window", "--q", "nan", "--m", "3"], None),
    "il-window-m-inf": (["il-window", "--q", "2", "--m", "inf"], None),
}

# Size options one above their limits: (argv, what the error line names).
OVERSIZED = {
    "oracle-points": (["search-b", *PRODUCT, "--oracle-points", str(cli.MAX_ORACLE_POINTS + 1)],
                      f"--oracle-points: must be at most {cli.MAX_ORACLE_POINTS:,}"),
    "gamma-samples": (["il-window", "--q", "2", "--m", "3",
                       "--gamma-samples", str(cli.MAX_GAMMA_SAMPLES + 1)],
                      f"--gamma-samples: must be at most {cli.MAX_GAMMA_SAMPLES:,}"),
    "resolution": (["verify-identities", "--resolution", str(cli.MAX_RESOLUTION + 1)],
                   f"--resolution: must be at most {cli.MAX_RESOLUTION:,}"),
    "mesh-n": (["solve-radial", *RADIAL_SUM, "--mesh-n", str(MAX_MESH_N + 1)],
               f"error: mesh_n must lie in [64, {MAX_MESH_N:,}]"),
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
        def refuse(**kwargs):
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
        for row in load(report)["results"]:
            inst = row["instance"]
            th = row["product_thresholds"]
            assert th["R"] == 0.0
            assert abs(th["Q1"]) <= 1e-14
            assert th["Q2"] == pytest.approx(4.0 * (inst["p"] - 1.0) / inst["N"], rel=1e-14)

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

    def test_plot_data_unknown_selector(self, tmp_path, capsys):
        out = tmp_path / "search.json"
        run([
            "search-b", "--kind", "product", "--N", "2", "--p", "2.2", "--q", "2",
            "--s", "0.5", "--m", "2.0", "--out", str(out),
        ])
        code = run(["plot-data", "--report", str(out), "--selector", "bogus"])
        assert code == 2

    def test_il_window(self, capsys):
        assert run(["il-window", "--q", "2", "--m", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        window = report["results"][0]["window"]
        assert window["feasible"] is True
        assert window["gamma_lo"] == pytest.approx(0.5)
        assert len(window["alpha_bounds"]) == report["config_echo"]["gamma_samples"] == 9
        assert run(["il-window", "--q", "2", "--m", "3", "--gamma-samples", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["results"][0]["window"]["alpha_bounds"]) == 3
        assert report["config_echo"] == {"command": "il-window", "q": 2.0, "m": 3.0,
                                         "gamma_samples": 3}

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
        code = run([
            "solve-radial", "--kind", "product", "--N", "2", "--p", "2", "--q", "2",
            "--s", "0.5", "--m", "0", "--r0", "1", "--r1", "2", "--u0", "-1",
            "--u1", "-1", "--mesh-n", "64",
        ] + ["--out", str(out)])
        assert code == 3
        report = json.loads(out.read_text())
        assert report["results"][0]["converged"] is False
        capsys.readouterr()
        assert run(["plot-data", "--report", str(out), "--selector", "gradient_profile"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

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
            (["il-window", "--q", "2", "--m", "3", "--gamma-samples", "0"],
             "--gamma-samples: must be at least 1"),
            (["il-window", "--q", "2", "--m", "3", "--gamma-samples", "-3"],
             "--gamma-samples: must be at least 1"),
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

    @pytest.mark.parametrize("argv, params", REFUSED.values(), ids=list(REFUSED))
    def test_nonfinite_and_nonintegral_inputs_exit_two(self, argv, params, tmp_path, capsys):
        if params is not None:
            par = tmp_path / "bad.par"
            par.write_text(params)
            argv = [*argv, "--params", str(par)]
        out = tmp_path / "out.json"
        assert run([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", OVERSIZED.values(), ids=list(OVERSIZED))
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
        out = tmp_path / "t.json"
        run([
            "classify", "--kind", "product", "--N", "2", "--p", "2.2", "--q", "2",
            "--s", "0.5", "--m", "2.0", "--timing", "--out", str(out),
        ])
        assert "timing" in json.loads(out.read_text())

    def test_verify_identities_reruns_are_byte_identical(self, tmp_path):
        paths = [tmp_path / "first.json", tmp_path / "second.json"]
        for path in paths:
            assert run(["verify-identities", "--resolution", "17", "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_verify_identities_default_catalog(self, capsys):
        assert run(["verify-identities", "--resolution", "33"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert all(row["report"]["passed"] for row in report["results"])
        checks = {row["check"] for row in report["results"]}
        assert checks == {"change_of_variable", "bochner", "scaling"}


# SHA-256 of the compact sorted JSON of each grid's sweep results in schema 3,
# where every condition was a {theorem, label, rendering, passed} dict; the
# rows report.load gives back hash the same.
SCHEMA_3_RESULTS = {
    "product_grid.par": "1c41f6e82f81e9692d56d9e9627e3feb12dacf1d09692788b680c321f75dd02e",
    "sum_grid.par": "4bda10efd6f9c5a4982f3727921aa5b41fc606ba9edaa5686c710a3dab0b1be3",
}

# SHA-256 of the compact sorted JSON of the loaded results (report.load) for
# commands whose rows carry selection traces: together they reach every
# selection case.  The search-b pins date from when selection still
# formatted its trace rows as it built them; the sweep pin is the schema-4
# report of that grid read through the schema-4 reader (expand_conditions).
PINNED_RESULTS = {
    "search-b product_grid.par": "f3a43e1ed2814cb8a883538b6fb1ed28deb02ada08ad87c31e0e75149803e656",
    "search-b sum_grid.par": "f74c1fff582ba6c0a0d5122e1ae89573ed3594ce38d1353e024978119651b090",
    "sweep --optimal-search product_grid.par":
        "1e8a24f64675328f67f3b2eba48fb681a540a3f113a8fe36f763b2272a8a631b",
}

# SHA-256 of `--format csv` output, pinned at schema 4, when the CSV writer
# read the instance stored in each row.
CSV_RESULTS = {
    "classify --kind product --N 2 --p 2.2 --q 2 --s 0.5 --m 2.0":
        "e860eda0c662feab0a6b83e584778fc28e5df9f49358e733bb7fbdeb0fa21f0e",
    "sweep product_grid.par": "ff5f7cac8ad16e056bc135d7a492ce74e75b285c733b541d4ce012a6a35ea24c",
    "sweep --optimal-search sum_grid.par":
        "b41fc9e56930c288319af77e63ecfbae2fea10537ed230169faa6f48717671b8",
}

# The keys of a schema-3 classify row, and those of its threshold dicts.
ROW_KEYS = {"instance", "theorem", "matches", "conditions", "liouville", "estimate_exponent",
            "estimate_target", "exponents", "product_thresholds", "sum_thresholds", "selection"}
THRESHOLD_KEYS = {"product_thresholds": {"R", "Q", "discriminant_ok", "Q1", "Q2", "Q3", "a"},
                  "sum_thresholds": {"delta_pq", "m_max", "gap_ok", "s_minus", "s_plus"}}


def sha256_json(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def plot_in_fresh_process(report: Path) -> str:
    """plot-data gradient_profile in a new interpreter, where nothing is bound yet."""
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "pqliouville.cli", "plot-data", "--report", str(report),
         "--selector", "gradient_profile"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def older_schemas(report: dict) -> dict[int, dict]:
    """A schema-5 classify, sweep or search-b report as schemas 1 to 4 wrote it.

    Rows of schemas 1 to 4 store the instance, the null keys and
    epsilon_used; schema 4 conditions are the same triples as schema 5, and
    schemas 1 to 3 store the expanded condition dicts.
    """
    loaded = load(report)["results"]
    schema_4 = [dict(full, conditions=row["conditions"]) if "conditions" in row else full
                for row, full in zip(report["results"], loaded)]
    expanded = {k: v for k, v in report.items() if k != "condition_templates"}
    return {4: dict(report, schema=4, results=schema_4),
            **{schema: dict(expanded, schema=schema, results=loaded) for schema in (1, 2, 3)}}


class TestReportSchema:
    @pytest.mark.parametrize("grid", sorted(SCHEMA_3_RESULTS))
    def test_reader_rebuilds_schema_3_sweep_rows(self, grid, tmp_path):
        out = tmp_path / "sweep.json"
        assert run(["sweep", "--params", str(PRODUCT_GRID.with_name(grid)), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["schema"] == 5
        assert report["config_echo"]["params"] == parse_params(PRODUCT_GRID.with_name(grid).read_text())
        for row in report["results"]:
            assert "instance" not in row and row.get("matches") != []
            assert all(isinstance(c, list) and len(c) == 3 for c in row["conditions"])
            for value in (row, row.get("product_thresholds", {}), row.get("sum_thresholds", {})):
                assert None not in value.values()
        assert sha256_json(load(report)["results"]) == SCHEMA_3_RESULTS[grid]

    @pytest.mark.parametrize("key", sorted(PINNED_RESULTS))
    def test_selection_traces_keep_their_bytes(self, key, tmp_path):
        *command, grid = key.split()
        out = tmp_path / "report.json"
        assert run([*command, "--params", str(PRODUCT_GRID.with_name(grid)),
                    "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert "epsilon_used" not in out.read_text()
        assert sha256_json(load(report)["results"]) == PINNED_RESULTS[key]

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
        instances = [row["instance"] for row in load(report)["results"]]
        assert instances == [ProblemInstance(N=3, p=p, q=1.5, kind="product", s=1.0, m=0.5,
                                             M=2.0).as_dict() for p in (3.0, 4.0)]

    def test_negative_infinity_survives_the_report(self, capsys):
        assert run(["classify", "--kind", "sum", "--N", "2", "--p", "1.3", "--q", "1.3",
                    "--s", "0.3", "--m", "0.2", "--M", "1"]) == 0
        text = capsys.readouterr().out
        assert "-Infinity" in text
        report = json.loads(text)
        [row] = load(report)["results"]
        [limit] = [c for c in row["conditions"] if c["label"] == "beta2_limit_positive"]
        assert limit == {"theorem": "thm_sum_liouville", "label": "beta2_limit_positive",
                         "rendering": "1 - (p-q)(1+s)/(s-q+1) > 0: -inf", "passed": False}

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
        assert load(report)["results"] == [dict(row, selection=dict(row["selection"],
                                                                    epsilon_used=0.0))]

    def test_reports_of_every_schema_load_alike(self, tmp_path, capsys):
        argvs = (["sweep", "--params", TINY_GRID],
                 ["sweep", "--params", PRODUCT_GRID.with_name("tiny_sum_grid.par"),
                  "--optimal-search"],
                 ["classify", *PRODUCT], ["search-b", *PRODUCT])
        for argv in argvs:
            assert run([*map(str, argv)]) == 0
            report = json.loads(capsys.readouterr().out)
            for schema, old in older_schemas(report).items():
                assert load(old)["results"] == load(report)["results"], (argv, schema)
                if argv[0] != "search-b":
                    assert cli._csv_text(old) == cli._csv_text(report), (argv, schema)
        # search-b plots its oracle curve the same from every schema
        for schema, old in older_schemas(report).items():
            path = tmp_path / f"schema{schema}.json"
            path.write_text(json.dumps(old))
            assert run(["plot-data", "--report", str(path), "--selector", "trinomial"]) == 0
            assert capsys.readouterr().out.count("\n") == 2049
        identities = tmp_path / "identities.json"
        assert run(["verify-identities", "--resolution", "5", "--out", str(identities)]) == 0
        report = json.loads(identities.read_text())
        assert '"constant"' not in identities.read_text()
        assert [row["report"]["constant"] for row in load(report)["results"]] == [None] * 21

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_loaded_rows_rebuild_instances_and_dropped_keys(self, tmp_path_factory, data):
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
        instances = expand_instances(report["config_echo"]["params"])
        loaded = load(report)["results"]
        assert len(loaded) == len(instances) == len(report["results"])
        for i, (row, full) in enumerate(zip(report["results"], loaded)):
            assert full["instance"] == instances[i].as_dict()
            assert set(full) == ROW_KEYS
            dropped = set(full) - set(row) - {"instance"}
            assert all(full[key] is None or key == "matches" and full[key] == []
                       for key in dropped)
            for key, fields in THRESHOLD_KEYS.items():
                if full[key] is not None:
                    assert set(full[key]) == fields
                    assert all(full[key][k] is None for k in fields - set(row[key]))

    def test_radial_reports_of_every_schema_plot_alike(self, tmp_path):
        new = tmp_path / "schema5.json"
        assert run(["solve-radial", *RADIAL_SUM, "--out", str(new)]) == 0
        report = json.loads(new.read_text())
        row = report["results"][0]
        assert "r" not in row and "du" not in row
        # Schemas 1 and 2 stored the mesh r, schemas 1 to 3 du = np.diff(u) / h
        # on it, and schema 1 the gradient profile; the reader rebuilds them all.
        r = radial_mesh(row["radial"]["r0"], row["radial"]["r1"], len(row["u"]) - 1)
        h = float(r[1] - r[0])
        du = [(b - a) / h for a, b in zip(row["u"], row["u"][1:])]
        profile = gradient_vs_distance(cli._row_solution(dict(row, r=r.tolist()))).tolist()
        stored = {4: {}, 3: {"du": du}, 2: {"r": r.tolist(), "du": du},
                  1: {"r": r.tolist(), "du": du, "gradient_profile": profile}}
        plot = plot_in_fresh_process(new)
        csv_new = cli._csv_text(report)
        for schema, extra in stored.items():
            old = tmp_path / f"schema{schema}.json"
            old.write_text(json.dumps(dict(report, schema=schema, results=[dict(row, **extra)])))
            assert plot_in_fresh_process(old) == plot, schema
            assert cli._csv_text(json.loads(old.read_text())) == csv_new, schema
        [loaded] = load(report)["results"]
        assert loaded == dict(row, r=r.tolist(), du=du)
        du_column = [line.split(",")[2] for line in csv_new.splitlines()[1:]]
        assert du_column == [repr(x) for x in du] + [""]

    def test_timing_with_csv_exits_before_any_work(self, monkeypatch, capsys):
        def refuse(**kwargs):
            raise AssertionError("an instance was built")

        monkeypatch.setattr(pqliouville.params, "ProblemInstance", refuse)
        for argv in (["classify", *PRODUCT], ["sweep", "--params", TINY_GRID],
                     ["solve-radial", *RADIAL_SUM]):
            assert run(argv + ["--format", "csv", "--timing"]) == 2
            assert capsys.readouterr().err.startswith("error: --timing needs --format json")


def accepted_options() -> dict[str, set[str]]:
    """Each subcommand's option strings, read from the parser main uses."""
    subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {flag for action in sub._actions for flag in action.option_strings}
            - {"-h", "--help"} for name, sub in subs.choices.items()}


# (command, flag, value) pairs that the parser no longer accepts: each was
# parsed and echoed but changed nothing, and sweep --task search-b was a
# second search-b path.
REMOVED = (
    ("classify", "--tol", "newton_tol=1"),
    ("search-b", "--format", "csv"),
    ("search-b", "--optimal-search", None),
    ("search-b", "--tol", "newton_tol=1"),
    ("il-window", "--params", TINY_GRID),
    ("il-window", "--format", "csv"),
    ("il-window", "--optimal-search", None),
    ("il-window", "--tol", "identity_factor=1"),
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
        assert sum(len(flags) for flags in options.values()) == 59
        for command, flag, _ in REMOVED:
            assert flag not in options[command]

    def test_every_option_changes_the_run(self, tmp_path, capsys):
        par = tmp_path / "extra.par"
        par.write_text("M = 1\nreg_eps = 1e-6\n")
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
            "il-window": {"--q": "3", "--m": "4", "--gamma-samples": "3", "--timing": None},
            "verify-identities": {"--resolution": "9", "--tol": "identity_factor=1e-6",
                                  "--timing": None},
            "solve-radial": {**instance, "--kind": "product", "--N": "2", "--params": par,
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
            # the loaded rows: classify rows keep their instance in the echo
            report = load(report)
            report.pop("config_echo")
            return code, report

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
