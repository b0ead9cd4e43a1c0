import json

import pytest

from pqliouville.cli import _cmd_sweep, _load_params, build_parser, main
from pqliouville.params import ParamError, expand_instances, parse_params


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


class TestCommands:
    def test_classify_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = run([
            "classify", "--kind", "product", "--N", "2", "--p", "2.2",
            "--q", "2", "--s", "0.5", "--m", "2.0", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == 1
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
            assert run(["sweep", "--params", str(par), "--out", str(out), "--seed", "11"]) == 0
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
        report, _ = _cmd_sweep(args, params)
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
        for row in report["results"]:
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
        assert run(["plot-data", "--report", str(out), "--selector", "trinomial"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# t,value"
        assert len(lines) == 1 + row["oracle"]["grid_points"]

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
        assert len(row["r"]) == 129
        assert len(row["du"]) == 128
        assert "fit" in row
        assert run([
            "plot-data", "--report", str(out), "--selector", "gradient_profile",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# d,abs_du"

    def test_solve_radial_failure_exit_code(self, tmp_path):
        out = tmp_path / "bad.json"
        code = run([
            "solve-radial", "--kind", "product", "--N", "2", "--p", "2", "--q", "2",
            "--s", "0.5", "--m", "0", "--r0", "1", "--r1", "2", "--u0", "-1",
            "--u1", "-1", "--mesh-n", "64",
        ] + ["--out", str(out)])
        assert code == 3
        report = json.loads(out.read_text())
        assert report["results"][0]["converged"] is False

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
        ):
            assert run(argv) == 2
            assert message in capsys.readouterr().err

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
