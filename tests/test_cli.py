"""End-to-end tests of the command-line interface and its emitters."""

import csv
import io
import json
import math

import numpy as np
import pytest

from contactlab import cli
from contactlab.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    RunConfig,
    config_from_args,
    build_arg_parser,
    emit_rows,
    fundamental_relation_from_expression,
    main,
    parse_omega_spec,
    parse_rho_range,
    run,
)
from contactlab.flows import LegendreMap, discrete_legendre
from contactlab.metriclab import GtdTotalParams, OmegaFunction, build_metric, flow_recurrence_residual
from contactlab.phasespace import DarbouxPoint
from contactlab.sampling import sample_darboux_points

PI_2 = math.pi / 2.0


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestConfig:
    def test_rho_range_parsing(self):
        assert parse_rho_range("0.2:4:200") == (0.2, 4.0, 200)
        for bad in ("1:2", "2:1:10", "1:2:1", "a:2:10", "1:2:x"):
            with pytest.raises(Exception):
                parse_rho_range(bad)

    def test_validation(self):
        with pytest.raises(Exception):
            RunConfig(command="fly").validate()
        with pytest.raises(Exception):
            RunConfig(command="orbit", dt=0.0).validate()
        with pytest.raises(Exception):
            RunConfig(command="orbit", format="yaml").validate()
        with pytest.raises(Exception):
            RunConfig(command="orbit", cv=math.inf).validate()

    def test_omega_spec_resolution(self):
        assert parse_omega_spec("const:2", 2).eval(np.zeros(2), np.zeros(2)) == 2.0
        assert parse_omega_spec("norm_sum", 2).eval(np.ones(2), np.ones(2)) == 4.0
        assert parse_omega_spec("expr:q1+1", 2).eval(np.array([2.0, 0.0]), np.zeros(2)) == 3.0
        with pytest.raises(Exception):
            parse_omega_spec("bogus", 2)

    def test_config_file_unknown_keys_rejected(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"cv": 1.5, "colour": "red"}))
        assert main(["rho-scan", "--config", str(cfg)]) == EXIT_CONFIG

    @pytest.mark.parametrize("bad", [{"points": "abc"}, {"dt": "x"}, {"points": None},
                                     {"omega": 5}, {"k": 1.5}, {"maps": 5}])
    def test_config_value_of_wrong_type(self, tmp_path, capsys, bad):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(bad))
        assert main(["isometry", "--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["curvature", "--cv", "1.5", "--omega", "const:1", "--u", "2", "--v", "1", "--h-fd", "0"],
        ["curvature", "--cv", "1.5", "--omega", "const:1", "--u", "2", "--v", "1", "--h-fd=-1e-4"],
        ["curvature", "--cv", "1.5", "--omega", "const:1", "--u", "2", "--v", "1", "--h-fd", "inf"],
        ["curvature", "--cv", "1.5", "--omega", "const:1", "--u", "inf", "--v", "1"],
        ["curvature", "--cv", "1.5", "--omega", "const:1", "--u", "2", "--v", "nan"],
        ["killing", "--family", "epsilon", "--omega", "norm_sum", "--points", "2", "--h-fd", "nan"],
        ["omega-check", "--omega", "expr:q1", "--points", "2", "--h-fd", "0"],
        ["isometry", "--family", "gtd_partial", "--points", "1", "--recurrence-dt", "nan"],
        ["isometry", "--family", "gtd_partial", "--points", "1", "--recurrence-dt", "inf"],
    ])
    def test_non_finite_or_non_positive_numeric_key(self, capsys, argv):
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "must be finite" in err or "must be positive" in err

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"cv": 2.5, "omega": "const:1", "u": 2.0, "v": 1.0}))
        assert main(["curvature", "--config", str(cfg)]) == EXIT_OK
        capsys.readouterr()
        out = tmp_path / "r.csv"
        assert main(["curvature", "--config", str(cfg), "--cv", "1.5", "--out", str(out)]) == EXIT_OK
        row = read_csv(out)[0]
        assert float(row["R_analytic"]) == pytest.approx(6.144, abs=1e-12)


class TestOrbit:
    def test_quarter_turn_row_matches_discrete_image(self, tmp_path):
        out = tmp_path / "orbit.csv"
        code = main(["orbit", "--ic", "1,0,0", "--pair", "1",
                     "--t-end", "6.2832", "--dt", "0.001", "--out", str(out)])
        assert code == EXIT_OK
        rows = read_csv(out)
        assert list(rows[0].keys()) == ["t", "Phi", "q1", "q2", "p1", "p2"]
        nearest = min(rows, key=lambda r: abs(float(r["t"]) - PI_2))
        image = discrete_legendre(DarbouxPoint(0.0, [1, 0], [0, 0]), LegendreMap.total(2))
        got = np.array([float(nearest[c]) for c in ("Phi", "q1", "q2", "p1", "p2")])
        assert np.abs(got - image.to_array()).max() < 5e-3

    def test_full_state_initial_condition(self, tmp_path):
        out = tmp_path / "orbit.csv"
        code = main(["orbit", "--ic", "1,2,3,0.5,-1", "--t-end", "0.5", "--dt", "0.01",
                     "--out", str(out)])
        assert code == EXIT_OK
        first = read_csv(out)[0]
        assert [float(first[c]) for c in ("Phi", "q1", "q2", "p1", "p2")] == [1, 2, 3, 0.5, -1]

    def test_bad_ic_length(self):
        assert main(["orbit", "--ic", "1,0", "--t-end", "1", "--dt", "0.1"]) == EXIT_CONFIG

    def test_missing_ic(self):
        assert main(["orbit", "--t-end", "1", "--dt", "0.1"]) == EXIT_CONFIG

    def test_pair_out_of_range(self):
        assert main(["orbit", "--ic", "1,0,0", "--pair", "3",
                     "--t-end", "1", "--dt", "0.1"]) == EXIT_CONFIG


class TestLegendre:
    def test_total_map_row(self, tmp_path):
        out = tmp_path / "leg.csv"
        assert main(["legendre", "--point", "1,2,3,0.5,-1", "--out", str(out)]) == EXIT_OK
        row = read_csv(out)[0]
        assert row["map"] == "total"
        got = [float(row[c]) for c in ("Phi_out", "q1_out", "q2_out", "p1_out", "p2_out")]
        assert got == [3.0, -0.5, 1.0, 2.0, 3.0]

    def test_partial_map_selection(self, tmp_path):
        out = tmp_path / "leg.csv"
        assert main(["legendre", "--point", "0,1,2,3,4", "--map", "1", "--out", str(out)]) == EXIT_OK
        row = read_csv(out)[0]
        assert row["map"] == "1"
        assert [float(row[c]) for c in ("Phi_out", "q1_out", "q2_out", "p1_out", "p2_out")] == [-3, -3, 2, 1, 4]


class TestKilling:
    def test_epsilon_residuals_small(self, tmp_path, capsys):
        out = tmp_path / "k.csv"
        code = main(["killing", "--family", "epsilon",
                     "--omega", "expr:q1^2+p1^2+q2^2+p2^2",
                     "--points", "100", "--seed", "7", "--out", str(out)])
        assert code == EXIT_OK
        rows = read_csv(out)
        assert len(rows) == 100
        assert max(float(r["residual"]) for r in rows) < 1e-5
        assert "max residual" in capsys.readouterr().err

    def test_gtd_total_residuals_large(self, tmp_path):
        out = tmp_path / "k.csv"
        code = main(["killing", "--family", "gtd_total", "--omega", "const:1",
                     "--points", "20", "--seed", "3", "--out", str(out)])
        assert code == EXIT_OK
        rows = read_csv(out)
        assert max(float(r["residual"]) for r in rows) > 0.1

    def test_bad_omega_spec_is_config_error(self):
        assert main(["killing", "--family", "epsilon", "--omega", "nope"]) == EXIT_CONFIG

    def test_bad_expression_is_config_error(self):
        assert main(["killing", "--family", "epsilon", "--omega", "expr:q1+"]) == EXIT_CONFIG

    @pytest.mark.parametrize("text", ["(" * 2000 + "q1" + ")" * 2000, "-" * 5000 + "q1"])
    def test_deeply_nested_expression_is_config_error(self, capsys, text):
        assert main(["omega-check", "--points", "1", "--omega", "expr:" + text]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nested too deeply" in err
        assert err.count("\n") == 1

    def test_long_flat_chain_is_config_error(self, capsys):
        text = "q1" + "+q1" * 4999
        assert main(["omega-check", "--points", "1", "--omega", "expr:" + text]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nested too deeply" in err
        assert err.count("\n") == 1


class TestOmegaCheck:
    def test_bracket_column(self, tmp_path):
        out = tmp_path / "o.csv"
        code = main(["omega-check", "--omega", "expr:q1", "--points", "25",
                     "--seed", "11", "--out", str(out)])
        assert code == EXIT_OK
        for row in read_csv(out):
            assert float(row["residual"]) == pytest.approx(float(row["p1"]), abs=1e-9)


class TestCurvature:
    def test_single_report(self, tmp_path):
        out = tmp_path / "c.csv"
        code = main(["curvature", "--cv", "1.5", "--omega", "const:1",
                     "--u", "2", "--v", "1", "--out", str(out)])
        assert code == EXIT_OK
        row = read_csv(out)[0]
        assert float(row["R_analytic"]) == pytest.approx(6.144, abs=1e-12)
        assert float(row["rel_error"]) < 1e-3
        assert row["near_singularity"] == "false"

    def test_zero_omega_is_numeric_failure(self):
        assert main(["curvature", "--cv", "1.5", "--omega", "const:0",
                     "--u", "2", "--v", "1"]) == EXIT_NUMERIC

    def test_missing_point_is_config_error(self):
        assert main(["curvature", "--cv", "1.5", "--omega", "const:1"]) == EXIT_CONFIG


class TestRhoScan:
    def test_row_count_and_schema(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = main(["rho-scan", "--cv", "1.5", "--omega", "const:1",
                     "--rho", "0.5:4:8", "--out", str(out)])
        assert code == EXIT_OK
        rows = read_csv(out)
        assert len(rows) == 8
        assert list(rows[0].keys()) == ["rho", "u", "v", "R_analytic", "R_numeric",
                                        "rel_error", "near_singularity"]

    def test_flagged_band_when_grid_hits_it(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        code = main(["rho-scan", "--cv", "1.5", "--omega", "const:1",
                     "--rho", "1.2:1.25:200", "--out", str(out)])
        assert code == EXIT_OK
        flagged = [r for r in read_csv(out) if r["near_singularity"] == "true"]
        assert flagged
        assert all(r["rel_error"] == "nan" for r in flagged)
        assert "flagged" in capsys.readouterr().err

    def test_json_format_uses_null_for_non_finite(self, tmp_path):
        out = tmp_path / "scan.json"
        code = main(["rho-scan", "--cv", "1.5", "--omega", "const:1",
                     "--rho", "1.2:1.25:200", "--format", "json", "--out", str(out)])
        assert code == EXIT_OK
        rows = json.loads(out.read_text())
        flagged = [r for r in rows if r["near_singularity"]]
        assert flagged and all(r["R_analytic"] is None for r in flagged)

    @pytest.mark.parametrize("argv,line", [
        (["--rho", "0.2:4:30", "--v-fixed", "1e4"],
         "rho-scan: no R_numeric on 30 rows (degenerate metric: 30, stencil outside the domain: 0)"),
        (["--rho", "0.05:1:6", "--v-fixed", "1e-3"],
         "rho-scan: no R_numeric on 1 rows (degenerate metric: 0, stencil outside the domain: 1)"),
    ])
    def test_null_rows_are_counted_by_reason(self, tmp_path, capsys, argv, line):
        out = tmp_path / "scan.csv"
        code = main(["rho-scan", "--cv", "1.5", "--omega", "const:1", *argv, "--out", str(out)])
        assert code == EXIT_OK
        assert capsys.readouterr().err.splitlines() == [line]
        nulls = sum(r["R_numeric"] == "nan" for r in read_csv(out))
        assert nulls == int(line.split()[4])

    def test_no_reason_line_when_every_row_has_a_value(self, capsys):
        assert main(["rho-scan", "--cv", "1.5", "--omega", "const:1", "--rho", "0.5:4:8"]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_bad_range_is_config_error(self):
        assert main(["rho-scan", "--cv", "1.5", "--omega", "const:1", "--rho", "4:1:10"]) == EXIT_CONFIG

    def test_non_positive_range_is_config_error(self):
        assert main(["rho-scan", "--cv", "1.5", "--omega", "const:1", "--rho", "0:2:10"]) == EXIT_CONFIG

    def test_epsilon_family_needs_two_pairs(self):
        assert main(["killing", "--family", "epsilon", "--omega", "const:1", "--n", "3"]) == EXIT_CONFIG


class TestIsometry:
    def test_gtd_partial_all_maps_near_zero(self, tmp_path):
        out = tmp_path / "iso.csv"
        code = main(["isometry", "--family", "gtd_partial", "--omega", "const:1",
                     "--points", "10", "--seed", "13", "--out", str(out)])
        assert code == EXIT_OK
        rows = read_csv(out)
        checks = {r["check"] for r in rows}
        assert checks == {"discrete:1", "discrete:2", "discrete:total"}
        assert max(float(r["residual"]) for r in rows) < 1e-10

    def test_recurrence_rows(self, tmp_path):
        out = tmp_path / "iso.csv"
        code = main(["isometry", "--family", "gtd_total", "--omega", "const:1",
                     "--points", "3", "--seed", "13", "--map", "total",
                     "--recurrence-dt", "1e-3", "--out", str(out)])
        assert code == EXIT_OK
        rec = [r for r in read_csv(out) if r["check"] == "recurrence:pi/2"]
        assert len(rec) == 3
        assert max(float(r["residual"]) for r in rec) < 1e-4
        G = build_metric("gtd_total", GtdTotalParams.identity(OmegaFunction.constant(1.0)))
        expected = [flow_recurrence_residual(G, x, 1e-3) for x in sample_darboux_points(3, 2, 13)]
        assert [float(r["residual"]) for r in rec] == expected


class TestEmission:
    def test_csv_uses_crlf_and_17_digits(self, tmp_path):
        out = tmp_path / "scan.csv"
        main(["rho-scan", "--cv", "1.5", "--omega", "const:1", "--rho", "0.5:4:8",
              "--out", str(out)])
        raw = out.read_bytes()
        assert b"\r\n" in raw
        assert b"6.1440000000000001" in raw  # 17 significant digits of 6.144

    def test_byte_identical_reruns(self, tmp_path):
        args = ["killing", "--family", "epsilon", "--omega", "norm_sum",
                "--points", "50", "--seed", "42"]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_unusable_out_is_config_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = main(["legendre", "--point", "0,1,0,0,0", "--out", str(blocker / "leg.csv")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_output_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CTL_OUTPUT_DIR", str(tmp_path))
        code = main(["legendre", "--point", "0,1,0,0,0", "--out", "sub/leg.csv"])
        assert code == EXIT_OK
        assert (tmp_path / "sub" / "leg.csv").exists()

    def test_stdout_emission(self, capsys):
        assert main(["legendre", "--point", "0,1,0,0,0"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.startswith("index,map,Phi")

    def test_json_bytes_equal_json_dump_of_the_whole_list(self):
        names = ["i", "x", "y", "flag"]
        rows = [{"i": np.int64(3), "x": 0.1, "y": np.float64(-2.5e-300), "flag": True},
                {"i": 4, "x": math.nan, "y": -math.inf, "flag": False},
                {"i": 5, "x": np.float64(math.inf), "y": 1e300, "flag": True}]
        reference = io.StringIO()
        json.dump([{"i": int(r["i"]),
                    "x": float(r["x"]) if math.isfinite(r["x"]) else None,
                    "y": float(r["y"]) if math.isfinite(r["y"]) else None,
                    "flag": r["flag"]} for r in rows], reference)
        out = io.StringIO()
        emit_rows(rows, names, "json", out)
        assert out.getvalue() == reference.getvalue() + "\n"
        assert json.loads(out.getvalue())[1] == {"i": 4, "x": None, "y": None, "flag": False}
        empty = io.StringIO()
        emit_rows([], names, "json", empty)
        assert empty.getvalue() == "[]\n"


class TestExpressionBackedPotential:
    def test_matches_builtin_ideal_gas(self):
        from contactlab.equilibrium import ideal_gas

        fr = fundamental_relation_from_expression("1.5*ln(u)+ln(v)")
        gas = ideal_gas(1.5)
        q = np.array([1.7, 0.9])
        assert fr.value(q) == pytest.approx(gas.value(q), rel=1e-12)
        np.testing.assert_allclose(fr.gradient(q), gas.gradient(q), rtol=1e-8)
        np.testing.assert_allclose(fr.hessian(q), gas.hessian(q), atol=1e-5)

    def test_hessian_equals_the_bindings_stencil(self):
        from contactlab.expressions import eval_expression, parse_expression

        text, h = "1.5*ln(u)+ln(v)+u*v^2", 1e-5
        fr = fundamental_relation_from_expression(text, h_fd=h)
        tree = parse_expression(text, ("u", "v"))

        def f(u, v):
            return eval_expression(tree, {"u": u, "v": v})

        for u, v in ((1.7, 0.9), (2.5, 1.1), (0.6, 2.0)):
            H = np.empty((2, 2))
            f0 = f(u, v)
            H[0, 0] = (f(u + h, v) - 2 * f0 + f(u - h, v)) / h**2
            H[1, 1] = (f(u, v + h) - 2 * f0 + f(u, v - h)) / h**2
            H[0, 1] = H[1, 0] = (f(u + h, v + h) - f(u + h, v - h)
                                 - f(u - h, v + h) + f(u - h, v - h)) / (4 * h**2)
            assert np.array_equal(fr.hessian(np.array([u, v])), H)

    def test_domain_predicate(self):
        fr = fundamental_relation_from_expression("1.5*ln(u)+ln(v)")
        assert fr.in_domain(np.array([1.0, 1.0]))
        assert not fr.in_domain(np.array([-1.0, 1.0]))

    def test_induced_metric_takes_batches(self):
        from contactlab.equilibrium import EquilibriumOmega, induced_metric, scalar_curvature_numeric

        fr = fundamental_relation_from_expression("1.5*ln(u)+ln(v)")
        g = induced_metric(build_metric("epsilon", OmegaFunction.constant(1.0)), fr,
                           EquilibriumOmega.constant(1.0))
        Q = np.array([[1.7, 0.9], [2.5, 1.1], [0.6, 2.0]])
        assert np.array_equal(g.eval(Q), np.array([g.eval(q) for q in Q]))
        assert fr.in_domain(np.array([[1.0, 1.0], [-1.0, 1.0]])).tolist() == [True, False]
        assert math.isfinite(scalar_curvature_numeric(g, np.array([2.0, 1.0])))


class TestRunConfigDirect:
    def test_run_callable_with_config_object(self, tmp_path, capsys):
        cfg = RunConfig(command="rho-scan", cv=1.5, omega="const:1", rho="0.5:4:8",
                        out=str(tmp_path / "scan.csv"))
        assert run(cfg) == EXIT_OK
        assert len(read_csv(tmp_path / "scan.csv")) == 8

    def test_main_builds_its_parser_once(self, monkeypatch, capsys):
        builds = []
        original = cli.build_arg_parser

        def counted():
            builds.append(1)
            return original()

        monkeypatch.setattr(cli, "build_arg_parser", counted)
        for _ in range(2):
            assert main(["legendre", "--point", "0,1,0,0,0"]) == EXIT_OK
        assert len(builds) == 1
        # a new binding of build_arg_parser gets a parser of its own
        monkeypatch.setattr(cli, "build_arg_parser", lambda: counted())
        assert main(["legendre", "--point", "0,1,0,0,0"]) == EXIT_OK
        assert len(builds) == 2
        assert build_arg_parser() is not build_arg_parser()
        capsys.readouterr()

    def test_parser_rejects_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_arg_parser().parse_args(["quux"])

    def test_namespace_to_config(self):
        args = build_arg_parser().parse_args(
            ["rho-scan", "--cv", "2.5", "--rho", "1:2:10", "--seed", "9"])
        cfg = config_from_args(args)
        assert (cfg.command, cfg.cv, cfg.seed) == ("rho-scan", 2.5, 9)
        assert cfg.omega == "const:1"  # default preserved
