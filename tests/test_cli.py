"""End-to-end tests of the command-line interface and its emitters."""

import csv
import hashlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from contactlab import cli, metriclab
from contactlab.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    ConfigError,
    RunConfig,
    config_from_args,
    build_arg_parser,
    emit_rows,
    main,
    parse_equilibrium_omega_spec,
    parse_omega_spec,
    parse_rho_range,
    run,
)
from contactlab.equilibrium import EquilibriumOmega, curvature_report, ideal_gas, scalar_curvature_ideal_gas
from contactlab.expressions import Num, parse_expression
from contactlab.flows import LegendreMap, _step_schedule, discrete_legendre, flow_map, legendre_field
from contactlab.metriclab import (
    GtdTotalParams,
    OmegaFunction,
    build_metric,
    flow_recurrence_residual,
    killing_residual,
    omega_texts,
)
from contactlab.phasespace import DarbouxPoint
from contactlab.sampling import sample_darboux_points
from emit_reference import reference_text
from test_equilibrium import exact_curvature, relation

PI_2 = math.pi / 2.0


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def assert_exact_curvature(out: str, c_v: float, omega: EquilibriumOmega = EquilibriumOmega.constant(1.0)):
    """Every R_analytic of a CSV curvature table outside the band is the exact R at its (u, v), bit for bit."""
    rows = [row for row in csv.DictReader(io.StringIO(out)) if row["near_singularity"] == "false"]
    assert rows
    for row in rows:
        assert row["R_analytic"] == "%.17g" % exact_curvature(float(row["u"]), float(row["v"]), c_v, omega)


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
        # every Omega a spec names carries its expression tree
        context = ["q1", "q2", "p1", "p2"]
        for name, text in omega_texts(2).items():
            assert parse_omega_spec(name, 2).tree == parse_expression(text, context)
        assert parse_omega_spec("const:2", 2).tree == Num(2.0)
        assert parse_omega_spec("expr:q1+1", 2).tree == parse_expression("q1+1", context)

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

    @pytest.mark.parametrize("argv, text", [
        (["legendre"], '{"ics": [[1e400, 0, 0, 0, 0]]}'),
        (["legendre"], '{"ics": [[NaN, 0, 0, 0, 0]]}'),
        (["legendre"], '{"ics": [[true, 0, 0, 0, 0]]}'),
        (["orbit"], '{"ics": [[0, 1e999, 0, 0, 0]]}'),
        (["isometry", "--family", "gtd_total", "--points", "2"], '{"xi": [1e400, 1]}'),
        (["isometry", "--family", "gtd_total", "--points", "2"], '{"chi": [1, false]}'),
        (["isometry", "--family", "gtd_total", "--points", "2"], '{"xi": [1, 1%s]}' % ("0" * 400)),
    ], ids=["ics_inf", "ics_nan", "ics_bool", "orbit_ics_inf", "xi_inf", "chi_bool", "xi_huge_int"])
    def test_config_list_is_checked_like_its_flag(self, tmp_path, capsys, argv, text):
        cfg = tmp_path / "list.json"
        cfg.write_text(text)
        assert main([*argv, "--config", str(cfg)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "must be finite" in captured.err or "not a number" in captured.err

    @pytest.mark.parametrize("argv,text", [
        (["curvature", "--u", "2", "--v", "1"], '{"cv": 1%s}' % ("0" * 400)),
        (["curvature", "--u", "2"], '{"v": -1%s}' % ("0" * 400)),
        (["orbit", "--ic", "0,1,0,0,0"], '{"dt": 1%s}' % ("0" * 400)),
        (["curvature", "--u", "2", "--v", "1"], '{"cv": 1e400}'),
    ], ids=["cv_huge_int", "v_huge_negative_int", "dt_huge_int", "cv_inf"])
    def test_config_scalar_is_checked_like_its_flag(self, tmp_path, capsys, argv, text):
        cfg = tmp_path / "scalar.json"
        cfg.write_text(text)
        assert main([*argv, "--config", str(cfg)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "must be finite" in captured.err

    def test_config_lists_of_numbers_and_number_strings_still_run(self, tmp_path, capsys):
        cfg = tmp_path / "lists.json"
        cfg.write_text('{"ics": [[1, 2, 3, 4, "5"]], "xi": [2, "1"], "chi": ["0.5", 1]}')
        assert main(["legendre", "--config", str(cfg)]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[1].startswith("0,total,1,2,3,4,5,")
        assert main(["isometry", "--family", "gtd_total", "--points", "2", "--config", str(cfg)]) == EXIT_OK

    def test_overflowing_closed_form_curvature_exits_2_with_one_line(self, capsys):
        # R = 6.144e320 at Omega = 1e-320, past the largest float in Fractions too
        assert main(["curvature", "--u", "2", "--v", "1", "--omega", "const:1e-320"]) == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numeric failure: closed-form curvature overflows at u=2, v=1, c_v=1.5\n"

    @pytest.mark.parametrize("argv", [
        ["curvature", "--u", "2", "--v", "1", "--cv", "1e300"],
        ["rho-scan", "--rho", "0.2:4:5", "--cv", "1e300"],
    ])
    def test_closed_form_curvature_at_a_huge_c_v_is_exact(self, capsys, argv):
        # (rho^2 - c_v)^3 overflows; R, about -1e-599, rounds to -0
        assert main(argv) == EXIT_OK
        assert_exact_curvature(capsys.readouterr().out, 1e300)

    @pytest.mark.parametrize("c", [1e103, 1e200, 1e-110, 1e-250])
    def test_closed_form_curvature_at_an_omega_whose_cube_leaves_the_float_range(self, capsys, c):
        # R = 768 / (125 c) at (u, v) = (2, 1), c_v = 1.5, correctly rounded: Omega^3 overflows or underflows
        assert main(["curvature", "--omega", f"const:{c!r}", "--u", "2", "--v", "1"]) == EXIT_OK
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert float(row[3]) == float(Fraction(768, 125) / Fraction(c))

    @pytest.mark.parametrize("argv", [
        ["curvature", "--cv", "1e-200", "--omega", "const:1", "--u", "1.1e-100", "--v", "1",
         "--delta-sing", "1e-300"],
        ["rho-scan", "--cv", "1e-200", "--omega", "const:1", "--rho", "1e-100:2e-100:5", "--delta-sing", "1e-300"],
    ])
    def test_closed_form_whose_gap_cubed_underflows_is_exact(self, capsys, argv):
        # (rho^2 - c_v)^3 underflows to 0 in floats; R is about 1e101 to 1e103
        assert main(argv) == EXIT_OK
        assert_exact_curvature(capsys.readouterr().out, 1e-200)

    @pytest.mark.parametrize("omega", ["const:{c}", "expr:{c}*(1+0.4*u/(u+v))"])
    def test_no_row_of_the_scale_grid_prints_a_non_finite_closed_form(self, capsys, omega):
        # Omega times 10^k and (u, v) times 10^m at rho = 0.5, 1, ..., 3, inside and beyond the float range:
        # every row prints a finite R, or the command exits 2 with one line, because R, Omega or a partial of
        # Omega leaves the float range
        for k in (-300, -100, -7, 0, 7, 100, 300):
            for m in (-200, -150, -40, -3, 0, 4, 40, 150, 200):
                argv = ["rho-scan", "--omega", omega.format(c=f"1e{k}"), "--rho", "0.5:3:6", "--v-fixed", f"1e{m}"]
                code, captured = main(argv), capsys.readouterr()
                if code == EXIT_OK:
                    rows = list(csv.DictReader(io.StringIO(captured.out)))
                    assert all(math.isfinite(float(row["R_analytic"])) for row in rows), (k, m)
                else:
                    assert code == EXIT_NUMERIC, (k, m, captured.err)
                    assert captured.err.startswith("numeric failure: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("v_fixed", ["1e-150", "1e150"])
    def test_a_quotient_omega_where_the_divisor_squared_leaves_the_float_range(self, capsys, v_fixed):
        # (u + v)^2 leaves the float range, while the partials of Omega, whose quotient rule never squares
        # u + v, have values: R_analytic is the closed form's float path, and the oracle's stencil leaves the range
        omega = "expr:1e0*(1+0.4*u/(u+v))"
        assert main(["rho-scan", "--omega", omega, "--rho", "0.5:3:6", "--v-fixed", v_fixed]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == "rho-scan: no R_numeric on 6 rows (degenerate metric: 0, outside the float range: 6)\n"
        rows = list(csv.DictReader(io.StringIO(captured.out)))
        assert len(rows) == 6 and all(row["R_numeric"] == "nan" for row in rows)
        on_e = parse_equilibrium_omega_spec(omega)
        for row in rows:
            exact = exact_curvature(float(row["u"]), float(row["v"]), 1.5, on_e)
            assert float(row["R_analytic"]) == pytest.approx(exact, rel=1e-15, abs=0)

    @pytest.mark.parametrize("argv, data, err", [
        (["curvature", "--u", "1e300", "--v", "1"],
         "1.0000000000000001e+300,1.0000000000000001e+300,1,0,0,0,false", ""),
        (["curvature", "--u", "1e-300", "--v", "1e-3"], "1e-297,1e-300,0.001,-0,nan,nan,false",
         "curvature: no R_numeric on 1 rows (degenerate metric: 0, outside the float range: 1)\n"),
        (["rho-scan", "--rho", "0.2:4:5", "--v-fixed", "1e-300"],
         "0.20000000000000001,2.0000000000000001e-301,1e-300,-0.030846980980265649,nan,nan,false",
         "rho-scan: no R_numeric on 5 rows (degenerate metric: 0, outside the float range: 5)\n"),
        # u^2 and v^2 overflow, but the ideal gas's Hessian c_v * ((-(1/u)) / u), (-(1/v)) / v does not: the
        # metric is not degenerate, and its oracle stencil leaves the float range
        (["curvature", "--omega", "const:1", "--u", "2e155", "--v", "1e155"],
         "2,2e+155,1e+155,6.1440000000000001,nan,nan,false",
         "curvature: no R_numeric on 1 rows (degenerate metric: 0, outside the float range: 1)\n"),
    ], ids=["u_1e300", "u_1e-300", "v_fixed_1e-300", "u_2e155"])
    def test_extreme_scales_give_null_rows_without_numpy_warnings(self, capsys, argv, data, err):
        # a numpy warning is an error in this suite; the metric overflows at u = 1e-300 and v = 1e-300, and
        # is constant in u at u = 1e300, where the oracle's R = 0 is exact in floats.  The closed form's
        # float arithmetic leaves the normal range on every row here, so R_analytic is exact
        assert main(argv) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1] == data
        assert captured.err == err
        assert_exact_curvature(captured.out, 1.5)

    @pytest.mark.parametrize("argv", [
        ["curvature", "--cv", "1.5", "--omega", "const:1", "--u", "0", "--v", "1"],
        ["curvature", "--cv", "1.5", "--omega", "const:1", "--u", "2", "--v=-1e-4"],
        ["curvature", "--cv", "inf", "--omega", "const:1", "--u", "2", "--v", "1"],
        ["curvature", "--cv", "1.5", "--omega", "const:1", "--u", "inf", "--v", "1"],
        ["curvature", "--cv", "1.5", "--omega", "const:1", "--u", "2", "--v", "nan"],
        ["killing", "--family", "gtd_total", "--xi", "nan,1", "--points", "2"],
        ["omega-check", "--omega", "const:inf", "--points", "2"],
        ["isometry", "--family", "gtd_partial", "--points", "1", "--recurrence-dt", "nan"],
        ["isometry", "--family", "gtd_partial", "--points", "1", "--recurrence-dt", "inf"],
        ["curvature", "--cv", "4", "--omega", "const:1", "--u", "2", "--v", "1", "--delta-sing", "0"],
        ["rho-scan", "--cv", "4", "--omega", "const:1", "--rho", "1:3:3", "--delta-sing", "-1"],
    ])
    def test_non_finite_or_non_positive_numeric_key(self, capsys, argv):
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "must be finite" in err or "must be positive" in err

    @pytest.mark.parametrize("argv", [
        ["killing", "--points", "abc"],
        ["killing", "--bogus", "1"],
        ["curvature", "--cv", "1.5", "--omega", "const:1", "--u", "2", "--v", "1", "--h-fd", "-1e-4"],
        ["quux"],
    ])
    def test_flag_error_exits_1_with_one_line(self, capsys, argv):
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["killing", "--family", "epsilon", "--omega", "expr:q1*1e308*10", "--points", "3"],
        ["killing", "--family", "gtd_partial", "--omega", "expr:q1*1e308*10", "--points", "3"],
        ["omega-check", "--omega", "expr:q1*1e308*10", "--points", "3"],
        ["isometry", "--family", "gtd_partial", "--omega", "expr:q1*1e308*10", "--points", "3"],
        ["isometry", "--family", "gtd_total", "--omega", "expr:q1*1e308*10", "--points", "3",
         "--map", "total", "--recurrence-dt", "1e-2"],
        ["curvature", "--cv", "1.5", "--omega", "expr:u*1e308*10", "--u", "2", "--v", "1"],
        ["rho-scan", "--cv", "1.5", "--omega", "expr:u*1e308*10", "--rho", "0.2:4:5"],
    ])
    def test_overflowing_expression_exits_2_with_one_line(self, capsys, argv):
        # float * overflows to inf without raising; the expression's result check stops the run
        assert main(argv) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: non-finite result ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["orbit", "--ic", "1,0,0", "--pair", "1", "--t-end", "1e300", "--dt", "1e-300"],
        ["orbit", "--ic", "1,0,0", "--pair", "1", "--t-end", "1e30", "--dt", "1e-3"],
        ["isometry", "--points", "1", "--recurrence-dt", "1e-320"],
    ])
    def test_step_count_that_overflows_exits_1_with_one_line(self, capsys, argv):
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "too small" in captured.err

    def test_table_too_large_to_allocate_exits_1_with_one_line(self, capsys):
        # 10^15 rows (7 PiB) exceed any address space, so numpy refuses the grid before touching memory
        assert main(["rho-scan", "--cv", "1.5", "--omega", "const:1", "--rho", "0.5:4:1000000000000000"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: out of memory: ") and captured.err.count("\n") == 1

    @staticmethod
    def _child(argv):
        """The CLI in a child process, where a numpy RuntimeWarning would print to stderr instead of raising."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        return subprocess.run([sys.executable, "-W", "default", "-m", "contactlab.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)

    @pytest.mark.parametrize("n", [2, 8])
    def test_overflowing_orbit_prints_one_stderr_line(self, n):
        proc = self._child(["orbit", "--n", str(n), "--ic=" + ",".join(["1e200"] * (2 * n + 1)),
                            "--t-end", "1", "--dt", "0.1"])
        assert proc.returncode == EXIT_NUMERIC
        assert proc.stdout == ""
        assert proc.stderr == "numeric failure: flow of X_L became non-finite; last valid time t=0\n"

    def test_overflowing_legendre_map_prints_one_stderr_line(self):
        # Phi - p q overflows to -inf; the second point's first map is the first non-finite image
        proc = self._child(["legendre", "--point", "1,2,3,4,5", "--point=1e200,1e200,1e200,1e200,1e200",
                            "--map", "2", "--map", "total"])
        assert proc.returncode == EXIT_NUMERIC
        assert proc.stdout == ""
        assert proc.stderr == "numeric failure: map 2 of point 1 is not finite\n"

    @pytest.mark.parametrize("argv, code, err", [
        (["killing", "--family", "epsilon", "--omega", "expr:5e307*q1*p2", "--points", "5"], EXIT_NUMERIC,
         "warning: overflow encountered in multiply\n"
         "numeric failure: killing residual of point 0 is not finite\n"),
        # |q1| - q1 vanishes where q1 >= 0: the sampler keeps q1 < 0, and the total map's image, q1 = -p1, has
        # Omega = 0 where p1 <= 0
        (["isometry", "--family", "epsilon", "--omega", "expr:sqrt(q1^2)-q1", "--points", "3", "--map", "total"],
         EXIT_OK, "warning: epsilon metric: Omega = 0 at the evaluation point; the metric is degenerate there\n"),
    ], ids=["numpy_overflow", "degenerate_epsilon"])
    def test_a_warning_prints_as_one_line_in_order(self, argv, code, err):
        # no file:line prefix and no source line, so stderr does not depend on the install or the line numbers
        proc = self._child(argv)
        assert proc.returncode == code
        rows = int(argv[argv.index("--points") + 1]) + 1 if code == EXIT_OK else 0
        assert proc.stdout.count("\n") == rows
        assert proc.stderr == err

    @pytest.mark.parametrize("argv, err", [
        (["killing", "--family", "gtd_partial", "--k", "200", "--omega", "expr:q1^1000", "--points", "100"],
         "numeric failure: killing residual of point 2 is not finite"),
        (["omega-check", "--omega", "expr:1e308*q1", "--points", "20"],
         "numeric failure: omega-check residual of point 13 is not finite"),
        (["isometry", "--family", "gtd_total", "--omega", "expr:1e307*q1^2", "--points", "20"],
         "numeric failure: discrete:1 residual of point 19 is not finite"),
    ], ids=["killing", "omega_check", "isometry"])
    def test_a_residual_that_is_not_finite_is_a_numeric_failure(self, argv, err):
        proc = self._child(argv)
        assert proc.returncode == EXIT_NUMERIC
        assert proc.stdout == ""
        assert proc.stderr.splitlines()[-1] == err

    def test_an_overflowing_gtd_partial_power_is_a_numeric_failure(self, capsys):
        # |q^a p_a| reaches 3.75 at these points, whose 601st power overflows
        assert main(["killing", "--family", "gtd_partial", "--k", "300", "--points", "100"]) == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numeric failure: gtd_partial[k=300,const:1]: (q^a p_a)^601 overflows\n"

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["killing", "--help"])
        assert exc.value.code == 0
        assert "--family" in capsys.readouterr().out

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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_two_ics_give_the_two_single_ic_outputs_in_order(self, tmp_path, fmt):
        base = ["orbit", "--t-end", "0.5", "--dt", "0.01", "--format", fmt]
        ics = ["1,2,3,0.5,-1", "-0.5,0.1,0,2,1e-3"]
        outputs = []
        for i, extra in enumerate([[f"--ic={ics[0]}"], [f"--ic={ics[1]}"],
                                   [f"--ic={ics[0]}", f"--ic={ics[1]}"]]):
            out = tmp_path / f"{i}.{fmt}"
            assert main([*base, *extra, "--out", str(out)]) == EXIT_OK
            outputs.append(out.read_bytes())
        first, second, both = outputs
        if fmt == "csv":
            header, body = second.split(b"\r\n", 1)
            assert first.startswith(header + b"\r\n")
            assert both == first + body
        else:
            assert both == first[:-2] + b", " + second[1:]
        assert len(both) > len(first) > 100

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv, cells", [
        # the fixed pair holds exact zeros, and the first row -0.0
        (["--pair", "1", "--ic=-0.0,1.5,-0.0"], lambda t: ((t == 0) & np.signbit(t)).any() and (t[:, [3, 5]] == 0).all()),
        # cells below 1e-4 and at or above 1e15 (written by %) beside cells that cross 1e15
        (["--ic=1e-7,1e16,123456789012345.6,-1e-7,2.5"],
         lambda t: ((np.abs(t) < 1e-4) & (t != 0)).any() and (np.abs(t) >= 1e15).any()
         and ((np.abs(t) >= 1e14) & (np.abs(t) < 1e15)).any()),
        (["--ic", "0.3,1,2,3,4", "--t-end", "0"], lambda t: t.shape == (1, 6)),
    ], ids=["pair", "edges", "t_end_0"])
    def test_orbit_bytes_equal_the_reference_writer(self, monkeypatch, tmp_path, argv, cells, fmt):
        tables = []
        emit = cli.emit_rows
        monkeypatch.setattr(cli, "emit_rows", lambda rows, *a: tables.append(rows) or emit(rows, *a))
        out = tmp_path / f"orbit.{fmt}"
        assert main(["orbit", "--t-end", "6.3", "--dt", "0.01", *argv, "--format", fmt, "--out", str(out)]) == EXIT_OK
        [table] = tables
        assert cells(table)
        expected = reference_text(table.tolist(), ["t", "Phi", "q1", "q2", "p1", "p2"], fmt)
        assert out.read_bytes() == expected.encode()

    def test_a_full_turn_pair_orbit_leaves_only_its_cells_below_1e_4_to_repr(self, monkeypatch, tmp_path):
        # a full turn at dt 1e-3 of pair 1, from the initial condition of the seed-7 benchmark orbit
        tables = []
        emit = cli.emit_rows
        monkeypatch.setattr(cli, "emit_rows", lambda rows, *a: tables.append(rows) or emit(rows, *a))
        out = tmp_path / "pair1.json"
        assert main(["orbit", "--pair", "1", "--ic=1.580935,-0.276328,0.149988", "--t-end", repr(2 * math.pi),
                     "--dt", "0.001", "--format", "json", "--out", str(out)]) == EXIT_OK
        [table] = tables
        x = table.ravel()
        fallback = cli._decimal(x.copy(), True)[2]
        assert table.shape == (6285, 6) and fallback.sum() == 3
        assert (np.abs(x[fallback]) < 1e-4).all()
        assert out.read_bytes() == reference_text(table.tolist(), ["t", "Phi", "q1", "q2", "p1", "p2"], "json").encode()

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

    @pytest.mark.parametrize("command", [["omega-check"], ["killing", "--family", "gtd_total"],
                                         ["killing", "--family", "gtd_partial"]])
    def test_an_expression_at_one_degree_of_freedom_matches_the_registry(self, tmp_path, command):
        # at n = 1 the expression's partials keep a last axis of length 1, as pair_norm_1's do
        tables = []
        for omega in ("expr:q1^2+p1^2", "pair_norm_1"):
            out = tmp_path / "t.csv"
            assert main(command + ["--n", "1", "--omega", omega, "--points", "5", "--out", str(out)]) == EXIT_OK
            tables.append(read_csv(out))
        assert len(tables[0]) == 5 and tables[0] == tables[1]

    @pytest.mark.parametrize("omega", ["const:1e-20", "expr:1e-13*(q1^2+p1^2)"])
    def test_the_epsilon_sampler_rejects_only_a_vanishing_omega(self, tmp_path, capsys, omega):
        # a draw is rejected only where Omega = 0, so a tiny Omega keeps the points of const:1
        tables = []
        for spec in ("const:1", omega):
            out = tmp_path / "k.csv"
            assert main(["killing", "--family", "epsilon", "--omega", spec, "--points", "3", "--out", str(out)]) == EXIT_OK
            tables.append([{k: r[k] for k in ("Phi", "q1", "q2", "p1", "p2")} for r in read_csv(out)])
        assert len(tables[1]) == 3 and tables[0] == tables[1]
        assert f"killing: family=epsilon omega={omega} max residual = " in capsys.readouterr().err

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

    @pytest.mark.parametrize("argv", [
        ["--omega", "const:1", "--u", "2e4", "--v", "1e4"],
        ["--omega", "const:1e-7", "--u", "2", "--v", "1"],
        ["--omega", "const:1", "--u", "2e-3", "--v", "1e-3"],
    ])
    def test_the_oracle_does_not_depend_on_scale(self, tmp_path, capsys, argv):
        # the first two once gave a null R_numeric, the third rel_error 0.0354
        out = tmp_path / "c.csv"
        assert main(["curvature", "--cv", "1.5", *argv, "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert float(read_csv(out)[0]["rel_error"]) < 1e-6

    def test_a_null_or_flagged_row_gets_the_line_of_rho_scan(self, capsys):
        assert main(["curvature", "--omega", "const:1", "--u", "1.224744871391589", "--v", "1"]) == EXIT_OK
        assert capsys.readouterr().err == "curvature: 1 points flagged near rho = sqrt(1.5)\n"
        argv = ["curvature", "--omega", "const:1", "--u", "1.224744871391589", "--v", "1", "--delta-sing", "1e-300"]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().err == (
            "curvature: no R_numeric on 1 rows (degenerate metric: 1, outside the float range: 0)\n")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv,degenerate", [
        # Omega = 0 at the first-level point u = 2.0002, or v = 1.0001
        (["curvature", "--omega", "expr:u-2.0002", "--u", "2", "--v", "1"], 1),
        (["curvature", "--omega", "expr:v-1.0001", "--u", "2", "--v", "1"], 1),
        (["rho-scan", "--omega", "expr:u-2.0002", "--rho", "0.5:3:6"], 1),
        # a v-shifted point of rho = 0.9999 and of rho = 1.0001 lands on the band u = v
        (["rho-scan", "--cv", "1", "--omega", "const:1", "--rho", "0.9999:1.0001:3", "--delta-sing", "1e-300"], 2),
    ])
    def test_a_singular_metric_on_the_first_stencil_level_is_a_degenerate_row(self, capsys, argv, degenerate, fmt):
        # each once exited 1 with "error: Singular matrix", np.linalg.inv's error for the whole block
        assert main([*argv, "--format", fmt]) == EXIT_OK
        out, err = capsys.readouterr()
        assert err.splitlines()[-1] == (f"{argv[0]}: no R_numeric on {degenerate} rows "
                                        f"(degenerate metric: {degenerate}, outside the float range: 0)")
        rows = json.loads(out) if fmt == "json" else list(csv.DictReader(io.StringIO(out)))
        null = None if fmt == "json" else "nan"
        assert sum(r["R_numeric"] == null and r["near_singularity"] in (False, "false") for r in rows) == degenerate

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_degenerate_row_leaves_the_other_rows_of_its_scan(self, capsys, fmt):
        assert main(["rho-scan", "--omega", "expr:u-2.0002", "--rho", "0.5:3:6", "--format", fmt]) == EXIT_OK
        rows = json.loads(capsys.readouterr().out) if fmt == "json" else capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 6
        for u, row in zip(["0.5", "1", "1.5", "2", "2.5", "3"], rows):
            if u == "2":  # the degenerate row
                continue
            assert main(["curvature", "--omega", "expr:u-2.0002", "--u", u, "--v", "1", "--format", fmt]) == EXIT_OK
            out = capsys.readouterr().out
            assert (json.loads(out) if fmt == "json" else out.splitlines()[1:]) == [row]


class TestPhaseSpaceOmegas:
    """curvature and rho-scan pull a phase-space Omega (a registry name, or expr: in q, p) back onto the gas."""

    def test_the_invariant_inverse_cross_is_flat(self, capsys):
        argv = ["curvature", "--omega", "expr:1/(q1*p2-q2*p1)", "--cv", "1.5", "--u", "2", "--v", "1"]
        assert main(argv) == EXIT_OK
        row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert abs(float(row["R_analytic"])) <= 1e-12

    @pytest.mark.parametrize("spec", sorted(omega_texts(2)) + ["expr:q1^2+p1^2+q2^2+p2^2"])
    def test_a_phase_space_omega_is_the_library_pull_back(self, capsys, spec):
        assert main(["rho-scan", "--omega", spec, "--cv", "2.5", "--rho", "0.5:3:4", "--v-fixed", "1.3"]) == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        omega = EquilibriumOmega.from_phase_space(parse_omega_spec(spec, 2), ideal_gas(2.5))
        expected = scalar_curvature_ideal_gas(np.array([float(row["u"]) for row in rows]), 1.3, 2.5, omega)
        assert [row["R_analytic"] for row in rows] == ["%.17g" % R for R in expected]

    def test_the_gas_compiles_only_its_hessian_program(self, monkeypatch, capsys):
        # the pull-back reads only the gas's tree, and the oracle only its Hessian
        from contactlab import equilibrium
        from contactlab.expressions import diff

        compiled = []
        original = equilibrium.compile_expression

        def counted(trees, variables):
            compiled.append(list(trees) if isinstance(trees, (list, tuple)) else trees)
            return original(trees, variables)

        monkeypatch.setattr(equilibrium, "compile_expression", counted)
        assert main(["curvature", "--omega", "norm_sum", "--u", "2", "--v", "1"]) == EXIT_OK
        capsys.readouterr()
        gas = ideal_gas(1.5).tree
        d_u, d_v = diff(gas, "u"), diff(gas, "v")
        assert compiled.count([diff(d_u, "v"), diff(d_u, "u"), diff(d_v, "v")]) == 1
        assert gas not in compiled and [d_u, d_v] not in compiled

    @pytest.mark.parametrize("spec, message", [
        ("expr:u*q1", "error: omega text 'u*q1' mixes (u, v) with (q1, q2, p1, p2)\n"),
        ("expr:p2+v", "error: omega text 'p2+v' mixes (u, v) with (q1, q2, p1, p2)\n"),
        ("expr:q3", "error: unknown identifier 'q3'; allowed variables: ['p1', 'p2', 'q1', 'q2', 'u', 'v'] "
                    "(offset 0)\n"),
        ("bogus", "error: unknown omega spec 'bogus'; use const:<c>, expr:<text>, or one of ['const', 'cross_skew', "
                  "'cross_sum', 'norm_sum', 'pair_norm_1', 'pair_norm_2', 'pair_norm_product']\n"),
    ])
    def test_a_text_of_both_spaces_or_neither_exits_1_with_one_line(self, capsys, spec, message):
        assert main(["curvature", "--omega", spec, "--u", "2", "--v", "1"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == message


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
        # the metric's derivatives overflow
        (["--rho", "0.2:4:30", "--v-fixed", "1e-150"],
         "rho-scan: no R_numeric on 30 rows (degenerate metric: 0, outside the float range: 30)"),
        # rho = sqrt(1.5) to the last bit lies on the degeneracy locus, outside the narrowed band
        (["--rho", "1.224744871391589:2:3", "--delta-sing", "1e-300"],
         "rho-scan: no R_numeric on 1 rows (degenerate metric: 1, outside the float range: 0)"),
    ])
    def test_null_rows_are_counted_by_reason(self, tmp_path, capsys, argv, line):
        out = tmp_path / "scan.csv"
        code = main(["rho-scan", "--cv", "1.5", "--omega", "const:1", *argv, "--out", str(out)])
        assert code == EXIT_OK
        assert capsys.readouterr().err.splitlines() == [line]
        nulls = sum(r["R_numeric"] == "nan" for r in read_csv(out))
        assert nulls == int(line.split()[4])

    @pytest.mark.parametrize("v_fixed", ["1e4", "1e-3", "1e-40", "1e40"])
    def test_every_row_has_a_value_at_any_volume_scale(self, tmp_path, capsys, v_fixed):
        # v_fixed = 1e4 once gave null rows (an absolute |det g| <= 1e-12), and 1e-3 rel_error up to 3.5e-2
        # or null rows (an absolute step h * max(1, |q|))
        out = tmp_path / "scan.csv"
        argv = ["rho-scan", "--cv", "1.5", "--omega", "const:1", "--rho", "0.05:4:30", "--v-fixed", v_fixed]
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert all(float(r["rel_error"]) < 1e-3 for r in read_csv(out))

    def test_no_reason_line_when_every_row_has_a_value(self, capsys):
        assert main(["rho-scan", "--cv", "1.5", "--omega", "const:1", "--rho", "0.5:4:8"]) == EXIT_OK
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("omega", ["const:1", "expr:u", "expr:q1"])
    def test_a_u_that_overflows_exits_2_with_one_line(self, capsys, fmt, omega):
        # u = 2 * 1e308 is inf: it once reached the closed form's Fractions, a traceback for const:1
        argv = ["rho-scan", "--omega", omega, "--rho", "0.5:2:5", "--v-fixed", "1e308", "--format", fmt]
        assert main(argv) == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numeric failure: u = rho * v_fixed = 2 * 1e+308 overflows\n"

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

    def test_metric_at_the_points_is_evaluated_once_after_the_first_image(self, monkeypatch):
        const = OmegaFunction.constant(1.0)
        calls = []

        def counted(spec, n=2):
            return OmegaFunction("counted", lambda q, p: calls.append(q.copy()) or const.eval(q, p),
                                 const.d_q, const.d_p)

        monkeypatch.setattr(cli, "parse_omega_spec", counted)
        Z = sample_darboux_points(3, 2, 13)
        images = [discrete_legendre(Z, LegendreMap(frozenset(s), 2)) for s in ({1}, {2}, {1, 2})]
        ends = flow_map(legendre_field(2), Z, math.pi / 2, 1e-2)
        # one call each: the recurrence's ends (or the first map's images), the points, then the other images
        for argv, rows in ((["--recurrence-dt", "1e-2"], [ends, Z] + images), ([], images[:1] + [Z] + images[1:])):
            calls.clear()
            assert main(["isometry", "--family", "gtd_partial", "--points", "3", "--seed", "13",
                         "--out", os.devnull, *argv]) == EXIT_OK
            assert len(calls) == 1
            assert np.array_equal(calls[0], np.stack(rows)[..., 1:3])


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

        # an all-float table may come as one array: same bytes, non-finite cells as null
        table = np.array([[0.1, -2.5e-300, math.nan], [-0.0, math.inf, 1e17], [5e-324, -math.inf, 3.0]])
        floats = ["x", "y", "z"]
        reference = io.StringIO()
        json.dump([{name: v if math.isfinite(v) else None for name, v in zip(floats, row)}
                   for row in table.tolist()], reference)
        out = io.StringIO()
        emit_rows(table, floats, "json", out)
        assert out.getvalue() == reference.getvalue() + "\n"
        for fmt, expected in (("json", "[]\n"), ("csv", "x,y,z\r\n")):
            empty = io.StringIO()
            emit_rows(np.empty((0, 3)), floats, fmt, empty)
            assert empty.getvalue() == expected

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 6, 7])
    def test_array_path_across_chunk_boundaries(self, monkeypatch, fmt, rows):
        monkeypatch.setattr(cli, "_EMIT_CHUNK_ROWS", 3)
        floats = np.arange(3.0 * rows).reshape(rows, 3) / 7.0
        floats[rows // 2, 1] = math.nan
        floats[-1, 2] = -math.inf
        # the same rows as a typed table: an int, a float, a bool and a text column
        typed = np.empty(rows, dtype=[("index", np.int64), ("x", float), ("flag", bool), ("label", object)])
        typed["index"] = np.arange(rows) * -10**17
        typed["x"] = floats[:, 1]
        typed["flag"] = np.arange(rows) % 2 == 0
        typed["label"] = ["a,b", 'say "x"', "", "line\r\nbreak", "total", "1+2", "\u00e9"][:rows]
        for table in (floats, typed):
            names = ["t", "a", "b"] if table.dtype.names is None else list(table.dtype.names)
            got = io.StringIO()
            emit_rows(table, names, fmt, got)
            assert got.getvalue() == reference_text(table.tolist(), names, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_float_kernel_keys_hold_percent_signs(self, fmt):
        names = ["100%", "%s", "%%d", "a\"b"]
        # without and with a cell that the kernel leaves to %
        for table in (np.array([[0.3, 1.25, -3.0, 0.0]] * 3), np.array([[1e-7, 0.125, math.nan, 7.0]] * 3)):
            got = io.StringIO()
            emit_rows(table, names, fmt, got)
            assert got.getvalue() == reference_text(table.tolist(), names, fmt)

    def test_array_of_the_wrong_width_is_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            emit_rows(np.zeros((2, 3)), ["a", "b"], "csv", io.StringIO())


class TestExpressionBackedPotential:
    def test_matches_the_ideal_gas_formulas(self):
        fr = relation("1.5*ln(u)+ln(v)")
        u, v = 1.7, 0.9
        q = np.array([u, v])
        assert fr.value(q) == pytest.approx(1.5 * math.log(u) + math.log(v), rel=1e-15)
        np.testing.assert_allclose(fr.gradient(q), [1.5 / u, 1 / v], rtol=1e-15)
        np.testing.assert_allclose(fr.hessian(q), [[-1.5 / u**2, 0], [0, -1 / v**2]], rtol=1e-15)

    def test_hessian_equals_the_ideal_gas_formula(self):
        # exact second derivatives: -c_v/u^2 and -1/v^2, and the oracle curvature of the metric they induce,
        # g_uv = c_v/u^2 - 1/v^2 written out here (a second difference at 1e-5 gave -13445 at (3, 2))
        from contactlab.equilibrium import EquilibriumOmega, induced_metric, scalar_curvature_numeric

        fr = relation("1.5*ln(u)+ln(v)")
        grid = np.array([[u, v] for u in (0.3, 1.0, 2.5, 7.0) for v in (0.2, 1.0, 3.0)])
        H = np.zeros((len(grid), 2, 2))
        H[:, 0, 0], H[:, 1, 1] = -1.5 / grid[:, 0] ** 2, -1 / grid[:, 1] ** 2
        np.testing.assert_allclose(fr.hessian(grid), H, rtol=1e-15, atol=0)
        for u, v in grid:
            np.testing.assert_allclose(fr.gradient(np.array([u, v])), [1.5 / u, 1 / v], rtol=1e-15, atol=0)

        def written(q):
            g_uv = 1.5 / q[..., 0] ** 2 - 1 / q[..., 1] ** 2
            return g_uv[..., None, None] * np.array([[0.0, 1.0], [1.0, 0.0]])

        G, one = build_metric("epsilon", OmegaFunction.constant(1.0)), EquilibriumOmega.constant(1.0)
        q = np.array([3.0, 2.0])
        R = scalar_curvature_numeric(induced_metric(G, fr, one), q)
        assert R == pytest.approx(scalar_curvature_numeric(written, q), rel=1e-9)
        assert R == pytest.approx(96.00003, rel=1e-6)

    def test_hessian_with_a_mixed_term(self):
        fr = relation("1.5*ln(u)+ln(v)+u*v^2")
        for u, v in ((1.7, 0.9), (2.5, 1.1), (0.6, 2.0)):
            H = [[-1.5 / u**2, 2 * v], [2 * v, -1 / v**2 + 2 * u]]
            np.testing.assert_allclose(fr.hessian(np.array([u, v])), H, rtol=1e-15)

    def test_domain_predicate(self):
        fr = relation("1.5*ln(u)+ln(v)")
        assert fr.in_domain(np.array([1.0, 1.0]))
        assert not fr.in_domain(np.array([-1.0, 1.0]))

    def test_induced_metric_takes_batches(self):
        from contactlab.equilibrium import EquilibriumOmega, induced_metric, scalar_curvature_numeric

        fr = relation("1.5*ln(u)+ln(v)")
        g = induced_metric(build_metric("epsilon", OmegaFunction.constant(1.0)), fr,
                           EquilibriumOmega.constant(1.0))
        Q = np.array([[1.7, 0.9], [2.5, 1.1], [0.6, 2.0]])
        assert np.array_equal(g.eval(Q), np.array([g.eval(q) for q in Q]))
        assert fr.in_domain(np.array([[1.0, 1.0], [-1.0, 1.0]])).tolist() == [True, False]
        assert math.isfinite(scalar_curvature_numeric(g, np.array([2.0, 1.0])))


class TestExactExpressionDerivatives:
    """expr: Omegas take exact partials (expressions.diff), so their verdicts are the registry's."""

    @staticmethod
    def residuals(tmp_path, argv):
        out = tmp_path / "table.csv"
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        return read_csv(out)

    def test_sixth_power_omega_is_killing(self, tmp_path):
        # central differences of this Omega read 2.6e-8, against criterion 3's 1e-9
        rows = self.residuals(tmp_path, ["killing", "--family", "epsilon", "--omega", "expr:(q1^2+p1^2)^3",
                                         "--points", "20", "--seed", "7"])
        assert len(rows) == 20 and max(float(r["residual"]) for r in rows) < 1e-9

    def test_quadratic_omega_reads_like_the_registry(self, tmp_path):
        # central differences read 3.5e-10 here; the registry's norm_sum reads 2.1e-15
        rows = self.residuals(tmp_path, ["killing", "--family", "epsilon", "--omega",
                                         "expr:q1^2+p1^2+q2^2+p2^2", "--points", "20", "--seed", "7"])
        assert max(float(r["residual"]) for r in rows) <= 1e-13

    @pytest.mark.parametrize("name", sorted(omega_texts(2)))
    def test_a_registry_name_runs_as_its_text(self, capsys, name):
        for command in (["killing", "--family", "epsilon"], ["omega-check"]):
            stdout = []
            for omega in (name, "expr:" + omega_texts(2)[name]):
                assert main([*command, "--omega", omega, "--points", "20", "--seed", "7"]) == EXIT_OK
                stdout.append(capsys.readouterr().out)
            assert stdout[0] == stdout[1] and stdout[0].count("\n") == 21

    def test_inverse_cross_omega_is_killing_away_from_its_pole(self):
        # central differences read up to 2809 at seed 7, where |q1 p2 - q2 p1| is small
        omega = parse_omega_spec("expr:1/(q1*p2-q2*p1)")
        G = build_metric("epsilon", omega)
        for seed in range(1, 31):
            Z = np.array(sample_darboux_points(20, 2, seed, omega=omega))
            Z = Z[np.abs(Z[:, 1] * Z[:, 4] - Z[:, 2] * Z[:, 3]) >= 1e-2]
            assert killing_residual(legendre_field(2), G, Z).max() < 1e-9, seed

    def test_omega_check_of_q1_is_p1_exactly(self, tmp_path):
        rows = self.residuals(tmp_path, ["omega-check", "--omega", "expr:q1", "--points", "20"])
        assert [float(r["residual"]) for r in rows] == [float(r["p1"]) for r in rows]

    @pytest.mark.parametrize("argv, derivatives", [
        (["isometry", "--family", "gtd_partial", "--k", "1", "--recurrence-dt", "1e-2"], 0),
        (["killing", "--family", "epsilon"], 4),
        (["omega-check"], 4),
    ])
    def test_omega_partials_are_built_when_a_command_takes_them(self, monkeypatch, capsys, argv, derivatives):
        argv = [*argv, "--omega", "norm_sum", "--points", "4", "--seed", "3"]
        assert main(argv) == EXIT_OK
        lazy = capsys.readouterr().out
        calls = []
        diff = metriclab.diff
        monkeypatch.setattr(metriclab, "diff", lambda *a: calls.append(a) or diff(*a))
        assert main(argv) == EXIT_OK
        assert len(calls) == derivatives  # d/dq1, d/dq2, d/dp1, d/dp2, once each
        assert capsys.readouterr().out == lazy

        # the same table from partials built before the command runs
        def eager(spec, n=2):
            omega = parse_omega_spec(spec, n)
            omega.gradient(np.ones((1, n)), np.ones((1, n)))
            return omega
        monkeypatch.setattr(cli, "parse_omega_spec", eager)
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == lazy

    def test_a_derivative_too_deep_fails_the_commands_that_take_it(self, capsys):
        tower = "expr:" + "q1^" * 100 + "q1"
        # omega-check takes the partials first; killing at seed 1 samples a point with 0 < q1 < 1,
        # where the tower has a value, and takes them next
        for argv in (["omega-check", "--points", "2"], ["killing", "--points", "1", "--seed", "1"]):
            assert main([*argv, "--omega", tower]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("error: the derivative in q1 is nested too deeply") and err.count("\n") == 1
        # killing at seed 7 first meets the tower's value at a negative q1; isometry takes no partial
        for command in ("killing", "isometry"):
            assert main([command, "--omega", tower, "--points", "2", "--seed", "7"]) == EXIT_NUMERIC
            err = capsys.readouterr().err
            assert err.startswith("numeric failure: ^ failed: complex result") and err.count("\n") == 1

    @pytest.mark.parametrize("command,flag,value", [
        # the curvature oracle's step is relative, DEFAULT_CURVATURE_STEP * |q_c|, with no knob
        *(pytest.param(command, "--h-fd", "1e-5", id=command)
          for command in ["killing", "omega-check", "curvature", "rho-scan"]),
        # orbit and legendre sample no points, and curvature and rho-scan run the n = 2 ideal gas
        *((command, "--seed", "3") for command in ["orbit", "legendre", "curvature", "rho-scan"]),
        *((command, "--n", "3") for command in ["curvature", "rho-scan"]),
    ])
    def test_h_fd_is_no_flag_where_it_would_set_nothing(self, capsys, command, flag, value):
        assert main([command, flag, value]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: unrecognized arguments: {flag} {value}\n"


#: the flags each command's handler reads, besides --config, --out and --format, which every command takes
HANDLER_FLAGS = {
    "orbit": {"--ic", "--pair", "--t-end", "--dt", "--n"},
    "legendre": {"--point", "--map", "--n"},
    "killing": {"--family", "--omega", "--points", "--k", "--xi", "--chi", "--n", "--seed"},
    "omega-check": {"--omega", "--points", "--n", "--seed"},
    "curvature": {"--cv", "--omega", "--u", "--v", "--delta-sing"},
    "rho-scan": {"--cv", "--omega", "--rho", "--v-fixed", "--delta-sing"},
    "isometry": {"--family", "--omega", "--points", "--map", "--k", "--xi", "--chi", "--recurrence-dt", "--n",
                 "--seed"},
}
#: a value that each of the command line's 24 flags parses
FLAG_VALUES = {
    "--config": "run.json", "--out": "out.csv", "--format": "json", "--n": "2", "--seed": "3",
    "--ic": "0,1,0,0,0", "--pair": "1", "--t-end": "1", "--dt": "0.1", "--point": "1,2,3,4,5", "--map": "total",
    "--family": "epsilon", "--omega": "const:1", "--points": "2", "--k": "1", "--xi": "1,1", "--chi": "1,1",
    "--cv": "1.5", "--u": "2", "--v": "1", "--rho": "1:2:3", "--v-fixed": "1", "--delta-sing": "1e-3",
    "--recurrence-dt": "1e-3",
}


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
        with pytest.raises(ConfigError):
            build_arg_parser().parse_args(["quux"])

    @pytest.mark.parametrize("command", sorted(HANDLER_FLAGS))
    def test_each_command_takes_exactly_the_flags_its_handler_reads(self, command):
        takes = HANDLER_FLAGS[command] | {"--config", "--out", "--format"}
        for flag, value in FLAG_VALUES.items():
            if flag in takes:
                build_arg_parser().parse_args([command, flag, value])
            else:  # not as the abbreviation of another flag either (rho-scan --v, killing --point)
                with pytest.raises(ConfigError, match=f"^unrecognized arguments: {flag} {value}$"):
                    build_arg_parser().parse_args([command, flag, value])

    def test_namespace_to_config(self):
        args = build_arg_parser().parse_args(["rho-scan", "--cv", "2.5", "--rho", "1:2:10"])
        cfg = config_from_args(args)
        assert (cfg.command, cfg.cv) == ("rho-scan", 2.5)
        assert cfg.omega == "const:1"  # default preserved
        cfg = config_from_args(build_arg_parser().parse_args(["killing", "--seed", "9"]))
        assert (cfg.command, cfg.seed) == ("killing", 9)


#: the first 16 hex digits of the SHA-256 of "exit code NUL stdout NUL stderr" of every rho-scan command of
#: perfbench's pointwise_tables workload, by (seed, output name, --format), as generated at commit 437d439
#: and regenerated when the ideal gas became its own tree (only R_numeric and rel_error cells, and R_analytic
#: of the u/(u+v) scans by at most 2.1e-16 relative, moved)
BENCHMARK_RHO_SCAN_DIGESTS = {
    (1, "scan0_v1.csv", "csv"): "99653b1e2c74d07b",
    (1, "scan0_v1.csv", "json"): "a39d5b7148bb7d4f",
    (1, "scan0_v1e-3.csv", "csv"): "edebcf744371afc1",
    (1, "scan0_v1e-3.csv", "json"): "de2e971965525ea6",
    (1, "scan0_v1e4.csv", "csv"): "08d96fafa4f05a2c",
    (1, "scan0_v1e4.csv", "json"): "1e1a0d05b12ef73a",
    (1, "scan1_v1.csv", "csv"): "cd55d0ec19dc5746",
    (1, "scan1_v1.csv", "json"): "a3fae00775bfec7a",
    (1, "scan1_v1e-3.csv", "csv"): "9e8e439639ff1da2",
    (1, "scan1_v1e-3.csv", "json"): "a67b6b879a2574eb",
    (1, "scan1_v1e4.csv", "csv"): "de5b1dbbf219525b",
    (1, "scan1_v1e4.csv", "json"): "c33b1e5191b3a846",
    (2, "scan0_v1.csv", "csv"): "5d6d7b0141d143ed",
    (2, "scan0_v1.csv", "json"): "a9b560c2fa512a30",
    (2, "scan0_v1e-3.csv", "csv"): "13b43f18714a31cd",
    (2, "scan0_v1e-3.csv", "json"): "5afc419837233c63",
    (2, "scan0_v1e4.csv", "csv"): "8d9ff5e17479563d",
    (2, "scan0_v1e4.csv", "json"): "be3e4c430c8adf27",
    (2, "scan1_v1.csv", "csv"): "011126e5494f7dc4",
    (2, "scan1_v1.csv", "json"): "8f9b8fe620fa4a51",
    (2, "scan1_v1e-3.csv", "csv"): "7ba3e7b5f9289615",
    (2, "scan1_v1e-3.csv", "json"): "c5f81e4606e9114f",
    (2, "scan1_v1e4.csv", "csv"): "9e48a6d156394d79",
    (2, "scan1_v1e4.csv", "json"): "1453a27c2b0bc399",
    (7, "scan0_v1.csv", "csv"): "e032b7ecca350dd7",
    (7, "scan0_v1.csv", "json"): "6437f77fe43f8be2",
    (7, "scan0_v1e-3.csv", "csv"): "394dda592260aadd",
    (7, "scan0_v1e-3.csv", "json"): "82cd9273efa5178b",
    (7, "scan0_v1e4.csv", "csv"): "eeaeb59a4b520a60",
    (7, "scan0_v1e4.csv", "json"): "21bae5aeae23856e",
    (7, "scan1_v1.csv", "csv"): "27dcd7c585806700",
    (7, "scan1_v1.csv", "json"): "72a22d90c91ff4ea",
    (7, "scan1_v1e-3.csv", "csv"): "43224f0c8158a011",
    (7, "scan1_v1e-3.csv", "json"): "d80f57c5014adc70",
    (7, "scan1_v1e4.csv", "csv"): "abb85844754e86be",
    (7, "scan1_v1e4.csv", "json"): "15b9ea4a5e355998",
    (41, "scan0_v1.csv", "csv"): "10102907c26ebeba",
    (41, "scan0_v1.csv", "json"): "4fe9bee9794c4c78",
    (41, "scan0_v1e-3.csv", "csv"): "233da94e5a366959",
    (41, "scan0_v1e-3.csv", "json"): "ca1ff86c3bd2ac33",
    (41, "scan0_v1e4.csv", "csv"): "f717d2a2fef42855",
    (41, "scan0_v1e4.csv", "json"): "2f3bd7174adbf5d3",
    (41, "scan1_v1.csv", "csv"): "0d0bfeac621a5fdd",
    (41, "scan1_v1.csv", "json"): "12dbce24dcc50de6",
    (41, "scan1_v1e-3.csv", "csv"): "2dcc448b503a6cf7",
    (41, "scan1_v1e-3.csv", "json"): "d306160d6c615e94",
    (41, "scan1_v1e4.csv", "csv"): "20efa9627b20805b",
    (41, "scan1_v1e4.csv", "json"): "e0e331a0187cf099",
}


#: the same digests of every other command of perfbench's three workloads (4 killing and 1 omega-check of
#: pointwise_tables, 3 isometry of quarter_turn, 3 orbit of orbit_dump), by (seed, output name, --format), as
#: generated at commit c48fb49
BENCHMARK_COMMAND_DIGESTS = {
    (1, 'killing0.csv', 'csv'): '86c7c6b1afc393aa',
    (1, 'killing0.csv', 'json'): '1b64404a3e680d5a',
    (1, 'killing1.csv', 'csv'): '43762ec1b4448a06',
    (1, 'killing1.csv', 'json'): '8fac1dcfa8d0bb28',
    (1, 'killing2.csv', 'csv'): '6adb180a6b4d2bd3',
    (1, 'killing2.csv', 'json'): '6ce23c5d84c4acd8',
    (1, 'killing3.csv', 'csv'): '09aab57fedd5ff12',
    (1, 'killing3.csv', 'json'): '1342ffeee52c7f68',
    (1, 'omega_check.csv', 'csv'): '454bd1a2ef1425d7',
    (1, 'omega_check.csv', 'json'): '9066fce6f67605a9',
    (1, 'iso0.csv', 'csv'): 'b09b5aca68fe3ea5',
    (1, 'iso0.csv', 'json'): 'd3384eb36064e635',
    (1, 'iso1.csv', 'csv'): '709cc278ca911573',
    (1, 'iso1.csv', 'json'): '38e5ddc7b156d908',
    (1, 'iso2.csv', 'csv'): '2003ac2be338a768',
    (1, 'iso2.csv', 'json'): '074fa02c7b8e2920',
    (1, 'orbit_total.csv', 'csv'): '8afed83f518bb8e2',
    (1, 'orbit_total.csv', 'json'): '3cf53b0b4bc7bedf',
    (1, 'orbit_pair1.json', 'csv'): '8cebdabc27cfb818',
    (1, 'orbit_pair1.json', 'json'): '7235b175bca478c5',
    (1, 'orbit_pair2.csv', 'csv'): '33fdd029dbba2881',
    (1, 'orbit_pair2.csv', 'json'): 'c5d974613fd8a4ca',
    (2, 'killing0.csv', 'csv'): '3f75d27e78a4d907',
    (2, 'killing0.csv', 'json'): '5c1921cb1461f849',
    (2, 'killing1.csv', 'csv'): '929482cf88ab6b29',
    (2, 'killing1.csv', 'json'): '054e394d4a4f58fb',
    (2, 'killing2.csv', 'csv'): '1b78dc3d78689480',
    (2, 'killing2.csv', 'json'): '09f977cd4caaf016',
    (2, 'killing3.csv', 'csv'): '41287b85438b1255',
    (2, 'killing3.csv', 'json'): '4b3357527927e8ca',
    (2, 'omega_check.csv', 'csv'): '609720bc228d5dad',
    (2, 'omega_check.csv', 'json'): 'ca1403ced89cb725',
    (2, 'iso0.csv', 'csv'): 'a4156f07b45816df',
    (2, 'iso0.csv', 'json'): 'e4aeb51d8430e35f',
    (2, 'iso1.csv', 'csv'): '56af84be86105b00',
    (2, 'iso1.csv', 'json'): '2659fe2500765a80',
    (2, 'iso2.csv', 'csv'): '0769619898b76cde',
    (2, 'iso2.csv', 'json'): 'd9ae5d192c020e05',
    (2, 'orbit_total.csv', 'csv'): '597f3a5cb4f10ec9',
    (2, 'orbit_total.csv', 'json'): '556f2659796dd5c7',
    (2, 'orbit_pair1.json', 'csv'): '6ef6662845fe4fc8',
    (2, 'orbit_pair1.json', 'json'): '4555b36de12cb042',
    (2, 'orbit_pair2.csv', 'csv'): 'f3485cba0d9eedf0',
    (2, 'orbit_pair2.csv', 'json'): '4c2da95e16812241',
    (7, 'killing0.csv', 'csv'): '32fd19cca4a1d59c',
    (7, 'killing0.csv', 'json'): '7f5de8144bc2ba90',
    (7, 'killing1.csv', 'csv'): '36cb0cae9de8a981',
    (7, 'killing1.csv', 'json'): 'e588a3f254d906bb',
    (7, 'killing2.csv', 'csv'): 'd7b27c3047ee4c0a',
    (7, 'killing2.csv', 'json'): '2fd9eecd5eb0e8c8',
    (7, 'killing3.csv', 'csv'): '8517e7b925e0e48d',
    (7, 'killing3.csv', 'json'): 'acba96f126288d57',
    (7, 'omega_check.csv', 'csv'): 'ef46a30af96a346e',
    (7, 'omega_check.csv', 'json'): '5532f493a19e27e0',
    (7, 'iso0.csv', 'csv'): '82600a21ad79b925',
    (7, 'iso0.csv', 'json'): '944e7ec17852f925',
    (7, 'iso1.csv', 'csv'): '1a1fd565a92b7948',
    (7, 'iso1.csv', 'json'): '00bb3f9f9f7b4216',
    (7, 'iso2.csv', 'csv'): '92000d1b42778056',
    (7, 'iso2.csv', 'json'): 'c793e1dd3a8be509',
    (7, 'orbit_total.csv', 'csv'): '9d21a7f1c8c5fdef',
    (7, 'orbit_total.csv', 'json'): 'ed4eedf56c39693c',
    (7, 'orbit_pair1.json', 'csv'): 'a40f4d4606a73140',
    (7, 'orbit_pair1.json', 'json'): 'e14f4545c84a2c38',
    (7, 'orbit_pair2.csv', 'csv'): '3e679efc777dd083',
    (7, 'orbit_pair2.csv', 'json'): '5f5f292b7fbd3337',
    (41, 'killing0.csv', 'csv'): '1cb53194667e782a',
    (41, 'killing0.csv', 'json'): '0ffdad23345d98c2',
    (41, 'killing1.csv', 'csv'): 'c1c47932bad9903b',
    (41, 'killing1.csv', 'json'): 'f1c0ed7f73ab56a9',
    (41, 'killing2.csv', 'csv'): '15647bdcc642d4d2',
    (41, 'killing2.csv', 'json'): 'c0e0d3d7a666e533',
    (41, 'killing3.csv', 'csv'): '585199fb5c593574',
    (41, 'killing3.csv', 'json'): '582190c9c88bdc9c',
    (41, 'omega_check.csv', 'csv'): '41383826ff281a9f',
    (41, 'omega_check.csv', 'json'): '3a71bf05385e276c',
    (41, 'iso0.csv', 'csv'): '2acfccb41392a8cf',
    (41, 'iso0.csv', 'json'): 'd2e8b5ff3f1796a7',
    (41, 'iso1.csv', 'csv'): '73b6fcfafbdb44cb',
    (41, 'iso1.csv', 'json'): 'bb4eae958e2fb02c',
    (41, 'iso2.csv', 'csv'): '4fb783700ce1d6b7',
    (41, 'iso2.csv', 'json'): '06da514c5064ea13',
    (41, 'orbit_total.csv', 'csv'): 'ecd9301fd989c046',
    (41, 'orbit_total.csv', 'json'): '46876dd87e440a80',
    (41, 'orbit_pair1.json', 'csv'): '8d3bf4675dc59603',
    (41, 'orbit_pair1.json', 'json'): 'b62a3b03c70141c7',
    (41, 'orbit_pair2.csv', 'csv'): 'bb7cdb48f739e565',
    (41, 'orbit_pair2.csv', 'json'): '04b10c7f9c856440',
}


#: the same digests of curvature and rho-scan commands that resolve each kind of --omega spec, by argv, as
#: generated at commit 83f1e59; the seven whose R_numeric moved when the ideal gas became its own tree were
#: regenerated then (only R_numeric and rel_error cells moved)
SPEC_RESOLUTION_DIGESTS = {
    # README examples
    ("curvature", "--cv", "1.5", "--omega", "const:1", "--u", "2", "--v", "1"): "5955fa823cf5b38d",
    ("rho-scan", "--cv", "1.5", "--omega", "const:1", "--rho", "0.2:4:200"): "99a3c0d413e56833",
    ("curvature", "--u", "2", "--v", "1", "--omega", "const:1e-320"): "3cd87a4d3744c49e",
    ("curvature", "--omega", "const:1e103", "--u", "2", "--v", "1"): "634e8ea6bbe5cb82",
    ("curvature", "--cv", "1e300", "--u", "2", "--v", "1"): "4ebfb2a80badc2b7",
    ("rho-scan", "--omega", "const:1e103", "--rho", "0.2:4:200"): "7bfe4e58e7721ff9",
    ("rho-scan", "--rho", "0.2:4:5", "--v-fixed", "1e-150"): "86b5bee61be98e66",
    # phase-space Omegas pulled back onto the ideal gas
    ("curvature", "--omega", "expr:1/(q1*p2-q2*p1)", "--cv", "1.5", "--u", "2", "--v", "1"): "c4dee97603f59eca",
    ("rho-scan", "--omega", "norm_sum", "--rho", "0.2:4:20"): "d5c12909eab22b6b",
    # error texts
    ("curvature", "--omega", "expr:x", "--u", "2", "--v", "1"): "3aed1c23e2d7ac75",
    ("curvature", "--omega", "expr:u*q1", "--u", "2", "--v", "1"): "48e614bba6400168",
    ("curvature", "--omega", "expr:q1 +* 2", "--u", "2", "--v", "1"): "1c27c66e01aef064",
    ("curvature", "--omega", "expr:u +* q1", "--u", "2", "--v", "1"): "c72fc57a995f60b2",
    ("curvature", "--omega", "expr:foo(u)", "--u", "2", "--v", "1"): "fa5d134394b1ea9b",
    ("curvature", "--omega", "expr:foo(q1)", "--u", "2", "--v", "1"): "fa5d134394b1ea9b",
    ("rho-scan", "--omega", "bogus", "--rho", "0.2:4:5"): "95f76df21439e995",
    # rows whose float arithmetic leaves the normal range
    ("curvature", "--omega", "const:1e-100", "--u", "1e5", "--v", "1"): "26498e9e6b945c17",
    ("curvature", "--omega", "const:1", "--u", "2e155", "--v", "1e155"): "12a482e82a9011a5",
    ("rho-scan", "--rho", "0.2:4:5", "--v-fixed", "1e-300"): "6ae08ad5e35be45e",
}


class TestBenchmarkHooks:
    def test_tracer_wraps_names_that_exist(self, monkeypatch):
        # the benchmark's tracer and microbenchmarks reach into the package by
        # name; a renamed or deleted name must fail here, not in a benchmark run
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import micro  # noqa: F401
        from tracing import _TRACED, Tracer

        assert all(hasattr(module, attr) for module, attr, _ in _TRACED)
        tracer = Tracer()
        try:
            tracer.install()
        finally:
            tracer.uninstall()
        assert cli.build_arg_parser is build_arg_parser
        assert all(getattr(module, attr).__name__ != "traced" for module, attr, _ in _TRACED)
        # and what it reads of the values those names return
        assert OmegaFunction.constant(1.0).analytic
        G = build_metric("gtd_total", GtdTotalParams.identity(OmegaFunction.constant(1.0)))
        assert G.without_derivatives().d_eval is None and G.d_eval is not None
        stream = io.StringIO()
        emit_rows([{"t": 0.5, "q1": 1.0}, {"t": 1.0, "q1": -2.0}], ["t", "q1"], "csv", stream)
        assert stream.getvalue() == "t,q1\r\n0.5,1\r\n1,-2\r\n"
        report = curvature_report(2.0, 1.0, 1.5, EquilibriumOmega.constant(1.0))
        assert not report.near_singularity and math.isfinite(report.R_numeric)

    def test_microbenchmarks_run(self, monkeypatch):
        # perfbench/micro.py times library paths that no command takes (the FD Killing
        # path of a metric without derivatives among them); deleting one must fail here
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import micro

        figures = micro.run(7, 0.05)
        assert figures and all(math.isfinite(value) and value > 0 for value in figures.values())

    @pytest.mark.parametrize("argv,span", [
        # the recurrence's RK4 quarter turn: one batch of every point's stencil
        (["isometry", "--family", "gtd_partial", "--omega", "const:1", "--points", "3",
          "--recurrence-dt", "1e-2"], "flows.flow_map"),
        (["killing", "--family", "epsilon", "--omega", "norm_sum", "--points", "20"],
         "metriclab.killing_residual"),
    ])
    def test_tracer_sees_one_batched_call_per_command(self, monkeypatch, capsys, tmp_path, argv, span):
        # the benchmark's per-layer figures come from these spans; the CLI must call the traced names
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            assert main([*argv, "--out", str(tmp_path / "out.csv")]) == EXIT_OK
        finally:
            tracer.uninstall()
        assert [s[0] for s in tracer.spans].count(span) == 1

    def test_tracer_counts_the_orbit_table_in_one_emit_span(self, monkeypatch, tmp_path):
        # orbit hands emit_rows one array; the tracer's rows count takes its len()
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            assert main(["orbit", "--ic", "1,2,3,0.5,-1", "--t-end", "1", "--dt", "0.003",
                         "--out", str(tmp_path / "orbit.csv")]) == EXIT_OK
        finally:
            tracer.uninstall()
        assert [s[0] for s in tracer.spans].count("cli.emit_rows") == 1
        assert tracer.counts[tracer.pass_id]["rows"] == len(_step_schedule(1.0, 0.003)) + 1

    def test_the_benchmark_rho_scans_keep_their_bytes(self, monkeypatch, capsys):
        # every rho-scan of the benchmark, CSV and JSON, at four seeds: a change to the closed form or the
        # oracle that moves a byte of them fails here
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import workloads

        digests = {}
        for seed in (1, 2, 7, 41):
            for command in workloads.pointwise_tables(seed).commands:
                for fmt in ("csv", "json") if command.kind == "rho-scan" else ():
                    code = main([*command.argv, "--format", fmt])
                    out, err = capsys.readouterr()
                    digests[seed, command.out, fmt] = hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()[:16]
        assert digests == BENCHMARK_RHO_SCAN_DIGESTS

    def test_the_other_benchmark_commands_keep_their_bytes(self, monkeypatch, capsys):
        # every killing, omega-check, isometry and orbit of the benchmark, CSV and JSON, at the same four seeds:
        # a change to the parser, diff, the programs, the metrics, the flows or emission that moves a byte fails
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import workloads

        digests = {}
        for seed in (1, 2, 7, 41):
            for name in ("pointwise_tables", "quarter_turn", "orbit_dump"):
                for command in workloads.build(name, seed).commands:
                    for fmt in ("csv", "json") if command.kind != "rho-scan" else ():
                        code = main([*command.argv, "--format", fmt])
                        text = "{}\0{}\0{}".format(code, *capsys.readouterr())
                        digests[seed, command.out, fmt] = hashlib.sha256(text.encode()).hexdigest()[:16]
        assert digests == BENCHMARK_COMMAND_DIGESTS

    @pytest.mark.parametrize("argv", list(SPEC_RESOLUTION_DIGESTS), ids=" ".join)
    def test_the_spec_resolution_commands_keep_their_bytes(self, capsys, argv):
        # a change to how --omega specs are parsed and built, or to the closed form's range rows, that moves a
        # byte of these fails here
        code = main(list(argv))
        out, err = capsys.readouterr()
        assert hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()[:16] == SPEC_RESOLUTION_DIGESTS[argv]


class TestReadme:
    def test_every_command_line_example_runs(self, tmp_path, monkeypatch, capsys):
        # the contactlab lines of README's "Command line" block, \ continuations joined
        text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = block.replace("\\\n", " ").splitlines()
        examples = [shlex.split(line)[1:] for line in lines if line.startswith("contactlab ")]
        assert len(examples) == 7
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
        for argv in examples:
            assert main(argv) == EXIT_OK, argv
            out = capsys.readouterr().out
            if "--out" in argv:
                assert (tmp_path / argv[argv.index("--out") + 1]).stat().st_size > 0, argv
            else:
                assert out, argv
