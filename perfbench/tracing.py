"""Spans around the calls into each contactlab module, recorded from outside.

Tracer.install() replaces public functions in the namespaces that call them
(for example cli.integrate_flow, metriclab.flow_map) with wrappers that record
a span: name, start, end, parent and pass id.  Spans stay in memory until the
run ends.  Counts that have no natural span (DarbouxPoint constructions,
sampler draws, rows emitted) are recorded at the same boundaries.  The
library itself is not modified; uninstall() restores every original.

A span's layer is the module prefix of its name.  A layer's self time is the
total duration of its spans minus the time covered by their direct children.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from typing import Dict, List

import numpy as np

from contactlab import cli, equilibrium, metriclab, phasespace, sampling
from workloads import rk4_steps

LAYERS = ("cli", "flows", "metriclab", "equilibrium", "expressions", "sampling")

# (module, attribute, span name): every call site a CLI run reaches
_TRACED = [
    (cli, "build_arg_parser", "cli.build_arg_parser"),
    (cli, "config_from_args", "cli.config_from_args"),
    (cli, "run", "cli.run"),
    (cli, "emit_rows", "cli.emit_rows"),
    (cli, "parse_omega_spec", "cli.parse_omega_spec"),
    (cli, "integrate_flow", "flows.integrate_flow"),
    (metriclab, "flow_map", "flows.flow_map"),
    (cli, "killing_residual", "metriclab.killing_residual"),
    (cli, "poisson_constraint_residual", "metriclab.poisson_constraint_residual"),
    (cli, "discrete_isometry_residual", "metriclab.discrete_isometry_residual"),
    (cli, "flow_recurrence_residual", "metriclab.flow_recurrence_residual"),
    (cli, "build_metric", "metriclab.build_metric"),
    (cli, "rho_scan", "equilibrium.rho_scan"),
    (equilibrium, "curvature_report", "equilibrium.curvature_report"),
    (equilibrium, "scalar_curvature_numeric", "equilibrium.scalar_curvature_numeric"),
    (cli, "parse_expression", "expressions.parse_expression"),
    # entry from the CLI closures only: the evaluator recurses through its own module
    (cli, "eval_expression", "expressions.eval_expression"),
    (cli, "sample_darboux_points", "sampling.sample_darboux_points"),
]

_PARSE_SPANS = ("cli.build_arg_parser", "cli.parse_args", "cli.config_from_args")


class Tracer:
    def __init__(self):
        self.spans: List[tuple] = []  # (name, start, end, parent index, pass id)
        self.counts: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.pass_id = -1
        self._stack: List[int] = []
        self._saved: List[tuple] = []
        self._omega_analytic = None

    # -- recording ----------------------------------------------------------

    def begin_pass(self, pass_id: int) -> int:
        self.pass_id = pass_id
        return self._open("pass")

    def end_pass(self, index: int) -> None:
        self._close(index)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), math.nan, parent, self.pass_id])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[self.pass_id][key] += value

    def _wrap(self, fn, name: str, after=None):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- installing wrappers --------------------------------------------------

    def _after(self, name: str):
        if name == "flows.flow_map":
            def after(args, kwargs, result):
                z0 = np.asarray(args[1])
                states = 1 if z0.ndim == 1 else z0.shape[0]
                self.count("rk4_state_steps", states * rk4_steps(args[2], args[3]))
            return after
        if name == "flows.integrate_flow":
            return lambda args, kwargs, result: self.count("rk4_state_steps", rk4_steps(args[2], args[3]))
        if name == "cli.emit_rows":
            def after(args, kwargs, result):
                rows = len(args[0])
                self.count("rows", rows)
                if self._omega_analytic is not None:
                    self.count("omega_rows", rows)
                    self.count("omega_fd_rows", 0 if self._omega_analytic else rows)
            return after
        if name == "cli.parse_omega_spec":
            def after(args, kwargs, result):
                self._omega_analytic = result.analytic
            return after
        if name == "equilibrium.curvature_report":
            def after(args, kwargs, result):
                self.count("flagged", result.near_singularity)
                self.count("null_numeric", (not result.near_singularity) and math.isnan(result.R_numeric))
            return after
        if name == "sampling.sample_darboux_points":
            return lambda args, kwargs, result: self.count("points_sampled", len(result))
        return None

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for module, attr, name in _TRACED:
            self._patch(module, attr, self._wrap(getattr(module, attr), name, self._after(name)))

        build = cli.build_arg_parser

        def build_traced(*args, **kwargs):
            parser = build(*args, **kwargs)
            parser.parse_args = self._wrap(parser.parse_args, "cli.parse_args")
            return parser

        self._patch(cli, "build_arg_parser", build_traced)

        post_init = phasespace.DarbouxPoint.__post_init__

        def post_init_counted(point):
            self.count("points_built")
            post_init(point)

        self._patch(phasespace.DarbouxPoint, "__post_init__", post_init_counted)

        uniform = sampling.SplitMix64.uniform

        def uniform_counted(rng, low, high):
            self.count("uniform_draws")
            return uniform(rng, low, high)

        self._patch(sampling.SplitMix64, "uniform", uniform_counted)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def command_started(self) -> None:
        """Forget the Omega of the previous command before the next one runs."""
        self._omega_analytic = None

    # -- analysis -----------------------------------------------------------

    def pass_metrics(self) -> List[Dict[str, float]]:
        """Per-layer figures for each traced pass, from the spans and counts."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        per_pass: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, pid) in enumerate(self.spans):
            agg = per_pass[pid]
            dur = end - start
            layer = name.split(".", 1)[0]
            if name == "pass":
                agg["pass_s"] += dur
            else:
                agg[f"{layer}.self_s"] += dur - child[i]
                agg[f"{name}.s"] += dur
                agg[f"{name}.calls"] += 1
            if name == "cli.run":
                agg["cli.compute.s"] += dur
            if name == "cli.emit_rows":
                agg["cli.compute.s"] -= dur
            if name in _PARSE_SPANS:
                agg["cli.parse.s"] += dur
        out = []
        for pid in sorted(per_pass):
            agg, counts = per_pass[pid], self.counts[pid]
            rows = counts["rows"]
            draws = counts["uniform_draws"] / 5.0  # one draw is 2n+1 = 5 uniforms
            out.append({
                "pass_s": agg["pass_s"],
                "cli.parse.s": agg["cli.parse.s"],
                "cli.compute.s": agg["cli.compute.s"],
                "cli.emit_rows.s": agg["cli.emit_rows.s"],
                "flows.flow_map.s": agg["flows.flow_map.s"],
                "flows.flow_map.calls": agg["flows.flow_map.calls"],
                "flows.integrate_flow.s": agg["flows.integrate_flow.s"],
                "flows.rk4_state_steps": counts["rk4_state_steps"],
                "metriclab.flow_recurrence_residual.s": agg["metriclab.flow_recurrence_residual.s"],
                "metriclab.fd_share": (counts["omega_fd_rows"] / counts["omega_rows"]
                                       if counts["omega_rows"] else 0.0),
                "equilibrium.curvature_report.s": agg["equilibrium.curvature_report.s"],
                "equilibrium.null_numeric": counts["null_numeric"],
                "equilibrium.flagged": counts["flagged"],
                "expressions.parse_expression.s": agg["expressions.parse_expression.s"],
                "expressions.eval_expression.calls": agg["expressions.eval_expression.calls"],
                "expressions.eval_expression.s": agg["expressions.eval_expression.s"],
                "sampling.sample_darboux_points.s": agg["sampling.sample_darboux_points.s"],
                "sampling.accept_ratio": counts["points_sampled"] / draws if draws else 0.0,
                "phasespace.points_built": counts["points_built"] / rows if rows else 0.0,
                **{f"{layer}.self_s": agg[f"{layer}.self_s"] for layer in LAYERS},
            })
        return out
