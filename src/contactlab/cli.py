"""Command-line front end: configuration, user expressions, and data emission.

Subcommands map onto the library operations:

  orbit        integrate X_L (or a single-pair generator) and emit the curve
  legendre     apply discrete Legendre maps to explicit points
  killing      Killing-residual table for a metric family at seeded points
  omega-check  {h, Omega} constraint residuals at seeded points
  curvature    analytic vs numeric ideal-gas curvature at one (u, v)
  rho-scan     the curvature-vs-energy-density curve (analytic + numeric)
  isometry     discrete-map and quarter-turn recurrence residuals

Data goes to --out (or stdout) as CSV (CRLF lines, 17 significant digits)
or JSON (an array of row objects; non-finite values become null).
Diagnostics go to stderr.  Identical configuration and seed produce
byte-identical output.  The environment variable CTL_OUTPUT_DIR supplies a
default directory for relative output paths.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import numbers
import os
import sys
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .phasespace import DEFAULT_FD_STEP, DarbouxPoint, central_diff
from .flows import (
    IntegrationError,
    LegendreMap,
    discrete_legendre,
    integrate_flow,
    legendre_field,
    partial_legendre_field,
)
from .metriclab import (
    GtdPartialParams,
    GtdTotalParams,
    OmegaFunction,
    build_metric,
    discrete_isometry_residual,
    flow_recurrence_residual,  # noqa: F401  perfbench/tracing.py wraps cli.flow_recurrence_residual
    flow_recurrence_residuals,
    killing_residual,
    omega_registry,
    poisson_constraint_residual,
)
from .equilibrium import (
    DEFAULT_CURVATURE_STEP,
    DEFAULT_SINGULAR_BAND,
    NULL_DEGENERATE,
    NULL_OUTSIDE,
    DegenerateMetricError,
    DomainError,
    EquilibriumOmega,
    FundamentalRelation,
    SingularityError,
    curvature_report,
    pointwise,
    rho_scan,
)
from .expressions import (
    ExpressionDomainError,
    ExpressionError,
    compile_expression,
    eval_expression,  # noqa: F401  perfbench/tracing.py wraps cli.eval_expression
    parse_expression,
)
from .sampling import sample_darboux_points

OUTPUT_DIR_ENV = "CTL_OUTPUT_DIR"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2

COMMANDS = ("orbit", "legendre", "killing", "omega-check", "curvature", "rho-scan", "isometry")

#: scalar config keys by the type their value must have; None is allowed for the optional ones
_INT_KEYS = ("n", "points", "seed", "k", "pair")
_REAL_KEYS = ("cv", "dt", "t_end", "v_fixed", "delta_sing", "u", "v", "h_fd", "recurrence_dt")
_STR_KEYS = ("command", "family", "omega", "rho", "format", "out")
_OPTIONAL_KEYS = {"pair", "u", "v", "h_fd", "recurrence_dt", "out"}


class ConfigError(ValueError):
    """Invalid run configuration (bad flags, config file, or ranges)."""


# ---------------------------------------------------------------------------
# expression-backed scalar constructors

def _phase_context(n: int) -> List[str]:
    return [f"q{i}" for i in range(1, n + 1)] + [f"p{i}" for i in range(1, n + 1)]


def omega_from_expression(text: str, n: int = 2) -> OmegaFunction:
    """Phase-space Omega(q, p) from an expression in q1..qn, p1..pn.

    Derivatives are left to the finite-difference fallback.
    """
    context = _phase_context(n)
    f = compile_expression(parse_expression(text, context), context)

    def ev(q: np.ndarray, p: np.ndarray) -> float:
        return f(*np.asarray(q, dtype=float).tolist(), *np.asarray(p, dtype=float).tolist())

    return OmegaFunction(name=f"expr:{text}", eval=ev)


def equilibrium_omega_from_expression(text: str) -> EquilibriumOmega:
    """Equilibrium-space Omega(u, v) from an expression in u, v (FD partials)."""
    f = compile_expression(parse_expression(text, ("u", "v")), ("u", "v"))
    return EquilibriumOmega.from_callable(lambda u, v: f(float(u), float(v)), name=f"expr:{text}")


def fundamental_relation_from_expression(text: str, name: Optional[str] = None,
                                         h_fd: float = DEFAULT_FD_STEP) -> FundamentalRelation:
    """A two-coordinate potential Phi(u, v) with FD gradient and Hessian.

    The Hessian and the domain test go point by point through batches, so an
    induced metric over this relation can be evaluated on batches too.
    """
    f = compile_expression(parse_expression(text, ("u", "v")), ("u", "v"))
    h = float(h_fd)

    def value(q) -> float:
        return f(float(q[0]), float(q[1]))

    def gradient(q) -> np.ndarray:
        return central_diff(value, q, h_fd)

    def hessian(q) -> np.ndarray:
        u, v = float(q[0]), float(q[1])
        f0 = f(u, v)
        H = np.empty((2, 2))
        H[0, 0] = (f(u + h, v) - 2 * f0 + f(u - h, v)) / h**2
        H[1, 1] = (f(u, v + h) - 2 * f0 + f(u, v - h)) / h**2
        H[0, 1] = H[1, 0] = (
            f(u + h, v + h) - f(u + h, v - h) - f(u - h, v + h) + f(u - h, v - h)
        ) / (4 * h**2)
        return H

    def in_domain(q) -> bool:
        try:
            value(q)
            return True
        except ExpressionDomainError:
            return False

    return FundamentalRelation(
        name=name or f"expr:{text}", n=2, value=value,
        gradient=gradient, hessian=pointwise(hessian, (2, 2)),
        in_domain=pointwise(in_domain, (), bool),
    )


def parse_omega_spec(spec: str, n: int = 2) -> OmegaFunction:
    """Resolve a phase-space Omega spec: registry name, const:<c>, or expr:<text>."""
    if spec.startswith("const:"):
        return OmegaFunction.constant(_parse_float(spec[6:], "omega constant"))
    if spec.startswith("expr:"):
        return omega_from_expression(spec[5:], n)
    registry = omega_registry(n)
    if spec in registry:
        return registry[spec]
    raise ConfigError(
        f"unknown omega spec {spec!r}; use const:<c>, expr:<text>, or one of {sorted(registry)}"
    )


def parse_equilibrium_omega_spec(spec: str) -> EquilibriumOmega:
    """Resolve an equilibrium Omega spec: const:<c> or expr:<text in u, v>."""
    if spec.startswith("const:"):
        return EquilibriumOmega.constant(_parse_float(spec[6:], "omega constant"))
    if spec.startswith("expr:"):
        return equilibrium_omega_from_expression(spec[5:])
    raise ConfigError(f"unknown equilibrium omega spec {spec!r}; use const:<c> or expr:<text>")


# ---------------------------------------------------------------------------
# run configuration

@dataclass
class RunConfig:
    """One fully resolved run; mirrors the JSON config file key for key."""

    command: str
    n: int = 2
    family: str = "epsilon"
    omega: str = "const:1"
    cv: float = 1.5
    rho: str = "0.2:4:200"
    dt: float = 1e-3
    t_end: float = 2.0 * math.pi
    ics: Optional[List[List[float]]] = None
    pair: Optional[int] = None
    points: int = 100
    seed: int = 7
    out: Optional[str] = None
    format: str = "csv"
    v_fixed: float = 1.0
    k: int = 0
    xi: Optional[List[float]] = None
    chi: Optional[List[float]] = None
    maps: Optional[List[str]] = None
    u: Optional[float] = None
    v: Optional[float] = None
    h_fd: Optional[float] = None
    delta_sing: float = DEFAULT_SINGULAR_BAND
    recurrence_dt: Optional[float] = None

    def validate(self) -> None:
        for keys, kind, label in ((_INT_KEYS, numbers.Integral, "an integer"),
                                  (_REAL_KEYS, numbers.Real, "a number"),
                                  (_STR_KEYS, str, "a string")):
            for name in keys:
                val = getattr(self, name)
                if val is None and name in _OPTIONAL_KEYS:
                    continue
                if isinstance(val, bool) or not isinstance(val, kind):
                    raise ConfigError(f"{name} must be {label}, got {val!r}")
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if self.n < 1:
            raise ConfigError("n must be >= 1")
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        if self.t_end < 0:
            raise ConfigError("t_end must be non-negative")
        if self.points < 1:
            raise ConfigError("points must be >= 1")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"unknown output format {self.format!r}")
        for name in _REAL_KEYS:
            val = getattr(self, name)
            if val is not None and not math.isfinite(val):
                raise ConfigError(f"{name} must be finite, got {val!r}")
        for name in ("h_fd", "delta_sing"):
            val = getattr(self, name)
            if val is not None and val <= 0:
                raise ConfigError(f"{name} must be positive, got {val!r}")


_CONFIG_KEYS = {f.name for f in fields(RunConfig)}


def load_config_file(path: str) -> Dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return data


def _parse_float(text, label: str) -> float:
    try:
        val = float(text)
    except (TypeError, ValueError):
        raise ConfigError(f"{label}: not a number: {text!r}") from None
    if not math.isfinite(val):
        raise ConfigError(f"{label}: must be finite, got {val!r}")
    return val


def _parse_float_list(text, label: str) -> List[float]:
    if isinstance(text, (list, tuple)):
        return [_parse_float(t, label) for t in text]
    return [_parse_float(part, label) for part in str(text).split(",") if part != ""]


def parse_rho_range(spec: str) -> Tuple[float, float, int]:
    parts = str(spec).split(":")
    if len(parts) != 3:
        raise ConfigError(f"rho range must be min:max:steps, got {spec!r}")
    lo = _parse_float(parts[0], "rho min")
    hi = _parse_float(parts[1], "rho max")
    try:
        steps = int(parts[2])
    except ValueError:
        raise ConfigError(f"rho steps must be an integer, got {parts[2]!r}") from None
    if not lo < hi:
        raise ConfigError("rho range must be non-empty (min < max)")
    if steps < 2:
        raise ConfigError("rho steps must be >= 2")
    return lo, hi, steps


def _parse_maps(specs: Optional[List[str]], n: int) -> List[LegendreMap]:
    if not specs:
        # every nonempty pair subset, total last
        subsets: List[LegendreMap] = []
        for mask in range(1, 2**n):
            idx = frozenset(i + 1 for i in range(n) if mask & (1 << i))
            subsets.append(LegendreMap(idx, n))
        subsets.sort(key=lambda m: (len(m.index_set), sorted(m.index_set)))
        return subsets
    maps = []
    for spec in specs:
        if spec == "total":
            maps.append(LegendreMap.total(n))
        else:
            try:
                idx = frozenset(int(part) for part in spec.split(","))
                maps.append(LegendreMap(idx, n))
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"bad map spec {spec!r}: {exc}") from None
    return maps


# ---------------------------------------------------------------------------
# emission

def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def emit_rows(rows: List[Dict], fieldnames: Sequence[str], fmt: str, stream) -> None:
    if fmt == "csv":
        writer = csv.writer(stream)  # RFC 4180 CRLF line endings
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_format_cell(row[name]) for name in fieldnames])
    else:
        def jsonable(value):
            if isinstance(value, (np.integer,)):
                return int(value)
            if isinstance(value, (float, np.floating)):
                value = float(value)
                return value if math.isfinite(value) else None
            return value

        # one json.dumps (the C encoder) per row; json.dump of the whole list
        # would go through the pure-Python iterencode, and one json.dumps of
        # it would hold the whole document in memory at once
        stream.write("[")
        for i, row in enumerate(rows):
            if i:
                stream.write(", ")
            stream.write(json.dumps({name: jsonable(row[name]) for name in fieldnames}))
        stream.write("]\n")


def resolve_output_path(out: Optional[str]) -> Optional[str]:
    if out is None:
        return None
    if not os.path.isabs(out):
        base = os.environ.get(OUTPUT_DIR_ENV)
        if base:
            return os.path.join(base, out)
    return out


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (fieldnames, rows)

def _coord_names(n: int) -> List[str]:
    return ["Phi"] + [f"q{i}" for i in range(1, n + 1)] + [f"p{i}" for i in range(1, n + 1)]


def _ic_to_point(ic: List[float], pair: Optional[int], n: int) -> DarbouxPoint:
    if pair is not None:
        if len(ic) != 3:
            raise ConfigError(
                f"with --pair, an initial condition is q{pair},p{pair},Phi; got {len(ic)} values"
            )
        if not 1 <= pair <= n:
            raise ConfigError(f"pair index {pair} out of range 1..{n}")
        q = np.zeros(n)
        p = np.zeros(n)
        q[pair - 1] = ic[0]
        p[pair - 1] = ic[1]
        return DarbouxPoint(ic[2], q, p)
    if len(ic) != 2 * n + 1:
        raise ConfigError(
            f"an initial condition is Phi,q1..q{n},p1..p{n} ({2 * n + 1} values); got {len(ic)}"
        )
    return DarbouxPoint.from_array(np.asarray(ic, dtype=float))


def _cmd_orbit(cfg: RunConfig):
    if not cfg.ics:
        raise ConfigError("orbit requires at least one --ic")
    if cfg.pair is not None and not 1 <= cfg.pair <= cfg.n:
        raise ConfigError(f"pair index {cfg.pair} out of range 1..{cfg.n}")
    field = partial_legendre_field(cfg.pair, cfg.n) if cfg.pair is not None else legendre_field(cfg.n)
    names = ["t"] + _coord_names(cfg.n)
    rows = []
    for ic in cfg.ics:
        point = _ic_to_point(ic, cfg.pair, cfg.n)
        traj = integrate_flow(field, point, cfg.t_end, cfg.dt)
        for t, z in zip(traj.times, traj.coords):
            rows.append(dict(zip(names, [t, *z])))
    return names, rows


def _cmd_legendre(cfg: RunConfig):
    if not cfg.ics:
        raise ConfigError("legendre requires at least one --point")
    maps = _parse_maps(cfg.maps, cfg.n) if cfg.maps else [LegendreMap.total(cfg.n)]
    coord = _coord_names(cfg.n)
    names = ["index", "map"] + coord + [f"{c}_out" for c in coord]
    rows = []
    for idx, raw in enumerate(cfg.ics):
        x = _ic_to_point(raw, None, cfg.n)
        for m in maps:
            y = discrete_legendre(x, m)
            row = {"index": idx, "map": m.label()}
            row.update(zip(coord, x.to_array()))
            row.update(zip([f"{c}_out" for c in coord], y.to_array()))
            rows.append(row)
    return names, rows


def _metric_from_config(cfg: RunConfig):
    omega = parse_omega_spec(cfg.omega, cfg.n)
    if cfg.family == "epsilon":
        return build_metric("epsilon", omega, cfg.n), omega
    if cfg.family == "gtd_total":
        xi = np.asarray(cfg.xi, dtype=float) if cfg.xi else np.ones(cfg.n)
        chi = np.asarray(cfg.chi, dtype=float) if cfg.chi else np.ones(cfg.n)
        return build_metric("gtd_total", GtdTotalParams(xi, chi, omega), cfg.n), omega
    if cfg.family == "gtd_partial":
        return build_metric("gtd_partial", GtdPartialParams(cfg.k, omega), cfg.n), omega
    raise ConfigError(f"unknown metric family {cfg.family!r}")


def _sampled_points(cfg: RunConfig, omega: Optional[OmegaFunction]):
    guard = omega if cfg.family == "epsilon" else None
    return sample_darboux_points(cfg.points, cfg.n, cfg.seed, omega=guard)


def _cmd_killing(cfg: RunConfig):
    G, omega = _metric_from_config(cfg)
    X = legendre_field(cfg.n)
    h_fd = cfg.h_fd if cfg.h_fd is not None else DEFAULT_FD_STEP
    coord = _coord_names(cfg.n)
    names = ["index"] + coord + ["residual"]
    rows = []
    worst = 0.0
    for idx, x in enumerate(_sampled_points(cfg, omega)):
        res = killing_residual(X, G, x, h_fd)
        worst = max(worst, res)
        row = {"index": idx, "residual": res}
        row.update(zip(coord, x.to_array()))
        rows.append(row)
    print(f"killing: family={cfg.family} omega={cfg.omega} max residual = {worst:.6g}",
          file=sys.stderr)
    return names, rows


def _cmd_omega_check(cfg: RunConfig):
    omega = parse_omega_spec(cfg.omega, cfg.n)
    h_fd = cfg.h_fd if cfg.h_fd is not None else DEFAULT_FD_STEP
    coord = _coord_names(cfg.n)
    names = ["index"] + coord + ["residual"]
    rows = []
    worst = 0.0
    for idx, x in enumerate(sample_darboux_points(cfg.points, cfg.n, cfg.seed)):
        res = poisson_constraint_residual(omega, x, h_fd)
        worst = max(worst, abs(res))
        row = {"index": idx, "residual": res}
        row.update(zip(coord, x.to_array()))
        rows.append(row)
    print(f"omega-check: omega={cfg.omega} max |residual| = {worst:.6g}", file=sys.stderr)
    return names, rows


_SCAN_FIELDS = ["rho", "u", "v", "R_analytic", "R_numeric", "rel_error", "near_singularity"]


def _report_row(report) -> Dict:
    return {name: getattr(report, name) for name in _SCAN_FIELDS}


def _cmd_curvature(cfg: RunConfig):
    if cfg.u is None or cfg.v is None:
        raise ConfigError("curvature requires --u and --v")
    if cfg.u <= 0 or cfg.v <= 0:
        raise ConfigError("u and v must be positive")
    omega = parse_equilibrium_omega_spec(cfg.omega)
    h_fd = cfg.h_fd if cfg.h_fd is not None else DEFAULT_CURVATURE_STEP
    report = curvature_report(cfg.u, cfg.v, cfg.cv, omega, cfg.delta_sing, h_fd)
    return _SCAN_FIELDS, [_report_row(report)]


def _cmd_rho_scan(cfg: RunConfig):
    lo, hi, steps = parse_rho_range(cfg.rho)
    if lo <= 0:
        raise ConfigError("rho range must be positive for the ideal gas")
    omega = parse_equilibrium_omega_spec(cfg.omega)
    h_fd = cfg.h_fd if cfg.h_fd is not None else DEFAULT_CURVATURE_STEP
    reports = rho_scan(cfg.cv, omega, lo, hi, steps, cfg.v_fixed, cfg.delta_sing, h_fd)
    flagged = sum(r.near_singularity for r in reports)
    if flagged:
        print(f"rho-scan: {flagged} points flagged near rho = sqrt({cfg.cv:g})", file=sys.stderr)
    reasons = [r.null_reason for r in reports if r.null_reason is not None]
    if reasons:
        print(f"rho-scan: no R_numeric on {len(reasons)} rows ({NULL_DEGENERATE}: "
              f"{reasons.count(NULL_DEGENERATE)}, {NULL_OUTSIDE}: {reasons.count(NULL_OUTSIDE)})",
              file=sys.stderr)
    return _SCAN_FIELDS, [_report_row(r) for r in reports]


def _cmd_isometry(cfg: RunConfig):
    G, omega = _metric_from_config(cfg)
    maps = _parse_maps(cfg.maps, cfg.n)
    coord = _coord_names(cfg.n)
    names = ["index"] + coord + ["check", "residual"]
    points = _sampled_points(cfg, omega)
    recurrence = (flow_recurrence_residuals(G, points, cfg.recurrence_dt).tolist()
                  if cfg.recurrence_dt is not None else None)
    rows = []
    for idx, x in enumerate(points):
        base = {"index": idx}
        base.update(zip(coord, x.to_array()))
        for m in maps:
            rows.append({**base, "check": f"discrete:{m.label()}",
                         "residual": discrete_isometry_residual(G, m, x)})
        if recurrence is not None:
            rows.append({**base, "check": "recurrence:pi/2", "residual": recurrence[idx]})
    return names, rows


_HANDLERS = {
    "orbit": _cmd_orbit,
    "legendre": _cmd_legendre,
    "killing": _cmd_killing,
    "omega-check": _cmd_omega_check,
    "curvature": _cmd_curvature,
    "rho-scan": _cmd_rho_scan,
    "isometry": _cmd_isometry,
}


def run(config: RunConfig) -> int:
    """Execute a validated configuration; returns the process exit code."""
    try:
        config.validate()
        fieldnames, rows = _HANDLERS[config.command](config)
    except (IntegrationError, DegenerateMetricError, SingularityError,
            DomainError, ExpressionDomainError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, ExpressionError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    path = resolve_output_path(config.out)
    try:
        if path is None:
            emit_rows(rows, fieldnames, config.format, sys.stdout)
        else:
            directory = os.path.dirname(path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            with open(path, "w", encoding="utf-8", newline="") as fh:
                emit_rows(rows, fieldnames, config.format, fh)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

class _ArgumentParser(argparse.ArgumentParser):
    """Raises ConfigError on a bad flag, so it exits 1 with one line; subparsers share the class."""

    def error(self, message):
        raise ConfigError(message)


def build_arg_parser() -> argparse.ArgumentParser:
    """A new parser for the contactlab command line (main() reuses one; see _shared_parser)."""
    parser = _ArgumentParser(
        prog="contactlab",
        description="Contact-geometry laboratory for thermodynamic phase space",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file; flags override its keys")
        p.add_argument("--n", type=int, help="degrees of freedom (default 2)")
        p.add_argument("--out", help=f"output path (relative paths join ${OUTPUT_DIR_ENV})")
        p.add_argument("--format", choices=("csv", "json"), help="output format (default csv)")
        p.add_argument("--seed", type=int, help="seed for sampled points (default 7)")

    p = sub.add_parser("orbit", help="integrate the Legendre generator flow")
    p.add_argument("--ic", action="append", dest="ics",
                   help="initial condition: Phi,q1..qn,p1..pn, or qi,pi,Phi with --pair")
    p.add_argument("--pair", type=int, help="rotate only this conjugate pair (1-based)")
    p.add_argument("--t-end", type=float, dest="t_end")
    p.add_argument("--dt", type=float)
    add_common(p)

    p = sub.add_parser("legendre", help="apply discrete Legendre maps to points")
    p.add_argument("--point", action="append", dest="ics", help="point: Phi,q1..qn,p1..pn")
    p.add_argument("--map", action="append", dest="maps",
                   help="pair set like '1' or '1,2', or 'total' (default: total)")
    add_common(p)

    p = sub.add_parser("killing", help="Killing residuals of a metric family")
    p.add_argument("--family", choices=("epsilon", "gtd_total", "gtd_partial"))
    p.add_argument("--omega", help="registry name, const:<c>, or expr:<text>")
    p.add_argument("--points", type=int)
    p.add_argument("--k", type=int, help="gtd_partial exponent parameter (default 0)")
    p.add_argument("--xi", help="gtd_total diagonal, comma-separated (default ones)")
    p.add_argument("--chi", help="gtd_total diagonal, comma-separated (default ones)")
    p.add_argument("--h-fd", type=float, dest="h_fd")
    add_common(p)

    p = sub.add_parser("omega-check", help="Poisson-constraint residuals of Omega")
    p.add_argument("--omega")
    p.add_argument("--points", type=int)
    p.add_argument("--h-fd", type=float, dest="h_fd")
    add_common(p)

    p = sub.add_parser("curvature", help="ideal-gas curvature at one point")
    p.add_argument("--cv", type=float)
    p.add_argument("--omega", help="const:<c> or expr:<text in u,v>")
    p.add_argument("--u", type=float)
    p.add_argument("--v", type=float)
    p.add_argument("--h-fd", type=float, dest="h_fd")
    p.add_argument("--delta-sing", type=float, dest="delta_sing")
    add_common(p)

    p = sub.add_parser("rho-scan", help="curvature curve over an energy-density range")
    p.add_argument("--cv", type=float)
    p.add_argument("--omega", help="const:<c> or expr:<text in u,v>")
    p.add_argument("--rho", help="range min:max:steps")
    p.add_argument("--v-fixed", type=float, dest="v_fixed")
    p.add_argument("--h-fd", type=float, dest="h_fd")
    p.add_argument("--delta-sing", type=float, dest="delta_sing")
    add_common(p)

    p = sub.add_parser("isometry", help="discrete-map and flow-recurrence residuals")
    p.add_argument("--family", choices=("epsilon", "gtd_total", "gtd_partial"))
    p.add_argument("--omega")
    p.add_argument("--points", type=int)
    p.add_argument("--map", action="append", dest="maps",
                   help="pair set like '1' or '1,2', or 'total' (default: all subsets)")
    p.add_argument("--k", type=int)
    p.add_argument("--xi", help="gtd_total diagonal, comma-separated")
    p.add_argument("--chi", help="gtd_total diagonal, comma-separated")
    p.add_argument("--recurrence-dt", type=float, dest="recurrence_dt",
                   help="also check the quarter-turn flow pullback at this RK4 step")
    add_common(p)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    merged: Dict = {}
    if getattr(args, "config", None):
        merged.update(load_config_file(args.config))
    for key, value in vars(args).items():
        if key in ("config",) or value is None:
            continue
        merged[key] = value
    merged.setdefault("command", args.command)
    for key in ("ics", "maps"):
        if merged.get(key) is not None and not isinstance(merged[key], list):
            raise ConfigError(f"{key} must be a list, got {merged[key]!r}")

    if "ics" in merged and merged["ics"] is not None:
        merged["ics"] = [
            _parse_float_list(item, "initial condition") if not isinstance(item, list) else item
            for item in merged["ics"]
        ]
    for key in ("xi", "chi"):
        if key in merged and merged[key] is not None and not isinstance(merged[key], list):
            merged[key] = _parse_float_list(merged[key], key)
    if "maps" in merged and merged["maps"] is not None:
        merged["maps"] = [str(m) for m in merged["maps"]]

    unknown = set(merged) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    try:
        return RunConfig(**merged)
    except TypeError as exc:
        raise ConfigError(f"bad configuration: {exc}") from None


#: (build function, parser): the parser main() reuses and the function that built it
_parser_cache: Optional[Tuple] = None


def _shared_parser() -> argparse.ArgumentParser:
    """The parser of main(), built by build_arg_parser() on first use in a process.

    Building one takes milliseconds (argparse sets up help formatting for
    every argument), longer than a pointwise command, so in-process callers of
    main() reuse it; parse_args keeps no state between calls.  When the name
    build_arg_parser is rebound (a test's or a profiler's wrapper), the
    parser is built again by the new binding, so no parser outlives the
    function that built it.
    """
    global _parser_cache
    if _parser_cache is None or _parser_cache[0] is not build_arg_parser:
        _parser_cache = (build_arg_parser, build_arg_parser())
    return _parser_cache[1]


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        config = config_from_args(_shared_parser().parse_args(argv))
    except (ConfigError, ExpressionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
