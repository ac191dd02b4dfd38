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
Diagnostics go to stderr, a warning as one "warning: <message>" line.
Identical configuration and seed produce byte-identical output.  The
environment variable CTL_OUTPUT_DIR supplies a default directory for
relative output paths.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import numbers
import os
import sys
import warnings
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .phasespace import DarbouxPoint
from .flows import (
    IntegrationError,
    LegendreMap,
    discrete_legendre,
    integrate_flow,
    jacobian_discrete_legendre,
    legendre_field,
    partial_legendre_field,
)
from .metriclab import (
    GtdPartialParams,
    GtdTotalParams,
    METRIC_FAMILIES,
    OmegaFunction,
    _fd_flow_jacobians,
    _pullback_defect,
    build_metric,
    discrete_isometry_residual,  # noqa: F401  perfbench/tracing.py wraps cli.discrete_isometry_residual
    flow_recurrence_residual,  # noqa: F401  perfbench/tracing.py wraps cli.flow_recurrence_residual
    killing_residual,
    omega_from_expression,
    omega_texts,
    poisson_constraint_residual,
)
from .equilibrium import (
    DEFAULT_SINGULAR_BAND,
    NULL_DEGENERATE,
    NULL_RANGE,
    DegenerateMetricError,
    DomainError,
    EquilibriumOmega,
    SingularityError,
    _UV,
    curvature_table,
    ideal_gas,
    rho_scan,
)
from .expressions import (
    ExpressionDomainError,
    ExpressionError,
    UnknownIdentifierError,
    eval_expression,  # noqa: F401  perfbench/tracing.py wraps cli.eval_expression
    parse_expression,
)
from .sampling import sample_darboux_points

OUTPUT_DIR_ENV = "CTL_OUTPUT_DIR"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2

#: the choices of --format, which validate checks a config file's format against too
FORMATS = ("csv", "json")

#: scalar config keys by the type their value must have; None is allowed for the optional ones
_INT_KEYS = ("n", "points", "seed", "k", "pair")
_REAL_KEYS = ("cv", "dt", "t_end", "v_fixed", "delta_sing", "u", "v", "recurrence_dt")
_STR_KEYS = ("command", "family", "omega", "rho", "format", "out")
_OPTIONAL_KEYS = {"pair", "u", "v", "recurrence_dt", "out"}


class ConfigError(ValueError):
    """Invalid run configuration (bad flags, config file, or ranges)."""


# ---------------------------------------------------------------------------
# expression-backed scalar constructors

def equilibrium_omega_from_expression(text: str) -> EquilibriumOmega:
    """Equilibrium-space Omega(u, v) from an expression in u, v, with exact partials."""
    return EquilibriumOmega.from_tree(f"expr:{text}", parse_expression(text, _UV))


def parse_omega_spec(spec: str, n: int = 2) -> OmegaFunction:
    """Resolve a phase-space Omega spec: registry name, const:<c>, or expr:<text>; only it is compiled."""
    if spec.startswith("const:"):
        return OmegaFunction.constant(_parse_float(spec[6:], "omega constant"))
    if spec.startswith("expr:"):
        return omega_from_expression(spec[5:], n)
    texts = omega_texts(n)
    if spec in texts:
        return omega_from_expression(texts[spec], n, spec)
    raise ConfigError(
        f"unknown omega spec {spec!r}; use const:<c>, expr:<text>, or one of {sorted(texts)}"
    )


#: the phase-space variables of an Omega that curvature and rho-scan pull back onto the ideal gas
_QP = ("q1", "q2", "p1", "p2")


def parse_equilibrium_omega_spec(spec: str, c_v: float = 1.5) -> EquilibriumOmega:
    """Resolve an equilibrium Omega spec: const:<c>, expr:<text in u, v>, or a phase-space Omega spec (a registry
    name, or expr:<text in q1, q2, p1, p2>) pulled back onto the ideal gas of c_v, 1.5 as RunConfig's."""
    if spec.startswith("const:"):
        return EquilibriumOmega.constant(_parse_float(spec[6:], "omega constant"))
    if spec.startswith("expr:"):
        try:
            return equilibrium_omega_from_expression(spec[5:])
        except UnknownIdentifierError:  # the text names q or p; a name of neither space fails here
            parse_expression(spec[5:], _UV + _QP)
    try:
        omega = parse_omega_spec(spec, 2)
    except UnknownIdentifierError:
        raise ConfigError(f"omega text {spec[5:]!r} mixes (u, v) with (q1, q2, p1, p2)") from None
    return EquilibriumOmega.from_phase_space(omega, ideal_gas(c_v))


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
        if self.command not in _COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if self.n < 1:
            raise ConfigError("n must be >= 1")
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        if self.t_end < 0:
            raise ConfigError("t_end must be non-negative")
        if self.points < 1:
            raise ConfigError("points must be >= 1")
        if self.format not in FORMATS:
            raise ConfigError(f"unknown output format {self.format!r}")
        for name in _REAL_KEYS:
            if getattr(self, name) is not None:
                _parse_float(getattr(self, name), name)  # a JSON integer beyond the float range is not finite
        if self.delta_sing <= 0:
            raise ConfigError(f"delta_sing must be positive, got {self.delta_sing!r}")


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
        if isinstance(text, bool):  # JSON true/false is no number, as RunConfig.validate has it
            raise TypeError
        val = float(text)
    except (TypeError, ValueError):
        raise ConfigError(f"{label}: not a number: {text!r}") from None
    except OverflowError:  # a JSON integer beyond the float range
        val = math.inf
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
        # every nonempty pair subset, by size, total last
        return [LegendreMap(frozenset(pairs), n)
                for size in range(1, n + 1) for pairs in itertools.combinations(range(1, n + 1), size)]
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

def emit_rows(rows: Union[List[Dict], np.ndarray], fieldnames: Sequence[str], fmt: str, stream) -> None:
    """Write a table as CSV or JSON.

    rows is a structured array with a field per name, a (rows, len(fieldnames)) float array, or a
    list of dicts keyed by fieldnames, which is made a structured array first.
    """
    if not isinstance(rows, np.ndarray):
        rows = _typed_table(fieldnames, *([row[name] for row in rows] for name in fieldnames))
    _emit_table(rows, fieldnames, fmt, stream)


def _typed_table(fieldnames: Sequence[str], *parts) -> np.ndarray:
    """The parts' columns as a structured array, text as str objects; a 2-D part gives a field per column."""
    arrays = [np.asarray(part) for part in parts]
    arrays = [a if a.dtype.kind in "biuf" else np.array(part, dtype=object) for a, part in zip(arrays, parts)]
    columns = [c for a in arrays for c in (a.T if a.ndim == 2 else [a])]
    table = np.empty(len(columns[0]), dtype=[(name, c.dtype) for name, c in zip(fieldnames, columns)])
    for name, column in zip(fieldnames, columns, strict=True):
        table[name] = column
    return table


#: rows formatted per write
_EMIT_CHUNK_ROWS = 1024

#: 5^s for the scalings 10^s = 5^s 2^s of _scaled_decimal, s <= 21
_POW5 = np.array([5 ** s for s in range(22)], dtype=np.uint64)
#: the bytes of "0.000" before the digits of a cell with k < 0, each written where k is below its bound:
#: "0." for k < 0, then a "0" more for each k below -1
_PREFIX = np.frombuffer(b"0.000", np.uint8)[:, None]
_PREFIX_BELOW = np.array([0, 0, -1, -2, -3], np.int8)[:, None]
#: digit j of a cell, 0..16, as a column
_DIGIT = np.arange(17, dtype=np.int8)[:, None]


def _scaled_decimal(m: np.ndarray, k: np.ndarray, r: np.ndarray):
    """(T, rem, rounded_up) for X = m 5^(16-k) / 2^r, exactly (uint64, m < 2^53, -5 <= k <= 14, 1 <= r <= 63).

    T is X rounded half to even, rem is X's fraction in units of 2^-r, and rounded_up says
    whether T is floor(X) + 1.  The product m 5^(16-k) < 2^102 is formed as a 128-bit (hi, lo)
    pair from 32-bit limbs, in place where it can be.
    """
    f0 = _POW5[16 - k]
    f1 = f0 >> 32
    f0 &= 0xFFFFFFFF
    hi = m >> 32
    lo = m & 0xFFFFFFFF
    mid = lo * f1
    lo *= f0
    f0 *= hi
    mid += f0
    hi *= f1
    del f0, f1
    hi += mid >> 32
    mid <<= 32
    mid += lo
    hi += mid < lo  # the carry out of the low 64 bits
    del lo
    hi <<= 64 - r
    t = mid >> r
    t |= hi
    mid &= (1 << r) - 1
    rounded_up = mid + (t & 1) > (1 << (r - 1))
    t += rounded_up
    return t, mid, rounded_up


def _decimal(x: np.ndarray, shortest: bool):
    """(S, k, fallback): the digits of each cell of x as the integer S, with |x| ~ S 10^(k-16).

    Where 1e-4 <= |x| < 1e15, k = floor(log10 |x|), and T, rounded half to even, is the 17-digit
    value of X = |x| 10^(16-k) = m 5^(16-k) / 2^r (_scaled_decimal).  k is seeded from the
    binary exponent E of x as floor(E log10 2); T >= 10^17 means it was one short, and X is
    formed again with k + 1.  For "%.17g", S = T.  For the shortest repr, S is the multiple of
    the largest 10^j, nearest X, in the interval of the values that read back as x:
    X -+ 5^(16-k) / 2^(r+1).  Its ends lie within 12 of T and are never whole numbers, so
    whether it is closed does not matter.  It is narrower than 100, so it holds at most one
    multiple of 100, which is S if there is one; otherwise S is the multiple of 10 nearest X
    if that is inside (T's last digit and the sign of X - T decide which), and T if not.  A
    power of two has a narrower interval below it, but in this range its decimal value has at
    most 15 significant digits, so its X is a multiple of 100 and is S.  Every other cell has
    S = 0, which writes zeros; fallback marks the non-zero ones, and for the shortest repr
    the cells where X = T lies halfway between two multiples of 10 that are both inside.
    """
    y = abs(x)
    inside = (y >= 1e-4) & (y < 1e15)
    y[~inside] = 1.0  # any value of the range, whose digits are not written
    bits = y.view(np.uint64)
    m = bits & ((1 << 52) - 1)
    fallback = ~inside & (x != 0)
    m |= 1 << 52  # |x| = m 2^(E-52)
    e = (bits >> 52).astype(np.int64) - 1023
    del y, bits
    k = e * 78913
    k >>= 18  # floor(E log10 2) for |E| < 1650
    e -= k
    r = (36 - e).astype(np.uint64)  # X = m 5^(16-k) / 2^r
    del e
    t, rem, rounded_up = _scaled_decimal(m, k, r)
    up = np.flatnonzero(t >= 10 ** 17)
    k[up] += 1
    r[up] += 1
    t[up], rem[up], rounded_up[up] = _scaled_decimal(m[up], k[up], r[up])
    t = t.view(np.int64)
    if shortest:
        # T + o lies inside where low <= o <= high; from floor(X) the ends are (2 rem -+ 5^(16-k)) / 2^(r+1),
        # odd multiples of 2^-(r+1), so never whole
        twice, f = rem.view(np.int64) << 1, _POW5[16 - k].view(np.int64)
        s = r.view(np.int64) + 1
        low = ((twice - f) >> s) + 1 - rounded_up
        high = ((twice + f) >> s) - rounded_up
        del twice, f, s
        b = t - t // 10 * 10
        halfway = b == 5
        # to the multiple of 10 nearest X; a tie (X = T) is left to repr
        d = ((b > 5) | (halfway & ~rounded_up)) * 10 - b
        tens = (d >= low) & (d <= high)
        hundred = (t + low + 99) // 100 * 100
        hundreds = hundred <= t + high
        fallback |= tens & halfway & (rem == 0) & ~hundreds
        t += d * tens
        np.copyto(t, hundred, where=hundreds)
        del low, high, b, halfway, d, tens, hundred, hundreds
    del m, r, rem, rounded_up
    t[~inside] = 0
    return t, k, fallback


def _float_lines(chunk: np.ndarray, fmt: str, fieldnames: Sequence[str]) -> str:
    """A 2-D float array's rows as the %-template of _emit_table writes them, without formatting cells one by one.

    A cell with 1e-4 <= |x| < 1e15 is written positionally from its digits S (_decimal): the 17
    significant digits of "%.17g" in CSV, the shortest repr in JSON.  Up to its last non-zero
    digit, a cell shows its integer digits in CSV, and one fraction digit more in JSON ("1.0").
    Each cell is laid out in a fixed-width grid of bytes: sign, "0.000" prefix, 18 digit slots
    (the integer digits, ".", the fraction digits), then what follows the cell ("," or "\r\n"
    in CSV, the next cell's key in JSON), NUL where a byte is not written, and one
    bytes.translate deletes the NULs.  Zeros are written here too.  Every cell of _decimal's
    fallback is left as a "%.17g" or "%s" template and formatted by % (null in JSON when not
    finite).  Only integer operations and comparisons run on the cells, so the text does not
    depend on the host.  Arrays are deleted when done, so that the working set stays about
    twice the grid.
    """
    rows, cols = chunk.shape
    x = chunk.astype(np.float64, copy=False).ravel()
    n = len(x)
    shortest = fmt == "json"
    t, k, fallback = _decimal(x, shortest)
    k = k.astype(np.int8)  # small integers compare fastest as bytes
    templated = fallback.any()  # the text goes through %, and a "%" of a key is escaped
    if shortest:
        keys = [json.dumps(name).replace("%", "%%" if templated else "%") + ": " for name in fieldnames]
        start, end = "{" + keys[0], "}"
        after = [", " + key for key in keys[1:]] + ["}, " + start]
    else:
        start, end = "", "\r\n"
        after = [","] * (cols - 1) + [end]
    width = max(map(len, after))

    digits = np.empty((17, n), np.uint8)
    high = t // 10 ** 9
    t -= high * 10 ** 9
    above, tens = np.empty(n, np.uint32), np.empty(n, np.uint32)
    for half, places in ((t.astype(np.uint32), digits[8:]), (high.astype(np.uint32), digits[:8])):
        for place in places[::-1]:  # the last digit of the half, which is then divided by 10
            np.floor_divide(half, 10, out=above)
            np.multiply(above, 10, out=tens)
            np.subtract(half, tens, out=place, casting="unsafe")
            half, above = above, half
    del t, high, half, above, tens
    nonzero = (digits != 0).view(np.uint8)
    nonzero *= (_DIGIT + 1).astype(np.uint8)
    last = nonzero.max(axis=0).view(np.int8) - 1  # the last non-zero digit, -1 for none
    del nonzero
    shown = np.maximum(k + shortest, last)  # the integer digits and the fraction up to its last non-zero digit
    shown[fallback] = -1
    digits += ord("0")
    digits *= _DIGIT <= shown

    # cells[j, i]: byte j of cell i: six of sign and prefix, 18 digit slots, what follows
    cells = np.empty((24 + width, n), np.uint8)
    cells[0] = (x.view(np.uint64) >> 63).astype(np.uint8) * ord("-")
    np.multiply(k < _PREFIX_BELOW, _PREFIX, out=cells[1:6])
    if templated:
        cells[:6, fallback] = np.frombuffer(b"%s\0\0\0\0" if shortest else b"%.17g\0", np.uint8)[:, None]
    integer = _DIGIT <= k
    np.multiply(digits, integer, out=cells[6:23])  # digit j in slot j up to digit k, and in slot j + 1 after it
    cells[23] = 0
    np.invert(integer, out=integer)
    digits *= integer
    cells[7:24] |= digits
    del digits, integer
    dotted = np.flatnonzero((k >= 0) & (k < shown))  # a "." after digit k, where a fraction is shown
    cells[7 + k[dotted], dotted] = ord(".")
    padded = [text.encode("ascii").ljust(width, b"\0") for text in after + [end]]
    tails = cells[24:].reshape(width, rows, cols)
    for column, tail in enumerate(padded[:-1]):
        tails[:, :, column] = np.frombuffer(tail, np.uint8)[:, None]
    cells[24:, -1] = np.frombuffer(padded[-1], np.uint8)
    del k, last, shown, dotted, tails
    data = cells.T.tobytes()
    del cells
    text = data.translate(None, b"\0")
    del data
    text = text.decode("ascii")  # a statement each, so that two copies of the text are alive at a time, not three
    text = start + text
    if not templated:
        return text
    return text % tuple(c if not shortest or math.isfinite(c) else "null" for c in x[fallback].tolist())


def _cells(column: np.ndarray, fmt: str, alone: bool) -> List:
    """The %-arguments of a column's cells; alone: the column is the table's only one."""
    kind, cells = column.dtype.kind, column.tolist()
    if kind == "b":
        return ["true" if c else "false" for c in cells]
    if kind == "O" and fmt == "json":
        return [json.dumps(c) for c in cells]
    if kind == "O":  # csv.writer's minimal quoting, which also quotes a row's only cell when it is empty
        return ['"' + t.replace('"', '""') + '"' if (alone and not t) or any(s in t for s in ',"\r\n')
                else t for t in map(str, cells)]
    if kind == "f" and fmt == "json" and not np.isfinite(column).all():
        return [c if math.isfinite(c) else "null" for c in cells]
    return cells


def _emit_table(table: np.ndarray, fieldnames: Sequence[str], fmt: str, stream) -> None:
    """emit_rows for a typed table, a chunk of rows at a time: a %-template per row, or _float_lines if all float.

    A float cell is "%.17g" in CSV and str() in JSON (null when not finite), an int "%d", a bool
    true/false, and text is quoted as csv.writer or json.dumps quotes it.
    """
    table = np.asarray(table)  # a record array as a plain one, whose field lookups skip recarray's Python methods
    if table.dtype.names is None:
        table = np.asarray(table, dtype=float)
        if table.ndim != 2 or table.shape[1] != len(fieldnames):
            raise ValueError(f"a table for {len(fieldnames)} fields has shape {table.shape}")
        kinds = ["f"] * len(fieldnames)
    else:
        kinds = [table.dtype[name].kind for name in fieldnames]
        if set(kinds) == {"f"}:
            table = np.column_stack([table[name] for name in fieldnames])
    templates = [{"f": "%.17g" if fmt == "csv" else "%s", "i": "%d", "u": "%d"}.get(k, "%s") for k in kinds]
    if fmt == "csv":
        csv.writer(stream).writerow(fieldnames)
        row, sep = ",".join(templates) + "\r\n", ""
    else:
        stream.write("[")
        names = [json.dumps(name).replace("%", "%%") for name in fieldnames]
        row, sep = "{" + ", ".join(f"{name}: {t}" for name, t in zip(names, templates)) + "}", ", "
    for start in range(0, len(table), _EMIT_CHUNK_ROWS):
        chunk = table[start:start + _EMIT_CHUNK_ROWS]
        if chunk.dtype.names is None and len(fieldnames):
            text = _float_lines(chunk, fmt, fieldnames)
        else:
            columns = [_cells(chunk[name], fmt, len(fieldnames) == 1) for name in fieldnames]
            text = sep.join([row] * len(chunk)) % tuple(itertools.chain.from_iterable(zip(*columns)))
        if start:
            stream.write(sep)
        stream.write(text)
    if fmt == "json":
        stream.write("]\n")


def resolve_output_path(out: Optional[str]) -> Optional[str]:
    base = os.environ.get(OUTPUT_DIR_ENV)
    if out is not None and base and not os.path.isabs(out):
        return os.path.join(base, out)
    return out


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (fieldnames, table) for emit_rows

def _coord_names(n: int) -> List[str]:
    return ["Phi"] + [f"q{i}" for i in range(1, n + 1)] + [f"p{i}" for i in range(1, n + 1)]


def _ic_array(ic: List[float], pair: Optional[int], n: int) -> np.ndarray:
    """The Z array of an initial condition or point: Phi,q1..qn,p1..pn, or qi,pi,Phi with a pair."""
    if pair is not None:
        if len(ic) != 3:
            raise ConfigError(
                f"with --pair, an initial condition is q{pair},p{pair},Phi; got {len(ic)} values"
            )
        z = np.zeros(2 * n + 1)
        z[[pair, n + pair, 0]] = ic
        return z
    if len(ic) != 2 * n + 1:
        raise ConfigError(
            f"an initial condition is Phi,q1..q{n},p1..p{n} ({2 * n + 1} values); got {len(ic)}"
        )
    return np.asarray(ic, dtype=float)


def _cmd_orbit(cfg: RunConfig):
    if not cfg.ics:
        raise ConfigError("orbit requires at least one --ic")
    if cfg.pair is not None and not 1 <= cfg.pair <= cfg.n:
        raise ConfigError(f"pair index {cfg.pair} out of range 1..{cfg.n}")
    field = partial_legendre_field(cfg.pair, cfg.n) if cfg.pair is not None else legendre_field(cfg.n)
    blocks = []
    for ic in cfg.ics:
        traj = integrate_flow(field, DarbouxPoint.from_array(_ic_array(ic, cfg.pair, cfg.n)), cfg.t_end, cfg.dt)
        blocks.append(np.column_stack((traj.times, traj.coords)))
    # every cell is a float: one [t, Phi, q..., p...] array, trajectories in --ic order
    return ["t"] + _coord_names(cfg.n), np.concatenate(blocks)


def _cmd_legendre(cfg: RunConfig):
    if not cfg.ics:
        raise ConfigError("legendre requires at least one --point")
    maps = _parse_maps(cfg.maps, cfg.n) if cfg.maps else [LegendreMap.total(cfg.n)]
    Z = np.array([_ic_array(raw, None, cfg.n) for raw in cfg.ics])
    # overflow shows as a non-finite image, which is a numeric failure
    with np.errstate(over="ignore", invalid="ignore"):
        images = np.stack([discrete_legendre(Z, m) for m in maps], axis=1)
    bad = np.argwhere(~np.isfinite(images).all(axis=-1))
    if len(bad):
        raise FloatingPointError(f"map {maps[bad[0][1]].label()} of point {bad[0][0]} is not finite")
    # a row per point and map, points first
    names = ["index", "map"] + _coord_names(cfg.n) + [f"{c}_out" for c in _coord_names(cfg.n)]
    index, points = np.repeat(np.arange(len(Z)), len(maps)), np.repeat(Z, len(maps), axis=0)
    labels = [m.label() for m in maps] * len(Z)
    return names, _typed_table(names, index, labels, points, images.reshape(-1, Z.shape[1]))


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


def _finite(residuals: np.ndarray, labels: Sequence[str]) -> np.ndarray:
    """residuals, a row per point and a column per label; the first that is not finite is a numeric failure."""
    bad = np.argwhere(~np.isfinite(residuals.reshape(len(residuals), -1)))
    if len(bad):
        raise FloatingPointError(f"{labels[bad[0][1]]} residual of point {bad[0][0]} is not finite")
    return residuals


def _residual_table(cfg: RunConfig, points: np.ndarray, residuals: List[float]):
    """One row per point: index, the point's Z coordinates and its residual."""
    names = ["index"] + _coord_names(cfg.n) + ["residual"]
    return names, _typed_table(names, np.arange(len(points)), points, residuals)


def _cmd_killing(cfg: RunConfig):
    G, omega = _metric_from_config(cfg)
    points = _sampled_points(cfg, omega)
    residuals = _finite(killing_residual(legendre_field(cfg.n), G, points), ["killing"]).tolist()
    print(f"killing: family={cfg.family} omega={cfg.omega} max residual = {max([0.0] + residuals):.6g}",
          file=sys.stderr)
    return _residual_table(cfg, points, residuals)


def _cmd_omega_check(cfg: RunConfig):
    omega = parse_omega_spec(cfg.omega, cfg.n)
    points = sample_darboux_points(cfg.points, cfg.n, cfg.seed)
    residuals = _finite(poisson_constraint_residual(omega, points), ["omega-check"]).tolist()
    worst = max([0.0] + [abs(res) for res in residuals])
    print(f"omega-check: omega={cfg.omega} max |residual| = {worst:.6g}", file=sys.stderr)
    return _residual_table(cfg, points, residuals)


#: the columns of a curvature table that curvature and rho-scan emit
_SCAN_NAMES = ["rho", "u", "v", "R_analytic", "R_numeric", "rel_error", "near_singularity"]


def _scan_table(cfg: RunConfig, table: np.recarray):
    """The curvature table a command emits, after one stderr line each for its flagged and its null rows."""
    flagged = int(np.count_nonzero(table.near_singularity))
    if flagged:
        print(f"{cfg.command}: {flagged} points flagged near rho = sqrt({cfg.cv:g})", file=sys.stderr)
    reasons = [r for r in table.null_reason.tolist() if r is not None]
    if reasons:
        print(f"{cfg.command}: no R_numeric on {len(reasons)} rows ({NULL_DEGENERATE}: "
              f"{reasons.count(NULL_DEGENERATE)}, {NULL_RANGE}: {reasons.count(NULL_RANGE)})", file=sys.stderr)
    return _SCAN_NAMES, table


def _cmd_curvature(cfg: RunConfig):
    if cfg.u is None or cfg.v is None:
        raise ConfigError("curvature requires --u and --v")
    if cfg.u <= 0 or cfg.v <= 0:
        raise ConfigError("u and v must be positive")
    omega = parse_equilibrium_omega_spec(cfg.omega, cfg.cv)
    return _scan_table(cfg, curvature_table([cfg.u], cfg.v, cfg.cv, omega, cfg.delta_sing))


def _cmd_rho_scan(cfg: RunConfig):
    lo, hi, steps = parse_rho_range(cfg.rho)
    if lo <= 0:
        raise ConfigError("rho range must be positive for the ideal gas")
    omega = parse_equilibrium_omega_spec(cfg.omega, cfg.cv)
    return _scan_table(cfg, rho_scan(cfg.cv, omega, lo, hi, steps, cfg.v_fixed, cfg.delta_sing))


def _cmd_isometry(cfg: RunConfig):
    G, omega = _metric_from_config(cfg)
    maps = _parse_maps(cfg.maps, cfg.n)
    Z = _sampled_points(cfg, omega)
    # (label, images of Z, Jacobians) per check, the recurrence's first: its flow runs first, as before
    checks = ([("recurrence:pi/2", *_fd_flow_jacobians(Z, cfg.recurrence_dt, math.pi / 2.0))]
              if cfg.recurrence_dt is not None else [])
    checks += [(f"discrete:{m.label()}", discrete_legendre(Z, m), jacobian_discrete_legendre(m, Z)) for m in maps]
    # one evaluation of G, at the first check's images, at Z, then at the other checks' images: the
    # order in which separate calls met a failing row
    values = G.eval(np.stack([checks[0][1], Z] + [y for _, y, _ in checks[1:]]))
    residuals = np.column_stack([_pullback_defect(Gy, values[1], J)
                                 for Gy, (_, _, J) in zip(np.delete(values, 1, axis=0), checks)])
    labels = [label for label, _, _ in checks]
    if cfg.recurrence_dt is not None:  # its rows follow the maps'
        residuals, labels = np.roll(residuals, -1, axis=1), labels[1:] + labels[:1]
    _finite(residuals, labels)
    # a row per point and check, points first
    names = ["index"] + _coord_names(cfg.n) + ["check", "residual"]
    index, points = np.repeat(np.arange(len(Z)), len(labels)), np.repeat(Z, len(labels), axis=0)
    return names, _typed_table(names, index, points, labels * len(Z), residuals.ravel())


#: command: (handler, help, the flags the handler reads); every command also takes --config, --out and --format
_COMMANDS = {
    "orbit": (_cmd_orbit, "integrate the Legendre generator flow", "--ic --pair --t-end --dt --n"),
    "legendre": (_cmd_legendre, "apply discrete Legendre maps to points", "--point --map --n"),
    "killing": (_cmd_killing, "Killing residuals of a metric family",
                "--family --omega --points --k --xi --chi --n --seed"),
    "omega-check": (_cmd_omega_check, "Poisson-constraint residuals of Omega", "--omega --points --n --seed"),
    "curvature": (_cmd_curvature, "ideal-gas curvature at one point", "--cv --omega --u --v --delta-sing"),
    "rho-scan": (_cmd_rho_scan, "curvature curve over an energy-density range",
                 "--cv --omega --rho --v-fixed --delta-sing"),
    "isometry": (_cmd_isometry, "discrete-map and flow-recurrence residuals",
                 "--family --omega --points --map --k --xi --chi --recurrence-dt --n --seed"),
}


def _print_warning(message, *_) -> None:
    """A warning as one stderr line, without the file, line number and source line Python adds."""
    print(f"warning: {message}", file=sys.stderr)


def run(config: RunConfig) -> int:
    """Execute a validated configuration; returns the process exit code."""
    try:
        config.validate()
        with warnings.catch_warnings():
            warnings.showwarning = _print_warning
            fieldnames, rows = _COMMANDS[config.command][0](config)
    except (IntegrationError, DegenerateMetricError, SingularityError,
            DomainError, ExpressionDomainError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, ExpressionError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # numpy refuses an array too large at once (rho-scan --rho 0.5:4:1e11 steps)
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    path = resolve_output_path(config.out)
    try:
        if path is None:
            emit_rows(rows, fieldnames, config.format, sys.stdout)
        else:
            os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
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


#: every flag once, with its argparse keywords; the dest argparse makes of its name (--t-end: t_end) is a config key
_FLAGS = {
    "--config": {"help": "JSON config file; flags override its keys, and it may set any key"},
    "--out": {"help": f"output path (relative paths join ${OUTPUT_DIR_ENV})"},
    "--format": {"choices": FORMATS, "help": f"output format (default {RunConfig.format})"},
    "--n": {"type": int, "help": f"degrees of freedom (default {RunConfig.n})"},
    "--seed": {"type": int, "help": f"seed for sampled points (default {RunConfig.seed})"},
    "--ic": {"action": "append", "dest": "ics",
             "help": "initial condition: Phi,q1..qn,p1..pn, or qi,pi,Phi with --pair"},
    "--pair": {"type": int, "help": "rotate only this conjugate pair (1-based)"},
    "--t-end": {"type": float},
    "--dt": {"type": float},
    "--point": {"action": "append", "dest": "ics", "help": "point: Phi,q1..qn,p1..pn"},
    "--map": {"action": "append", "dest": "maps",
              "help": "pair set like '1' or '1,2', or 'total' (default: total in legendre, all subsets in isometry)"},
    "--family": {"choices": METRIC_FAMILIES},
    "--omega": {"help": f"registry name, const:<c>, or expr:<text in q1..qn,p1..pn>; curvature and rho-scan also take "
                        f"expr:<text in u,v>, and pull a q,p Omega onto the ideal gas (default {RunConfig.omega})"},
    "--points": {"type": int},
    "--k": {"type": int, "help": f"gtd_partial exponent parameter (default {RunConfig.k})"},
    "--xi": {"help": "gtd_total diagonal, comma-separated (default ones)"},
    "--chi": {"help": "gtd_total diagonal, comma-separated (default ones)"},
    "--cv": {"type": float},
    "--u": {"type": float},
    "--v": {"type": float},
    "--rho": {"help": "range min:max:steps"},
    "--v-fixed": {"type": float},
    "--delta-sing": {"type": float},
    "--recurrence-dt": {"type": float, "help": "also check the quarter-turn flow pullback at this RK4 step"},
}


def build_arg_parser() -> argparse.ArgumentParser:
    """A new parser for the contactlab command line (main() reuses one; see _shared_parser)."""
    parser = _ArgumentParser(prog="contactlab",
                             description="Contact-geometry laboratory for thermodynamic phase space")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)  # rho-scan --v is no --v-fixed
        for flag in (flags + " --config --out --format").split():
            p.add_argument(flag, **_FLAGS[flag])
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

    if merged.get("ics") is not None:
        merged["ics"] = [_parse_float_list(item, "initial condition") for item in merged["ics"]]
    for key in ("xi", "chi"):
        if merged.get(key) is not None:
            merged[key] = _parse_float_list(merged[key], key)
    if merged.get("maps") is not None:
        merged["maps"] = [str(m) for m in merged["maps"]]
    # the file's keys are checked on loading, and every flag is a key
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
