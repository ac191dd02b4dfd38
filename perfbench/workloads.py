"""Seeded command lists for the three benchmark workloads.

Every sampled point, initial condition, coefficient and grid is generated
here from the benchmark seed; the CLI receives only the generated argv.
Each Command carries the metadata the reference checks need to recompute
the expected rows independently of the code path being timed.

Why each workload exists (mirrored in BENCHMARK.json):

  quarter_turn      isometry --recurrence-dt 1e-3 at 8 points a command: RK4
                    flow_map over an 11-state batch to pi/2 per point, a few
                    rows out.  Loads flows heavily; emission and equilibrium
                    barely.  Several points per command leave room for a
                    change that batches all of a command's points at once.
  orbit_dump        orbit over a full turn at dt 1e-3: RK4 one state at a
                    time with every state recorded, CSV and JSON out.
                    Same flows layer used single-state, plus heavy emission.
  pointwise_tables  killing / omega-check / rho-scan, no RK4: per-point
                    Python, FD loops and expression evaluation.  The scaled
                    v_fixed values and the sixth-power Omega keep the known
                    seed defects visible (see reference.KNOWN_DEFECTS).

A pass is one timed sample.  quarter_turn and orbit_dump run one command per
pass, in rotation through their command list, so that a run of --seconds
gets enough passes for a tail percentile; pointwise_tables runs its whole
(cheap) command list in every pass.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List

#: full turn of the Legendre generator, written the way a user would pass it
FULL_TURN = repr(2.0 * math.pi)
ORBIT_DT = 1e-3
RECURRENCE_DT = 1e-3
QUARTER_TURN = math.pi / 2.0

#: points per isometry command; each costs one 11-state RK4 quarter turn
#: (about 0.15 s at the seed), so a command takes about 1.2 s.  The CLI
#: default is 100 and the README example uses 20; 8 keeps a pass short enough
#: for about 25 passes per run while a per-command batch over all points
#: still has 8 x 11 = 88 states to batch.
QUARTER_TURN_POINTS = 8
#: points per killing / omega-check command
TABLE_POINTS = 20
#: rows per rho-scan command
SCAN_STEPS = 40
SCAN_V_FIXED = ("1", "1e-3", "1e4")

WORKLOADS = ("quarter_turn", "orbit_dump", "pointwise_tables")


@dataclass
class Command:
    """One CLI invocation: argv (without --out), output file name, work, check metadata.

    work is RK4 state-steps (quarter_turn) or rows emitted (the others).
    """

    kind: str
    argv: List[str]
    out: str
    work: float
    meta: Dict = field(default_factory=dict)

    def full_argv(self, out_dir: str) -> List[str]:
        return [*self.argv, "--out", f"{out_dir}/{self.out}"]


@dataclass
class Workload:
    name: str
    commands: List[Command]
    rotate: bool  # one command per pass, in turn; otherwise every command in every pass

    @property
    def groups(self) -> List[List[int]]:
        """Command indices of each pass in one rotation."""
        n = len(self.commands)
        return [[i] for i in range(n)] if self.rotate else [list(range(n))]


def rk4_steps(t_end: float, dt: float) -> int:
    """Number of RK4 steps covering [0, t_end]: full steps plus one partial step."""
    n_full = int(math.floor(t_end / dt + 1e-12))
    remainder = t_end - n_full * dt
    return n_full + (1 if remainder > 1e-12 * max(dt, 1.0) else 0)


def _cli_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def _coef(rng: random.Random, lo: float, hi: float) -> str:
    return repr(round(rng.uniform(lo, hi), 6))


def quarter_turn(seed: int) -> Workload:
    rng = random.Random(f"quarter_turn:{seed}")
    specs = [
        ("gtd_partial", {"k": 0, "omega": "const:1"}),
        ("gtd_partial", {"k": 1, "omega": "norm_sum"}),
        ("gtd_total", {"omega": "const:1",
                       "xi": [_coef(rng, 0.5, 1.5), _coef(rng, 0.5, 1.5)],
                       "chi": [_coef(rng, 0.5, 1.5), _coef(rng, 0.5, 1.5)]}),
    ]
    # 2*dim + 1 = 11 states per point: the base point and a +-h pair per coordinate
    work = QUARTER_TURN_POINTS * 11 * rk4_steps(QUARTER_TURN, RECURRENCE_DT)
    commands = []
    for i, (family, params) in enumerate(specs):
        s = _cli_seed(rng)
        argv = ["isometry", "--family", family, "--omega", params["omega"],
                "--points", str(QUARTER_TURN_POINTS), "--seed", str(s),
                "--recurrence-dt", repr(RECURRENCE_DT)]
        if family == "gtd_partial":
            argv += ["--k", str(params["k"])]
            maps = ["1", "2", "total"]
        else:
            # the partial maps are not isometries of gtd_total; only the total map is checked
            argv += ["--xi", ",".join(params["xi"]), "--chi", ",".join(params["chi"]),
                     "--map", "total"]
            maps = ["total"]
        meta = {"family": family, "seed": s, "points": QUARTER_TURN_POINTS, "maps": maps, **params}
        commands.append(Command("isometry", argv, f"iso{i}.csv", float(work), meta))
    return Workload("quarter_turn", commands, rotate=True)


def orbit_dump(seed: int) -> Workload:
    rng = random.Random(f"orbit_dump:{seed}")

    def val() -> float:
        return round(rng.uniform(-2.0, 2.0), 6)

    rows = float(rk4_steps(float(FULL_TURN), ORBIT_DT) + 1)
    commands = []
    ic = [val() for _ in range(5)]
    commands.append(Command(
        "orbit", ["orbit", "--ic=" + ",".join(map(repr, ic)), "--t-end", FULL_TURN,
                  "--dt", repr(ORBIT_DT)],
        "orbit_total.csv", rows,
        {"pair": None, "z0": ic, "format": "csv", "t_end": float(FULL_TURN), "dt": ORBIT_DT}))
    for pair, fmt in ((1, "json"), (2, "csv")):
        q, p, phi = val(), val(), val()
        z0 = [phi, 0.0, 0.0, 0.0, 0.0]
        z0[pair] = q
        z0[2 + pair] = p
        commands.append(Command(
            "orbit", ["orbit", "--pair", str(pair), f"--ic={q!r},{p!r},{phi!r}",
                      "--t-end", FULL_TURN, "--dt", repr(ORBIT_DT), "--format", fmt],
            f"orbit_pair{pair}.{fmt}", rows,
            {"pair": pair, "z0": z0, "format": fmt, "t_end": float(FULL_TURN), "dt": ORBIT_DT}))
    return Workload("orbit_dump", commands, rotate=True)


def pointwise_tables(seed: int) -> Workload:
    rng = random.Random(f"pointwise_tables:{seed}")
    commands = []
    killing = [
        ("epsilon", "norm_sum"),
        ("epsilon", "expr:q1^2+p1^2+q2^2+p2^2"),
        ("epsilon", "expr:(q1^2+p1^2)^3"),
        ("gtd_total", "const:1"),
    ]
    for i, (family, omega) in enumerate(killing):
        s = _cli_seed(rng)
        argv = ["killing", "--family", family, "--omega", omega,
                "--points", str(TABLE_POINTS), "--seed", str(s)]
        meta = {"family": family, "omega": omega, "seed": s, "points": TABLE_POINTS}
        if family == "gtd_total":
            meta["xi"] = [_coef(rng, 0.5, 1.5), _coef(rng, 0.5, 1.5)]
            meta["chi"] = [_coef(rng, 0.5, 1.5), _coef(rng, 0.5, 1.5)]
            argv += ["--xi", ",".join(meta["xi"]), "--chi", ",".join(meta["chi"])]
        commands.append(Command("killing", argv, f"killing{i}.csv", TABLE_POINTS, meta))

    s = _cli_seed(rng)
    commands.append(Command(
        "omega-check", ["omega-check", "--omega", "expr:q1", "--points", str(TABLE_POINTS),
                        "--seed", str(s)],
        "omega_check.csv", TABLE_POINTS, {"seed": s, "points": TABLE_POINTS}))

    # a grid with one node exactly on rho = sqrt(c_v), so one row per scan is
    # flagged, and every other node at least 0.04 away from the singular band
    cv = round(rng.uniform(1.2, 2.4), 6)
    spacing = rng.uniform(0.04, 0.08)
    below = rng.randint(3, 12)
    lo = math.sqrt(cv) - below * spacing
    hi = lo + (SCAN_STEPS - 1) * spacing
    rho = f"{lo!r}:{hi!r}:{SCAN_STEPS}"
    a = _coef(rng, 0.25, 1.0)
    # Omega depends on rho = u/v only, so the true curvature does not depend on v_fixed
    omegas = ("const:1", f"expr:1+{a}*u/(u+v)")
    for j, omega in enumerate(omegas):
        for v_fixed in SCAN_V_FIXED:
            argv = ["rho-scan", "--cv", repr(cv), "--omega", omega, "--rho", rho,
                    "--v-fixed", v_fixed]
            meta = {"cv": cv, "omega": omega, "lo": lo, "hi": hi, "steps": SCAN_STEPS,
                    "v_fixed": float(v_fixed)}
            commands.append(Command("rho-scan", argv, f"scan{j}_v{v_fixed}.csv", SCAN_STEPS, meta))
    return Workload("pointwise_tables", commands, rotate=False)


BUILDERS = {
    "quarter_turn": quarter_turn,
    "orbit_dump": orbit_dump,
    "pointwise_tables": pointwise_tables,
}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)
