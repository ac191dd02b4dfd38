"""contactlab benchmark: drive the CLI in-process and check every emitted row.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --report [--seed N] [--seconds S]

Run from the root of a source checkout; contactlab is imported from src/.
The benchmark generates every CLI argument from --seed, runs the workload's
commands through cli.main(argv) as repeated passes for --seconds (one
process, no extra threads, outputs in a temporary directory under
perfbench/out/), then reads every output row back and checks it against the
independent references in reference.py.  A pass is one command in rotation
(quarter_turn, orbit_dump) or the whole command list (pointwise_tables),
see workloads.Workload.groups; a run always ends on a whole rotation.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes (spans recorded from outside the library, see tracing.py),
then runs the layer microbenchmarks, and prints the per-layer metrics.
End-to-end times are not wall-clock times: they are scaled to a reference
machine speed, in seconds of a machine on which calibration_kernel() takes
CAL_REF_S, by that kernel timed while they ran (see SpeedSampler).  Their units
say so (ref_s, 1/ref_s), except setup_s, which the benchmark contract fixes
to s although it is scaled the same way.  The raw wall-clock figures are
printed beside the scaled ones on stderr and written to --details.  The
last stdout line is one JSON object: correct, attempted, failed, metrics.  Here
attempted counts CLI invocations and failed those that did not exit 0; the
reference checks decide `correct`, and checks.failed_frac reports every
failed check, known seed defects included (reference.KNOWN_DEFECTS).

--report runs every workload with both trace settings in child processes,
prints every metric by name with its unit, and writes them with the Python
and numpy versions, nproc and the git commit to perfbench/out/report.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPS = 11
#: kernel runs per calibration, about 20-30 ms in all
CAL_REPS = 30
#: calibration-kernel time that defines reference speed; pass times are
#: scaled by CAL_REF_S / (kernel time measured while they ran)
CAL_REF_S = 6e-4
#: a timed pass runs the calibration kernel once every SAMPLE_EVERY_S, and at
#: least MIN_SAMPLES times (the rest right after the pass)
SAMPLE_EVERY_S = 0.02
MIN_SAMPLES = 5
MIN_PASSES = 20
#: share of --seconds a traced run spends on microbenchmarks; the rest alternates
#: untraced and traced passes
MICRO_SHARE = 0.3

# ref_s: seconds at reference speed (see calibration_kernel); setup_s is scaled
# the same way, but the benchmark contract fixes its unit to s
END_TO_END_UNITS = {
    "setup_s": "s",
    "work_per_s": "1/ref_s",
    "pass_s_p50": "ref_s",
    "pass_s_tail": "ref_s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "flows.flow_map.s": "s",
    "flows.flow_map.calls": "count",
    "flows.integrate_flow.s": "s",
    "flows.rk4_state_steps": "count",
    "flows.us_per_state_step.b1": "us",
    "flows.us_per_state_step.b11": "us",
    "flows.us_per_state_step.b256": "us",
    "flows.self_s": "s",
    "metriclab.flow_recurrence_residual.s": "s",
    "metriclab.killing_residual.us.analytic": "us",
    "metriclab.killing_residual.us.fd": "us",
    "metriclab.discrete_isometry_residual.us": "us",
    "metriclab.fd_share": "ratio",
    "metriclab.self_s": "s",
    "equilibrium.curvature_report.s": "s",
    "equilibrium.curvature_report.us": "us",
    "equilibrium.scalar_curvature_numeric.us": "us",
    "equilibrium.null_numeric": "count",
    "equilibrium.flagged": "count",
    "equilibrium.self_s": "s",
    "expressions.parse_expression.s": "s",
    "expressions.eval_expression.calls": "count",
    "expressions.eval_expression.s": "s",
    "expressions.self_s": "s",
    "sampling.sample_darboux_points.s": "s",
    "sampling.accept_ratio": "ratio",
    "sampling.self_s": "s",
    "phasespace.points_built": "count/row",
    "cli.parse.s": "s",
    "cli.compute.s": "s",
    "cli.emit_rows.s": "s",
    "cli.emit_bytes": "bytes",
    "cli.emit_us_per_row.csv": "us",
    "cli.emit_us_per_row.json": "us",
    "cli.self_s": "s",
    "checks.failed_frac": "ratio",
    "checks.worst_err_to_tol": "ratio",
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
}

# one fresh interpreter: import the CLI, build its parser, parse one argv; then
# report when that finished and how fast this process runs the calibration kernel
_SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import contactlab.cli as cli; "
    "cli.config_from_args(cli.build_arg_parser().parse_args(sys.argv[3:])); done = time.perf_counter(); "
    "sys.path.insert(0, sys.argv[2]); from run import calibrate; print(done, calibrate())"
)


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _import_contactlab():
    """Import contactlab from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import contactlab

    if Path(contactlab.__file__).resolve().parent != (SRC / "contactlab").resolve():
        raise ImportError(f"contactlab resolved to {contactlab.__file__}, not {SRC}")


def setup_once(argv):
    """Set-up time of a fresh interpreter: (scaled by its own calibration kernel time, raw).

    The time runs from the spawn to the end of argument parsing (perf_counter
    is one monotonic clock for all processes).  The child then times the
    calibration kernel itself, because the scheduler may run it on a CPU
    that is faster or slower than this process's.
    """
    cmd = [sys.executable, "-c", _SETUP_CODE, str(SRC), str(HERE), *argv]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, check=True, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                         text=True).stdout.split()
    done, kernel_s = float(out[0]), float(out[1])
    return (done - t0) * CAL_REF_S / kernel_s, done - t0


def calibration_kernel() -> None:
    """Fixed work that never calls contactlab: small-array numpy, float loops, formatting.

    This is the yardstick for machine speed.  Changing it rescales every
    end-to-end time, so it must stay as it is.
    """
    y = np.linspace(0.1, 0.5, 5)
    for _ in range(100):
        y = y + 1e-3 * (0.5 * y - 0.25 * y)
    acc = 0.0
    for i in range(1500):
        x = i * 1e-3
        acc += (x * x + 1.0) / (x + 2.0) - math.sqrt(x + 1.0)
    ",".join(f"{i * 0.1:.17g}" for i in range(100))


def calibrate() -> float:
    """Seconds per calibration kernel, the mean over CAL_REPS runs.

    Each set-up child times its own speed this way, right after its set-up.
    """
    t0 = time.perf_counter()
    for _ in range(CAL_REPS):
        calibration_kernel()
    return (time.perf_counter() - t0) / CAL_REPS


def time_kernel() -> float:
    """Seconds of one calibration kernel run."""
    t0 = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - t0


class SpeedSampler:
    """Times the calibration kernel every SAMPLE_EVERY_S while a pass runs.

    The machine's speed can change by a factor of two within a second, so
    kernel runs before and after a pass of about a second miss much of the
    change; samples taken during the pass follow it.  A SIGALRM timer runs
    the kernel in the main thread between bytecodes (no extra thread), and
    `busy` is the time the samples took, which the pass time leaves out.
    A kernel run between the program's own work reads about 10-20% slower
    than one of CAL_REPS back-to-back runs, so this sets the scale of the
    pass figures; it is the same on every commit.  An inactive sampler does
    nothing.
    """

    def __init__(self, active: bool):
        self.active = active
        self.samples = []
        self.busy = 0.0

    def _sample(self, signum, frame) -> None:
        dt = time_kernel()
        self.samples.append(dt)
        self.busy += dt

    def __enter__(self):
        if self.active:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)


class Runner:
    """Runs a workload's command list as passes and keeps what the checks need."""

    def __init__(self, workload, out_dir: str):
        from contactlab import cli

        self.cli = cli
        self.workload = workload
        self.argvs = [c.full_argv(out_dir) for c in workload.commands]
        self.paths = [os.path.join(out_dir, c.out) for c in workload.commands]
        self.groups = workload.groups
        self.invocations = 0
        self.bad_exits = [0] * len(self.argvs)
        self.digests = {}
        self.changed = [False] * len(self.argvs)

    def _main(self, argv) -> int:
        try:
            return self.cli.main(argv)
        except SystemExit as exc:  # argparse rejects an argv this way
            return exc.code if isinstance(exc.code, int) else 1

    def run_pass(self, k: int, tracer=None, pass_id: int = 0, sample: bool = False):
        """Run the k-th pass of the rotation.

        Returns its wall time, its work and, with sample, the mean kernel
        time of the SpeedSampler samples (else None).
        """
        group = self.groups[k % len(self.groups)]
        codes = []
        with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
            root = tracer.begin_pass(pass_id) if tracer else None
            with SpeedSampler(sample) as speed:
                t0 = time.perf_counter()
                for i in group:
                    if tracer:
                        tracer.command_started()
                    codes.append(self._main(self.argvs[i]))
                elapsed = time.perf_counter() - t0 - speed.busy
            if tracer:
                tracer.end_pass(root)
        self._after_pass(group, codes)
        kernel_s = None
        if sample:
            while len(speed.samples) < MIN_SAMPLES:
                speed.samples.append(time_kernel())
            kernel_s = statistics.fmean(speed.samples)
        return elapsed, sum(self.workload.commands[i].work for i in group), kernel_s

    def run_rotation(self) -> None:
        """Every pass of the rotation once, so every command once."""
        for k in range(len(self.groups)):
            self.run_pass(k)

    def _after_pass(self, group, codes) -> None:
        """Outside the timed region: exit codes and byte-identity against the first run."""
        self.invocations += len(codes)
        for i, code in zip(group, codes):
            if code != 0:
                self.bad_exits[i] += 1
            try:
                with open(self.paths[i], "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
            except OSError:
                digest = None
            self.digests.setdefault(i, digest)
            self.changed[i] = self.changed[i] or digest != self.digests[i]

    def run_for(self, seconds: float, min_passes: int, between):
        """Sampled passes until `seconds` have elapsed, ending on a whole rotation.

        between(fraction done) runs untimed after each pass.  Returns the
        (wall time, work, mean kernel time) of every pass.
        """
        passes = []
        start = time.perf_counter()
        while (len(passes) < min_passes or time.perf_counter() - start < seconds
               or len(passes) % len(self.groups)):
            passes.append(self.run_pass(len(passes), sample=True))
            between(min(1.0, (time.perf_counter() - start) / seconds))
        return passes

    def check(self):
        from reference import Checker, check_command

        ck = Checker()
        for cmd, path, bad, changed in zip(self.workload.commands, self.paths, self.bad_exits, self.changed):
            # one check per command: exit 0 and byte-identical output in every pass
            ck.add([0.0 if not bad and not changed else math.inf],
                   f"{cmd.out}: {bad} nonzero exits, output changed between passes: {changed}")
            check_command(cmd, path, ck)
        return ck

    def emit_bytes(self) -> int:
        return sum(os.path.getsize(p) for p in self.paths if os.path.exists(p))


def tail_percentile(times):
    """(percentile, value, samples beyond it): the highest integer percentile
    (nearest rank) with at least ten samples beyond it, else the median."""
    ordered = sorted(times)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, ordered[rank - 1], n - rank
    return 50, statistics.median(ordered), n // 2


def _metrics(values, units):
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def bench(args) -> dict:
    wl = workloads.build(args.workload, args.seed)
    details = {"workload": wl.name, "seed": args.seed, "passes_per_rotation": len(wl.groups)}
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="run-") as tmp:
        runner = Runner(wl, tmp)
        values = (traced_run if args.trace else untraced_run)(runner, args, details)
        ck = runner.check()
        if args.trace:
            values["checks.failed_frac"] = ck.failed_frac
            values["checks.worst_err_to_tol"] = ck.worst
        details.update(checks_attempted=ck.attempted, checks_failed=ck.failed, worst_check=ck.worst_where,
                       known_defects=ck.known, unexpected=ck.unexpected)
        invocations, failed = runner.invocations, sum(runner.bad_exits)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    return {
        "result": {"correct": ck.correct, "attempted": invocations, "failed": failed,
                   "metrics": _metrics(values, units)},
        "details": details,
    }


def untraced_run(runner: Runner, args, details) -> dict:
    """End-to-end metrics; pass times are scaled to reference speed.

    Each pass is scaled by CAL_REF_S over the mean kernel time sampled
    while it ran (see SpeedSampler).  On a shared machine the speed changes
    by tens of percent within seconds, and the scaled figures vary far less;
    the raw wall-clock figures go to the details.  setup_s is the median of
    set-up samples spread over the run, each scaled by a kernel timing taken
    in the set-up process itself (see setup_once).
    """
    argv = runner.workload.commands[0].argv
    setup_once(argv)  # may compile bytecode, which users pay once
    runner.run_rotation()  # warm-up: first-call caches and lazy imports
    setup = []

    def between(done: float) -> None:
        if len(setup) < math.ceil(SETUP_REPS * done):
            setup.append(setup_once(argv))

    passes = runner.run_for(args.seconds, MIN_PASSES, between=between)
    while len(setup) < SETUP_REPS:
        setup.append(setup_once(argv))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = [t for t, _, _ in passes]
    work = [w for _, w, _ in passes]
    times = [t * CAL_REF_S / kernel_s for t, _, kernel_s in passes]
    pct, tail, beyond = tail_percentile(times)
    details.update(passes=len(times), tail_percentile=pct, tail_beyond=beyond,
                   calibration_s=statistics.median(k for _, _, k in passes),
                   raw={"setup_s": statistics.median(s for _, s in setup),
                        "work_per_s": sum(work) / sum(raw),
                        "pass_s_p50": statistics.median(raw),
                        "pass_s_tail": tail_percentile(raw)[1]})
    return {
        "setup_s": statistics.median(s for s, _ in setup),
        "work_per_s": sum(work) / sum(times),
        "pass_s_p50": statistics.median(times),
        "pass_s_tail": tail,
        "peak_rss_mb": rss_mb,
    }


def traced_run(runner: Runner, args, details) -> dict:
    """Per-layer metrics, each the median over rounds (a round runs every command once).

    Each pass runs untraced and traced back to back, in alternating order,
    so each pair sees the same machine load; the tracing overhead of a round
    is the median difference of a pair times the passes in a round.
    """
    from tracing import LAYERS, Tracer
    import micro

    passes_s, micro_s = args.seconds * (1.0 - MICRO_SHARE), args.seconds * MICRO_SHARE
    runner.run_rotation()  # warm-up
    tracer = Tracer()
    n = len(runner.groups)
    plain, traced = [], []
    start = time.perf_counter()
    def run_traced(k):
        tracer.install()
        try:
            traced.append(runner.run_pass(k, tracer, k // n)[0])
        finally:
            tracer.uninstall()

    while len(plain) < 2 * n or time.perf_counter() - start < passes_s or len(plain) % n:
        k = len(plain)
        if k % 2:
            run_traced(k)
        plain.append(runner.run_pass(k)[0])
        if not k % 2:
            run_traced(k)
    per_round = tracer.pass_metrics()
    values = {k: statistics.median(p[k] for p in per_round) for k in per_round[0]}
    values.update(micro.run(args.seed, micro_s))
    values["cli.emit_bytes"] = runner.emit_bytes()
    values["trace.pass_s"] = values.pop("pass_s")
    values["trace.overhead_s"] = n * statistics.median(t - u for t, u in zip(traced, plain))
    details.update(traced_rounds=len(per_round),
                   self_share={layer: values[f"{layer}.self_s"] / values["trace.pass_s"]
                               for layer in LAYERS})
    return values


def _summary(out: dict) -> str:
    r, d = out["result"], out["details"]
    raw = d.get("raw", {})
    lines = [f"perfbench {d['workload']} seed={d['seed']}: correct={r['correct']} "
             f"checks {d['checks_failed']}/{d['checks_attempted']} failed, "
             f"known defects {d['known_defects']}"]
    for msg in d["unexpected"]:
        lines.append(f"  UNEXPECTED {msg}")
    if raw:
        lines.append(f"  times scaled to reference speed (calibration kernel {CAL_REF_S:g} s; "
                     f"here {d['calibration_s']:.4g} s); raw wall-clock figures in brackets")
    for k, m in r["metrics"].items():
        line = f"  {k:42s} {m['value']:.6g} {m['unit']}"
        if k in raw:
            line += f"  [raw {raw[k]:.6g}]"
        lines.append(line)
    if "passes" in d:
        lines.append(f"  {d['passes']} passes ({d['passes_per_rotation']} per rotation); "
                     f"pass_s_tail is p{d['tail_percentile']}, {d['tail_beyond']} passes beyond it")
    if "self_share" in d:
        lines.append(f"  {d['traced_rounds']} traced rounds; self share {json.dumps(d['self_share'])}")
    return "\n".join(lines)


def report(args) -> int:
    """Every workload, both trace settings, in child processes; one table and one file."""
    OUT.mkdir(exist_ok=True)
    results, ok = [], True
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            details_path = OUT / f"details-{name}-{trace}.json"
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--details", str(details_path)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
            if proc.returncode != 0:
                print(f"{name} trace={trace}: exit {proc.returncode}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            details = json.loads(details_path.read_text())
            details_path.unlink()
            ok = ok and result["correct"] and result["failed"] == 0
            results.append({"workload": name, "trace": trace, **result, "details": details})
            for metric, m in result["metrics"].items():
                print(f"{name:17s} {metric:42s} {m['value']:14.6g} {m['unit']}")
            print(f"{name:17s} correct={result['correct']} invocations={result['attempted']} "
                  f"failed={result['failed']} checks={details['checks_failed']}/"
                  f"{details['checks_attempted']} known={details['known_defects']}")
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "nproc": os.cpu_count(), "git_commit": commit, "seed": args.seed, "seconds": args.seconds}
    (OUT / "report.json").write_text(json.dumps({"environment": env, "runs": results}, indent=1))
    print(f"environment {json.dumps(env)}; written to {OUT / 'report.json'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--details", help="also write run details (checks, known defects) here")
    parser.add_argument("--report", action="store_true", help="run everything, print and save")
    args = parser.parse_args(argv)

    if not (SRC / "contactlab" / "cli.py").is_file():
        return _fail(f"no contactlab sources at {SRC}; run from the root of a source checkout")
    try:
        _import_contactlab()
    except ImportError as exc:
        return _fail(f"cannot import contactlab from {SRC}: {exc}")
    if args.report:
        return report(args)
    if args.workload is None:
        return _fail("--workload is required (or use --report)")

    out = bench(args)
    print(_summary(out), file=sys.stderr)
    if args.details:
        Path(args.details).write_text(json.dumps(out["details"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
