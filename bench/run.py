"""clutterkit benchmark: one closed-loop caller driving the public API.

    python3 bench/run.py --workload {dualize,minor,cli-mix} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  Set-up (import, seeded inputs, reference
answers, warm-up) is done five times and its median reported as `setup_s`.
The loop then repeats the workload's round of ops, each sent only after the
previous one returned, until `--seconds` have passed, and checks every
answer.  With `--trace 0` it reports the end-to-end metrics, including fresh
`python -m clutterkit` processes run one at a time between rounds.  Every
end-to-end time is wall time scaled to a reference host speed by a probe
loop run between ops (see speed.py).  With `--trace 1` it alternates
untraced rounds with rounds under bench-side spans around every public
clutterkit function (see tracer.py), and reports per-layer metrics per
round, writing the spans to .bench_out/.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit code is 0 only if
every answer was right.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from speed import ScaledClock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
COLD_CALLS = 30
# Process start-up drifts with the host in its own way, which the in-process
# probe of speed.py follows poorly (the quartile spread of 30-call medians
# was 0.069 scaled by it, 0.060 raw).  A bare interpreter start just before
# each cold call does follow it (0.018), so cold times are scaled by that
# instead, to a host where `python -c pass` takes this long (84 ms here).
REF_BARE_START_S = 0.080


def fresh_import():
    """Import clutterkit from scratch, so each set-up pays the import."""
    for name in [m for m in sys.modules if m == "clutterkit" or m.startswith("clutterkit.")]:
        del sys.modules[name]
    ck = importlib.import_module("clutterkit")
    importlib.import_module("clutterkit.cli")
    return ck


class Runner:
    """Runs ops, checks answers and counts attempts and failures."""

    def __init__(self, ck):
        self.refused = ck.ResourceLimitError
        self.attempted = 0
        self.failed = 0

    def fail(self, kind, detail):
        self.failed += 1
        if self.failed <= 10:
            print(f"FAILED {kind}: {detail}", file=sys.stderr)

    def run(self, op, invoke=None):
        """Run one op; return its latency in seconds."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            out = invoke(op.kind, op.call) if invoke else op.call()
        except self.refused as exc:
            dt = perf_counter() - t0
            if not op.refusal:
                self.fail(op.kind, f"unexpected budget trip: {exc}")
            return dt
        except Exception as exc:  # any other error is a failed op, not a crash
            dt = perf_counter() - t0
            self.fail(op.kind, f"{type(exc).__name__}: {exc}")
            return dt
        dt = perf_counter() - t0
        if op.refusal:
            self.fail(op.kind, "expected a budget trip, got an answer")
        elif not op.check(out):
            self.fail(op.kind, f"wrong answer {str(out)[:200]}")
        return dt

    def round(self, ops, invoke=None):
        """Run every op once, in order; return the round's wall seconds."""
        start = perf_counter()
        for op in ops:
            self.run(op, invoke)
        return perf_counter() - start

    def scaled_round(self, ops, clock, lat):
        """Run every op once, in order, probing host speed between ops;
        each op's scaled latency lands in `lat` by the next probe."""
        clock.flush()
        for op in ops:
            clock.due()
            clock.add(self.run(op), lat)
        clock.flush()

    def cold(self, call):
        """One fresh `python -m clutterkit` process, run right after a bare
        `python -c pass`; return its wall seconds scaled by
        `REF_BARE_START_S` over the bare start's."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], capture_output=True, cwd=ROOT, env=env,
                       timeout=120, check=True)
        bare = perf_counter() - t0
        self.attempted += 1
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-m", "clutterkit", *call.argv], input=call.stdin,
                              capture_output=True, text=True, cwd=ROOT, env=env, timeout=120)
        dt = perf_counter() - t0
        if not call.check((proc.returncode, proc.stdout)):
            self.fail("cold " + call.argv[0], f"exit {proc.returncode}: {proc.stdout[:200]!r}")
        return dt * REF_BARE_START_S / bare


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, -(-len(sorted_values) * q // 100) - 1)]


def setup(build, seed, workdir, clock):
    """Import, generate, compute references and warm up; return the state
    and the scaled seconds it took.

    Warm-up runs the first op of each kind in build order, which does not
    depend on the seed; the loop order is then shuffled by the seed."""
    parts = []
    clock.flush()
    t0 = perf_counter()
    ck = fresh_import()
    rng = random.Random(seed)
    wl = build(ck, rng, workdir)
    clock.add(perf_counter() - t0, parts)
    runner = Runner(ck)
    seen = set()
    for op in wl.ops:
        if op.kind not in seen:
            seen.add(op.kind)
            clock.due()
            clock.add(runner.run(op), parts)
    rng.shuffle(wl.ops)
    clock.flush()
    return wl, runner, sum(parts)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "clutterkit" / "__init__.py").is_file():
        print(f"error: clutterkit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    # one vCPU for this process and its cold children, so that the speed
    # probe measures the processor the timed work runs on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        clock = ScaledClock()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            wl, runner, seconds = setup(WORKLOADS[args.workload], args.seed, Path(tmp), clock)
            setup_times.append(seconds)
            if runner.failed:
                break
        if args.trace:
            metrics = traced_run(runner, wl, args)
        else:
            metrics = untraced_run(runner, wl, args, clock)
    metrics_json = {}
    for name, unit, value in metrics:
        print(f"{name:48s} {value:.6g} {unit}")
        metrics_json[name] = {"value": value, "unit": unit}
    if not args.trace:
        setup_s = statistics.median(setup_times)
        print(f"{'setup_s':48s} {setup_s:.6g} s")
        metrics_json["setup_s"] = {"value": setup_s, "unit": "s"}
    print(f"{'fail_ratio':48s} {runner.failed / runner.attempted:.6g} "
          f"({runner.failed} of {runner.attempted} ops)")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics_json}))
    return 0 if runner.failed == 0 else 1


def untraced_run(runner, wl, args, clock):
    """Whole rounds until `--seconds` have passed, with cold CLI processes
    after each round in step with the elapsed share of `--seconds`, so that
    both kinds of sample are spread over the same stretch of time;
    `COLD_CALLS` of them in all."""
    lat, cold = [], []
    rounds = 0
    start = perf_counter()

    def run_cold():
        cold.append(runner.cold(wl.cold[len(cold) % len(wl.cold)]))

    while rounds == 0 or perf_counter() - start < args.seconds:
        runner.scaled_round(wl.ops, clock, lat)
        rounds += 1
        while len(cold) < COLD_CALLS * min(1.0, (perf_counter() - start) / args.seconds):
            run_cold()
    while len(cold) < COLD_CALLS:
        run_cold()
    busy = sum(lat)
    lat.sort()
    print(f"workload {args.workload} seed {args.seed}: {len(wl.ops)} ops per round, "
          f"{rounds} rounds, {len(lat)} latency samples, {len(cold)} cold CLI calls")
    return [
        ("throughput_ops_s", "1/s", len(lat) / busy),
        ("op_p50_ms", "ms", percentile(lat, 50) * 1e3),
        ("op_p90_ms", "ms", percentile(lat, 90) * 1e3),
        ("peak_rss_mb", "MB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024),
        ("cli_cold_p50_ms", "ms", statistics.median(cold) * 1e3),
    ]


def traced_run(runner, wl, args):
    """Pairs of one untraced and one traced round, their order swapped from
    pair to pair, so drift in machine speed falls on both sides of
    `trace.overhead_ratio` alike."""
    from tracer import PER_LAYER, Tracer
    tracer = Tracer()
    runner.round(wl.ops)  # untimed: the first full round also grows the heap
    rounds = 0
    base_wall = wall = 0.0
    start = perf_counter()
    while rounds == 0 or perf_counter() - start < args.seconds:
        if rounds % 2 == 0:
            base_wall += runner.round(wl.ops)
        tracer.install()
        try:
            wall += runner.round(wl.ops, tracer.op)
        finally:
            tracer.uninstall()
        if rounds % 2 == 1:
            base_wall += runner.round(wl.ops)
        rounds += 1
    layers = tracer.summarize(rounds, wall / base_wall)
    tracer.write(ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json",
                 {"workload": args.workload, "seed": args.seed, "rounds": rounds})
    print(f"workload {args.workload} seed {args.seed}: {len(wl.ops)} ops per round, "
          f"{rounds} untraced and {rounds} traced rounds, {len(tracer.spans)} spans; "
          f"per-layer values are per round")
    return [(name, unit, layers[name]) for name, unit in PER_LAYER]


if __name__ == "__main__":
    sys.exit(main())
