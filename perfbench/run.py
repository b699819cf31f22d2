"""The repository's benchmark: the check, sweep and frontier surfaces.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The command imports ``repro`` from ``src/`` next to this directory and
exits non-zero, printing no result, when that source tree is missing.
It clears every ``REPRO_*`` environment variable first, so the library
runs at its defaults (no disk tier), and keeps its scratch files in
``.bench_out/`` under the working directory.

Workloads (inputs are generated from ``--seed``; an *operation* is the
unit ``ops_per_s`` and the latency metrics count):

check_large
    Cold ``check``+``label`` of 12 programs of 1,000 cells
    (``large_spec_family`` shapes): 4 deadlock-free by construction, 4
    ``hoist_writes`` variants checked under lookahead, 4
    ``inject_read_cycle`` variants that are deadlocked. Operation: one
    program analysed. Chosen because ``core`` does all the work and
    ``sim``, ``perf``, ``sweep`` and ``witness`` do none.
sweep_serial
    48 ~10-cell random programs (16 each: base, hoisted, injected
    cycle) x policies ordered,static,fcfs x queues/link 1,8,48 x
    capacity 0,2,8 = 1,296 jobs, streamed through the serial backend
    with the reducers of ``repro sweep --stream --quantiles p50,p95,p99``.
    Operation: one grid row delivered. Chosen because ``sim`` build and
    the event loop dominate, the analysis is warm in the memory tier
    after each program's first config, the 48-queue corners cost more to
    build than to run, and deadlocked rows exercise diagnosis.
sweep_mp
    The same grid from the same seed through the default multiprocess
    path (``workers=2``, backend chosen by the library), summary-only.
    Chosen because worker start-up, cold per-worker analysis through the
    shm tier, transport and the parent's ordered drain work here and not
    on sweep_serial.
frontier_refine
    24 programs (8 burst exchanges with a known frontier k, 8 hoisted,
    8 injected cycles), each refined by a frontier query on capacities
    0,1,2,4,...,32 then on 0..32, policies static,fcfs, queues 1,2, with
    one witness store per round. Operation: one program refined (both
    queries). Chosen because bisection and witness seeding/pruning do
    most of the work here and nowhere else.

Every workload runs *rounds* — one pass over all its inputs from the
same cold state (empty analysis cache, fresh witness store) — until
``--seconds`` have passed.

End-to-end metrics (``--trace 0``; host time throughout):

setup_s [s]       median of 3 set-ups (this process plus 2 fresh
                  interpreters): import ``repro``, generate the inputs,
                  one warm-up pass.
wall_s [s]        median wall time of one round.
ops_per_s [1/s]   operations per second (median over rounds).
events_per_s [1/s]  simulated engine events per second, median over
                  rounds (rows answered from the witness store count
                  their witnessed trace's events); on check_large,
                  word-transfer pairs crossed off per second.
op_p50_ms [ms]    median operation latency (on sweeps, the wait between
                  consecutive rows).
op_tail_ms [ms]   the highest percentile with ten samples beyond it;
                  the report line names the percentile and sample count.
peak_rss_mb [MB]  peak resident memory of the largest process: the
                  parent, or on sweep_mp the largest worker if bigger
                  (the report line gives both).
error_rate [ratio]  failed / attempted operations; printed in the
                  report, carried in the result's ``attempted`` and
                  ``failed``. Infeasible rows are outcomes, not failures.

Per-layer metrics (``--trace 1``: half the time untraced, half traced;
``ms`` metrics are self time per round, counts are per round; on
sweep_mp the split is parent-side only), with the end-to-end metric
each should move:

core.cross_off.ms, core.cross_off.pairs, core.labeling.ms,
core.schedule.ms, core.program.ms
    op_p50_ms / op_tail_ms / ops_per_s on check_large; no change on
    the sweeps.
perf.lookup.ms, perf.hits, perf.misses, perf.hit_ratio, perf.shm.hits
    ops_per_s on sweep_mp and setup_s; no change on check_large.
sim.build.ms, sim.queues_built, sim.queues_used, sim.queue_use_ratio
    ops_per_s, op_p50_ms, peak_rss_mb on sweep_serial (48-queue
    corners); little change on frontier_refine.
sim.run.ms, sim.events, sim.ns_per_event, sim.diagnose.ms
    events_per_s on sweep_serial.
sim.result_kb (sampled pickled result), sweep.wait.ms
    ops_per_s on sweep_mp.
sweep.summary.ms, sweep.reduce.ms, sweep.rows.{completed,deadlock,infeasible}
    ops_per_s on sweep_serial (under 1% of a job).
planner.probes, planner.grid_jobs, planner.sim_frac,
planner.seeded_lines, witness.find.ms, witness.mine.ms,
witness.save.ms, witness.pruned, witness.mined
    wall_s / op_p50_ms on frontier_refine; no change on sweep_serial.
trace.overhead_s
    median traced round minus median untraced round.

Correctness: check verdicts match how each program was built; every
feasible ordered row of a deadlock-free program completes (Theorem 1)
and no deadlocked program completes; sampled sweep_mp rows equal an
in-process re-run; burst-exchange frontiers equal k, injected cycles
have none, and a sampled line equals the exhaustive evaluation. Every
round's digest of simulated statistics (each row's outcome, simulated
time and events, in job order) must equal the first round's; sweep_serial
and sweep_mp print the same digest for the same seed. The simulator is
not validated against hardware, so no error figure is reported.

Seeds 1-10 were used to size the workloads; seed 7919 was held out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
WORKLOADS = ("check_large", "sweep_serial", "sweep_mp", "frontier_refine")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "events_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "core.cross_off.ms": "ms",
    "core.cross_off.pairs": "count",
    "core.labeling.ms": "ms",
    "core.schedule.ms": "ms",
    "core.program.ms": "ms",
    "perf.lookup.ms": "ms",
    "perf.hits": "count",
    "perf.misses": "count",
    "perf.hit_ratio": "ratio",
    "perf.shm.hits": "count",
    "sim.build.ms": "ms",
    "sim.queues_built": "count",
    "sim.queues_used": "count",
    "sim.queue_use_ratio": "ratio",
    "sim.run.ms": "ms",
    "sim.events": "count",
    "sim.ns_per_event": "ns",
    "sim.diagnose.ms": "ms",
    "sim.result_kb": "KB",
    "sweep.wait.ms": "ms",
    "sweep.summary.ms": "ms",
    "sweep.reduce.ms": "ms",
    "sweep.rows.completed": "count",
    "sweep.rows.deadlock": "count",
    "sweep.rows.infeasible": "count",
    "planner.probes": "count",
    "planner.grid_jobs": "count",
    "planner.sim_frac": "ratio",
    "planner.seeded_lines": "count",
    "witness.find.ms": "ms",
    "witness.mine.ms": "ms",
    "witness.save.ms": "ms",
    "witness.pruned": "count",
    "witness.mined": "count",
    "trace.overhead_s": "s",
}

#: Spans whose self time becomes a ``<name>.ms`` per-layer metric.
SPAN_METRICS = (
    "core.cross_off", "core.labeling", "core.schedule", "core.program",
    "perf.lookup", "sim.build", "sim.run", "sim.diagnose", "sweep.wait",
    "sweep.summary", "sweep.reduce", "witness.find", "witness.mine",
    "witness.save",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true", help=argparse.SUPPRESS
    )
    return parser.parse_args(argv)


def set_up(name: str, seed: int):
    """Import ``repro``, build the workload from the seed; (workload, s)."""
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import repro
    import surfaces

    origin = Path(repro.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"perfbench: imported repro from {origin}, not src/")
    workload = surfaces.WORKLOADS[name]()
    workload.setup(seed)
    return workload, time.perf_counter() - start


def probe_setups(args, count: int) -> list[float]:
    """Set-up time in ``count`` fresh interpreters, one after another."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        last = proc.stdout.strip().splitlines()[-1]
        samples.append(json.loads(last)["setup_s"])
    return samples


def run_rounds(workload, seconds: float, tr) -> list:
    rounds = []
    deadline = time.perf_counter() + seconds
    while True:
        rounds.append(workload.run_round(tr))
        if time.perf_counter() >= deadline:
            return rounds


def tail(latencies_ns: list[int]) -> tuple[float, float, int]:
    """(value_ms, percentile, samples): the sample with ten beyond it."""
    ordered = sorted(latencies_ns)
    n = len(ordered)
    if n <= 10:
        return ordered[-1] / 1e6, 100.0, n
    return ordered[n - 11] / 1e6, 100.0 * (n - 10) / n, n


def host_facts(workload) -> dict:
    import multiprocessing

    import surfaces

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "crossing_backend": surfaces.crossing_backend(workload),
        "mp_start_method": multiprocessing.get_start_method(),
        "platform": platform.platform(),
    }


def check_rounds(rounds) -> list[str]:
    failures = [f for rnd in rounds for f in rnd.failures]
    first = rounds[0].digest
    failures += [
        f"round {i}: digest {rnd.digest} != {first}"
        for i, rnd in enumerate(rounds) if rnd.digest != first
    ]
    return failures


def end_to_end(rounds, setup_samples, rss) -> tuple[dict, dict]:
    latencies = [lat for rnd in rounds for lat in rnd.latencies_ns]
    tail_ms, pct, n = tail(latencies)
    # Rounds repeat identical work, so per-round rates are comparable
    # and their median shrugs off a round slowed by another tenant.
    values = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(rnd.wall_ns for rnd in rounds) / 1e9,
        "ops_per_s": statistics.median(
            len(rnd.latencies_ns) / rnd.wall_ns * 1e9 for rnd in rounds
        ),
        "events_per_s": statistics.median(
            rnd.events / rnd.wall_ns * 1e9 for rnd in rounds
        ),
        "op_p50_ms": statistics.median(latencies) / 1e6,
        "op_tail_ms": tail_ms,
        "peak_rss_mb": max(rss),
    }
    notes = {
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setup_samples),
        "op_tail_ms": f"p{pct:.2f} of {n} samples",
        "peak_rss_mb": (
            f"parent {rss[0]:.1f} MB, largest child {rss[1]:.1f} MB"
        ),
        "wall_s": f"median of {len(rounds)} rounds",
    }
    return values, notes


def per_layer(tracer, traced, untraced) -> dict:
    rounds = len(traced)
    self_ns = tracer.self_times_ns()
    values = {
        f"{name}.ms": self_ns.get(name, (0, 0))[1] / 1e6 / rounds
        for name in SPAN_METRICS
    }
    counts: dict[str, float] = {}
    for rnd in traced:
        for key, value in rnd.counts.items():
            counts[key] = counts.get(key, 0) + value / rounds
    counters = {k: v / rounds for k, v in tracer.counters.items()}
    hits, misses = counts.get("perf.hits", 0), counts.get("perf.misses", 0)
    built = counters.get("sim.queues_built", 0)
    events = counters.get("sim.events", 0)
    probes = counts.get("planner.probes", 0)
    grid = counts.get("planner.grid_jobs", 0)
    pruned = counts.get("witness.pruned", 0)
    values.update(
        {
            "core.cross_off.pairs": counters.get("core.cross_off.pairs", 0),
            "perf.hits": hits,
            "perf.misses": misses,
            "perf.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "perf.shm.hits": counts.get("perf.shm.hits", 0),
            "sim.queues_built": built,
            "sim.queues_used": counters.get("sim.queues_used", 0),
            "sim.queue_use_ratio": (
                counters.get("sim.queues_used", 0) / built if built else 0.0
            ),
            "sim.events": events,
            "sim.ns_per_event": (
                self_ns.get("sim.run", (0, 0))[1] / rounds / events
                if events else 0.0
            ),
            "sim.result_kb": (
                statistics.fmean(tracer.result_kb) if tracer.result_kb else 0.0
            ),
            "sweep.rows.completed": counts.get("sweep.rows.completed", 0),
            "sweep.rows.deadlock": counts.get("sweep.rows.deadlock", 0),
            "sweep.rows.infeasible": counts.get("sweep.rows.infeasible", 0),
            "planner.probes": probes,
            "planner.grid_jobs": grid,
            "planner.sim_frac": (probes - pruned) / grid if grid else 0.0,
            "planner.seeded_lines": counts.get("planner.seeded_lines", 0),
            "witness.pruned": pruned,
            "witness.mined": counts.get("witness.mined", 0),
            "trace.overhead_s": (
                statistics.median(r.wall_ns for r in traced)
                - statistics.median(r.wall_ns for r in untraced)
            ) / 1e9,
        }
    )
    return {name: values[name] for name in PER_LAYER_UNITS}


def span_table(tracer, rounds: int, wall_ns: float) -> list[str]:
    lines = [
        f"{'span':<16} {'calls/round':>12} {'self ms/round':>14} {'share':>7}"
    ]
    rows = sorted(tracer.self_times_ns().items(), key=lambda kv: -kv[1][1])
    for name, (calls, ns) in rows:
        lines.append(
            f"{name:<16} {calls / rounds:>12.1f} {ns / 1e6 / rounds:>14.3f} "
            f"{ns / rounds / wall_ns:>7.1%}"
        )
    return lines


def peak_rss_mb() -> tuple[float, float]:
    """Peak RSS in MB of this process and of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return own, child


def stop_helpers() -> None:
    """Release the shm analysis tier and reap multiprocessing's tracker.

    Creating the tier starts the resource-tracker process; stopping it
    here means no process this run started outlives it.
    """
    from multiprocessing import resource_tracker

    from repro.perf import reset_shm_cache_state

    reset_shm_cache_state()
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no source tree at {ROOT / 'src' / 'repro'}",
            file=sys.stderr,
        )
        return 2
    if args.setup_probe:
        _workload, seconds = set_up(args.workload, args.seed)
        stop_helpers()
        print(json.dumps({"setup_s": seconds}))
        return 0

    print(
        f"perfbench: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    workload, setup_seconds = set_up(args.workload, args.seed)
    from spans import NullTracer, Tracer

    try:
        if args.trace:
            untraced = run_rounds(workload, args.seconds / 2, NullTracer())
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_rounds(workload, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            rounds = untraced + traced
        else:
            rounds = run_rounds(workload, args.seconds, NullTracer())
        rss = peak_rss_mb()
        failures = check_rounds(rounds) + workload.verify()
        attempted = sum(len(rnd.latencies_ns) for rnd in rounds)
        failed = min(attempted, len(failures))
        facts = host_facts(workload)
        if args.trace:
            if not tracer.result_kb:
                # sweep_mp simulates only in workers; sample the results
                # its oracle re-simulated in this process instead.
                for result in getattr(workload, "resampled", ()):
                    tracer.sample_result(result)
            metrics = per_layer(tracer, traced, untraced)
            units = PER_LAYER_UNITS
            out = (
                Path.cwd() / ".bench_out"
                / f"spans-{args.workload}-seed{args.seed}.json"
            )
            tracer.write(
                str(out),
                {"workload": args.workload, "seed": args.seed, "host": facts},
            )
        else:
            samples = [setup_seconds] + probe_setups(args, SETUP_SAMPLES - 1)
            metrics, notes = end_to_end(rounds, samples, rss)
            units = END_TO_END_UNITS
    finally:
        workdir = getattr(workload, "workdir", None)
        if workdir:
            shutil.rmtree(workdir, ignore_errors=True)
        stop_helpers()

    print("host: " + json.dumps(facts))
    print(
        f"rounds: {len(rounds)} x {len(rounds[0].latencies_ns)} ops "
        f"({workload.op_unit})"
    )
    same = all(rnd.digest == rounds[0].digest for rnd in rounds)
    print(
        f"digest: {rounds[0].digest} "
        f"({'identical in every round' if same else 'DIFFERS between rounds'})"
    )
    print(
        "simulated statistics are not validated against hardware; "
        "no error figure is reported"
    )
    if args.trace:
        print(f"spans: {len(tracer.spans)} written to {out}")
        traced_wall = statistics.median(r.wall_ns for r in traced)
        for line in span_table(tracer, len(traced), traced_wall):
            print("  " + line)
    for name, value in metrics.items():
        note = "" if args.trace else notes.get(name, "")
        print(f"{name:<22} {value:>14.6g} {units[name]:<6} {note}")
    print(
        f"{'error_rate':<22} {failed / attempted:>14.6g} ratio  "
        f"({failed} failed / {attempted} attempted)"
    )
    for failure in failures[:20]:
        print(f"FAILED: {failure}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
