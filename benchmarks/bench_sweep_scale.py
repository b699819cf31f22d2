"""Sweep throughput at scale, and what one sweep job costs.

The workload is a queue-rich provisioning corner: a 32-cell relay chain
on 48 queues per link, run with full :class:`SimulationResult` handles.
The simulator builds a queue only at its first grant and the result
keeps statistics for the built queues only, so this job costs about
what the same job costs at one queue per link, and its pickled result
is a few KB whatever the provisioning. For a full-result sweep:

* ``workers=1`` runs and materializes everything in-process (no pipe);
* ``workers=2`` runs supervised worker processes, which ship every full
  result back through their pipes.

Rows/sec at 1k and 10k jobs is recorded into ``BENCH_core.json`` as
``sweep_rows_{serial,pool}_{1k,10k}``; the record keys predate the
single multiprocess executor, and ``pool`` names the ``workers=2`` path.
``sim_job_chain32_q{1,48}`` records the split of one job into simulator
build, event loop and pickled result size at 1 and 48 queues per link.
Smoke mode (CI, ``--benchmark-disable``) runs a small sweep and checks
only that both paths produce the same rows, and that the 48-queue
result pickles no larger than a small multiple of the 1-queue one.

Note the host caveat: on a single-core box the workers' parallelism
cannot hide any of the pipe's serialization, so the ``workers=2``
numbers there are a *floor*.
"""

import pickle
import statistics
import time

from conftest import recording_enabled

from repro import ArrayConfig, Simulator
from repro.core.message import Message
from repro.core.ops import R, W
from repro.core.program import ArrayProgram
from repro.sweep import SimJob, SweepPlan, SweepSession

#: Record tag per worker count (see the module docstring).
PATHS = {"serial": 1, "pool": 2}
CHUNK = 64


def chain_program(n_cells: int) -> ArrayProgram:
    """A relay chain: cell i writes one word to cell i+1."""
    cells = [f"C{i}" for i in range(n_cells)]
    messages, programs = [], {c: [] for c in cells}
    for i in range(n_cells - 1):
        name = f"M{i}"
        messages.append(Message(name, cells[i], cells[i + 1], 1))
        programs[cells[i]].append(W(name, constant=float(i)))
        programs[cells[i + 1]].append(R(name, into=f"x{i}"))
    return ArrayProgram(cells, messages, programs)


def sweep_jobs_for(n_jobs: int) -> list[SimJob]:
    # A queue-rich provisioning corner: 31 links x 48 queues, of which
    # the run grants one queue per link. Queues are built on first grant
    # and the result carries stats for those 31 only, so the job's cost
    # and its pickled size track its 124 events, not its 1,488 queues.
    program = chain_program(32)
    config = ArrayConfig(queues_per_link=48)
    return [SimJob(program, config=config) for _ in range(n_jobs)]


def run_full_result_sweep(path: str, jobs):
    """Consume a full-result sweep with bounded memory; return the rows.

    Every handle is touched the way a result-processing pipeline would
    (summary fields), then dropped — so the per-result pipe cost of the
    workers is paid in full while results never accumulate.
    """
    plan = SweepPlan(jobs=jobs, workers=PATHS[path], chunk_size=CHUNK)
    return [handle.summary for handle in SweepSession(plan).iter_handles()]


def _measure(path: str, n_jobs: int):
    jobs = sweep_jobs_for(n_jobs)
    t0 = time.perf_counter()
    rows = run_full_result_sweep(path, jobs)
    wall = time.perf_counter() - t0
    assert len(rows) == n_jobs
    assert all(row.completed for row in rows)
    return rows, wall


def test_backends_agree_smoke(benchmark):
    """In-process and worker rows agree on a small sweep (runs everywhere)."""
    per_path = {path: _measure(path, 3 * CHUNK)[0] for path in PATHS}
    assert per_path["pool"] == per_path["serial"]
    benchmark(lambda: run_full_result_sweep("pool", sweep_jobs_for(CHUNK)))


def test_sweep_scale_rows_per_sec(core_metrics):
    """Record rows/sec per path at 1k and 10k full-result jobs."""
    if not recording_enabled():
        # Smoke mode: the agreement test above already exercised both
        # paths; the 1k/10k timing sweeps only make sense when their
        # numbers are being recorded.
        return
    import os

    sizes = ((1_000, "1k"), (10_000, "10k"))
    if os.environ.get("CI"):
        # The 10k sweep costs minutes of wall clock; CI's bench guard
        # records the 1k family only (its 10k baseline records then
        # read as "not measured", which the guard never fails on).
        sizes = sizes[:1]
    for n_jobs, tag in sizes:
        walls = {}
        reference = None
        for path in PATHS:
            rows, wall = _measure(path, n_jobs)
            walls[path] = wall
            if reference is None:
                reference = rows
            else:
                assert rows == reference  # byte-identical across paths
            core_metrics(
                f"sweep_rows_{path}_{tag}",
                events=sum(row.events for row in rows),
                seconds=wall,
                rows=n_jobs,
                rows_per_sec=round(n_jobs / wall),
                workers=PATHS["pool"],
            )
        print(
            f"[sweep {tag}] workers=1: {n_jobs/walls['serial']:.0f} "
            f"workers=2: {n_jobs/walls['pool']:.0f} rows/s"
        )


def job_split(queues: int, reps: int) -> dict:
    """Median build and event-loop ms of one chain job, and its result KB."""
    program = chain_program(32)
    config = ArrayConfig(queues_per_link=queues)
    Simulator(program, config=config).run()  # warm the analysis cache
    build, run = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        sim = Simulator(program, config=config)
        t1 = time.perf_counter()
        result = sim.run()
        run.append(time.perf_counter() - t1)
        build.append(t1 - t0)
    assert result.completed
    return {
        "events": result.events,
        "build_ms": statistics.median(build) * 1e3,
        "run_ms": statistics.median(run) * 1e3,
        "result_kb": len(pickle.dumps(result)) / 1024,
    }


def test_job_split_build_run_result(core_metrics):
    """Record one job's build / event-loop / pickled-result split."""
    reps = 300 if recording_enabled() else 5
    splits = {queues: job_split(queues, reps) for queues in (1, 48)}
    # Untouched queues are neither built nor pickled (deterministic).
    assert splits[48]["result_kb"] < 2 * splits[1]["result_kb"]
    for queues, split in splits.items():
        seconds = (split["build_ms"] + split["run_ms"]) / 1e3
        core_metrics(
            f"sim_job_chain32_q{queues}",
            events=split["events"],
            seconds=seconds,
            build_ms=round(split["build_ms"], 3),
            run_ms=round(split["run_ms"], 3),
            result_kb=round(split["result_kb"], 2),
            reps=reps,
        )
        print(
            f"[job q={queues}] build {split['build_ms']:.3f} ms, "
            f"run {split['run_ms']:.3f} ms, "
            f"result {split['result_kb']:.1f} KB"
        )
