"""Warm-analysis shm tier: the analysis cache tier shared by sweep workers.

The workload is in the shape the ROADMAP's sweep-as-a-service story
cares about — warm worker processes answering many provisioning
queries.

``shm_cache_pool_{10k,2k}`` — the repeated-program ensemble: 320
distinct programs (more than the in-process ``AnalysisCache`` LRU's 256
entries, so cyclic revisits always miss memory) revisited round-robin
for 10k jobs on two workers. Three legs over byte-identical jobs:

* ``recompute`` — no disk cache, shm tier disabled: the pre-PR default
  for a zero-config multiprocess run. Every in-memory miss recomputes
  routes/competing from scratch in the worker.
* ``disk`` — warm disk cache only: every miss costs a file open + read,
  a checksum, and two ``pickle.loads``, again and again as the LRU
  thrashes.
* ``shm`` — the new tier above disk: the first touch of an entry
  unpickles it once out of shared memory, after which the per-process
  memo serves a plain dict hit — no filesystem I/O, no deserialization,
  and immune to the LRU thrash by design.

The *asserted* >= 2x is the warm-analysis acquisition speedup
(``warm_lookup_speedup_vs_disk``): the exact ``AnalysisCache.lookup`` +
artifact-touch path a worker executes per job, timed on the same
thrashed ensemble, shm tier vs disk tier. End-to-end rows/sec is
recorded for all three legs (``speedup_vs_disk``,
``speedup_vs_recompute``) but not held to 2x: on a single-core host
(like the recording container) the workers cannot overlap anything, so
every leg shares the simulation + job-pickle/unpickle floor and Amdahl
caps the end-to-end ratio at ~1.1-1.7x no matter how cheap acquisition
gets. ``cpu_count`` rides along so multi-core recordings — where
workers overlap the floor and the acquisition share grows — stay
interpretable.

The record key keeps its historical ``pool`` name; the jobs run on the
supervised multiprocess executor.

Smoke mode (no ``REPRO_BENCH_RECORD``) shrinks every size and checks
only correctness: byte-identical rows across the three legs and the
shm arena fully populated.
"""

import os
import time

from conftest import recording_enabled

from repro import ArrayConfig
from repro.arch.routing import default_router
from repro.arch.topology import ExplicitLinear
from repro.core.message import Message
from repro.core.ops import R, W
from repro.core.program import ArrayProgram
from repro.perf.analysis_cache import (
    GLOBAL_ANALYSIS_CACHE,
    clear_analysis_cache,
)
from repro.perf.disk_cache import configure_disk_cache
from repro.perf.shm_cache import (
    ENV_VAR as SHM_ENV_VAR,
    ensure_shm_cache,
    reset_shm_cache_state,
    shm_cache_stats,
)
from repro.sweep import SimJob, SweepPlan, SweepSession

WORKERS = 2
CHUNK = 64
#: Payload messages per program — sets both the analysis blob size and
#: the per-job simulation floor (the two scale together; see module
#: docstring for why that caps end-to-end ratios).
K = 48
#: queue_capacity > 0 so the lookahead-capacities artifact is part of
#: every entry (the Section 8 provisioning regime).
CONFIG = ArrayConfig(queue_capacity=2)


def ensemble_program(i: int, k: int = K) -> ArrayProgram:
    """Distinct-by-register cross-read program #``i``.

    A and B each read the message the other writes *last*, so every
    policy deadlocks at t=0 — the simulation pays only build + detection
    cost, keeping the measurement on the analysis-acquisition path. The
    ``i``-suffixed register names make each program a distinct content
    fingerprint (operands are hashed; W constants are not).
    """
    cells = ["A", "B"]
    messages = [Message("B0", "A", "B", 1), Message("B1", "B", "A", 1)]
    a_ops = [R("B1", into=f"g{i}")]
    b_ops = [R("B0", into=f"h{i}")]
    for j in range(k):
        name = f"M{j}"
        messages.append(Message(name, "A", "B", 1))
        a_ops.append(W(name, constant=1.0))
        b_ops.append(R(name, into=f"x{i}_{j}"))
    a_ops.append(W("B0", constant=0.0))
    b_ops.append(W("B1", constant=0.0))
    return ArrayProgram(cells, messages, {"A": a_ops, "B": b_ops})


def ensemble_jobs(programs, n_jobs: int) -> list[SimJob]:
    """Round-robin revisits: adjacent jobs never share a program, and a
    program's revisit distance (len(programs)) exceeds the LRU."""
    return [
        SimJob(programs[i % len(programs)], config=CONFIG, policy="fcfs")
        for i in range(n_jobs)
    ]


def run_workers(jobs):
    plan = SweepPlan(jobs=jobs, workers=WORKERS, chunk_size=CHUNK)
    t0 = time.perf_counter()
    rows = list(SweepSession(plan).stream())
    return rows, time.perf_counter() - t0


def prewarm_entries(programs) -> None:
    """Materialize + persist every program's full artifact set.

    ``persist()`` publishes to whichever tiers are active, so the same
    loop warms the disk tier (shm disabled) and later the shm tier
    (entries reload from disk, then publish into the arena).
    """
    for program in programs:
        topology = ExplicitLinear(tuple(program.cells))
        entry = GLOBAL_ANALYSIS_CACHE.lookup(
            program, topology, default_router(topology), CONFIG
        )
        entry.routes
        entry.competing
        entry.capacities
        entry.persist()


def acquisition_wall(programs, n_lookups: int) -> float:
    """Wall time of ``n_lookups`` thrashed warm-analysis acquisitions.

    This is the exact per-job path a sweep worker executes: an
    ``AnalysisCache.lookup`` (an in-memory miss, by construction) that
    probes the active tiers, then the artifact touches the simulator
    build performs. Topology/router objects are prebuilt — their cost
    is identical across tiers and not what this measures.
    """
    triples = []
    for program in programs:
        topology = ExplicitLinear(tuple(program.cells))
        triples.append((program, topology, default_router(topology)))
    t0 = time.perf_counter()
    for i in range(n_lookups):
        program, topology, router = triples[i % len(triples)]
        entry = GLOBAL_ANALYSIS_CACHE.lookup(program, topology, router, CONFIG)
        entry.routes
        entry.competing
        entry.capacities
    return time.perf_counter() - t0


def test_warm_pool_ensemble(core_metrics, tmp_path):
    """Three-leg repeated-program ensemble + acquisition microbench."""
    if recording_enabled():
        n_programs, acq_n = 320, 3_200
        n_jobs, tag = (2_000, "2k") if os.environ.get("CI") else (10_000, "10k")
    else:
        # Smoke: too few programs to thrash the LRU (so no timing
        # claims) — checks row identity and tier wiring only.
        n_programs, acq_n, n_jobs, tag = 24, 48, 96, "smoke"

    programs = [ensemble_program(i) for i in range(n_programs)]
    jobs = ensemble_jobs(programs, n_jobs)
    saved_env = os.environ.get(SHM_ENV_VAR)
    walls: dict[str, float] = {}
    acq: dict[str, float] = {}
    rows_by_leg: dict[str, list] = {}
    try:
        # recompute: the pre-PR zero-config default — no tiers at all.
        os.environ[SHM_ENV_VAR] = "0"
        reset_shm_cache_state()
        configure_disk_cache(None)
        clear_analysis_cache()
        acq["recompute"] = acquisition_wall(programs, acq_n)
        clear_analysis_cache()
        rows_by_leg["recompute"], walls["recompute"] = run_workers(jobs)

        # disk: warm disk cache, shm still disabled.
        configure_disk_cache(tmp_path / "disk_tier")
        clear_analysis_cache()
        prewarm_entries(programs)
        clear_analysis_cache()
        acq["disk"] = acquisition_wall(programs, acq_n)
        clear_analysis_cache()
        rows_by_leg["disk"], walls["disk"] = run_workers(jobs)

        # shm: the new tier above disk. Re-running the prewarm loop
        # pulls each entry out of the disk tier and publishes it into
        # the freshly created arena.
        os.environ.pop(SHM_ENV_VAR, None)
        assert ensure_shm_cache() is not None
        clear_analysis_cache()
        prewarm_entries(programs)
        stats = shm_cache_stats()
        assert stats is not None and stats["entries"] == n_programs
        clear_analysis_cache()
        acq["shm"] = acquisition_wall(programs, acq_n)
        clear_analysis_cache()
        rows_by_leg["shm"], walls["shm"] = run_workers(jobs)
    finally:
        if saved_env is None:
            os.environ.pop(SHM_ENV_VAR, None)
        else:
            os.environ[SHM_ENV_VAR] = saved_env
        reset_shm_cache_state()
        configure_disk_cache(None)
        clear_analysis_cache()

    for leg in ("recompute", "disk", "shm"):
        assert len(rows_by_leg[leg]) == n_jobs
        assert all(row.deadlocked for row in rows_by_leg[leg])
    assert rows_by_leg["disk"] == rows_by_leg["recompute"]
    assert rows_by_leg["shm"] == rows_by_leg["recompute"]

    if not recording_enabled():
        return
    lookup_speedup = acq["disk"] / acq["shm"]
    # The tentpole claim: warm-analysis acquisition through the shm
    # tier beats re-reading the disk tier by >= 2x on the thrashed
    # repeated-program ensemble. (In practice a dict hit vs a file
    # read + checksum + two unpickles: closer to an order of
    # magnitude.)
    assert lookup_speedup >= 2.0, (
        f"shm acquisition only {lookup_speedup:.2f}x vs disk "
        f"(disk {acq['disk']:.3f}s, shm {acq['shm']:.3f}s "
        f"for {acq_n} lookups)"
    )
    # End-to-end must never regress vs disk-only; 0.9 absorbs timer
    # noise on a shared single-core box where the true ratio is ~1.0x
    # (the acquisition delta is ~3% of the per-job floor there).
    assert walls["shm"] <= walls["disk"] / 0.9
    core_metrics(
        f"shm_cache_pool_{tag}",
        events=sum(row.events for row in rows_by_leg["shm"]),
        seconds=walls["shm"],
        rows=n_jobs,
        programs=n_programs,
        rows_per_sec=round(n_jobs / walls["shm"]),
        rows_per_sec_disk=round(n_jobs / walls["disk"]),
        rows_per_sec_recompute=round(n_jobs / walls["recompute"]),
        speedup_vs_disk=round(walls["disk"] / walls["shm"], 2),
        speedup_vs_recompute=round(walls["recompute"] / walls["shm"], 2),
        warm_lookup_us=round(acq["shm"] / acq_n * 1e6, 1),
        warm_lookup_us_disk=round(acq["disk"] / acq_n * 1e6, 1),
        warm_lookup_us_recompute=round(acq["recompute"] / acq_n * 1e6, 1),
        warm_lookup_speedup_vs_disk=round(lookup_speedup, 2),
        workers=WORKERS,
        cpu_count=os.cpu_count(),
    )
    print(
        f"[shm cache {tag}] rows/s: recompute "
        f"{n_jobs/walls['recompute']:.0f}, disk {n_jobs/walls['disk']:.0f}, "
        f"shm {n_jobs/walls['shm']:.0f}; warm lookup "
        f"{acq['disk']/acq_n*1e6:.0f}us disk vs "
        f"{acq['shm']/acq_n*1e6:.0f}us shm ({lookup_speedup:.1f}x)"
    )
