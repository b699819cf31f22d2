"""Sweep throughput at scale: in-process vs supervised workers.

The workload is a queue-rich provisioning configuration (many
:class:`HardwareQueue` stats objects, a full assignment trace) whose
*full* :class:`SimulationResult` costs about as much to pickle +
unpickle through the worker pipe as the simulation itself costs to run.
For a full-result sweep:

* ``workers=1`` runs and materializes everything in-process (no pipe);
* ``workers=2`` runs supervised worker processes, which ship every full
  result back through their pipes — the pipe-bound regime.

Rows/sec at 1k and 10k jobs is recorded into ``BENCH_core.json`` as
``sweep_rows_{serial,pool}_{1k,10k}``; the record keys predate the
single multiprocess executor, and ``pool`` names the ``workers=2`` path.
Smoke mode (CI, ``--benchmark-disable``) runs a small sweep and checks
only that both paths produce the same rows.

Note the host caveat: on a single-core box the workers' parallelism
cannot hide any of the pipe's serialization, so the ``workers=2``
numbers there are a *floor*.
"""

import time

from conftest import recording_enabled

from repro import ArrayConfig
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
    # A queue-rich provisioning corner: 31 links x 48 queues puts ~1.5k
    # QueueStats objects in every result, so the full-result payload
    # (~86 KB pickled) costs roughly as much to ship + rebuild through
    # a worker pipe as the simulation costs to run. Chosen for
    # measurement stability over maximum ratio.
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
