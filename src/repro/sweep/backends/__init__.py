"""Execution: how a sweep's jobs actually run.

There are two executors, and the worker count picks between them:
``workers == 1`` runs every job in the current process, in order
(:func:`run_in_process`, the reference every multiprocess run is
differential-tested against); ``workers >= 2`` runs them in supervised
worker processes (:class:`repro.sweep.backends.supervise.Supervisor`).

The executor contract
---------------------

An executor turns an iterable of :class:`~repro.sweep.jobs.SimJob` into
an ordered stream of :class:`JobRecord` tuples ``(index, row, result,
witness)``:

* records MUST be yielded in job order (index 0, 1, 2, ...);
* ``row`` is the job's :class:`~repro.sweep.summary.RunSummary` and MUST
  be byte-identical between in-process and multiprocess execution for
  the same job list;
* ``result`` is the full :class:`~repro.sim.result.SimulationResult`
  (or :class:`~repro.sweep.jobs.BatchError`) when ``want_results`` is
  set. An executor MAY attach the result even when ``want_results`` is
  unset if it costs nothing (in-process execution always does: the
  result exists there anyway) — the session uses such free results
  opportunistically, e.g. to mine deadlock witnesses off a streamed run
  — but consumers MUST NOT rely on it: worker processes ship ``None``
  on the summary-only path;
* ``witness`` is the worker-side mining hook: with
  ``WorkerContext.mine_witnesses`` set, workers mine each deadlocked
  result *in the worker* (where the full result exists anyway) via
  :func:`~repro.sweep.jobs.mine_witness_payload` and attach the compact
  certificate dict — the parent merges it into the witness store under
  the usual two-way subsumption, so summary-only streams mine at full
  speed too. A record that carries the full ``result`` MAY leave
  ``witness`` ``None`` (the parent mines from the result); a record
  never needs both;
* with ``collect_errors`` unset, the first failing job's exception MUST
  propagate to the consumer (no silent loss);
* worker processes MUST apply the :class:`WorkerContext` before running
  jobs, so per-process state (the analysis disk-cache tier, the fault
  plan of the deterministic injection harness) matches the parent;
* the supervisor takes a :class:`~repro.sweep.fault.Tolerance` policy
  (retries, per-job timeout, backoff); in-process execution has no
  worker to lose, time out or retry, so it takes none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from repro.sweep import fault as fault_mod
from repro.sweep.fault import FaultPlan
from repro.sweep.jobs import BatchError, SimJob, run_job
from repro.sweep.summary import RunSummary, summarize_result

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.sim.result import SimulationResult


class JobRecord(NamedTuple):
    """One finished job: index, summary row and optional payloads.

    ``witness`` is a compact :meth:`~repro.witness.certificate.
    DeadlockWitness.as_dict` payload mined inside a worker (see the
    executor contract above); ``None`` whenever mining is off, the job
    did not deadlock, or the record carries the full ``result`` instead.
    """

    index: int
    row: RunSummary
    result: "SimulationResult | BatchError | None"
    witness: dict | None = None


@dataclass(frozen=True)
class WorkerContext:
    """Per-process configuration replayed inside every worker.

    The session captures it once and applies it in the parent; each
    worker applies it before running jobs. Future per-process knobs
    extend this dataclass instead of every executor's signature.
    """

    disk_cache: str | None = None
    disk_cache_max_bytes: int | None = None
    fault_plan: FaultPlan | None = None
    crossing_backend: str | None = None
    #: Mine deadlock witnesses inside workers (see the executor contract:
    #: the full result exists there anyway, so mining is free) and ship
    #: the compact dicts back on each :class:`JobRecord`.
    mine_witnesses: bool = False
    #: Name of the parent's shared-memory analysis arena
    #: (:mod:`repro.perf.shm_cache`); workers attach once and resolve
    #: analysis fingerprints with zero filesystem I/O.
    shm_cache: str | None = None

    @classmethod
    def capture(
        cls,
        disk_cache: str | None = None,
        fault_plan: FaultPlan | None = None,
        *,
        mine_witnesses: bool = False,
        shm_cache: str | None = None,
    ) -> "WorkerContext":
        """Snapshot the parent's per-process configuration.

        An explicit ``disk_cache`` wins; otherwise a programmatically
        configured disk tier (:func:`repro.perf.disk_cache.
        configure_disk_cache`) is forwarded so workers share it.
        The crossing-backend preference follows the same rule: a
        parent-process :func:`repro.core.crossing.
        configure_crossing_backend` call is forwarded so every worker
        resolves engines the way the parent does. Env-var-only
        configuration needs no forwarding — workers inherit the
        environment and resolve it themselves. ``fault_plan`` rides
        along verbatim: it is the injection channel for the
        deterministic fault harness (:mod:`repro.sweep.fault`).
        ``mine_witnesses`` and ``shm_cache`` are session decisions (a
        witness store is attached; a shared-memory analysis arena was
        published), not ambient state, so the session passes them
        explicitly.
        """
        from repro.core.crossing import configured_crossing_backend

        crossing_backend = configured_crossing_backend()
        disk_cache_max_bytes = None
        if disk_cache is None:
            from repro.perf.disk_cache import active_disk_cache_config

            active = active_disk_cache_config()
            if active is not None:
                disk_cache, disk_cache_max_bytes = active
        return cls(
            disk_cache=disk_cache,
            disk_cache_max_bytes=disk_cache_max_bytes,
            fault_plan=fault_plan,
            crossing_backend=crossing_backend,
            mine_witnesses=mine_witnesses,
            shm_cache=shm_cache,
        )

    def apply(self) -> None:
        """Apply this configuration in the current process.

        Installing the fault plan is inert outside supervised workers:
        only the supervised worker loop calls the plan's ``maybe_*``
        hooks, so the parent (which applies its own context too) can
        never fire an injected crash or hang. Attaching the
        shared-memory analysis arena is best-effort: a failed attach
        (the parent already exited, a torn header) degrades to "no shm
        tier" inside :func:`repro.perf.shm_cache.attach_shm_cache`,
        never to a failed worker.
        """
        if self.disk_cache is not None:
            from repro.perf.disk_cache import configure_disk_cache

            configure_disk_cache(
                self.disk_cache, max_bytes=self.disk_cache_max_bytes
            )
        if self.crossing_backend is not None:
            from repro.core.crossing import configure_crossing_backend

            configure_crossing_backend(self.crossing_backend)
        if self.shm_cache is not None:
            from repro.perf.shm_cache import attach_shm_cache

            attach_shm_cache(self.shm_cache)
        fault_mod.install(self.fault_plan)


def run_in_process(
    jobs: Iterable[SimJob], collect_errors: bool, ctx: WorkerContext
) -> Iterator[JobRecord]:
    """Run every job in this process, in order (``workers == 1``)."""
    ctx.apply()
    # The full result is attached even when the caller did not ask for
    # results: it already exists in-process (nothing is shipped or
    # retained — the consumer drops it with the record), and the
    # session's witness miner reads deadlock diagnoses off streamed
    # records for free because of it.
    for index, job in enumerate(jobs):
        result = run_job(job, collect_errors)
        yield JobRecord(index, summarize_result(index, job, result), result)
