"""The multiprocess executor: supervised worker processes.

Every sweep with ``workers >= 2`` runs here. Million-job provisioning
runs meet real failures — an OOM-killed worker, one hung corner — and
each must cost one retry, not the sweep.

Design
------

One parent supervisor drives ``workers`` long-lived child processes,
each connected by its own duplex :func:`multiprocessing.Pipe`:

* **a lazily pulled job stream** — chunks are pulled from the job
  iterator only while fewer than ``2 * workers`` chunks' worth of jobs
  are pulled but not yet emitted, so a generator feed is never
  materialized. Only those unemitted jobs are held, for requeueing;
* **one message per chunk** — a worker runs its whole chunk and ships
  the rows, mined witnesses, full results (when requested) and errors
  back in a single message;
* **per-worker pipes, not a shared queue** — a SIGKILLed worker can
  never corrupt or deadlock anyone else's transport (a shared
  ``multiprocessing.Queue`` write lock dies with its holder), and pipe
  EOF *is* the crash detector: :func:`multiprocessing.connection.wait`
  wakes the supervisor the moment a child dies;
* **exact crash attribution** — before running a job, a worker writes
  its index into a per-worker shared slot
  (:func:`multiprocessing.RawValue`). A death is charged to exactly
  that job; the rest of the chunk, including rows the worker had
  computed but not yet shipped, is requeued without charge. A death
  with no job in the slot (between jobs) requeues the chunk as
  singletons, so a repeat death is attributable by construction;
* **bounded retries with exponential backoff** — a failed job is
  requeued as a singleton chunk after ``Tolerance.backoff(attempt)``
  seconds; past ``max_retries`` it is quarantined: a crash becomes a
  :class:`~repro.sweep.jobs.BatchError` row of kind ``"WorkerCrash"``
  (or raises :class:`~repro.errors.WorkerCrashError` under
  ``on_error="raise"``), a hang becomes a timeout-class row — a hung
  corner is data, same as a deadlock;
* **per-job wall-clock timeouts** — the supervisor notes when it first
  sees a worker's slot hold a job and kills the worker once the same
  job has been there longer than ``Tolerance.job_timeout_s``, after
  first draining a chunk that finished meanwhile;
* **ordered emission** — finished records enter a reorder buffer and
  are yielded strictly in job order, so rows are byte-identical to
  in-process execution and reducers fold in job order.

A chunk is pickled once, for the pipe; a chunk whose programs cannot
pickle (inline lambdas in compute ops) runs in the parent instead, in
its place in the job order — graceful degradation, never an error.

Injected faults (:class:`~repro.sweep.fault.FaultPlan`) fire only in
`_worker_main`, between writing the slot and running the job — never in
the parent, and never for chunks that run in the parent.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from multiprocessing.connection import wait as _conn_wait
from multiprocessing.reduction import ForkingPickler
from typing import Iterable, Iterator

from repro.errors import WorkerCrashError
from repro.sweep import fault as fault_mod
from repro.sweep.backends import JobRecord, WorkerContext
from repro.sweep.fault import Tolerance
from repro.sweep.jobs import (
    WORKER_CRASH_KIND,
    BatchError,
    SimJob,
    iter_chunks,
    mine_witness_payload,
    run_job,
)
from repro.sweep.summary import summarize_result, timeout_row

#: What pickling raises for an object that cannot cross a pipe:
#: closures and lambdas (``PicklingError``, ``AttributeError``),
#: unpicklable builtins (``TypeError``), ctypes pointers (``ValueError``)
#: and runaway nesting (``RecursionError``). Bug-class exceptions
#: (``MemoryError``) are not in this set and always propagate.
_UNPICKLABLE = (
    pickle.PicklingError,
    TypeError,
    AttributeError,
    ValueError,
    RecursionError,
)


def _shippable(exc: Exception) -> tuple[Exception, bool]:
    """``exc`` if it pickles, else a summary ``RuntimeError`` stand-in.

    The flag is True when the original payload was dropped (counted in
    :attr:`Supervisor.payload_drops`).
    """
    try:
        ForkingPickler.dumps(exc)
    except _UNPICKLABLE:
        return RuntimeError(f"{type(exc).__name__}: {exc}"), True
    return exc, False


def _worker_main(
    conn,
    parent_end,
    slot,
    ctx: WorkerContext,
    want_results: bool,
    collect_errors: bool,
) -> None:
    """Child process loop: run chunks from the pipe until it closes.

    Each chunk is a list of ``(index, job)``; the reply is one
    ``(records, errors)`` message, where ``records`` are the chunk's
    :class:`JobRecord` and ``errors`` are ``(index, exc, dropped)`` for
    jobs that raised (``collect_errors`` off, or a non-Repro bug); the
    parent re-raises them in job order.
    """
    # A forked child inherits the parent's end of its own pipe; while
    # that copy is open, the death of the parent (even by SIGKILL) never
    # reaches this loop as EOF and the worker would outlive it.
    parent_end.close()
    ctx.apply()
    plan = fault_mod.active_plan()
    mine = ctx.mine_witnesses
    try:
        while True:
            items = conn.recv()
            records = []
            errors = []
            for index, job in items:
                slot.value = index
                if plan is not None:
                    plan.maybe_crash(index)
                    plan.maybe_hang(index)
                try:
                    result = run_job(job, collect_errors)
                except MemoryError:
                    # Bug-class, not data: let the worker die — crash
                    # recovery requeues the job with bounded retries
                    # instead of shipping an OOM as an ordinary row.
                    raise
                except Exception as exc:
                    errors.append((index, *_shippable(exc)))
                    continue
                records.append(
                    JobRecord(
                        index,
                        summarize_result(index, job, result),
                        result if want_results else None,
                        mine_witness_payload(job, result) if mine else None,
                    )
                )
            slot.value = -1
            conn.send((records, errors))
    except (EOFError, BrokenPipeError):  # parent went away: just exit
        pass


class _Raise:
    """Reorder-buffer sentinel: re-raise this exception at emission."""

    __slots__ = ("exc",)

    def __init__(self, exc: BaseException) -> None:
        self.exc = exc


class _Worker:
    """Parent-side handle on one supervised child process."""

    __slots__ = ("conn", "slot", "process", "task", "seen", "seen_at")

    def __init__(self, spawn) -> None:
        self.conn, child_conn = multiprocessing.Pipe(duplex=True)
        # The index of the job the worker is running, or -1.
        self.slot = multiprocessing.RawValue("q", -1)
        self.process = spawn(child_conn, self.conn, self.slot)
        # The parent must drop its copy of the child end or pipe EOF
        # (the crash detector) never fires.
        child_conn.close()
        self.task: list[tuple[int, SimJob]] | None = None
        # Last slot value the supervisor saw, and when it first saw it.
        self.seen = -1
        self.seen_at = 0.0

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.kill()
        self.process.join()
        self.conn.close()


class Supervisor:
    """Fault-tolerant chunked execution with ordered emission."""

    def __init__(
        self,
        jobs: Iterable[SimJob],
        *,
        want_results: bool,
        collect_errors: bool,
        workers: int,
        chunk_size: int,
        ctx: WorkerContext,
        tolerance: Tolerance,
    ) -> None:
        self.want_results = want_results
        self.collect_errors = collect_errors
        self.n_workers = max(1, workers)
        chunk_size = max(1, chunk_size)
        self.ctx = ctx
        self.tol = tolerance
        self._chunks = iter_chunks(jobs, chunk_size)
        self._window = 2 * self.n_workers * chunk_size
        self._pulled = 0
        self._emitted = 0
        self._pending: list = []  # [items, not_before]
        self._attempts: dict[int, int] = {}
        self._completed: dict[int, JobRecord | _Raise] = {}
        self._workers: list[_Worker] = []
        #: Exceptions whose payload could not cross the pipe: the worker
        #: shipped a summary RuntimeError in place of the original, and
        #: each such substitution counts here.
        self.payload_drops = 0

    def stats(self) -> dict[str, int]:
        """Observability counters for this supervised run."""
        return {"payload_drops": self.payload_drops}

    # -- worker lifecycle -------------------------------------------------

    def _spawn(self, child_conn, parent_end, slot):
        process = multiprocessing.Process(
            target=_worker_main,
            args=(
                child_conn,
                parent_end,
                slot,
                self.ctx,
                self.want_results,
                self.collect_errors,
            ),
            daemon=True,
        )
        process.start()
        return process

    def _replace(self, wid: int) -> None:
        try:
            self._workers[wid].kill()
        except OSError:  # pragma: no cover - already-dead edge
            pass
        self._workers[wid] = _Worker(self._spawn)

    # -- task queue -------------------------------------------------------

    def _pull(self) -> None:
        """Pull chunks from the job stream while the window has room."""
        while (
            self._chunks is not None
            and self._pulled - self._emitted < self._window
        ):
            items = next(self._chunks, None)
            if items is None:
                self._chunks = None
                return
            self._pulled += len(items)
            self._pending.append([items, 0.0])

    def _pop_ready(self, now: float):
        for pos, (items, not_before) in enumerate(self._pending):
            if not_before <= now:
                del self._pending[pos]
                return items
        return None

    # -- failure handling -------------------------------------------------

    def _quarantine(self, index: int, job: SimJob, kind: str, detail: str):
        """Retire a job that failed past the retry budget, as data."""
        attempts = self._attempts[index]
        if kind == "hang":
            row = timeout_row(
                index,
                job,
                f"killed by the sweep supervisor: exceeded "
                f"job_timeout_s={self.tol.job_timeout_s} on each of "
                f"{attempts} attempts",
            )
            self._completed[index] = JobRecord(index, row, None)
            return
        message = (
            f"worker process died on each of {attempts} attempts "
            f"running job {index} ({detail}); quarantined after "
            f"max_retries={self.tol.max_retries}"
        )
        if not self.collect_errors:
            self._completed[index] = _Raise(WorkerCrashError(message))
            return
        error = BatchError(kind=WORKER_CRASH_KIND, error=message)
        row = summarize_result(index, job, error)
        self._completed[index] = JobRecord(
            index, row, error if self.want_results else None
        )

    def _fail(self, item, kind: str, detail: str, now: float) -> None:
        """Charge one failed attempt; requeue with backoff or quarantine."""
        index, job = item
        attempts = self._attempts.get(index, 0) + 1
        self._attempts[index] = attempts
        if attempts > self.tol.max_retries:
            self._quarantine(index, job, kind, detail)
            return
        self._pending.insert(0, [[item], now + self.tol.backoff(attempts)])

    def _on_worker_death(
        self, wid: int, kind: str, detail: str, now: float
    ) -> None:
        """Charge the job in flight, requeue the rest, respawn."""
        worker = self._workers[wid]
        items = worker.task
        if items:
            current = worker.slot.value
            culprit = next(
                (item for item in items if item[0] == current), None
            )
            if culprit is None and len(items) == 1:
                culprit = items[0]
            if culprit is None:
                # Died between jobs: requeue singletons so that a repeat
                # death is attributable by construction.
                self._pending[:0] = [[[item], 0.0] for item in items]
            else:
                rest = [item for item in items if item is not culprit]
                if rest:
                    self._pending.insert(0, [rest, 0.0])
                self._fail(culprit, kind, detail, now)
        self._replace(wid)

    # -- message handling -------------------------------------------------

    def _drain(self, worker: _Worker) -> bool:
        """Take a finished chunk if one arrived; False on pipe EOF."""
        try:
            if not worker.conn.poll():
                return True
            records, errors = worker.conn.recv()
        except (EOFError, OSError):
            return False
        completed = self._completed
        for record in records:
            completed[record.index] = record
        for index, exc, dropped in errors:
            self.payload_drops += dropped
            completed[index] = _Raise(exc)
        worker.task = None
        return True

    def _death_detail(self, worker: _Worker) -> str:
        """Describe a dead worker; reap it first so exitcode is real."""
        worker.process.join(timeout=1.0)
        return f"exit code {worker.process.exitcode}"

    def _check_timeouts(self, now: float) -> None:
        limit = self.tol.job_timeout_s
        for wid, worker in enumerate(self._workers):
            if worker.task is None:
                continue
            current = worker.slot.value
            if current != worker.seen:
                worker.seen, worker.seen_at = current, now
                continue
            if current < 0 or now - worker.seen_at <= limit:
                continue
            # Take a chunk that finished meanwhile before judging.
            if not self._drain(worker):
                self._on_worker_death(
                    wid, "crash", self._death_detail(worker), now
                )
            elif worker.task is not None and worker.slot.value == current:
                self._on_worker_death(wid, "hang", "job timeout", now)

    # -- dispatch ---------------------------------------------------------

    def _run_inline(self, items) -> None:
        """In-parent fallback for chunks whose programs cannot pickle.

        No faults fire here (an injected crash would kill the parent)
        and no retries apply: in-parent execution cannot lose a worker.
        The full result rides on the record, as in-process execution
        does, so the session mines witnesses from it directly.
        """
        for index, job in items:
            try:
                result = run_job(job, self.collect_errors)
            except MemoryError:
                raise
            except Exception as exc:
                self._completed[index] = _Raise(exc)
                continue
            row = summarize_result(index, job, result)
            self._completed[index] = JobRecord(index, row, result)

    def _dispatch(self, now: float) -> None:
        for wid, worker in enumerate(self._workers):
            while worker.task is None:
                items = self._pop_ready(now)
                if items is None:
                    return
                try:
                    payload = ForkingPickler.dumps(items)
                except _UNPICKLABLE:
                    self._run_inline(items)
                    continue
                worker.task = items
                try:
                    worker.conn.send_bytes(payload)
                except OSError:
                    # Died while idle: nothing was running, so the chunk
                    # goes back unpenalized and the worker is respawned.
                    worker.task = None
                    self._pending.insert(0, [items, 0.0])
                    self._replace(wid)
                    break

    # -- main loop --------------------------------------------------------

    def run(self) -> Iterator[JobRecord]:
        """Execute every job; yield records strictly in job order."""
        completed = self._completed
        next_emit = 0
        try:
            self._pull()
            if not self._pending:
                return
            self._workers = [
                _Worker(self._spawn) for _ in range(self.n_workers)
            ]
            while next_emit < self._pulled or self._chunks is not None:
                now = time.monotonic()
                self._dispatch(now)
                busy = {
                    worker.conn: wid
                    for wid, worker in enumerate(self._workers)
                    if worker.task is not None
                }
                if busy:
                    ready = _conn_wait(list(busy), timeout=self.tol.poll_s)
                else:
                    ready = []
                    soonest = min(
                        (not_before for _items, not_before in self._pending),
                        default=now,
                    )
                    if soonest > now:
                        time.sleep(min(soonest - now, self.tol.poll_s))
                now = time.monotonic()
                for conn in ready:
                    wid = busy[conn]
                    worker = self._workers[wid]
                    if not self._drain(worker):
                        self._on_worker_death(
                            wid, "crash", self._death_detail(worker), now
                        )
                if self.tol.job_timeout_s is not None:
                    self._check_timeouts(now)
                # Refill idle workers before handing rows out, so they
                # compute while the consumer folds this batch.
                self._dispatch(now)
                # Collect the in-order run first, so that handing out
                # each row costs no more than a list step.
                batch = []
                while next_emit in completed:
                    record = completed.pop(next_emit)
                    if type(record) is _Raise:
                        yield from batch
                        raise record.exc
                    batch.append(record)
                    next_emit += 1
                yield from batch
                self._emitted = next_emit
                self._pull()
        finally:
            for worker in self._workers:
                try:
                    worker.kill()
                except OSError:  # pragma: no cover - teardown race
                    pass
            self._workers = []

