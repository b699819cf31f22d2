"""Fault-injection harness: the supervised executor under crash and hang.

Deterministically injects the two characteristic sweep failures —
worker crash (abrupt ``os._exit``) and hung job — via
:class:`repro.sweep.fault.FaultPlan` and pins the recovery contract:
a recovered sweep's rows and reducer summaries are byte-identical to a
fault-free in-process run, poison jobs are quarantined as data instead
of aborting the sweep, crash attribution charges exactly the job in
flight, and persistent hangs become timeout rows.
"""

import dataclasses
import json
import os

import pytest

from repro.algorithms.figures import fig7_program
from repro.errors import ConfigError, WorkerCrashError
from repro.sweep import (
    WORKER_CRASH_KIND,
    CompletedCount,
    DeadlockRateByConfig,
    FaultPlan,
    MakespanHistogram,
    QuantileReducer,
    SimJob,
    SweepPlan,
    SweepSession,
    Tolerance,
    sweep_jobs,
)
from repro.sweep.fault import CRASH_EXIT_CODE


def corpus_jobs() -> list[SimJob]:
    """A small grid covering completed, deadlocked and timeout rows."""
    jobs = sweep_jobs(
        fig7_program(), policies=("ordered", "fcfs"), queues=(1, 2), repeat=2
    )
    jobs.append(SimJob(fig7_program(), max_events=3))  # timeout corner
    return jobs


def fresh_reducers():
    return (
        CompletedCount(),
        MakespanHistogram(bucket_width=8),
        DeadlockRateByConfig(),
        QuantileReducer((0.5, 0.95)),
    )


def summaries_json(reducers) -> str:
    return json.dumps(
        {r.name: r.summary() for r in reducers}, sort_keys=True, default=str
    )


def run_plan(jobs, workers=2, **kwargs):
    reducers = fresh_reducers()
    plan = SweepPlan(
        jobs=jobs,
        reducers=reducers,
        workers=workers,
        chunk_size=3,
        **kwargs,
    )
    rows = list(SweepSession(plan).stream())
    return rows, summaries_json(reducers)


@pytest.fixture(scope="module")
def baseline():
    jobs = corpus_jobs()
    rows, summaries = run_plan(jobs, workers=1)
    return jobs, rows, summaries


class TestSupervisedDifferential:
    """Supervision without faults must change nothing observable."""

    @pytest.mark.parametrize("workers", (1, 2))
    def test_no_faults_matches_serial(self, baseline, workers):
        jobs, base_rows, base_summaries = baseline
        rows, summaries = run_plan(jobs, workers, max_retries=0)
        assert rows == base_rows
        assert summaries == base_summaries

    def test_serial_ignores_tolerance_and_faults(self, baseline, tmp_path):
        jobs, base_rows, base_summaries = baseline
        plan = FaultPlan(spool=str(tmp_path), crash={0: 1}, hang={1: 1})
        rows, summaries = run_plan(
            jobs, workers=1, fault_plan=plan, job_timeout_s=5.0
        )
        # In-process execution is the fault-free reference: the plan is
        # installed but never fired (no supervised worker loop here).
        assert rows == base_rows
        assert summaries == base_summaries
        assert not os.listdir(tmp_path)


class TestCrashRecovery:
    def test_crashed_jobs_are_requeued(self, baseline, tmp_path):
        jobs, base_rows, base_summaries = baseline
        plan = FaultPlan(spool=str(tmp_path), crash={1: 1, 5: 2})
        rows, summaries = run_plan(jobs, fault_plan=plan, max_retries=3)
        assert rows == base_rows
        assert summaries == base_summaries
        fired = sorted(os.listdir(tmp_path))
        # Every armed crash actually fired (plus the one clean re-probe
        # marker per fault key that finds the fault exhausted).
        assert any(m.startswith("crash-1-") for m in fired)
        assert any(m.startswith("crash-5-1") for m in fired)

    def test_mid_chunk_crash_charges_only_the_job_in_flight(
        self, baseline, tmp_path
    ):
        jobs, base_rows, base_summaries = baseline
        # Chunks are [0, 1, 2], [3, 4, 5], [6, 7, 8]: job 4 dies after
        # job 3 ran in the same chunk, whose row never shipped.
        plan = FaultPlan(spool=str(tmp_path), crash={4: 1})
        rows, _ = run_plan(jobs, fault_plan=plan, max_retries=0)
        assert rows[4].error_kind == WORKER_CRASH_KIND
        assert "job 4" in (rows[4].error or "")
        # Job 3 re-ran without charge: with no retry budget, a charged
        # attempt would have quarantined it too.
        assert [r for i, r in enumerate(rows) if i != 4] == [
            r for i, r in enumerate(base_rows) if i != 4
        ]

    def test_poison_job_quarantined_as_row(self, baseline, tmp_path):
        jobs, base_rows, _ = baseline
        # Crashes forever: armed for more attempts than the budget.
        plan = FaultPlan(spool=str(tmp_path), crash={2: 99})
        rows, _ = run_plan(jobs, fault_plan=plan, max_retries=1)
        assert len(rows) == len(base_rows)
        poisoned = rows[2]
        assert poisoned.error_kind == WORKER_CRASH_KIND
        assert poisoned.outcome == "infeasible"
        assert str(CRASH_EXIT_CODE) in (poisoned.error or "")
        # Every other job is untouched by the quarantine.
        assert [r for i, r in enumerate(rows) if i != 2] == [
            r for i, r in enumerate(base_rows) if i != 2
        ]

    def test_poison_job_raises_under_on_error_raise(self, tmp_path):
        jobs = corpus_jobs()
        plan = FaultPlan(spool=str(tmp_path), crash={0: 99})
        session = SweepSession(
            SweepPlan(
                jobs=jobs,
                workers=2,
                chunk_size=3,
                on_error="raise",
                fault_plan=plan,
                max_retries=1,
            )
        )
        with pytest.raises(WorkerCrashError, match="job 0"):
            list(session.stream())


class TestTimeouts:
    def test_hung_job_recovers_on_retry(self, baseline, tmp_path):
        jobs, base_rows, base_summaries = baseline
        plan = FaultPlan(spool=str(tmp_path), hang={3: 1}, hang_s=30.0)
        rows, summaries = run_plan(
            jobs, fault_plan=plan, job_timeout_s=0.5, max_retries=2
        )
        assert rows == base_rows
        assert summaries == base_summaries

    def test_persistent_hang_becomes_timeout_row(self, baseline, tmp_path):
        jobs, base_rows, _ = baseline
        plan = FaultPlan(spool=str(tmp_path), hang={4: 99}, hang_s=30.0)
        rows, _ = run_plan(
            jobs, fault_plan=plan, job_timeout_s=0.3, max_retries=1
        )
        hung = rows[4]
        assert hung.outcome == "timeout"
        assert hung.timed_out and not hung.completed and not hung.deadlocked
        assert hung.error_kind is None  # same bucket as a max_time expiry
        assert "timeout" in (hung.error or "")
        assert [r for i, r in enumerate(rows) if i != 4] == [
            r for i, r in enumerate(base_rows) if i != 4
        ]


class PlainBoom(Exception):
    """A picklable non-Repro bug: must cross the pipe verbatim."""


class UnpicklableBoom(Exception):
    """An exception whose payload defeats pickling (closure attribute)."""

    def __init__(self, message):
        super().__init__(message)
        self.payload = lambda: None


def _raise_plain(value):
    raise PlainBoom("original message intact")


def _raise_unpicklable(value):
    raise UnpicklableBoom("kaboom with context")


def _raise_memory_error(value):
    raise MemoryError("injected bug-class failure")


def _compute_job(fn) -> SimJob:
    """A job whose simulation calls ``fn`` (a module-level, picklable
    callable) on a received value — the worker-side error injection."""
    from repro import COMPUTE, ArrayProgram, Message, R, W

    program = ArrayProgram(
        ["C1", "C2"],
        [Message("A", "C1", "C2", 1)],
        {
            "C1": [W("A", constant=2.0)],
            "C2": [R("A", into="x"), COMPUTE("y", fn, ["x"])],
        },
    )
    return SimJob(program)


class TestWorkerErrorNarrowing:
    """The worker's except blocks are narrowed, not blanket.

    Three pinned behaviors: a picklable bug crosses the pipe verbatim;
    an exception whose *payload* cannot pickle is substituted with a
    summary ``RuntimeError`` and counted in ``payload_drops``; and
    :exc:`MemoryError` is bug-class — it kills the worker (crash
    recovery territory) instead of being shipped as an ordinary error.
    """

    def _supervisor(self, jobs, **tol):
        from repro.sweep.backends import WorkerContext
        from repro.sweep.backends.supervise import Supervisor

        return Supervisor(
            jobs,
            want_results=False,
            collect_errors=True,
            workers=1,
            chunk_size=1,
            ctx=WorkerContext.capture(),
            tolerance=Tolerance(**tol),
        )

    def test_picklable_error_crosses_verbatim(self):
        sup = self._supervisor([_compute_job(_raise_plain)])
        with pytest.raises(PlainBoom, match="original message intact"):
            list(sup.run())
        assert sup.stats()["payload_drops"] == 0

    def test_unpicklable_payload_substituted_and_counted(self):
        sup = self._supervisor(
            [SimJob(fig7_program()), _compute_job(_raise_unpicklable)]
        )
        records = []
        with pytest.raises(RuntimeError, match="UnpicklableBoom: kaboom"):
            for record in sup.run():
                records.append(record)
        # The healthy job's row still made it out, in order.
        assert [r.index for r in records] == [0]
        assert sup.stats()["payload_drops"] == 1

    def test_memory_error_kills_the_worker_not_the_contract(self):
        sup = self._supervisor(
            [SimJob(fig7_program()), _compute_job(_raise_memory_error)],
            max_retries=0,
        )
        rows = [record.row for record in sup.run()]
        # The MemoryError was never shipped as data: the worker died and
        # the job was quarantined through crash recovery instead.
        assert rows[1].error_kind == WORKER_CRASH_KIND
        assert rows[0].completed
        assert sup.stats()["payload_drops"] == 0


class TestCrashAttribution:
    """The supervisor charges a death to the job in the worker's slot.

    Driven on a stand-in worker (no process), so each attribution rule
    is pinned exactly: the slot's job is charged and the rest of the
    chunk requeued free; an empty slot requeues singletons, charging
    nobody; a lone job is charged even without a slot.
    """

    class _FakeWorker:
        def __init__(self, items, current):
            import multiprocessing

            self.task = items
            self.slot = multiprocessing.RawValue("q", current)

    def _supervisor(self, items, current, max_retries=1):
        from repro.sweep.backends import WorkerContext
        from repro.sweep.backends.supervise import Supervisor

        sup = Supervisor(
            [],
            want_results=False,
            collect_errors=True,
            workers=1,
            chunk_size=3,
            ctx=WorkerContext.capture(),
            tolerance=Tolerance(max_retries=max_retries),
        )
        sup._workers = [self._FakeWorker(items, current)]
        sup._replace = lambda wid: None
        return sup

    def _items(self, indices):
        job = SimJob(fig7_program())
        return [(index, job) for index in indices]

    def test_slot_job_charged_rest_requeued_free(self):
        items = self._items([3, 4, 5])
        sup = self._supervisor(items, current=4)
        sup._on_worker_death(0, "crash", "exit code -9", now=10.0)
        assert sup._attempts == {4: 1}
        retry, rest = sup._pending
        assert retry[0] == [items[1]] and retry[1] > 10.0  # backoff
        assert rest == [[items[0], items[2]], 0.0]

    def test_empty_slot_requeues_singletons_uncharged(self):
        items = self._items([3, 4, 5])
        sup = self._supervisor(items, current=-1)
        sup._on_worker_death(0, "crash", "exit code -9", now=10.0)
        assert sup._attempts == {}
        assert sup._pending == [[[item], 0.0] for item in items]

    def test_lone_job_charged_without_slot(self):
        items = self._items([7])
        sup = self._supervisor(items, current=-1, max_retries=0)
        sup._on_worker_death(0, "hang", "job timeout", now=10.0)
        assert sup._pending == []
        record = sup._completed[7]
        assert record.row.outcome == "timeout"
        assert "job_timeout_s" in record.row.error


class TestKnobValidation:
    def test_tolerance_validates(self):
        with pytest.raises(ConfigError, match="max_retries"):
            Tolerance(max_retries=-1)
        with pytest.raises(ConfigError, match="job_timeout_s"):
            Tolerance(job_timeout_s=0)
        with pytest.raises(ConfigError, match="retry_backoff_s"):
            Tolerance(retry_backoff_s=-0.1)
        assert Tolerance().backoff(1) == pytest.approx(0.05)
        assert Tolerance().backoff(3) == pytest.approx(0.2)
        assert Tolerance(retry_backoff_s=10).backoff(9) == 2.0  # capped

    def test_plan_knobs_validate_at_session_creation(self):
        jobs = corpus_jobs()[:1]
        with pytest.raises(ConfigError, match="max_retries"):
            SweepSession(SweepPlan(jobs=jobs, max_retries=-2))
        with pytest.raises(ConfigError, match="job_timeout_s"):
            SweepSession(SweepPlan(jobs=jobs, job_timeout_s=-1.0))

    def test_fault_plan_normalization(self, tmp_path):
        plan = FaultPlan(spool=str(tmp_path), crash=[1, 4], hang={2: 3})
        assert plan.crash == {1: 1, 4: 1}
        assert plan.hang == {2: 3}
        with pytest.raises(ConfigError, match="times >= 1"):
            FaultPlan(spool=str(tmp_path), crash={1: 0})
        with pytest.raises(ConfigError, match="index >= 0"):
            FaultPlan(spool=str(tmp_path), hang=[-1])

    def test_fault_plan_fires_bounded_times(self, tmp_path, monkeypatch):
        from repro.sweep import fault as fault_mod

        plan = FaultPlan(spool=str(tmp_path), hang={0: 2}, hang_s=5.0)
        slept = []
        monkeypatch.setattr(fault_mod.time, "sleep", slept.append)
        for _ in range(5):
            plan.maybe_hang(0)
        assert slept == [5.0, 5.0]
        plan.maybe_hang(1)  # unarmed index
        assert slept == [5.0, 5.0]


class TestWorkerCleanup:
    """Worker processes are reaped on every exit path."""

    def _capture_processes(self, monkeypatch):
        from repro.sweep.backends.supervise import Supervisor

        spawned = []
        real_spawn = Supervisor._spawn

        def recording_spawn(self, child_conn, parent_end, slot):
            process = real_spawn(self, child_conn, parent_end, slot)
            spawned.append(process)
            return process

        monkeypatch.setattr(Supervisor, "_spawn", recording_spawn)
        return spawned

    def test_reaped_after_error_raise(self, monkeypatch):
        spawned = self._capture_processes(monkeypatch)
        bad = SimJob(fig7_program(), policy="no-such-policy")
        session = SweepSession(
            SweepPlan(jobs=[bad, bad], workers=2, on_error="raise")
        )
        with pytest.raises(ConfigError):
            list(session.stream())
        assert spawned and not any(p.is_alive() for p in spawned)

    def test_reaped_after_generator_close(self, monkeypatch, baseline):
        jobs, _, _ = baseline
        spawned = self._capture_processes(monkeypatch)
        stream = SweepSession(
            SweepPlan(jobs=jobs, workers=2, chunk_size=3)
        ).stream()
        next(stream)
        stream.close()  # mid-sweep teardown (what Ctrl-C does in the CLI)
        assert spawned and not any(p.is_alive() for p in spawned)


    @pytest.mark.skipif(
        not os.path.isdir("/proc/self"), reason="reads process state from /proc"
    )
    def test_workers_exit_when_parent_is_killed(self, tmp_path):
        """A SIGKILLed parent must not leave its workers running."""
        import signal
        import subprocess
        import sys
        import time
        from pathlib import Path

        script = tmp_path / "parent.py"
        script.write_text(
            "import time\n"
            "from repro.algorithms.figures import fig7_program\n"
            "from repro.sweep import SimJob, Tolerance\n"
            "from repro.sweep.backends import WorkerContext\n"
            "from repro.sweep.backends.supervise import Supervisor\n"
            "sup = Supervisor([SimJob(fig7_program())] * 8,\n"
            "    want_results=False, collect_errors=True, workers=2,\n"
            "    chunk_size=1, ctx=WorkerContext(), tolerance=Tolerance())\n"
            "rows = sup.run()\n"
            "next(rows)\n"
            "print(*(w.process.pid for w in sup._workers), flush=True)\n"
            "time.sleep(60)\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            pids = [int(pid) for pid in proc.stdout.readline().split()]
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
        assert len(pids) == 2

        def running(pid):
            try:
                with open(f"/proc/{pid}/stat") as stat:
                    state = stat.read().rsplit(")", 1)[1].split()[0]
            except FileNotFoundError:
                return False
            return state != "Z"  # an unreaped zombie has exited

        deadline = time.monotonic() + 10.0
        while any(map(running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        alive = [pid for pid in pids if running(pid)]
        for pid in alive:  # don't leak them past a failing run
            os.kill(pid, signal.SIGKILL)
        assert not alive


class TestFaultPlanUnits:
    """The FaultPlan pieces that fire inside workers, tested in-parent."""

    def test_iterable_spec_normalizes_to_fire_once(self, tmp_path):
        from repro.sweep.fault import FaultPlan

        plan = FaultPlan(spool=str(tmp_path), hang=[3, 7], hang_s=0.0)
        assert plan.hang == {3: 1, 7: 1}

    def test_invalid_entries_rejected(self, tmp_path):
        from repro.errors import ConfigError
        from repro.sweep.fault import FaultPlan

        with pytest.raises(ConfigError, match="index >= 0"):
            FaultPlan(spool=str(tmp_path), crash={-1: 1})
        with pytest.raises(ConfigError, match="times >= 1"):
            FaultPlan(spool=str(tmp_path), crash={0: 0})

    def test_hang_fires_exactly_times_then_runs_clean(self, tmp_path):
        from repro.sweep.fault import FaultPlan

        plan = FaultPlan(spool=str(tmp_path), hang={5: 1}, hang_s=0.0)
        plan.maybe_hang(5)  # armed: claims attempt 0 and sleeps (0s)
        assert (tmp_path / "hang-5-0").exists()
        plan.maybe_hang(5)  # exhausted: claims attempt 1, no sleep
        assert (tmp_path / "hang-5-1").exists()
        plan.maybe_hang(0)  # unarmed index: no marker at all
        assert not (tmp_path / "hang-0-0").exists()

    def test_install_and_active_plan_round_trip(self, tmp_path):
        from repro.sweep.fault import FaultPlan, active_plan, install

        assert active_plan() is None
        plan = FaultPlan(spool=str(tmp_path))
        install(plan)
        try:
            assert active_plan() is plan
        finally:
            install(None)
        assert active_plan() is None
