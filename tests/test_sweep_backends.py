"""Executor-differential harness: in-process and worker runs must agree.

The executor contract (see :mod:`repro.sweep.backends`) promises that a
sweep produces *byte-identical* RunSummary rows and reducer summaries
for the same job list whether it runs in-process (``workers=1``) or in
supervised worker processes (``workers=2``). This harness pins that
contract on a seed sweep corpus spanning every outcome class
(completed, deadlock, timeout, infeasible), plus the supervised
executor's streaming edges: a lazy job stream is pulled a bounded
window ahead of the consumer, and chunks that cannot pickle run in the
parent in their place.
"""

import json

import pytest

from repro import ArrayConfig
from repro.algorithms.figures import fig7_program, fig8_program
from repro.errors import ConfigError
from repro.sweep import (
    CompletedCount,
    DeadlockRateByConfig,
    MakespanHistogram,
    PerConfigMakespan,
    QuantileReducer,
    ResultHandle,
    RunSummary,
    SimJob,
    SweepPlan,
    SweepSession,
    sweep_jobs,
)
from repro.workloads import ensemble_programs

WORKERS = (1, 2)


def seed_corpus_jobs() -> list[SimJob]:
    """The seed sweep corpus: every outcome class, several programs.

    fig7 x {ordered, fcfs} x {1, 2} queues covers completed and
    deadlocked runs (fcfs q=1 deadlocks on Fig. 7); fig8 x {ordered,
    static} x {1, 2} covers infeasible corners (strict ordered/static
    with one queue need two); the random ensemble adds buffered-queue
    variety; the truncated jobs cover timeouts.
    """
    ensemble = ensemble_programs(3, cells=5, messages=8, max_length=3, base_seed=3)
    jobs: list[SimJob] = []
    jobs += sweep_jobs(
        fig7_program(), policies=("ordered", "fcfs"), queues=(1, 2)
    )
    jobs += sweep_jobs(
        fig8_program(), policies=("ordered", "static"), queues=(1, 2)
    )
    jobs += sweep_jobs(
        ensemble[0], queues=(1, 8), capacities=(0, 2), repeat=2
    )
    jobs += [SimJob(p, config=ArrayConfig(queues_per_link=8)) for p in ensemble]
    jobs += [
        SimJob(ensemble[1], config=ArrayConfig(queues_per_link=8), max_events=3)
    ]
    return jobs


def fresh_reducers():
    return (
        CompletedCount(),
        MakespanHistogram(bucket_width=8),
        DeadlockRateByConfig(),
        PerConfigMakespan(),
        QuantileReducer((0.5, 0.95, 0.99)),
    )


def run_workers(workers: int, jobs):
    reducers = fresh_reducers()
    plan = SweepPlan(
        jobs=jobs,
        reducers=reducers,
        workers=workers,
        chunk_size=3,
    )
    outcome = SweepSession(plan).run()
    summaries = {r.name: r.summary() for r in reducers}
    return outcome, summaries


class TestBackendDifferential:
    @pytest.fixture(scope="class")
    def corpus(self):
        return seed_corpus_jobs()

    @pytest.fixture(scope="class")
    def per_workers(self, corpus):
        return {w: run_workers(w, corpus) for w in WORKERS}

    def test_corpus_covers_every_outcome(self, per_workers):
        rows = per_workers[1][0].rows
        assert {row.outcome for row in rows} == {
            "completed",
            "deadlock",
            "timeout",
            "infeasible",
        }

    def test_rows_identical_across_backends(self, per_workers):
        assert per_workers[2][0].rows == per_workers[1][0].rows

    def test_rows_byte_identical_as_json(self, per_workers):
        def dump(outcome):
            return json.dumps(
                [row.__dict__ for row in outcome.rows], sort_keys=True
            ).encode()

        assert dump(per_workers[2][0]) == dump(per_workers[1][0])

    def test_reducer_summaries_byte_identical(self, per_workers):
        def dump(summaries):
            return json.dumps(summaries, sort_keys=True).encode()

        assert dump(per_workers[2][1]) == dump(per_workers[1][1])

    def test_rows_are_in_job_order(self, per_workers, corpus):
        for workers in WORKERS:
            rows = per_workers[workers][0].rows
            assert [row.index for row in rows] == list(range(len(corpus)))

    def test_workers_ship_full_results(self, per_workers):
        """An eager run with workers hands over every full result."""
        in_process = per_workers[1][0].results()
        outcome = per_workers[2][0]
        assert all(h.hydrated for h in outcome.handles)
        for got, want in zip(outcome.results(), in_process):
            assert type(got) is type(want)
            if not hasattr(want, "received"):
                assert got == want  # BatchError
                continue
            assert got.completed == want.completed
            assert got.time == want.time
            assert got.events == want.events
            assert got.received == want.received
            assert got.assignment_trace == want.assignment_trace

    def test_stream_matches_run_rows(self, corpus):
        for workers in WORKERS:
            plan = SweepPlan(jobs=corpus, workers=workers, chunk_size=3)
            streamed = list(SweepSession(plan).stream())
            assert streamed == run_workers(workers, corpus)[0].rows


class TestSessionValidation:
    def test_invalid_workers_and_chunk_size(self, fig7):
        with pytest.raises(ConfigError):
            SweepSession(SweepPlan(jobs=[SimJob(fig7)], workers=0))
        with pytest.raises(ConfigError):
            SweepSession(SweepPlan(jobs=[SimJob(fig7)], chunk_size=0))
        with pytest.raises(ConfigError):
            SweepSession(SweepPlan(jobs=[SimJob(fig7)], on_error="bogus"))

    def test_empty_jobs(self):
        for workers in WORKERS:
            plan = SweepPlan(jobs=[], workers=workers)
            outcome = SweepSession(plan).run()
            assert outcome.rows == [] and outcome.handles == []

    def test_empty_stream_starts_no_worker(self, monkeypatch):
        import multiprocessing

        def no_process(*args, **kwargs):
            raise AssertionError("a worker was started for no jobs")

        monkeypatch.setattr(multiprocessing, "Process", no_process)
        plan = SweepPlan(jobs=iter(()), workers=2)
        assert list(SweepSession(plan).stream()) == []

    def test_on_error_raise_propagates_from_every_backend(self, fig8):
        jobs = sweep_jobs(fig8, policies=("static",), queues=(1,))
        for workers in WORKERS:
            plan = SweepPlan(jobs=jobs, workers=workers, on_error="raise")
            with pytest.raises(ConfigError):
                list(SweepSession(plan).stream())


class TestSupervisedStreaming:
    """The supervised executor consumes a lazy job stream.

    Generator input produces byte-identical rows to a materialized
    list, and the stream is pulled incrementally: never more than the
    in-flight window ahead of the consumer.
    """

    def test_generator_rows_byte_identical_to_list(self):
        jobs = [
            SimJob(fig7_program(), policy=policy)
            for policy in ("ordered", "fcfs")
        ] * 3

        plan_list = SweepPlan(jobs=jobs, workers=2, chunk_size=2)
        plan_gen = SweepPlan(jobs=iter(jobs), workers=2, chunk_size=2)
        assert list(SweepSession(plan_gen).stream()) == list(
            SweepSession(plan_list).stream()
        )

    def test_stream_pulled_incrementally(self):
        n_jobs, workers, chunk = 24, 2, 2
        pulled = 0

        def gen():
            nonlocal pulled
            for _ in range(n_jobs):
                pulled += 1
                yield SimJob(fig7_program())

        plan = SweepPlan(jobs=gen(), workers=workers, chunk_size=chunk)
        seen = 0
        # The window holds workers*2 chunks plus the one being pulled;
        # anything pulled beyond that would mean materializing.
        bound = (workers * 2 + 1) * chunk
        for _row_ in SweepSession(plan).stream():
            seen += 1
            assert pulled <= seen + bound
        assert seen == n_jobs
        assert pulled == n_jobs

    def test_unpicklable_chunk_falls_back_in_process(self):
        from repro import COMPUTE, ArrayProgram, Message, R, W

        lam = ArrayProgram(
            ["C1", "C2"],
            [Message("A", "C1", "C2", 1)],
            {
                "C1": [W("A", constant=2.0)],
                "C2": [R("A", into="x"), COMPUTE("y", lambda v: v + 1, ["x"])],
            },
        )
        jobs = [SimJob(fig7_program()), SimJob(lam)]
        plan = SweepPlan(jobs=jobs, workers=2, chunk_size=1)
        outcome = SweepSession(plan).run()
        assert [row.index for row in outcome.rows] == [0, 1]
        assert all(row.completed for row in outcome.rows)
        assert outcome.handles[1].result().registers["C2"]["y"] == 3.0

    def test_unpicklable_chunk_error_raises_in_job_order(self):
        from repro import COMPUTE, ArrayProgram, Message, R, W

        def boom(value):
            raise ZeroDivisionError("in-parent job failed")

        bad = ArrayProgram(
            ["C1", "C2"],
            [Message("A", "C1", "C2", 1)],
            {
                "C1": [W("A", constant=2.0)],
                "C2": [R("A", into="x"), COMPUTE("y", boom, ["x"])],
            },
        )
        jobs = [SimJob(fig7_program()), SimJob(bad), SimJob(fig7_program())]
        plan = SweepPlan(jobs=jobs, workers=2, chunk_size=1, on_error="raise")
        rows = []
        with pytest.raises(ZeroDivisionError, match="in-parent job failed"):
            for row in SweepSession(plan).stream():
                rows.append(row)
        assert [row.index for row in rows] == [0]


def _row(**kw):
    base = dict(
        index=0, completed=True, deadlocked=False, timed_out=False,
        time=10, events=5, words=3, policy="ordered", queues=1, capacity=0,
    )
    base.update(kw)
    return RunSummary(**base)


class TestResultHandle:
    def test_materialized_handle_never_reruns(self, fig7):
        job = SimJob(fig7)
        sentinel = object()
        handle = ResultHandle(_row(), job, False, result=sentinel)
        assert handle.hydrated
        assert handle.result() is sentinel

    def test_lazy_handle_runs_once_and_caches(self, fig7):
        handle = ResultHandle(_row(), SimJob(fig7), False)
        first = handle.result()
        assert first.completed
        assert handle.result() is first


class TestWorkerContextCrossingBackend:
    """The crossing-backend preference rides WorkerContext to workers."""

    @pytest.fixture(autouse=True)
    def _restore_backend(self):
        from repro.core.crossing import configure_crossing_backend

        previous = configure_crossing_backend(None)
        yield
        configure_crossing_backend(previous)

    def test_capture_snapshots_configured_preference(self):
        from repro.core.crossing import configure_crossing_backend
        from repro.sweep.backends import WorkerContext

        assert WorkerContext.capture().crossing_backend is None
        configure_crossing_backend("interned")
        ctx = WorkerContext.capture()
        assert ctx.crossing_backend == "interned"
        # Explicit disk_cache path carries the preference too.
        assert WorkerContext.capture("/tmp/x").crossing_backend == "interned"

    def test_apply_installs_preference(self):
        from repro.core.crossing import configured_crossing_backend
        from repro.sweep.backends import WorkerContext

        WorkerContext(crossing_backend="interned").apply()
        assert configured_crossing_backend() == "interned"
        # A context with no preference leaves the current one alone.
        WorkerContext().apply()
        assert configured_crossing_backend() == "interned"

    def test_pool_workers_inherit_preference(self, fig7):
        from repro.core.crossing import configure_crossing_backend

        configure_crossing_backend("interned")
        plan = SweepPlan(
            jobs=sweep_jobs(fig7, policies=("ordered",), queues=(1, 2)),
            workers=2,
        )
        rows = [h.summary for h in SweepSession(plan).run().handles]
        assert [row.outcome for row in rows] == ["completed", "completed"]
