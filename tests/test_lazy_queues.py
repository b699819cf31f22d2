"""Lazy queue building: pins on the simulator's per-queue observables.

The digest below covers, for every run of a fixed corpus, each
``queue_stats`` entry (key and counters, in iteration order), the
assignment trace, the blocked-agent descriptions and the wait-for cycle.
It was recorded on the simulator that built every provisioned queue
before t=0; any later build strategy must reproduce it exactly.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import astuple

import pytest

from repro import ArrayConfig, clear_analysis_cache, simulate
from repro.algorithms.figures import (
    fig2_fir,
    fig2_registers,
    fig6_cycle,
    fig7_program,
    fig8_program,
)
from repro.arch.links import Link
from repro.arch.queue import HardwareQueue, QueueStats
from repro.errors import DeadlockedProgramError, ReproError
from repro.sim.result import QueueStatsView
from repro.sweep.jobs import SimJob, run_job
from repro.sweep.summary import RunSummary, summarize_result
from repro.workloads.random_programs import (
    WorkloadSpec,
    hoist_writes,
    inject_read_cycle,
    random_program,
)

POLICIES = ("ordered", "static", "fcfs")
QUEUES = (1, 8, 48)
CAPACITIES = (0, 2, 8)

#: Digest of :func:`corpus_observables` (see the module docstring).
PINNED_DIGEST = "ba1abede02d4c5ce847db2961c9d081d"


def corpus_programs():
    programs = [
        ("fig2", fig2_fir(), fig2_registers()),
        ("fig6", fig6_cycle(), None),
        ("fig7", fig7_program(), None),
        ("fig8", fig8_program(), None),
    ]
    for seed in (1, 2):
        base = random_program(WorkloadSpec(cells=6, messages=8, seed=seed))
        programs.append((f"random{seed}", base, None))
        programs.append((f"hoisted{seed}", hoist_writes(base, 3, seed=seed), None))
        programs.append((f"injected{seed}", inject_read_cycle(base, seed=seed), None))
    return programs


def corpus_runs():
    """``(label, program, config, policy, registers)`` for every pinned run."""
    for name, program, registers in corpus_programs():
        for policy in POLICIES:
            for queues in QUEUES:
                for capacity in CAPACITIES:
                    config = ArrayConfig(
                        queues_per_link=queues, queue_capacity=capacity
                    )
                    label = f"{name}/{policy}/q{queues}/c{capacity}"
                    yield label, program, config, policy, registers
    base = random_program(WorkloadSpec(cells=6, messages=8, seed=1))
    overrides = ArrayConfig(
        queues_per_link=2,
        queue_capacity=2,
        link_queue_overrides={Link("C1", "C2"): 5, Link("C3", "C2"): 1},
    )
    yield "random1/fcfs/overrides", base, overrides, "fcfs", None
    extension = ArrayConfig(
        queues_per_link=3, queue_capacity=1, allow_extension=True
    )
    yield "random1/static/extension", base, extension, "static", None


def run_observables(program, config, policy, registers) -> tuple:
    try:
        result = simulate(
            program, config=config, policy=policy, registers=registers
        )
    except ReproError as exc:
        return ("error", type(exc).__name__, str(exc))
    return (
        [(key, astuple(stats)) for key, stats in result.queue_stats.items()],
        [str(event) for event in result.assignment_trace],
        result.blocked,
        result.wait_cycle,
    )


def corpus_observables():
    for label, program, config, policy, registers in corpus_runs():
        yield label, run_observables(program, config, policy, registers)


def test_queue_observables_pinned():
    digest = hashlib.blake2b(digest_size=16)
    for label, observed in corpus_observables():
        digest.update(repr((label, observed)).encode())
    assert digest.hexdigest() == PINNED_DIGEST


def test_static_job_builds_only_granted_queues(monkeypatch):
    built = []
    original = HardwareQueue.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[:2])
        original(self, *args, **kwargs)

    monkeypatch.setattr(HardwareQueue, "__init__", counting_init)
    program = random_program(WorkloadSpec(cells=6, messages=8, seed=1))
    result = simulate(
        program,
        config=ArrayConfig(queues_per_link=48, queue_capacity=2),
        policy="static",
    )
    granted = {
        (event.link, event.queue_index)
        for event in result.assignment_trace
        if event.kind == "grant"
    }
    assert granted
    assert len(built) == len(granted)
    assert set(built) == granted
    assert len(result.queue_stats) == 48 * len({link for link, _ in granted})


def test_queue_stats_view_matches_its_dict_and_pickles():
    program = random_program(WorkloadSpec(cells=6, messages=8, seed=2))
    result = simulate(
        program,
        config=ArrayConfig(queues_per_link=48, queue_capacity=2),
        policy="fcfs",
    )
    view = result.queue_stats
    assert isinstance(view, QueueStatsView)
    assert len(view) == len(dict(view))
    assert list(view.values()) == list(dict(view).values())
    assert view == dict(view)
    assert max(s.peak_occupancy for s in view.built()) == max(
        s.peak_occupancy for s in view.values()
    )
    blob = pickle.dumps(result)
    clone = pickle.loads(blob)
    assert clone == result
    assert clone.queue_stats == dict(view)
    # The pickle carries one triple per used link, never the zero stats
    # of the thousand-odd queues the run did not touch.
    assert len(blob) < 16 * 1024
    with pytest.raises(TypeError):
        view["C1->C2#0"] = QueueStats()


def test_deadlocked_labeling_is_computed_once(monkeypatch):
    from repro.core import labeling as labeling_module

    calls = []
    original = labeling_module.cross_off

    def counting_cross_off(*args, **kwargs):
        calls.append(args[0].name)
        return original(*args, **kwargs)

    monkeypatch.setattr(labeling_module, "cross_off", counting_cross_off)
    clear_analysis_cache()
    base = random_program(WorkloadSpec(cells=6, messages=8, seed=1))
    program = inject_read_cycle(base, seed=1)
    jobs = [
        SimJob(program, ArrayConfig(queues_per_link=q, queue_capacity=2))
        for q in (1, 8, 48)
    ]
    rows = [
        summarize_result(index, job, run_job(job, True))
        for index, job in enumerate(jobs)
    ]
    assert calls == [program.name]
    message = (
        "program 'random-1-deadlocked' is not deadlock-free under the "
        "given lookahead; labeling is undefined"
    )
    assert rows == [
        RunSummary(
            index=index,
            completed=False,
            deadlocked=False,
            timed_out=False,
            time=0,
            events=0,
            words=0,
            policy="ordered",
            queues=queues,
            capacity=2,
            error_kind="DeadlockedProgramError",
            error=message,
        )
        for index, queues in enumerate((1, 8, 48))
    ]
    # A fresh error per job: no traceback chains across jobs.
    with pytest.raises(DeadlockedProgramError) as first:
        jobs[0].run()
    with pytest.raises(DeadlockedProgramError) as second:
        jobs[0].run()
    assert first.value is not second.value
    assert str(first.value) == message
    assert len(calls) == 1
