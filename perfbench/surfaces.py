"""The benchmark's four workloads over the check, sweep and frontier surfaces.

Each workload generates its inputs from the seed in :meth:`setup`
(which also runs one warm-up pass so lazy imports and first-call costs
stay out of the timed phase), then runs *rounds*: one round is one pass
over the whole input set from the same cold state, so every round of a
run does identical work and produces an identical digest.
:meth:`verify` runs the sampled oracles after the timed phase.

Importing this module imports ``repro``; the benchmark times that
import as part of set-up.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from dataclasses import dataclass, field
from itertools import chain

from repro.arch.routing import default_router
from repro.arch.topology import ExplicitLinear
from repro.core.crossing import (
    cross_off,
    resolve_backend,
    route_capacities,
    uniform_lookahead,
)
from repro.core.labeling import constraint_labeling
from repro.core.message import Message
from repro.core.ops import R, W
from repro.core.program import ArrayProgram
from repro.core.schedule import summarize_schedule
from repro.perf import (
    analysis_cache_stats,
    clear_analysis_cache,
    shm_cache_stats,
)
from repro.sweep import (
    WORKER_CRASH_KIND,
    CompletedCount,
    DeadlockRateByConfig,
    FrontierPlanner,
    MakespanHistogram,
    PerConfigMakespan,
    PlanSpec,
    QuantileReducer,
    SweepPlan,
    SweepSession,
    exhaustive_spec,
    iter_sweep_jobs,
    parse_quantiles,
    summarize_result,
)
from repro.sweep.jobs import run_job
from repro.witness import WitnessStore
from repro.workloads import (
    WorkloadSpec,
    hoist_writes,
    inject_read_cycle,
    large_spec_family,
    random_program,
)
from spans import NullTracer


#: Per-round row counts by outcome ("timeout" rows are also failures)
#: and the frontier workload's planner and witness counters; all but
#: the timeout count are per-layer metrics of the same name.
ROW_COUNTS = (
    "sweep.rows.completed",
    "sweep.rows.deadlock",
    "sweep.rows.infeasible",
    "sweep.rows.timeout",
)
PLANNER_COUNTS = (
    "planner.probes",
    "planner.grid_jobs",
    "planner.seeded_lines",
    "witness.pruned",
    "witness.mined",
)


@dataclass
class Round:
    """What one round did: timings, work counts, digest, failed checks."""

    wall_ns: int = 0
    latencies_ns: list[int] = field(default_factory=list)
    events: int = 0
    digest: str = ""
    failures: list[str] = field(default_factory=list)
    #: Deterministic per-round counts (rows by outcome, planner and
    #: witness counters, parent-side analysis-cache counters).
    counts: dict[str, float] = field(default_factory=dict)


def _hash(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()[:16]


def _row_line(row) -> str:
    return f"{row.index}:{row.outcome}:{row.time}:{row.events}"


def _shm_hits() -> int:
    shm = shm_cache_stats()
    return shm["hits"] if shm else 0


def _cache_counts(shm_before: int) -> dict[str, float]:
    """Parent-side analysis-cache counters since the round's cache reset."""
    stats = analysis_cache_stats()
    return {
        "perf.hits": stats["hits"],
        "perf.misses": stats["misses"],
        "perf.shm.hits": _shm_hits() - shm_before,
    }


def _declare(program: ArrayProgram):
    """A program's declaration: what a parser hands ``ArrayProgram``."""
    return (
        program.cells,
        tuple(program.messages.values()),
        {cell: program.cell_programs[cell].ops for cell in program.cells},
        program.name,
    )


class Workload:
    name = ""
    op_unit = ""

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def run_round(self, tr) -> Round:
        raise NotImplementedError

    def verify(self) -> list[str]:
        """Sampled oracles run once after the timed phase."""
        return []

    def representative_program(self) -> ArrayProgram:
        """A program whose crossing backend the host facts report."""
        raise NotImplementedError


# -- check_large --------------------------------------------------------------


class CheckLarge(Workload):
    """Cold ``repro check``+``label`` analysis of 1k-cell programs.

    An operation constructs the program from its declaration (fresh
    object, so no cached intern table survives), runs ``cross_off``
    and, when the verdict is deadlock-free, ``constraint_labeling`` and
    ``summarize_schedule``. Three kinds per base spec, each with its
    verdict known by construction: the base program (deadlock-free
    strictly), ``hoist_writes`` (deadlock-free under a lookahead of
    ``SWAPS``: each swap displaces one write by one slot) and
    ``inject_read_cycle`` (deadlocked).
    """

    name = "check_large"
    op_unit = "program analysed"
    CELLS = 1000
    BASE_SPECS = 4
    SWAPS = 16
    WARM_CELLS = 500

    def _family(self, seed: int, cells: int, count: int):
        decls = []
        for spec in large_spec_family(
            sizes=(cells,) * count, base_seed=seed * 64
        ):
            base = random_program(spec)
            words = sum(msg.length for msg in base.messages.values())
            decls.append(("base", _declare(base), 0, True, words))
            hoisted = hoist_writes(base, self.SWAPS, seed=spec.seed)
            decls.append(
                ("hoisted", _declare(hoisted), self.SWAPS, True, words)
            )
            injected = inject_read_cycle(base, seed=spec.seed)
            decls.append(("injected", _declare(injected), 0, False, words + 2))
        return decls

    def setup(self, seed: int) -> None:
        self.decls = self._family(seed, self.CELLS, self.BASE_SPECS)
        warm = self._family(seed + 1_000_003, self.WARM_CELLS, 1)
        for decl in warm:
            self._op(decl, NullTracer())

    def representative_program(self) -> ArrayProgram:
        cells, messages, ops, name = self.decls[0][1]
        return ArrayProgram(cells, messages, ops, name=name)

    @staticmethod
    def _op(decl, tr):
        """One ``check``: returns (digest line, failure or None, pairs)."""
        kind, (cells, messages, ops, name), cap, expect_free, words = decl
        span = tr.open("core.program")
        program = ArrayProgram(cells, messages, ops, name=name)
        tr.close(span)
        lookahead = uniform_lookahead(program, cap) if cap else None
        result = cross_off(program, lookahead=lookahead)
        line = f"{name}:{result.deadlock_free}:{result.pairs_crossed}"
        failure = None
        if result.deadlock_free != expect_free:
            failure = f"{name}: verdict {result.deadlock_free}, built {kind}"
        elif result.deadlock_free:
            labeling = constraint_labeling(program, lookahead=lookahead)
            schedule = summarize_schedule(program, result)
            line += (
                f":{schedule.transfer_rounds}:{schedule.max_parallelism}"
                f":{len(labeling.groups())}"
            )
            if schedule.total_pairs != words:
                failure = f"{name}: {schedule.total_pairs} pairs != {words}"
            elif len(labeling) != len(messages):
                failure = f"{name}: labeling misses messages"
        return line, failure, result.pairs_crossed

    def run_round(self, tr) -> Round:
        rnd = Round()
        lines = []
        start = time.perf_counter_ns()
        root = tr.open("round")
        for decl in self.decls:
            t0 = time.perf_counter_ns()
            span = tr.open("op.check")
            try:
                line, failure, pairs = self._op(decl, tr)
            except Exception as exc:  # a crash is a failed operation
                line, failure, pairs = f"crash:{decl[1][3]}", repr(exc), 0
            tr.close(span)
            rnd.latencies_ns.append(time.perf_counter_ns() - t0)
            lines.append(line)
            rnd.events += pairs
            if failure:
                rnd.failures.append(failure)
        tr.close(root)
        rnd.wall_ns = time.perf_counter_ns() - start
        rnd.digest = _hash(lines)
        return rnd


# -- sweep_serial / sweep_mp --------------------------------------------------


class Sweep(Workload):
    """A provisioning grid streamed like ``repro sweep --stream --quantiles``.

    An operation is one grid row delivered. The ensemble holds, per
    base spec, a ~10-cell random program, its ``hoist_writes`` variant
    and its ``inject_read_cycle`` variant. Each round starts from an
    empty analysis cache, so each program's first config analyses cold
    and the rest hit the memory tier.
    """

    op_unit = "grid row delivered"
    POLICIES = ("ordered", "static", "fcfs")
    QUEUES = (1, 8, 48)
    CAPACITIES = (0, 2, 8)
    BASE_SPECS = 16
    SWAPS = 4
    QUANTILES = "p50,p95,p99"

    def __init__(self, name: str, workers: int) -> None:
        self.name = name
        self.workers = workers
        self.first_rows = None

    def _ensemble(self, seed: int, cells: int, messages: int, count: int):
        programs = []
        for i in range(count):
            spec_seed = seed * 64 + i
            base = random_program(
                WorkloadSpec(cells=cells, messages=messages, seed=spec_seed)
            )
            programs.append(("base", base))
            programs.append(
                ("hoisted", hoist_writes(base, self.SWAPS, seed=spec_seed))
            )
            programs.append(
                ("injected", inject_read_cycle(base, seed=spec_seed))
            )
        return programs

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.programs = self._ensemble(seed, 10, 14, self.BASE_SPECS)
        self.per_program = (
            len(self.POLICIES) * len(self.QUEUES) * len(self.CAPACITIES)
        )
        # Compile-time verdict per (program, capacity), the premise of
        # the Theorem 1 oracle: the same lookahead bounds the ordered
        # policy labels under.
        self.deadlock_free = {}
        for p, (_kind, program) in enumerate(self.programs):
            router = default_router(ExplicitLinear(tuple(program.cells)))
            for cap in self.CAPACITIES:
                lookahead = (
                    route_capacities(program, router, cap) if cap else None
                )
                self.deadlock_free[p, cap] = cross_off(
                    program, lookahead=lookahead
                ).deadlock_free
        # Warm-up on a program outside the grid, so no grid analysis
        # reaches the shared-memory tier before the timed phase.
        warm = self._ensemble(seed + 1_000_003, 5, 6, 1)
        self._stream(
            [program for _kind, program in warm], NullTracer(), Round()
        )
        clear_analysis_cache()

    def representative_program(self) -> ArrayProgram:
        return self.programs[0][1]

    def _plan(self, programs):
        jobs = chain.from_iterable(
            iter_sweep_jobs(
                program,
                policies=self.POLICIES,
                queues=self.QUEUES,
                capacities=self.CAPACITIES,
            )
            for program in programs
        )
        reducers = (
            CompletedCount(),
            MakespanHistogram(),
            DeadlockRateByConfig(),
            QuantileReducer(parse_quantiles(self.QUANTILES)),
            PerConfigMakespan(),
        )
        plan = SweepPlan(
            jobs=jobs,
            reducers=reducers,
            workers=self.workers,
            chunk_size=32,
        )
        return plan, reducers

    def _stream(self, programs, tr, rnd: Round):
        plan, reducers = self._plan(programs)
        stream = SweepSession(plan).stream()
        rows = []
        while True:
            t0 = time.perf_counter_ns()
            span = tr.open("sweep.wait")
            row = next(stream, None)
            tr.close(span)
            if row is None:
                break
            rnd.latencies_ns.append(time.perf_counter_ns() - t0)
            rows.append(row)
        return rows, reducers

    def _check_row(self, row) -> str | None:
        p = row.index // self.per_program
        kind = self.programs[p][0]
        outcome = row.outcome
        if outcome == "timeout" or row.error_kind == WORKER_CRASH_KIND:
            return f"row {row.index}: {outcome} {row.error_kind}"
        if kind == "injected" and outcome == "completed":
            return f"row {row.index}: deadlocked program completed"
        if (
            row.policy == "ordered"
            and outcome != "infeasible"
            and self.deadlock_free[p, row.capacity]
            and outcome != "completed"
        ):
            return f"row {row.index}: Theorem 1 violated ({outcome})"
        return None

    def run_round(self, tr) -> Round:
        rnd = Round()
        clear_analysis_cache()
        shm_before = _shm_hits()
        start = time.perf_counter_ns()
        root = tr.open("round")
        rows, reducers = self._stream(
            [program for _kind, program in self.programs], tr, rnd
        )
        tr.close(root)
        rnd.wall_ns = time.perf_counter_ns() - start
        expected = len(self.programs) * self.per_program
        if len(rows) != expected:
            rnd.failures.append(f"{len(rows)} rows for {expected} jobs")
        counts = dict.fromkeys(ROW_COUNTS, 0)
        for row in rows:
            rnd.events += row.events
            counts[f"sweep.rows.{row.outcome}"] += 1
            failure = self._check_row(row)
            if failure:
                rnd.failures.append(failure)
        summaries = json.dumps(
            {reducer.name: reducer.summary() for reducer in reducers},
            sort_keys=True,
        )
        rnd.digest = _hash(chain(map(_row_line, rows), [summaries]))
        rnd.counts = {**counts, **_cache_counts(shm_before)}
        if self.first_rows is None:
            self.first_rows = rows
        return rnd

    def verify(self) -> list[str]:
        """Multiprocess rows equal an in-process re-simulation (sampled)."""
        if self.workers == 1 or not self.first_rows:
            return []
        jobs = [
            job
            for _kind, program in self.programs
            for job in iter_sweep_jobs(
                program,
                policies=self.POLICIES,
                queues=self.QUEUES,
                capacities=self.CAPACITIES,
            )
        ]
        rng = random.Random(self.seed)
        failures = []
        self.resampled = []
        for index in sorted(rng.sample(range(len(jobs)), 16)):
            result = run_job(jobs[index], True)
            self.resampled.append(result)
            row = summarize_result(index, jobs[index], result)
            if row != self.first_rows[index]:
                failures.append(f"row {index}: worker row differs from re-run")
        return failures


# -- frontier_refine ----------------------------------------------------------


def burst_exchange(k: int) -> ArrayProgram:
    """Two cells exchange ``k``-word bursts, every write before any read.

    Each direction needs a queue able to absorb the whole burst, so the
    minimal completing capacity is exactly ``k`` on every line.
    """
    messages = [Message("M0", "A", "B", k), Message("M1", "B", "A", k)]
    ops = {
        "A": [W("M0", constant=1.0) for _ in range(k)]
        + [R("M1", into=f"a{i}") for i in range(k)],
        "B": [W("M1", constant=2.0) for _ in range(k)]
        + [R("M0", into=f"b{i}") for i in range(k)],
    }
    return ArrayProgram(["A", "B"], messages, ops, name=f"burst-{k}")


class FrontierRefine(Workload):
    """Section 8 sizing: a coarse then a dense frontier query per program.

    An operation is one program refined: its query on the power-of-two
    capacity axis, then on the dense axis, both against the round's
    shared witness store (fresh each round, saved at round end).
    """

    name = "frontier_refine"
    op_unit = "program refined (coarse + dense frontier query)"
    POLICIES = ("static", "fcfs")
    QUEUES = (1, 2)
    COARSE = (0, 1, 2, 4, 8, 16, 32)
    DENSE = tuple(range(33))
    PER_KIND = 8

    def _family(self, seed: int, count: int):
        rng = random.Random(seed)
        family = []
        for i in range(count):
            # Stratified burst sizes: every seed's family does about the
            # same simulation work, whatever the draw.
            k = 3 + 2 * (i % 8) + rng.randint(0, 1)
            family.append(("burst", burst_exchange(k)))
        for i in range(count):
            spec_seed = seed * 64 + i
            base = random_program(self._small(spec_seed))
            family.append(("hoisted", hoist_writes(base, 3, seed=spec_seed)))
        for i in range(count):
            base = random_program(self._small(seed * 64 + 32 + i))
            family.append(("injected", inject_read_cycle(base, seed=i)))
        return family

    @staticmethod
    def _small(seed: int) -> WorkloadSpec:
        """4-cell neighbour-only programs: two queues/link suit static."""
        return WorkloadSpec(cells=4, messages=4, max_span=1, seed=seed)

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.family = self._family(seed, self.PER_KIND)
        self.first_dense = None
        self.workdir = None
        warm = self._family(seed + 1_000_003, 1)
        store = WitnessStore(None)
        for _kind, program in warm:
            self._refine(program, store)
        clear_analysis_cache()

    def representative_program(self) -> ArrayProgram:
        return self.family[0][1]

    def _spec(self, program, capacities, store) -> PlanSpec:
        return PlanSpec(
            program,
            policies=self.POLICIES,
            queues=self.QUEUES,
            capacities=capacities,
            witness_store=store,
        )

    def _refine(self, program, store):
        coarse = FrontierPlanner(self._spec(program, self.COARSE, store)).run()
        dense = FrontierPlanner(self._spec(program, self.DENSE, store)).run()
        return coarse, dense

    def _check(self, kind, program, coarse, dense) -> str | None:
        if kind == "burst":
            k = program.messages["M0"].length
            want_dense = k
            want_coarse = min(c for c in self.COARSE if c >= k)
            if set(dense.frontier().values()) != {want_dense} or set(
                coarse.frontier().values()
            ) != {want_coarse}:
                return f"{program.name}: frontier {dense.frontier()} != {k}"
        if kind == "injected":
            if any(
                v is not None
                for v in chain(
                    coarse.frontier().values(), dense.frontier().values()
                )
            ):
                return f"{program.name}: deadlocked program has a frontier"
        return None

    def run_round(self, tr) -> Round:
        rnd = Round()
        clear_analysis_cache()
        shm_before = _shm_hits()
        if self.workdir is None:
            self.workdir = _workdir()
        path = os.path.join(self.workdir, "witness.json")
        if os.path.exists(path):
            os.unlink(path)
        lines = []
        counts = dict.fromkeys(ROW_COUNTS + PLANNER_COUNTS, 0)
        dense_reports = []
        start = time.perf_counter_ns()
        root = tr.open("round")
        store = WitnessStore(path)
        for p, (kind, program) in enumerate(self.family):
            t0 = time.perf_counter_ns()
            span = tr.open("op.refine")
            try:
                reports = self._refine(program, store)
                failure = self._check(kind, program, *reports)
            except Exception as exc:  # a crash is a failed operation
                reports, failure = (), f"{program.name}: {exc!r}"
            tr.close(span)
            rnd.latencies_ns.append(time.perf_counter_ns() - t0)
            dense_reports.append(reports[1] if reports else None)
            if failure:
                rnd.failures.append(failure)
            for tag, report in zip("cd", reports):
                frontier = json.dumps(report.frontier(), sort_keys=True)
                lines.append(f"{p}{tag}:{frontier}")
                for row in report.rows:
                    lines.append(f"{p}{tag}:{_row_line(row)}")
                    rnd.events += row.events
                    counts[f"sweep.rows.{row.outcome}"] += 1
                counts["planner.probes"] += report.jobs_executed
                counts["planner.grid_jobs"] += report.grid_jobs
                counts["planner.seeded_lines"] += report.witness_seeded_lines
                counts["witness.pruned"] += report.witness_pruned
                counts["witness.mined"] += report.witness_mined
        store.save()
        tr.close(root)
        rnd.wall_ns = time.perf_counter_ns() - start
        rnd.digest = _hash(lines)
        rnd.counts = {**counts, **_cache_counts(shm_before)}
        if self.first_dense is None:
            self.first_dense = dense_reports
        return rnd

    def verify(self) -> list[str]:
        """A sampled (program, line) equals the exhaustive evaluation."""
        if not self.first_dense:
            return []
        rng = random.Random(self.seed)
        p = rng.randrange(len(self.family))
        policy = rng.choice(self.POLICIES)
        queues = rng.choice(self.QUEUES)
        program = self.family[p][1]
        planned = self.first_dense[p]
        if planned is None:
            return [f"{program.name}: no planner report to compare"]
        oracle = FrontierPlanner(
            exhaustive_spec(self._spec(program, self.DENSE, None))
        ).run()
        label = f"{policy} q={queues}"
        failures = []
        if planned.frontier()[label] != oracle.frontier()[label]:
            failures.append(f"{program.name} {label}: frontier != exhaustive")
        grid = {row.index: row for row in oracle.rows}
        for row in planned.rows:
            on_line = (row.policy, row.queues) == (policy, queues)
            if on_line and row != grid[row.index]:
                failures.append(f"{program.name} {label}: row {row.index}")
        return failures


def _workdir() -> str:
    """A private scratch directory inside the checkout."""
    import tempfile

    base = os.path.join(os.getcwd(), ".bench_out")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix="work-", dir=base)


WORKLOADS = {
    "check_large": CheckLarge,
    "sweep_serial": lambda: Sweep("sweep_serial", workers=1),
    "sweep_mp": lambda: Sweep("sweep_mp", workers=2),
    "frontier_refine": FrontierRefine,
}


def crossing_backend(workload: Workload) -> str:
    return resolve_backend(workload.representative_program())
