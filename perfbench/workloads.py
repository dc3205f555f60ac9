"""The four closed-loop workloads of ``perfbench/run.py``.

A workload turns ``(seed, unit index)`` into inputs, drives them through
the library's public API, and checks every output against a plaintext
reference.  One *unit* is what the closed loop issues between deadline
checks: one op for ``sort``, ``compact-select`` and ``service-mixed``,
and one full rebuild period of accesses for ``oram-kv`` (the access
schedule repeats with that period, so every measured unit does the same
work and per-access averages are exact).

Inputs and session seeds come from ``SeedSequence(entropy=seed,
spawn_key=(workload id, unit index))``; the library sees only the
generated arrays.  :meth:`Workload.setup` imports the library itself, so
a fresh interpreter timing it measures the whole cold set-up.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field

import numpy as np

#: Machine shape of every workload.
M, B = 128, 4
#: Las Vegas budget per step.  At one failed attempt in four or five, the
#: library default of 5 would exhaust about once in 3,000 steps; 10 makes
#: an exhausted (failed) op negligible.
MAX_ATTEMPTS = 10


@dataclass
class Op:
    """One measured operation and what it cost."""

    latency: float
    block_ios: int  # successful attempts only: the paper's cost
    machine_ios: int  # every attempt: what the server served
    attempts: int = 1
    steps: int = 1
    round_trips: int = 0
    ok: bool = True  # output matched the plaintext reference
    #: What a traced rerun of the same op must reproduce exactly.
    check: tuple = ()
    extra: dict = field(default_factory=dict)


def unit_rng(seed: int, workload: str, unit: int) -> np.random.Generator:
    key = zlib.crc32(workload.encode())
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(key, unit)))


def _records(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` records with distinct keys (so sorted order is unique)."""
    return np.stack([rng.permutation(n), rng.integers(0, 2**31, n)], axis=1).astype(np.int64)


def _session_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**62))


def _config():
    from repro.api import EMConfig

    return EMConfig(M=M, B=B)


def _retry():
    from repro.api import RetryPolicy

    return RetryPolicy(max_attempts=MAX_ATTEMPTS)


class Workload:
    #: Names and the reasons for each workload live in BENCHMARK.json.
    name = ""

    def setup(self, seed: int):
        """Program-side construction before the first op."""
        return _config()

    def run_unit(self, state, seed: int, unit: int) -> list[Op]:
        raise NotImplementedError

    def teardown(self, state) -> None:
        pass


class Sort(Workload):
    name = "sort-2k"

    def __init__(self, smoke: bool) -> None:
        self.n = 512 if smoke else 2048

    def run_unit(self, state, seed, unit):
        from repro.api import ObliviousSession

        rng = unit_rng(seed, self.name, unit)
        records = _records(rng, self.n)
        t0 = time.perf_counter()
        with ObliviousSession(state, seed=_session_seed(rng), retry=_retry()) as session:
            result = session.sort(records)
            machine = session.machine
            machine_ios = machine.total_ios
            round_trips = machine.client_loads + machine.client_extracts
        latency = time.perf_counter() - t0
        expected = records[np.argsort(records[:, 0])]
        cost = result.cost
        return [Op(
            latency, cost.total, machine_ios, cost.attempts, 1, round_trips,
            ok=np.array_equal(result.records, expected),
            check=(cost.total, cost.attempts, cost.trace_fingerprint),
        )]


class CompactSelect(Workload):
    name = "compact-select-64k"

    def __init__(self, smoke: bool) -> None:
        self.cells = 4096 if smoke else 65536

    def run_unit(self, state, seed, unit):
        from repro.api import NULL_KEY, ObliviousSession

        rng = unit_rng(seed, self.name, unit)
        # Exactly a third of the cells occupied, so the public n (and with
        # it every I/O count) is the same for every op.
        occupied = self.cells // 3
        records = _records(rng, occupied)
        layout = np.zeros((self.cells, 2), dtype=np.int64)
        layout[:, 0] = NULL_KEY
        layout[rng.choice(self.cells, occupied, replace=False)] = records
        k = (occupied + 1) // 2
        t0 = time.perf_counter()
        with ObliviousSession(state, seed=_session_seed(rng), retry=_retry()) as session:
            result = session.dataset(layout).compact().select(k=k).run()
            machine_ios = session.machine.total_ios
        latency = time.perf_counter() - t0
        expected = records[np.argsort(records[:, 0])[k - 1]]
        total = result.total
        return [Op(
            latency, total.total, machine_ios, total.attempts, len(result.steps),
            result.loads + result.extracts,
            ok=tuple(result.value) == (int(expected[0]), int(expected[1])),
            check=(total.total, total.attempts, *(s.cost.trace_fingerprint for s in result.steps)),
        )]


def _bump(block: np.ndarray) -> np.ndarray:
    """The ``update`` op: add one to every value of the block."""
    out = block.copy()
    out[:, 1] += 1
    return out


class OramKV(Workload):
    name = "oram-kv"

    def __init__(self, smoke: bool) -> None:
        self.cells = 64 if smoke else 1024

    def setup(self, seed):
        from repro.em import EMMachine
        from repro.em.batch import empty_blocks
        from repro.oram import make_oram

        machine = EMMachine(M, B, trace=False)
        oram = make_oram("hierarchical", machine, self.cells, unit_rng(seed, f"{self.name}.build", 0))
        return machine, oram, empty_blocks(self.cells, B).copy()

    def run_unit(self, state, seed, unit):
        machine, oram, model = state
        # One period: the buffer spills every s0 accesses and the
        # 2**L-th spill rebuilds the bottom level, restoring the start state.
        period = oram.s0 << oram.L
        rng = unit_rng(seed, self.name, unit)
        kinds = rng.integers(0, 3, period)
        cells = rng.integers(0, self.cells, period)
        payloads = rng.integers(0, 2**31, (period, B, 2))
        clock = time.perf_counter
        ops = []
        for kind, i, payload in zip(kinds.tolist(), cells.tolist(), payloads):
            before = machine.total_ios
            t0 = clock()
            if kind == 0:
                got = oram.read(i)
            elif kind == 1:
                got = oram.write(i, payload)
            else:
                got = oram.update(i, _bump)
            latency = clock() - t0
            ios = machine.total_ios - before
            ok = np.array_equal(got, model[i])
            if kind == 1:
                model[i] = payload
            elif kind == 2:
                model[i] = _bump(model[i])
            ops.append(Op(latency, ios, ios, ok=ok, check=(ios, got.tobytes())))
        return ops

    def teardown(self, state):
        state[1].free()


def _ref_query(left: np.ndarray, right: np.ndarray, lo: int, hi: int, fanout: int) -> list:
    """Plaintext mask → join → group_by(sum): left rows with key in
    ``[lo, hi]`` meet the first ``fanout`` right rows of their key, the
    matched values are summed, then summed per key."""
    matches: dict[int, list[int]] = {}
    for k, v in right.tolist():
        matches.setdefault(k, []).append(v)
    groups: dict[int, int] = {}
    for k, v in left.tolist():
        if lo <= k <= hi:
            for rv in matches.get(k, [])[:fanout]:
                groups[k] = groups.get(k, 0) + v + rv
    return sorted(groups.items())


class ServiceMixed(Workload):
    name = "service-mixed"

    #: Key window of the mask, join fanout, and key range of the relations.
    MASK = (8, 55)
    FANOUT = 2
    KEYS = 64

    def __init__(self, smoke: bool) -> None:
        self.sort_n, self.rel_n, self.chunks = (256, 64, 4) if smoke else (2048, 256, 8)

    def setup(self, seed):
        from repro.service import ObliviousService, ServiceLimits

        return ObliviousService(_config(), limits=ServiceLimits(max_concurrent_plans=4), seed=seed)

    def _chunks(self, records: np.ndarray) -> list[np.ndarray]:
        size = len(records) // self.chunks
        return [records[i:i + size] for i in range(0, len(records), size)]

    def _relation(self, rng: np.random.Generator) -> np.ndarray:
        return np.stack([rng.integers(0, self.KEYS, self.rel_n), rng.integers(0, 1000, self.rel_n)], 1)

    def run_unit(self, service, seed, unit):
        rng = unit_rng(seed, self.name, unit)
        sorts = [_records(rng, self.sort_n) for _ in range(2)]
        queries = [(self._relation(rng), self._relation(rng)) for _ in range(2)]
        seeds = [_session_seed(rng) for _ in range(4)]
        lo, hi = self.MASK
        t0 = time.perf_counter()
        sessions = [
            service.session(f"tenant-{t}", seed=s, retry=_retry()) for t, s in enumerate(seeds)
        ]
        datasets = [
            session.stream(self._chunks(records)).shuffle().sort()
            for session, records in zip(sessions, sorts)
        ] + [
            session.stream(self._chunks(left)).apply("mask", lo=lo, hi=hi)
            .join(session.dataset(right), fanout=self.FANOUT).group_by("sum")
            for session, (left, right) in zip(sessions[2:], queries)
        ]
        results, report = service.run_batch(
            (f"plan-{t}", f"tenant-{t}", ds.plan()) for t, ds in enumerate(datasets)
        )
        machines = [session.machine for session in sessions]
        service.evict_idle(timeout=0.0)
        latency = time.perf_counter() - t0
        plans = [results[f"plan-{t}"] for t in range(4)]
        ok = all(
            np.array_equal(plan.records, records[np.argsort(records[:, 0])])
            for plan, records in zip(plans, sorts)
        ) and all(
            sorted(map(tuple, plan.records.tolist())) == _ref_query(left, right, lo, hi, self.FANOUT)
            for plan, (left, right) in zip(plans[2:], queries)
        )
        return [Op(
            latency,
            sum(p.total.total for p in plans),
            sum(m.total_ios for m in machines),
            sum(p.total.attempts for p in plans),
            sum(len(p.steps) for p in plans),
            sum(m.client_loads + m.client_extracts for m in machines),
            ok=ok,
            check=tuple(
                (p.total.total, p.total.attempts, *(s.cost.trace_fingerprint for s in p.steps))
                for p in plans
            ),
            extra={"batch_reduction": report.reduction, "waves": report.waves},
        )]

    def teardown(self, service):
        service.close()


def make_workloads(smoke: bool) -> dict[str, Workload]:
    workloads = (Sort(smoke), CompactSelect(smoke), OramKV(smoke), ServiceMixed(smoke))
    return {w.name: w for w in workloads}
