"""Per-layer instrumentation for the traced pass of ``perfbench/run.py``.

:class:`LayerTracer` wraps the public entry points of each layer of the
library from the outside — methods on their classes, free functions at
*every* module that binds them (``from x import f`` makes a second
binding that patching ``x.f`` alone would miss) — and restores every
patch when its ``with`` block exits.  Each wrapped call is one frame on a
stack; a frame's *self time* is its duration minus the frames nested in
it, so the self times of all buckets sum to the instrumented part of an
operation.

Buckets are the layer metric groups of the benchmark.  The ``em.*``,
``storage.*``, ``crypto.*`` and ``trace.*`` buckets sit on every engine
call, so they keep only aggregated counters (constant memory); the
coarse layers (``api``, ``service``, ``core``, ``networks``,
``relational``, ``oram``) also keep full spans — name, start, end,
parent span, op id — for :meth:`LayerTracer.write_spans`.

Range slice copies (``EMArray._gather_range`` / ``_scatter_range``) have
no public boundary, so their time stays in ``em.dispatch`` self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time

#: Buckets that record full spans, not just counters.
SPAN_PREFIXES = ("api.", "service.", "core.", "networks.", "relational.", "oram.")

#: Core algorithm entry points, one ``core.<name>`` bucket each.
CORE_FUNCTIONS = (
    ("repro.core.sorting", "oblivious_sort"),
    ("repro.core.compaction", "tight_compact"),
    ("repro.core.selection", "select_em"),
    ("repro.core.block_sort", "oblivious_block_sort"),
    ("repro.core.shuffle", "shuffle_and_deal"),
    ("repro.core.failure_sweep", "failure_sweep"),
    ("repro.core.quantiles", "quantiles_em"),
)

#: Every bucket the tracer fills.
BUCKETS = (
    "em.dispatch", "em.payload", "storage.gather", "storage.scatter",
    "storage.alloc", "crypto.reencrypt", "trace.append", "trace.fingerprint",
    "networks.butterfly", *(f"core.{fn}" for _, fn in CORE_FUNCTIONS),
    "api.executor", "api.transfer", "service.admit", "service.batcher",
    "relational.join", "relational.group_by", "oram.access", "oram.merge",
)


class Bucket:
    """Aggregated counters of one bucket: calls, inclusive and self
    seconds, and a bucket-specific unit count (blocks, events, I/Os)."""

    __slots__ = ("calls", "incl", "self_s", "units")

    def __init__(self) -> None:
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0
        self.units = 0


class LayerTracer:
    """Patch the library's layer boundaries for the lifetime of a ``with``
    block; read :attr:`buckets` and :attr:`spans` afterwards."""

    def __init__(self) -> None:
        self.buckets = {name: Bucket() for name in BUCKETS}
        #: ``[name, start, end, parent span index, op id]`` per span.
        self.spans: list[list | None] = []
        #: Op id stamped on spans; the benchmark loop sets it per op.
        self.op = -1
        self._frames: list[list[float]] = []  # [seconds in nested frames]
        self._open_spans: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _timed(self, bucket: str, fn, units=None):
        """``fn`` timed into ``bucket``; ``units(args)`` adds to the
        bucket's unit count per call."""
        agg = self.buckets[bucket]
        frames = self._frames
        clock = time.perf_counter
        span = bucket.startswith(SPAN_PREFIXES)
        spans, open_spans = self.spans, self._open_spans

        def timed(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            if span:
                sid = len(spans)
                spans.append(None)
                parent = open_spans[-1] if open_spans else -1
                open_spans.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                frames.pop()
                if frames:
                    frames[-1][0] += dur
                agg.calls += 1
                agg.incl += dur
                agg.self_s += dur - frame[0]
                if units is not None:
                    agg.units += units(args)
                if span:
                    open_spans.pop()
                    spans[sid] = [bucket, t0, t1, parent, self.op]

        return timed

    def wrap(self, bucket: str, fn, units=None):
        return functools.update_wrapper(self._timed(bucket, fn, units), fn)

    def wrap_generator(self, bucket: str, fn):
        """Generator function ``fn`` timed per resume: each ``next`` /
        ``send`` / ``throw`` / ``close`` of the generator is one frame."""
        resume_timed = self._timed(bucket, lambda resume, *arg: resume(*arg))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            resume, arg = gen.send, None
            while True:
                try:
                    item = resume_timed(resume, arg)
                except StopIteration as stop:
                    return stop.value
                try:
                    arg = yield item
                    resume = gen.send
                except GeneratorExit:
                    resume_timed(gen.close)
                    raise
                except BaseException as exc:  # noqa: BLE001 - forwarded into the generator
                    resume, arg = gen.throw, exc

        return wrapper

    def _patch_attr(self, owner, name: str, new) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def _patch_method(self, cls, name: str, bucket: str, units=None) -> None:
        self._patch_attr(cls, name, self.wrap(bucket, vars(cls)[name], units))

    def _patch_function(self, module: str, name: str, bucket: str) -> None:
        """Wrap a free function at every ``repro`` module binding it."""
        fn = getattr(sys.modules[module], name)
        wrapped = self.wrap(bucket, fn)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "repro":
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch_attr(mod, attr, wrapped)

    # -- install / restore --------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        _import_library()
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _install(self) -> None:
        from repro.api.executor import Executor
        from repro.em.crypto import CiphertextVersions
        from repro.em.machine import EMMachine
        from repro.em.storage import StorageBackend
        from repro.em.trace import AccessTrace
        from repro.oram.hierarchical import HierarchicalORAM
        from repro.service.batcher import CrossSessionBatcher
        from repro.service.service import ObliviousService

        # em.machine: the I/O entry points.  io_rounds also wraps each
        # write-payload callable, so payload kernels get their own bucket.
        for name in ("read_many", "write_many", "copy_many", "swap_many", "read", "write"):
            self._patch_method(EMMachine, name, "em.dispatch")
        io_rounds = vars(EMMachine)["io_rounds"]

        def io_rounds_timing_payloads(machine, steps):
            return io_rounds(machine, [
                (s[0], s[1], s[2], self._timed("em.payload", s[3]))
                if s[0] == "w" and callable(s[3]) else s
                for s in steps
            ])

        self._patch_attr(EMMachine, "io_rounds", self.wrap(
            "em.dispatch", functools.wraps(io_rounds)(io_rounds_timing_payloads)
        ))
        for name in ("load_records", "begin_chunked_load", "load_chunk",
                     "extract_records", "repack_resident", "stage_records"):
            self._patch_method(EMMachine, name, "api.transfer")

        # em.storage: the backend protocol (range slices bypass it).
        def blocks(args):  # (backend, data, indices, ...)
            return len(args[2])

        self._patch_method(StorageBackend, "gather", "storage.gather", blocks)
        self._patch_method(StorageBackend, "scatter", "storage.scatter", blocks)
        self._patch_method(StorageBackend, "allocate", "storage.alloc")
        self._patch_method(StorageBackend, "release", "storage.alloc")

        # em.crypto and em.trace; trace units are recorded events.
        for name in ("reencrypt", "reencrypt_many", "reencrypt_range"):
            self._patch_method(CiphertextVersions, name, "crypto.reencrypt")
        self._patch_method(
            AccessTrace, "append_rows", "trace.append",
            lambda args: len(args[1]) if args[0].enabled else 0,
        )
        self._patch_method(
            AccessTrace, "record", "trace.append",
            lambda args: 1 if args[0].enabled else 0,
        )
        for name in ("record_batch", "record_events"):  # events counted in append_rows
            self._patch_method(AccessTrace, name, "trace.append")
        for name in ("fingerprint", "fingerprint_pair"):
            self._patch_method(AccessTrace, name, "trace.fingerprint")

        # Free functions: networks, core, relational.
        for name in ("butterfly_compact", "butterfly_expand"):
            self._patch_function("repro.networks.butterfly", name, "networks.butterfly")
        for module, name in CORE_FUNCTIONS:
            self._patch_function(module, name, f"core.{name}")
        self._patch_function("repro.relational.join", "equi_join_em", "relational.join")
        self._patch_function("repro.relational.groupby", "group_by_em", "relational.group_by")

        # api and service.
        self._patch_attr(Executor, "stepwise", self.wrap_generator(
            "api.executor", vars(Executor)["stepwise"]
        ))
        self._patch_method(ObliviousService, "admit", "service.admit")
        self._patch_method(CrossSessionBatcher, "run", "service.batcher")

        # oram: per-access spans; merges also count their I/Os as units.
        self._patch_method(HierarchicalORAM, "_access", "oram.access")
        merge = vars(HierarchicalORAM)["_merge_into"]
        merge_agg = self.buckets["oram.merge"]

        def merge_counting_ios(oram, *args, **kwargs):
            before = oram.machine.total_ios
            try:
                return merge(oram, *args, **kwargs)
            finally:
                merge_agg.units += oram.machine.total_ios - before

        self._patch_attr(HierarchicalORAM, "_merge_into", self.wrap(
            "oram.merge", functools.wraps(merge)(merge_counting_ios)
        ))

    # -- output -------------------------------------------------------------

    def write_spans(self, path) -> None:
        """One JSON object per recorded span, in start order."""
        with open(path, "w") as fh:
            for sid, span in enumerate(self.spans):
                if span is None:  # still open: the traced pass raised
                    continue
                name, start, end, parent, op = span
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op,
                }) + "\n")


def _import_library() -> None:
    """Import every ``repro`` module before patching, so no module binds
    a wrapper by a late ``from … import`` that restore would miss."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
