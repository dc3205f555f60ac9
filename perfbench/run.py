#!/usr/bin/env python3
"""End-to-end benchmark of the library, with an optional per-layer pass.

One closed-loop client drives one workload (see ``workloads.py``)
through the public API for ``--seconds`` and checks every output against
a plaintext reference.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics of ``BENCHMARK.json``, with
``--trace 1`` its per-layer metrics, measured by a second, traced pass
(``_layers.py``) that must reproduce the untraced pass's I/O counts,
attempts and trace fingerprints op for op.  Spans of the traced pass go
to ``.bench_out/spans-<workload>.jsonl``.

    python3 perfbench/run.py --workload sort-2k --seed 11 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --out DIR [--sets 2]   # every workload, both modes
    python3 perfbench/run.py --workload all --smoke                # tiny sizes, checks coverage

Set-up time is measured in fresh interpreters (``--setup-probe``), so it
includes importing the library.  See ``README.md`` for the workloads,
the metrics and what each layer metric should move.
"""

import os

# One single-threaded client: no parallel I/O engine, no BLAS threads.
for _var in [v for v in os.environ if v.startswith("REPRO_PARALLEL_")]:
    del os.environ[_var]
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from workloads import make_workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Fresh interpreters timed for ``setup_s`` (the median is reported).
SETUP_PROBES = 3

_ALL = ("sort-2k", "compact-select-64k", "oram-kv", "service-mixed")
_PLANS = ("sort-2k", "compact-select-64k", "service-mixed")  # the plan-running workloads
#: Layer -> (its tracer buckets, the workloads its metrics should move
#: on; README.md's layer table).  ``--smoke`` asserts each layer records
#: a call on each of them.
LAYERS = {
    "em.machine": (("em.dispatch",), _ALL),
    "em.payload": (("em.payload",), _PLANS),
    "em.storage": (("storage.",), _PLANS),
    "em.crypto": (("crypto.",), _ALL),
    "em.trace": (("trace.",), _PLANS),
    "networks": (("networks.",), _PLANS),
    "core": (("core.",), _ALL),
    "oram": (("oram.",), ("oram-kv",)),
    "api": (("api.",), _PLANS),
    "service": (("service.", "relational."), ("service-mixed",)),
}


# -- passes ---------------------------------------------------------------


def run_pass(workload, seed: int, budget: float, tracer=None):
    """Closed loop: units back to back until ``budget`` seconds have
    passed (at least one).  A unit that raises ends the pass.

    Returns the ops, the errors, and the process's peak resident set
    (MB) right after the first unit: set-up plus one unit of work, which
    unlike the peak over the whole run does not grow with how many ops
    happened to retry."""
    ops, errors, first_unit_rss = [], [], 0.0
    state = workload.setup(seed)
    try:
        start = time.perf_counter()
        unit = 0
        while True:
            if tracer is not None:
                tracer.op = unit
            try:
                ops += workload.run_unit(state, seed, unit)
            except Exception as exc:  # noqa: BLE001 - reported as a failed op
                traceback.print_exc()
                errors.append(f"{workload.name} unit {unit}: {exc!r}")
                break
            if unit == 0:
                first_unit_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            unit += 1
            if time.perf_counter() - start >= budget:
                break
    finally:
        workload.teardown(state)
    return ops, errors, first_unit_rss


def probe_setup(name: str, seed: int, smoke: bool) -> float:
    """Cold set-up seconds of ``name``, timed in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return float(proc.stdout.split()[-1])


# -- metrics --------------------------------------------------------------


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def end_to_end(ops, setup_s: float, peak_rss_mb: float) -> dict:
    lat = [o.latency for o in ops]
    return {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(lat) if lat else 0.0,
        "ops_per_s": len(lat) / sum(lat) if lat else 0.0,
        "block_ios_per_op": _mean(o.block_ios for o in ops),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(plain, traced, tracer) -> dict:
    b = tracer.buckets
    n = max(1, len(traced))
    busy = sum(o.latency for o in traced) or 1.0
    machine_ios = sum(o.machine_ios for o in traced)

    def share(name):
        return b[name].self_s / busy

    is_oram = b["oram.access"].calls > 0
    access_ios = np.array([o.block_ios for o in traced]) if is_oram and traced else np.zeros(1)
    p50 = [statistics.median(o.latency for o in ops) if ops else 0.0 for ops in (plain, traced)]
    metrics = {
        "bench.trace_overhead_frac": p50[1] / p50[0] - 1 if p50[0] else 0.0,
        "bench.op_p99_s": float(np.percentile([o.latency for o in plain], 99)) if plain else 0.0,
        "bench.traced_op_mean_s": busy / n,
        "em.calls_per_op": b["em.dispatch"].calls / n,
        "em.ios_per_call": machine_ios / max(1, b["em.dispatch"].calls),
        "em.machine_ios_per_op": machine_ios / n,
        "em.dispatch_self_share": share("em.dispatch"),
        "em.payload_share": share("em.payload"),
        "storage.gather_share": share("storage.gather"),
        "storage.scatter_share": share("storage.scatter"),
        "storage.alloc_share": share("storage.alloc"),
        "storage.fancy_blocks_per_op": (b["storage.gather"].units + b["storage.scatter"].units) / n,
        "crypto.reencrypt_share": share("crypto.reencrypt"),
        "crypto.calls_per_op": b["crypto.reencrypt"].calls / n,
        "trace.append_share": share("trace.append"),
        "trace.fingerprint_share": share("trace.fingerprint"),
        "trace.events_per_op": b["trace.append"].units / n,
        "networks.butterfly_share": share("networks.butterfly"),
        "networks.butterfly_calls_per_op": b["networks.butterfly"].calls / n,
        "core.attempts_per_op": _mean(o.attempts for o in traced),
        "core.failed_attempts_per_op": _mean(o.attempts - o.steps for o in traced),
        "core.useful_io_frac": sum(o.block_ios for o in traced) / max(1, machine_ios),
        "oram.access_ios_p50": float(np.percentile(access_ios, 50)),
        "oram.access_ios_p99": float(np.percentile(access_ios, 99)),
        "oram.access_ios_max": float(access_ios.max()),
        "oram.merges_per_op": b["oram.merge"].calls / n,
        "oram.merge_io_frac": b["oram.merge"].units / max(1, machine_ios),
        "oram.merge_share": b["oram.merge"].incl / busy,
        "api.executor_self_share": share("api.executor"),
        "api.transfer_share": share("api.transfer"),
        "api.round_trips_per_op": _mean(o.round_trips for o in traced),
        "service.admit_share": share("service.admit"),
        "service.batcher_self_share": share("service.batcher"),
        "service.batch_reduction": _mean(o.extra.get("batch_reduction", 0.0) for o in traced),
        "service.waves_per_batch": _mean(o.extra.get("waves", 0) for o in traced),
        "relational.join_share": share("relational.join"),
        "relational.group_by_share": share("relational.group_by"),
    }
    for name in b:
        if name.startswith("core."):
            metrics[f"{name}_share"] = share(name)
    return metrics


# -- one workload ---------------------------------------------------------


def measure(workload, spec: dict, args) -> dict:
    """Run the pass(es) one ``--workload`` asks for; the result object."""
    from _layers import LayerTracer

    end_to_end_run = not args.trace or args.smoke
    traced_run = args.trace or args.smoke
    setup_s = 0.0
    if end_to_end_run:
        probes = 1 if args.smoke else SETUP_PROBES
        setup_s = statistics.median(
            probe_setup(workload.name, args.seed, args.smoke) for _ in range(probes)
        )
    budget = args.seconds / 2 if traced_run else args.seconds
    plain, errors, peak_rss_mb = run_pass(workload, args.seed, budget)
    metrics = end_to_end(plain, setup_s, peak_rss_mb)
    traced, perturbed, tracer = [], 0, None
    if traced_run:
        with LayerTracer() as tracer:
            traced, traced_errors, _ = run_pass(workload, args.seed, budget, tracer)
        errors += traced_errors
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{workload.name}.jsonl")
        # The wrappers must not perturb the program: the ops both passes
        # ran must agree on I/O counts, attempts and fingerprints.
        perturbed = sum(a.check != b.check for a, b in zip(plain, traced))
        if perturbed:
            print(f"{workload.name}: {perturbed} traced op(s) diverged from the untraced pass",
                  file=sys.stderr)
        metrics.update(per_layer(plain, traced, tracer))

    wanted = []
    if end_to_end_run:
        wanted += spec["end_to_end"]
    if traced_run:
        wanted += spec["per_layer"]
    units = {m["name"]: m["unit"] for m in wanted}
    invalid = sum(not o.ok for o in plain + traced)
    result = {
        "correct": invalid == 0 and perturbed == 0,
        "attempted": len(plain) + len(traced) + len(errors),
        "failed": invalid + len(errors),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    if args.smoke:
        result["layer_calls"] = {name: bk.calls for name, bk in tracer.buckets.items()}
    for name, m in result["metrics"].items():
        print(f"  {workload.name:20s} {name:34s} {m['value']:.6g} {m['unit']}")
    return result


# -- every workload -------------------------------------------------------


def run_all(names, spec: dict, args) -> int:
    """Each workload in its own child process, one after another."""
    runs = []
    modes = ("smoke",) if args.smoke else ("0", "1")
    for s in range(args.sets):
        for name in names:
            for mode in modes:
                cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds)]
                cmd += ["--smoke"] if args.smoke else ["--trace", mode]
                print(f"[set {s}] {name} ({mode})", file=sys.stderr, flush=True)
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
                sys.stderr.write(proc.stderr)
                if proc.returncode != 0:
                    print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
                    return 1
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                runs.append({"set": s, "workload": name, "trace": mode, "seed": args.seed,
                             "seconds": args.seconds, "result": result})
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "e2e.json").write_text(json.dumps({
            "meta": {
                "cpu_count": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": np.__version__,
                "machine": platform.machine(),
            },
            "runs": runs,
        }, indent=1) + "\n")
    problems = [
        f"{r['workload']}: correct={r['result']['correct']} failed={r['result']['failed']}"
        for r in runs if not r["result"]["correct"] or r["result"]["failed"]
    ]
    if args.smoke:
        problems += smoke_problems(runs, spec)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


def smoke_problems(runs, spec: dict) -> list[str]:
    """Every metric emitted for every workload, and every layer entered
    on every workload its metrics should move."""
    problems = []
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for run in runs:
        workload, result = run["workload"], run["result"]
        missing = [n for n in names if n not in result["metrics"]]
        if missing:
            problems.append(f"{workload}: metrics not emitted: {missing}")
        for layer, (prefixes, moved_on) in LAYERS.items():
            calls = sum(c for b, c in result["layer_calls"].items() if b.startswith(prefixes))
            if workload in moved_on and not calls:
                problems.append(f"{workload}: layer {layer} recorded no call")
    return problems


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, both passes, one unit each; with 'all', check coverage")
    parser.add_argument("--sets", type=int, default=1, help="with 'all': repetitions")
    parser.add_argument("--out", type=Path, help="with 'all': write DIR/e2e.json")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = 0.0

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workloads = make_workloads(args.smoke)
    if args.workload == "all":
        return run_all(list(workloads), spec, args)
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads)} or 'all'")
    workload = workloads[args.workload]
    if args.setup_probe:
        t0 = time.perf_counter()
        state = workload.setup(args.seed)
        elapsed = time.perf_counter() - t0
        workload.teardown(state)
        print(elapsed)
        return 0
    print(json.dumps(measure(workload, spec, args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
