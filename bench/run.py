"""kframekit benchmark: three workloads, factorization-counted, layer-traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S
    python3 bench/run.py --write-spec

One process, one client, one op in flight (a closed loop); BLAS is pinned
to one thread before numpy is imported. The program is imported from
``src/`` next to this directory, never from an installed copy.

``--trace 0`` measures the end-to-end metrics with nothing patched: set-up
is ``import kframekit`` plus one warm-up op, repeated in fresh imports and
reported as the median; factorizations are counted in a separate untimed
pass. ``setup_s`` and ``ops_per_s`` are scaled to a reference host speed,
measured in the same run by ``probes.HostSpeed`` between ops; the raw
figures and the scale are printed too. ``--trace 1`` alternates an untraced and a traced op on the same
input, reports the per-layer metrics of the traced ops and the overhead of
tracing, checks that both ops agree, and writes the spans to ``.bench_out``.
Every op's output is checked against plain-numpy references outside the
timed region. ``--workload all`` runs each workload untraced and traced, and
``--write-spec`` regenerates ``BENCHMARK.json`` from the tables below.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; lines before it
record the environment, every metric with its unit and sample count, and
the failures seen.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
LAYER_MODULES = ("linalg", "frames", "duality", "multipliers", "io", "cli")

RUN_SECONDS = 30
WORKLOAD_WHY = {
    "pipeline-n256": (
        "n=256, N=384, rank 128: five calls share one (F, K) at the top of the "
        "supported size, LAPACK-bound; factor-once and caching show here"
    ),
    "cli-n64": (
        "n=64, N=96, rank 32: all nine CLI commands round-robin, the only io and cli "
        "load; perturb-check fails today (bool not JSON serializable), 1 op in 9"
    ),
    "multipliers-n16": (
        "n=16, N=24, rank 8: every multipliers function chained, ~420 small "
        "factorizations per op, so per-call Python overhead shows"
    ),
}
# name: (unit, better, bound). Op latency percentiles are printed, not gated:
# they are raw times, and on a shared host their run-to-run spread comes
# near the 0.25 cap; the gated times are scaled by the host-speed probe.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.25),
    "ok_share": ("share", "higher", 0.05),
    "factorizations_per_op": ("count", "lower", 0.1),
    "factor_work_per_op": ("mnk-computed", "lower", 0.1),
    "peak_rss_mb": ("MB", "lower", 0.1),
}
KIND_UNITS = ("svd", "svd_norm", "eigh", "eigvalsh")
PER_LAYER = {}
for _layer in LAYER_MODULES:
    PER_LAYER[f"{_layer}.calls"] = ("count", "lower")
    PER_LAYER[f"{_layer}.self_ms"] = ("ms", "lower")
    for _kind in KIND_UNITS:
        PER_LAYER[f"{_layer}.{_kind}"] = ("count", "lower")
    PER_LAYER[f"{_layer}.lapack_ms"] = ("ms", "lower")
    PER_LAYER[f"{_layer}.errors"] = ("count", "lower")
PER_LAYER.update({
    "linalg.repeat_factor_share": ("share", "lower"),
    "io.bytes_in": ("B", "lower"),
    "io.bytes_out": ("B", "lower"),
    "io.mb_per_s": ("MB/s", "higher"),
    "trace.ops_per_s": ("1/s", "higher"),
    "trace.untraced_ops_per_s": ("1/s", "higher"),
    "trace.overhead_share": ("share", "lower"),
})


def spec() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOAD_WHY.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, (u, b, bound) in END_TO_END.items()],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, (u, b) in PER_LAYER.items()],
    }


def fresh_import():
    """Import kframekit and its layer modules from scratch; returns the package."""
    for name in [m for m in sys.modules if m == "kframekit" or m.startswith("kframekit.")]:
        del sys.modules[name]
    kf = importlib.import_module("kframekit")
    for layer in LAYER_MODULES:
        importlib.import_module(f"kframekit.{layer}")
    if Path(kf.__file__).resolve().parent != (SRC / "kframekit").resolve():
        raise SystemExit(f"imported kframekit from {kf.__file__}, not from {SRC}")
    return kf


def describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"[:200]


class Tally:
    """Attempted / failed / wrong op counts and the distinct failure messages."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.messages: dict[str, int] = {}

    def add(self, wl, key, out, exc):
        self.attempted += 1
        if exc is not None:
            problems = [describe(exc)]
        else:
            problems = wl.check(key, out)
            self.wrong += bool(problems)
        if problems:
            self.failed += 1
            for p in problems:
                msg = f"{key}: {p}"
                self.messages[msg] = self.messages.get(msg, 0) + 1
        return not problems


def run_op(wl, kf, key):
    t0 = perf_counter()
    try:
        out, exc = wl.run(kf, key), None
    except Exception as e:  # a failed op is counted, not fatal
        out, exc = None, e
    return perf_counter() - t0, out, exc


def self_test(kf, probes) -> list[str]:
    """svd_decompose makes exactly one svd; spectral_norm exactly one norm-svd."""
    import numpy as np

    m = np.arange(20, dtype=complex).reshape(5, 4) + 1j
    counter = probes.FactorCounter()
    problems = []
    for fn, kind in ((kf.svd_decompose, "svd"), (kf.linalg.spectral_norm, "svd_norm")):
        counter.reset()
        counter.patches.install()
        try:
            fn(m)
        finally:
            counter.patches.uninstall()
        if counter.counts != {(probes.OUTSIDE, kind): 1}:
            problems.append(f"self-test: {fn.__name__} counted {counter.counts}, "
                            f"expected one {kind}")
    return problems


def count_pass(wl, kf, probes, tally):
    """One untimed op per input with counters on: (count, work, repeats) per key."""
    counter = probes.FactorCounter(hash_inputs=True)
    per_key = {}
    for key in wl.keys:
        counter.reset()
        counter.patches.install()
        try:
            _, out, exc = run_op(wl, kf, key)
        finally:
            counter.patches.uninstall()
        if exc is None and wl.check(key, out):
            tally.wrong += 1
            tally.messages[f"{key}: wrong output in the counting pass"] = 1
        per_key[key] = (counter.total(), counter.work, counter.repeats)
    return per_key


def keys_for(wl, seconds):
    """Op keys in round-robin order until ``seconds`` pass (whole cycles if asked)."""
    deadline = perf_counter() + seconds
    i = 0
    cycle = len(wl.keys) if wl.whole_cycles else 1
    while i % cycle or perf_counter() < deadline:
        yield wl.keys[i % len(wl.keys)]
        i += 1


def percentile_line(name, samples, q):
    ordered = sorted(samples)
    value = statistics.quantiles(ordered, n=100, method="inclusive")[q - 1] if len(ordered) > 1 \
        else ordered[0]
    beyond = sum(1 for s in ordered if s > value)
    if beyond < 10:
        return f"{name}: not reported, {beyond} of {len(ordered)} samples beyond it (needs 10)"
    return f"{name}: {value * 1e3:.4f} ms ({len(ordered)} samples, {beyond} beyond)"


def measure_untraced(wl, probes, seconds, tally, lines):
    host = probes.HostSpeed(wl.lapack_bound)
    setup = []
    for _ in range(wl.setup_repeats):
        t0 = perf_counter()
        kf = fresh_import()
        run_op(wl, kf, wl.keys[0])  # a failing op is counted in the timed loop
        setup.append(perf_counter() - t0)
        host.sample()
    problems = self_test(kf, probes)
    counts = count_pass(wl, kf, probes, tally)

    times, ok = [], 0
    for key in keys_for(wl, seconds):
        dt, out, exc = run_op(wl, kf, key)
        times.append(dt)
        ok += tally.add(wl, key, out, exc)
        host.maybe_sample()

    n_keys = len(wl.keys)
    scale = host.scale()
    metrics = {
        "setup_s": statistics.median(setup) * scale,
        "ops_per_s": ok / sum(times) / scale,
        "ok_share": ok / len(times),
        "factorizations_per_op": sum(c[0] for c in counts.values()) / n_keys,
        "factor_work_per_op": sum(c[1] for c in counts.values()) / n_keys,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    total = sum(c[0] for c in counts.values())
    lines.append(f"samples: {len(times)} ops, {len(setup)} set-ups, "
                 f"{n_keys} counted ops, {len(host.samples)} host-speed probes")
    lines.append(f"host speed: probe median {host.ref_s / scale * 1e3:.3f} ms vs reference "
                 f"{host.ref_s * 1e3:.0f} ms, scale {scale:.4f}; raw setup_s "
                 f"{statistics.median(setup):.6f} s, raw ops_per_s {ok / sum(times):.6f} 1/s")
    lines.append(percentile_line("op_p50_ms", times, 50))
    lines.append(percentile_line("op_p90_ms", times, 90))
    lines.append(f"op_mean_ms: {sum(times) / len(times) * 1e3:.4f} ms, "
                 f"op_min_ms: {min(times) * 1e3:.4f} ms")
    lines.append(f"fail_share: {1 - metrics['ok_share']:.6f} "
                 f"({len(times) - ok} of {len(times)} ops)")
    lines.append(f"repeat_factor_share: {sum(c[2] for c in counts.values()) / max(total, 1):.4f}")
    return metrics, problems


def measure_traced(wl, probes, seconds, tally, lines, spans_path):
    kf = fresh_import()
    run_op(wl, kf, wl.keys[0])
    problems = self_test(kf, probes)
    counts = count_pass(wl, kf, probes, tally)
    tracer = probes.Tracer(kf, probes.FactorCounter())
    untraced_s = traced_s = 0.0
    n_traced = bytes_out = 0
    mismatches: dict[str, int] = {}

    def mismatch(msg):
        mismatches[msg] = mismatches.get(msg, 0) + 1

    for key in keys_for(wl, seconds):
        dt, plain, exc = run_op(wl, kf, key)
        untraced_s += dt
        tally.add(wl, key, plain, exc)

        before = tracer.counter.total()
        tracer.install(n_traced)
        try:
            dt, out, exc_t = run_op(wl, kf, key)
        finally:
            tracer.uninstall()
        traced_s += dt
        n_traced += 1
        tally.add(wl, key, out, exc_t)
        bytes_out += len(out.stdout.encode()) if hasattr(out, "stdout") else 0
        if tracer.counter.total() - before != counts[key][0]:
            mismatch(f"{key}: traced factorizations differ from the untraced count")
        if (exc is None) != (exc_t is None) or (exc is None and not wl.same(plain, out)):
            mismatch(f"{key}: traced output differs from the untraced output")
    if any(layer == probes.OUTSIDE for layer, _ in tracer.counter.counts):
        mismatch("factorizations made outside every layer span")
    for msg, n in mismatches.items():
        problems.append(f"{msg} ({n} ops)")

    calls, self_s, io_s = tracer.layer_times()
    metrics = {}
    for i, layer in enumerate(probes.LAYERS):
        metrics[f"{layer}.calls"] = calls[i] / n_traced
        metrics[f"{layer}.self_ms"] = self_s[i] * 1e3 / n_traced
        for kind in probes.KINDS:
            metrics[f"{layer}.{kind}"] = tracer.counter.counts.get((layer, kind), 0) / n_traced
        metrics[f"{layer}.lapack_ms"] = tracer.counter.lapack_s.get(layer, 0.0) * 1e3 / n_traced
        metrics[f"{layer}.errors"] = tracer.errors[layer] / n_traced
    total = sum(c[0] for c in counts.values())
    metrics["linalg.repeat_factor_share"] = sum(c[2] for c in counts.values()) / max(total, 1)
    metrics["io.bytes_in"] = tracer.bytes_in / n_traced
    metrics["io.bytes_out"] = bytes_out / n_traced
    metrics["io.mb_per_s"] = tracer.bytes_in / io_s / 1e6 if io_s > 0 else 0.0
    metrics["trace.ops_per_s"] = n_traced / traced_s
    metrics["trace.untraced_ops_per_s"] = n_traced / untraced_s
    metrics["trace.overhead_share"] = traced_s / untraced_s - 1.0
    tracer.save(spans_path)
    lines.append(f"samples: {n_traced} traced ops, {n_traced} untraced ops, "
                 f"{len(tracer.start)} spans written to {spans_path.relative_to(ROOT)}")
    return metrics, problems


def environment(np, args, wl):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "numpy": np.__version__,
        "blas": blas,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_all(args) -> int:
    """Every workload untraced then traced, each in its own process."""
    ok, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_WHY:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            print(f"== {name} trace={trace} exit={proc.returncode}")
            for line in lines[:-1]:
                print(f"   {line}")
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, value in result["metrics"].items():
                metrics[f"{name}.{metric}"] = value
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOAD_WHY, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from this file's tables and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "kframekit" / "__init__.py").is_file():
        print(f"kframekit sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    os.environ.update(BLAS_ENV)  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    import numpy as np

    import probes
    import workloads

    OUT.mkdir(exist_ok=True)
    tally = Tally()
    lines: list[str] = []
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        lines.append("env: " + json.dumps(environment(np, args, wl), sort_keys=True))
        if args.trace:
            spans = OUT / f"spans-{wl.name}-seed{args.seed}.npz"
            metrics, problems = measure_traced(wl, probes, args.seconds, tally, lines, spans)
            units = {n: u for n, (u, _) in PER_LAYER.items()}
        else:
            metrics, problems = measure_untraced(wl, probes, args.seconds, tally, lines)
            units = {n: u for n, (u, _, _) in END_TO_END.items()}
    for name, value in metrics.items():
        lines.append(f"{name}: {float(value)!r} {units[name]}")
    for msg, n in tally.messages.items():
        lines.append(f"failed: {msg} ({n} ops)")
    for msg in problems:
        lines.append(f"check: {msg}")
    print("\n".join(lines))
    result = {
        "correct": not problems and tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": float(v), "unit": units[n]} for n, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
