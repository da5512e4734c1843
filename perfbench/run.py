#!/usr/bin/env python3
"""Benchmark for upband: end-to-end metrics, or per-layer metrics from a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload upsample_long --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload runs in its own process with one caller (closed loop) and
BLAS threads capped at the CPUs this process may use. ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` alternates untraced and traced
sections (one set-up plus one unit of work each) and prints per-layer
metrics averaged per traced section, plus the tracing overhead. The last
line of stdout is one JSON object; the run environment, raw samples and
spans go to ``.bench_out/``. See perfbench/README.md for what each metric
should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("upsample_long", "upsample_clips", "train_desk")
SETUP_REPEATS = 7
clock = time.perf_counter

SELF_S = ("tensor.backward", "tensor.matmul", "tensor.linear", "tensor.softmax",
          "tensor.layer_norm", "tensor.gelu", "tensor.conv1d_grouped",
          "model.generator_forward", "model.discriminator_forward", "model.spectral_normalize",
          "training.train_step", "training.adam_step", "training.sample_batch",
          "training.save_checkpoint", "training.load_checkpoint",
          "dsp.sinc_upsample", "dsp.downsample", "dsp.stft", "dsp.istft", "dsp.reconstruct_full",
          "pipeline.upsample_buffer", "metrics.lsd", "metrics.snr",
          "data.read_wav", "data.write_wav", "data.make_pair", "data.load_examples",
          "checkpoint.save_tensors", "checkpoint.load_tensors")
CALLS = ("tensor.backward", "model.generator_forward", "model.discriminator_forward",
         "model.spectral_normalize", "pipeline.upsample_buffer", "training.train_step")
COUNTS = {"tensor.backward.tape_nodes": "count", "model.generator_forward.attn_elems": "count",
          "checkpoint.save_tensors.bytes": "bytes"}

# the name an end-to-end metric goes by on one workload
LABELS = {
    "upsample_long": {"rtf": "upsample_rtf"},
    "upsample_clips": {"latency_ms_p50": "clip_latency_ms_p50",
                       "latency_ms_p90": "clip_latency_ms_p90"},
    "train_desk": {"latency_ms_p50": "train_step_ms_p50", "latency_ms_p90": "train_step_ms_p90",
                   "lsd": "heldout_lsd"},
}


def limit_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at the usable CPU count; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))
    return nproc


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    import ctypes
    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(args, nproc: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": nproc, "cpu": cpu,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "python": platform.python_version(), "platform": platform.platform()}


def percentile(values, q: float) -> float:
    import numpy
    return float(numpy.percentile(values, q))


def timed(fn) -> float:
    t0 = clock()
    fn()
    return clock() - t0


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_e2e(wl, seconds: float):
    """Set up several times, warm up, then run whole units of work until ``seconds``."""
    wl.setup()  # the first set-ups run slower (allocator growth, cold file cache)
    setup_s = [timed(wl.setup) for _ in range(SETUP_REPEATS)]
    wl.unit()  # warm-up: the first unit runs slower (allocator growth, cold caches)
    units = []
    t0 = clock()
    while not units or clock() - t0 < seconds:
        units.append(wl.unit())
    lat = [x for u in units for x in u.latencies_s]
    attempted = sum(u.attempted for u in units)
    rejected = sum(u.rejected for u in units)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mib(), "MiB"),
        "latency_ms_p50": (1000.0 * percentile(lat, 50), "ms"),
        "latency_ms_p90": (1000.0 * percentile(lat, 90), "ms"),
        "rtf": (statistics.median(sum(u.latencies_s) / u.audio_s for u in units), "s/s"),
        "lsd": (statistics.median(u.lsd for u in units), "log10"),
        "ok_ratio": ((attempted - rejected) / attempted, "ratio"),
    }
    samples = {"setup_s": setup_s, "latency_s": lat, "units": len(units),
               "attempted": attempted, "rejected": rejected,
               "short_outputs": sum(u.short_outputs for u in units),
               "missing_samples": sum(u.missing_samples for u in units)}
    return attempted, metrics, samples, {}


def run_traced(wl, seconds: float, tr):
    """Alternate untraced and traced sections (set-up plus one unit) until ``seconds``."""
    import tracer
    wl.setup()
    wl.unit()  # warm-up
    walls = {False: [], True: []}
    section_calls = []
    attempted = missing = 0
    t0 = clock()
    traced = False
    while not (walls[True] and walls[False] and clock() - t0 >= seconds):
        first = len(tr.spans)
        tr.enabled = traced
        s0 = clock()
        wl.setup()
        unit = wl.unit()
        walls[traced].append(clock() - s0)
        attempted += unit.attempted
        missing += unit.missing_samples if traced else 0
        tr.enabled = False
        if traced:
            calls: dict[str, int] = {}
            for span in tr.spans[first:]:
                calls[span[0]] = calls.get(span[0], 0) + 1
            section_calls.append(calls)
        traced = not traced
    if any(calls != section_calls[0] for calls in section_calls):
        raise RuntimeError("traced sections of identical work made different calls")
    summary = tracer.summarize(tr.spans)
    for name in wl.expected:
        fired = tr.site_calls.get(name, 0) if ":" in name else summary.get(name, {}).get("calls", 0)
        if not fired:
            raise RuntimeError(f"wrapper for {name} never fired: a binding was missed")

    n = len(walls[True])
    untraced = statistics.mean(walls[False])
    overhead = statistics.mean(walls[True]) - untraced
    d_phase, g_phase = tracer.train_phases(tr.spans)
    metrics = {}
    for name in SELF_S:
        metrics[f"{name}.self_s"] = (summary.get(name, {}).get("self_s", 0.0) / n, "s")
    for name in CALLS:
        metrics[f"{name}.calls"] = (summary.get(name, {}).get("calls", 0) / n, "count")
    for name, unit in COUNTS.items():
        metrics[name] = (tr.counts.get(name, 0) / n, unit)
    metrics["pipeline.upsample_buffer.missing_samples"] = (missing / n, "count")
    steps = summary.get("training.train_step", {}).get("calls", 0)
    metrics["model.generator_forward.calls_per_step"] = (
        tracer.calls_under(tr.spans, "model.generator_forward", "training.train_step") / steps
        if steps else 0.0, "count")
    metrics["training.d_phase_s"] = (d_phase / n, "s")
    metrics["training.g_phase_s"] = (g_phase / n, "s")
    metrics["trace.untraced_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_pct"] = (100.0 * overhead / untraced, "%")
    samples = {"untraced_s": walls[False], "traced_s": walls[True], "summary": summary,
               "site_calls": dict(tr.site_calls)}
    return attempted, metrics, samples, {"spans": tr.spans}


def run_all(args) -> int:
    """Run every workload, each in its own process, and print all their metrics."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 0, "failed": 1, "metrics": {}}
        merged["correct"] = merged["correct"] and result["correct"] and proc.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "upband" / "__init__.py").is_file():
        print(f"perfbench: upband sources not found under {SRC}", file=sys.stderr)
        return 2
    nproc = limit_blas_threads()
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    import tracer
    import upband
    if not Path(upband.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported upband from {upband.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = environment(args, nproc)
    print("env " + json.dumps(env), flush=True)
    tr = tracer.Tracer()
    if args.trace:
        tr.install()  # before any workload wraps a function of its own
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    attempted, metrics, samples, extra = 0, {}, {}, {}
    wl = None
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            attempted, metrics, samples, extra = run_traced(wl, args.seconds, tr)
        else:
            attempted, metrics, samples, extra = run_e2e(wl, args.seconds)
        correct = True
    except Exception:
        traceback.print_exc()
        correct = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    labels = LABELS[args.workload]
    for name, (value, unit) in metrics.items():
        label = f" ({labels[name]})" if name in labels else ""
        print(f"{name}{label} = {value:.6g} {unit}")
    if args.workload == "upsample_clips" and "rtf" in metrics:
        print(f"clip_audio_s_per_s = {1.0 / metrics['rtf'][0]:.6g} s/s")
        print(f"clip_fail_ratio = {1.0 - metrics['ok_ratio'][0]:.6g} ratio")
    if "latency_s" in samples:
        print(f"latency samples: {len(samples['latency_s'])}, units: {samples['units']}")
    if "short_outputs" in samples and args.workload != "train_desk":
        print(f"outputs short of twice the input: {samples['short_outputs']} "
              f"({samples['missing_samples']} samples missing in total)")
    digest = getattr(wl, "digest", None)
    if digest:
        print(f"output digest: {digest}")
    result = {"correct": correct, "attempted": max(attempted, 1), "failed": 0 if correct else 1,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"env": env, "result": result, "digest": digest, "samples": samples}, indent=1))
    if extra:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(extra))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
