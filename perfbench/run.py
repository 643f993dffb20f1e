"""Benchmark for fbmcss: one workload per process, metrics as JSON.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload desk_curve --seed 1 --seconds 15 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 wraps the package's
public entry points with spans and prints the per-layer metrics.  The
last line of standard output is {"correct", "attempted", "failed",
"metrics"}; the line before it is the run record (machine, versions,
seed, checks).  See perfbench/README.md for what each number means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NPROC = len(os.sched_getaffinity(0))


def _cap_blas_threads() -> int:
    """Cap BLAS and OpenMP threads at the usable cores; must precede numpy."""
    cap = NPROC
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if current.isdigit() and 0 < int(current) < cap:
            cap = int(current)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(cap)
    return cap


BLAS_THREADS = _cap_blas_threads()
sys.path.insert(0, os.path.join(ROOT, "src"))

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "signal_trials_per_s": "1/s",
    "noise_windows_per_s": "1/s",
    "stream_msps": "Msample/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "waveform.synthesize_pulse_s": "s",
    "waveform.synthesize_pulse_calls": "count",
    "waveform.generate_preamble_s": "s",
    "waveform.composite_pulse_s": "s",
    "waveform.peak_alloc_mb": "MB",
    "numerics.ncx2_tail_calls": "count",
    "numerics.ncx2_tail_s": "s",
    "channel.apply_channel_s": "s",
    "channel.assemble_stream_s": "s",
    "channel.effective_taps_s": "s",
    "channelizer.detectors_built": "count",
    "channelizer.detector_init_s": "s",
    "channelizer.push_calls": "count",
    "channelizer.samples_in": "count",
    "channelizer.windows_out": "count",
    "channelizer.afb_s": "s",
    "channelizer.mf_s": "s",
    "channelizer.whiten_synth_s": "s",
    "channelizer.window_yield": "ratio",
    "harness.run_point_s": "s",
    "harness.false_alarm_s": "s",
    "harness.self_s": "s",
    "iqio.read_s": "s",
    "push_p50_us": "us",
    "push_p99_us": "us",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


def _targets(full: bool):
    """Entry points to wrap, looked up where their callers find them."""
    import numpy as np

    from fbmcss import channelizer, detector, harness, iqio, waveform
    from fbmcss.channelizer import CascadeDetector
    from tracing import Target

    def push_counts(args, result):
        chunk = args[1]
        anchors, stats = result
        return {
            "samples": len(getattr(chunk, "samples", chunk)),
            "windows": int(anchors.size),
            "nan": int(np.count_nonzero(np.isnan(stats))),
        }

    # the calls that split a repetition into steps (see workloads.RepFigures)
    probes = [
        Target(CascadeDetector, "push", "channelizer.push", push_counts),
        Target(harness, "measure_false_alarm", "harness.false_alarm",
               lambda args, result: {"windows": result[1]}),
        Target(harness, "run_point", "harness.run_point"),
        Target(iqio, "iq_read", "iqio.read"),
    ]
    if not full:
        return probes
    return probes + [
        Target(waveform, "synthesize_pulse", "waveform.synthesize_pulse"),
        Target(harness, "generate_preamble", "waveform.generate_preamble"),
        Target(harness, "composite_pulse", "waveform.composite_pulse"),
        Target(detector, "noncentral_chi2_tail", "numerics.ncx2_tail"),
        Target(harness, "apply_channel", "channel.apply_channel"),
        Target(harness, "assemble_stream", "channel.assemble_stream"),
        Target(harness, "effective_taps", "channel.effective_taps"),
        Target(CascadeDetector, "__init__", "channelizer.detector_init"),
        Target(channelizer, "afb_process", "channelizer.afb"),
        Target(channelizer, "matched_filter_bank", "channelizer.mf",
               lambda args, result: {"windows": int(result.shape[1])}),
    ]


def _setup(workload, alloc: bool = False) -> tuple[float, float]:
    """One cold set-up: preset(), the harness bundle, input files.

    Returns (seconds, tracemalloc peak MB over the bundle build or 0).
    """
    import tracemalloc

    from fbmcss import harness

    t0 = time.perf_counter()
    sc = workload.make_scenario()
    # the harness caches one bundle per scenario; a set-up builds it cold
    harness._BUNDLES.clear()
    if alloc:
        tracemalloc.start()
    bundle = harness._bundle(sc)
    peak_mb = 0.0
    if alloc:
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    workload.write_inputs(bundle)
    return time.perf_counter() - t0, peak_mb


def _fastest_steps(reps: list) -> list[tuple[str, float]]:
    """Each step's fastest repetition, as (label, seconds) in step order.

    Every repetition makes the same steps in the same order.  A step's
    fastest repetition is the one least disturbed by other work on a
    shared machine (the rule `timeit` follows), and a step of tens of
    milliseconds finds an undisturbed moment far more often than a whole
    repetition does.  Repetitions whose steps differ are left out.
    """
    layout = [label for label, _ in reps[0].steps]
    times = [[t for _, t in r.steps] for r in reps if [l for l, _ in r.steps] == layout]
    return list(zip(layout, map(min, zip(*times))))


def _push_latency(workload, reps: list) -> dict[str, float]:
    """p50 and p99 over the fastest pushes of a repetition, in microseconds."""
    import numpy as np

    latency = [t for label, t in _fastest_steps(reps) if label in workload.latency_labels]
    return {
        "push_p50_us": float(np.percentile(latency, 50)) * 1e6,
        "push_p99_us": float(np.percentile(latency, 99)) * 1e6,
    }


def _end_to_end(workload, setups: list[float], reps: list) -> dict[str, float]:
    """Times and rates of one repetition made of its fastest steps.

    The set-up is the fastest of the run's set-ups.
    """
    steps = _fastest_steps(reps)

    def seconds(labels) -> float:
        return sum(t for label, t in steps if label in labels)

    fig = reps[0]
    return {
        "setup_s": min(setups),
        "run_s": sum(t for _, t in steps),
        "signal_trials_per_s": fig.signal_trials / seconds(workload.signal_labels),
        "noise_windows_per_s": fig.noise_windows / seconds(workload.noise_labels),
        "stream_msps": fig.samples / seconds(workload.stream_labels) / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _per_layer(setup_spans, rep_spans: list, alloc_mb: float, overhead_s: float,
               coverage: float) -> dict[str, float]:
    """Layer totals for one set-up plus the mean traced repetition."""
    from tracing import aggregate

    setup = aggregate(setup_spans)
    per_rep = [aggregate(spans) for spans in rep_spans]

    def value(name: str, key: str) -> float:
        reps = sum(agg.get(name, {}).get(key, 0) for agg in per_rep) / len(per_rep)
        return setup.get(name, {}).get(key, 0) + reps

    windows_computed = value("channelizer.mf", "windows")
    windows_out = value("channelizer.push", "windows")
    return {
        "waveform.synthesize_pulse_s": value("waveform.synthesize_pulse", "total_s"),
        "waveform.synthesize_pulse_calls": value("waveform.synthesize_pulse", "calls"),
        "waveform.generate_preamble_s": value("waveform.generate_preamble", "self_s"),
        "waveform.composite_pulse_s": value("waveform.composite_pulse", "self_s"),
        "waveform.peak_alloc_mb": alloc_mb,
        "numerics.ncx2_tail_calls": value("numerics.ncx2_tail", "calls"),
        "numerics.ncx2_tail_s": value("numerics.ncx2_tail", "total_s"),
        "channel.apply_channel_s": value("channel.apply_channel", "total_s"),
        "channel.assemble_stream_s": value("channel.assemble_stream", "total_s"),
        "channel.effective_taps_s": value("channel.effective_taps", "total_s"),
        "channelizer.detectors_built": value("channelizer.detector_init", "calls"),
        "channelizer.detector_init_s": value("channelizer.detector_init", "total_s"),
        "channelizer.push_calls": value("channelizer.push", "calls"),
        "channelizer.samples_in": value("channelizer.push", "samples"),
        "channelizer.windows_out": windows_out,
        "channelizer.afb_s": value("channelizer.afb", "total_s"),
        "channelizer.mf_s": value("channelizer.mf", "total_s"),
        "channelizer.whiten_synth_s": value("channelizer.push", "self_s"),
        "channelizer.window_yield": windows_out / windows_computed if windows_computed else 0.0,
        "harness.run_point_s": value("harness.run_point", "total_s"),
        "harness.false_alarm_s": value("harness.false_alarm", "total_s"),
        "harness.self_s": value("harness.run_point", "self_s")
        + value("harness.false_alarm", "self_s"),
        "iqio.read_s": value("iqio.read", "total_s"),
        "trace.overhead_s": overhead_s,
        "trace.coverage": coverage,
    }


def _machine_record(args) -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rev = "unknown"  # the checkout need not be a git repository
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            rev = fh.read().strip()
        if rev.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", rev[5:])) as fh:
                rev = fh.read().strip()
    except OSError:
        pass
    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "fbmcss")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
        "cpu_model": cpu,
        "nproc": NPROC,
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_rev": rev,
        "src_sha256": src.hexdigest(),
    }


def run(args) -> dict:
    import workloads
    from tracing import Tracer, root_coverage_s

    work_dir = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_dir, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.toy, work_dir)
    checks = workloads.Checks()
    probe = Tracer(_targets(full=False))
    full = Tracer(_targets(full=True))
    try:
        if args.trace:
            with full:
                _, alloc_mb = _setup(workload, alloc=True)
            setup_spans = list(full.spans)
            full.clear()
            setups, setup_reps = [], 0
        else:
            setups = [_setup(workload)[0]]
            setup_reps = 1 if args.toy else workload.setup_reps

        reps, traced, rep_spans, coverage = [], [], [], []
        deadline = time.perf_counter() + args.seconds
        while True:
            with probe:
                fig = workload.rep(probe, checks)
            probe.clear()
            if fig is not None:
                reps.append(fig)
            if args.trace:
                with full:
                    fig = workload.rep(full, checks)
                if fig is not None:
                    traced.append(fig.wall_s)
                    rep_spans.append(list(full.spans))
                    coverage.append(root_coverage_s(full.spans) / fig.wall_s)
                full.clear()
            # the other set-ups are spread over the timed phase, so a slow
            # stretch of a shared machine does not hold all of them
            if len(setups) < setup_reps and time.perf_counter() < deadline:
                setups.append(_setup(workload)[0])
            if time.perf_counter() >= deadline:
                break
        if not args.toy:
            workload.reference(checks)
    finally:
        workload.cleanup()

    if not reps or (args.trace and not traced):
        raise RuntimeError("no repetition completed:\n" + "\n".join(checks.notes))
    if args.trace:
        metrics = _per_layer(
            setup_spans,
            rep_spans,
            alloc_mb,
            statistics.median(traced) - statistics.median(r.wall_s for r in reps),
            statistics.mean(coverage),
        )
        # latencies from the untraced repetitions, so the spans cost nothing
        metrics.update(_push_latency(workload, reps))
        units = PER_LAYER_UNITS
    else:
        metrics = _end_to_end(workload, setups, reps)
        units = END_TO_END_UNITS
    record = _machine_record(args)
    record.update(
        repetitions=len(reps),
        repetition_walls_s=[r.wall_s for r in reps],
        setups_s=setups,
        pushes_per_repetition=sum(
            label in workload.latency_labels for label, _ in reps[0].steps
        ),
        check_fail_frac=checks.failed / max(checks.attempted, 1),
        check_notes=checks.notes,
        metrics=metrics,
    )
    records = os.path.join(work_dir, "records")
    os.makedirs(records, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(records, name), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record))
    return {
        "correct": checks.failed == 0,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("desk_curve", "stream_tracked", "narrowband_point"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="smallest sizes and one repetition, for the smoke test")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "fbmcss")):
        print(f"no fbmcss sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except ImportError as exc:
        print(f"cannot import the package: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
