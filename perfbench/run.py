#!/usr/bin/env python3
"""Pipeline benchmark for evframes: three seeded workloads, end to end and per layer.

    python3 perfbench/run.py --workload long_recording --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py for why each was chosen):

* long_recording: one 5M-event, 60 s DVS-128 AEDAT recording through the
  CLI chain encode -> chunk -> stand-in classifier -> aggregate;
* gesture_clips: 120 DAVIS240C clips of ~20k events through the library;
* sim_roundtrip: 64x64 scenes through simulate -> write_text -> parse_text
  -> encode_stream -> chunks -> pooling.

BENCHMARK.json gates the first two. sim_roundtrip runs by hand only: most
of its time is interpreter-bound text I/O, and on a shared 2-vCPU host a
pure-Python loop ran up to 4x slower from one minute to the next (numpy
kernels 1.4x), which spreads its runs wider than the gate's bounds.

Items run one after another in one process (a closed loop with a single
client), cycling through the inputs until --seconds have passed and every
input ran at least once. Every item is checked against references built
from the generator's ground truth; an input that fails or mismatches is
counted once, printed and not run again.

An input's latency is the mean of its repeats in the run. item_ms_p50
and item_ms_p90 are percentiles of those latencies over the inputs, and
events_per_s is the inputs' events over the sum of their latencies. The
result line's attempted and failed count inputs, not repeats.

--trace 0 prints the end-to-end metrics. --trace 1 spends half the time
untraced and half traced, prints the per-layer metrics and writes the
spans and counts next to the result under .perfbench_out/. The last line
of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
CLI_COMMANDS = ("encode", "chunk", "aggregate", "info", "truncate", "simulate")

# Stage rates from the ROADMAP baseline table (2-CPU machine, Python 3.11,
# numpy backend, 5M events 128x128), printed next to the traced rates.
ROADMAP_BASELINE = [
    ("parse_aedat2", "8.0 M ev/s", "ingest.parse_aedat2.mev_per_s", "M rec/s"),
    ("encode_stream", "7.8 M ev/s timestamp/merged; 125 count/ignore",
     "pipeline.encode_stream.mev_per_s", "M ev/s"),
    ("parse_text", "0.3 M ev/s", "ingest.parse_text.mev_per_s", "M ev/s"),
    ("write_text", "0.4 M ev/s", "ingest.write_text.mev_per_s", "M ev/s"),
    ("simulate, refractory", "112k ev in 166 ms (60x64x64)", "simulator.simulate.s", "s/scene"),
    ("simulate, no refractory", "112k ev in 34 ms (60x64x64)",
     "simulator.simulate_norefractory.s", "s/scene"),
    ("CLI encode", "1.03 s, 459 MB peak RSS (40 MB AEDAT)", "cli.encode.s", "s"),
    ("CLI truncate", "2.5 s (--ratio 0.2, 1M ev out)", "cli.truncate.s", "s"),
]


def per_layer_metrics(tr) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced run; 0 where the workload skips the layer."""
    def mev(name, unit):
        return tr.rate(name, unit) / 1e6

    frames = tr.rate("pipeline.encode_stream", "frames")
    chunks = tr.total("chunking.chunks")
    m = {
        "ingest.parse_aedat2.s": (tr.layer_seconds("ingest.parse_aedat2"), "s"),
        "ingest.parse_aedat2.mev_per_s": (mev("ingest.parse_aedat2", "records"), "Mev/s"),
        "ingest.records": (tr.total("ingest.records"), "count"),
        "ingest.skipped_non_dvs": (tr.total("ingest.skipped_non_dvs"), "count"),
        "ingest.timestamp_wraps": (tr.total("ingest.timestamp_wraps"), "count"),
        "ingest.parse_text.s": (tr.layer_seconds("ingest.parse_text"), "s"),
        "ingest.parse_text.mev_per_s": (mev("ingest.parse_text", "events"), "Mev/s"),
        "ingest.write_text.s": (tr.layer_seconds("ingest.write_text"), "s"),
        "ingest.write_text.mev_per_s": (mev("ingest.write_text", "events"), "Mev/s"),
        "pipeline.encode_stream.s": (tr.layer_seconds("pipeline.encode_stream"), "s"),
        "pipeline.encode_stream.mev_per_s": (mev("pipeline.encode_stream", "events"), "Mev/s"),
        "pipeline.encode_stream.us_per_frame": (1e6 / frames if frames else 0.0, "us"),
        "windowing.segment.s": (tr.layer_seconds("windowing.segment"), "s"),
        "windowing.windows": (tr.total("windowing.windows"), "count"),
        "windowing.empty_windows": (tr.total("windowing.empty_windows"), "count"),
        "formats.write_frame_tensor.s": (tr.layer_seconds("formats.write_frame_tensor"), "s"),
        "formats.read_frame_tensor.s": (tr.layer_seconds("formats.read_frame_tensor"), "s"),
        "formats.frame_tensor_bytes": (tr.total("formats.frame_tensor_bytes"), "bytes"),
        "formats.scores.s": (tr.layer_seconds("formats.scores"), "s"),
        "chunking.s": (tr.layer_seconds("chunking"), "s"),
        "chunking.chunks": (chunks, "count"),
        "chunking.kept_ratio": (tr.total("chunking.kept") / chunks if chunks else 0.0, "ratio"),
        "scoring.pool.s": (tr.layer_seconds("scoring.pool"), "s"),
        "simulator.simulate.s": (tr.layer_seconds("simulator.simulate"), "s"),
        "simulator.events_out": (tr.total("simulator.events_out"), "count"),
        "simulator.simulate_norefractory.s": (
            tr.layer_seconds("simulator.simulate_norefractory"), "s"),
        "simulator.refractory_suppressed": (tr.total("simulator.refractory_suppressed"), "count"),
    }
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.s"] = (tr.layer_seconds(f"cli.{cmd}"), "s")
        m[f"cli.{cmd}.peak_rss_mb"] = (tr.peak(f"cli.{cmd}.peak_rss_mb"), "MB")
    return m


def import_program():
    """Import evframes from this checkout's src/ and time the import."""
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    try:
        import evframes
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import evframes from {ROOT / 'src'}: {exc}")
    elapsed = time.perf_counter() - start
    if not Path(evframes.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"perfbench: evframes came from {evframes.__file__}, not this checkout")
    return evframes, elapsed


def git_sha() -> str:
    """HEAD's commit, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "evframes").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def measure(workload, tracer, seconds, digests, failures, events) -> dict:
    """Run items until `seconds` pass and min_items ran; each input's times, seconds.

    Inputs are taken in turn, so every input's repeats spread over the run.
    An input that fails is not retried: the code is deterministic, so it
    would fail again.
    """
    from check import expect

    times: dict = {}
    deadline = time.perf_counter() + seconds
    k = 0
    covered = False
    while k < workload.min_items or time.perf_counter() < deadline:
        inp = workload.inputs[k % len(workload.inputs)]
        k += 1
        if inp.id in failures:
            if len(failures) == len(workload.inputs):
                break
            continue
        tracer.item, tracer.input = k, inp.id
        start = time.perf_counter()
        try:
            with tracer.span("item"):
                out = workload.run(inp, tracer)
            elapsed = time.perf_counter() - start
            workload.check(inp, out)
            digest = out.digest()
            expect(digests.setdefault(inp.id, digest) == digest,
                   "outputs differ from an earlier run of the same input")
            if tracer.enabled:
                workload.extras(inp, out, tracer)
                if not covered:
                    tracer.item = "cover"
                    workload.cover(inp, out, tracer)
                    covered = True
            times.setdefault(inp.id, []).append(elapsed)
            events[inp.id] = out.events
        except Exception as exc:  # counted toward error_rate; the run goes on
            failures[inp.id] = f"{type(exc).__name__}: {exc}"
            times.pop(inp.id, None)
    return times


def latencies(times: dict) -> dict:
    """Each input's mean time over its repeats.

    A shared host's speed swings within seconds, most for interpreter-bound
    code; repeats spread over the whole run, so their mean averages the swings.
    """
    return {input_id: statistics.fmean(runs) for input_id, runs in times.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("long_recording", "gesture_clips", "sim_roundtrip"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs are for the self-check only")
    args = parser.parse_args()

    evframes, import_s = import_program()
    import numpy as np

    from check import Mismatch
    from spans import NullTracer, Tracer
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    scratch = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(scratch, ignore_errors=True)
            start = time.perf_counter()
            warm = cls(scratch / "warmup", "tiny")
            warm.workdir.mkdir(parents=True)
            for inp in warm.setup(args.seed):
                try:
                    warm.check(inp, warm.run(inp, NullTracer()))
                except Exception:  # the measured run reports failures
                    pass
            workload = cls(scratch / "inputs", args.size)
            workload.workdir.mkdir()
            workload.setup(args.seed)
            setup_times.append(import_s + time.perf_counter() - start)
        input_bytes = workload.input_bytes()

        digests, failures, events = {}, {}, {}
        if args.trace:
            half = args.seconds / 2
            untraced = measure(workload, NullTracer(), half, digests, failures, events)
            tracer = Tracer()
            traced = measure(workload, tracer, half, digests, failures, events)
            times = {i: untraced.get(i, []) + traced.get(i, []) for i in untraced | traced}
        else:
            times = measure(workload, NullTracer(), args.seconds, digests, failures, events)
            peak_rss = workload.peak_rss_mb()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    # attempted and failed count inputs, not repeats, so they depend on the
    # seed alone and not on how many passes the host's speed allows.
    latency = {i: t for i, t in latencies(times).items() if i not in failures}
    attempted = len(digests.keys() | failures.keys())
    failed = len(failures)
    if not latency or (args.trace and not (untraced and traced)):
        for input_id, text in sorted(failures.items()):
            print(f"failed input {input_id}: {text}", file=sys.stderr)
        sys.exit(f"perfbench: no {args.workload} item completed; nothing to report")
    mismatched = [text for text in failures.values() if text.startswith(Mismatch.__name__)]
    correct = not mismatched
    provenance = {
        "workload": args.workload, "why": cls.why, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "backend": evframes.BACKEND, "numpy": np.__version__,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_sha": git_sha(), "src_sha256": src_sha256(),
        "inputs": len(workload.inputs), "input_params": workload.params,
        "input_dvs_events": sum(inp.events for inp in workload.inputs),
        "input_bytes": input_bytes,
    }

    print(f"workload {args.workload}: {cls.why}")
    for key, value in provenance.items():
        print(f"  {key}: {value}")
    if args.trace:
        metrics = per_layer_metrics(tracer)
        base = statistics.median(latencies(untraced).values())
        traced_latency = statistics.median(latencies(traced).values())
        metrics["trace.overhead_pct"] = ((traced_latency / base - 1) * 100, "%")
    else:
        times_ms = [1000 * s for s in latency.values()]
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "events_per_s": (sum(events[i] for i in latency) / sum(latency.values()), "1/s"),
            "item_ms_p50": (float(np.percentile(times_ms, 50)), "ms"),
            "item_ms_p90": (float(np.percentile(times_ms, 90)), "ms"),
            "peak_rss_mb": (peak_rss, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"  metric {name} = {value:.6g} {unit}")
    print(f"  error_rate = {failed / attempted:.6g} ratio ({failed} of {attempted} inputs failed)")
    for input_id, text in sorted(failures.items()):
        print(f"  failed input {input_id}: {text}")
    combined = hashlib.sha256("".join(d for _, d in sorted(digests.items())).encode()).hexdigest()
    print(f"  outputs sha256: {combined} over {len(digests)} inputs")
    if args.trace:
        print("  stage rates against the roadmap baseline:")
        for stage, baseline, key, unit in ROADMAP_BASELINE:
            value = metrics[key][0]
            if value:
                print(f"    {stage:<24} {value:>10.4g} {unit:<8} baseline {baseline}")

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    record = {
        "provenance": provenance,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": attempted, "failed": failed, "failures": failures,
        "item_seconds": {str(i): runs for i, runs in sorted(times.items())},
        "outputs_sha256": digests,
    }
    if args.trace:
        record["trace"] = tracer.dump()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, default=str))

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
