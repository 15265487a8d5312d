"""Self-check of the benchmark on tiny inputs.

    python3 -m pytest perfbench

Runs every workload end to end at the tiny size, traced and untraced, and
shows that the correctness gate rejects corrupted outputs.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gen  # noqa: E402
from check import Mismatch  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1  # its tiny gesture batch holds a clip that trips the known header defect


@pytest.fixture
def workdir():
    path = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path)


def run_benchmark(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def header_defect_clips(n_clips: int, n_events: int) -> set[int]:
    """Clips whose first record starts with '#', which the parser takes for a header line."""
    return {i for i in range(n_clips)
            if gen.gesture_clip(SEED, i, n_events)[1][len(gen.HEADER)] == ord("#")}


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_reports_every_metric(name, trace):
    proc = run_benchmark(ROOT, "--workload", name, "--seed", str(SEED), "--seconds", "0.5",
                         "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace == "1" else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected

    record = json.loads((ROOT / ".perfbench_out" / f"{name}-seed{SEED}-trace{trace}.json").read_text())
    failed = {int(k) for k in record["failures"]}
    # Inputs, not repeats, are counted, so the counts do not depend on the host's speed.
    assert result["attempted"] == record["provenance"]["inputs"]
    assert result["failed"] == len(failed)
    if name == "gesture_clips":
        params = WORKLOADS[name](ROOT, "tiny").params
        assert failed == header_defect_clips(params["n_clips"], params["n_events"])
    else:
        assert not failed and result["failed"] == 0


def corruptions(out):
    """Copies of an item's output, each wrong in one way the gate must catch."""
    k = len(out.frames) // 2
    pixels = out.frames[k].pixels.copy()
    pixels[0, 0, 0] ^= 1
    flipped = list(out.frames)
    flipped[k] = dataclasses.replace(out.frames[k], pixels=pixels)
    yield "frame dropped", dataclasses.replace(out, frames=out.frames[:-1])
    yield "pixel flipped", dataclasses.replace(out, frames=flipped)
    yield "chunk dropped", dataclasses.replace(out, kept=out.kept[:-1])
    yield "mean nudged", dataclasses.replace(out, mean_scores=out.mean_scores * (1 + 1e-12))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_gate_rejects_corrupted_outputs(name, workdir):
    workload = WORKLOADS[name](workdir, "tiny")
    inputs = workload.setup(SEED)
    skip = header_defect_clips(len(inputs), workload.params["n_events"]) if name == "gesture_clips" else set()
    inp = next(i for i in inputs if i.id not in skip)
    out = workload.run(inp, Tracer())
    workload.check(inp, out)
    for what, bad in corruptions(out):
        with pytest.raises(Mismatch):
            workload.check(inp, bad)
            pytest.fail(f"gate accepted output with {what}")


def test_self_time_excludes_children():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    outer, inner = tr.spans
    own = tr.self_times()
    assert own[1] == pytest.approx(inner[2] - inner[1])
    assert own[0] == pytest.approx((outer[2] - outer[1]) - (inner[2] - inner[1]))
    assert NullTracer().span("x") is NullTracer().span("y")


def test_fails_without_the_program(workdir):
    """In a directory with only the benchmark, it exits non-zero and prints no result."""
    shutil.copytree(HERE, workdir / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    proc = run_benchmark(workdir, "--workload", "sim_roundtrip", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
