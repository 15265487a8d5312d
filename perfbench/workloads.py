"""The benchmark's three workloads.

Each workload writes its seeded inputs to disk, runs one item (one
recording, clip or scene, from its input file to the pooled prediction)
and checks the item's outputs against references built from ground truth.

The traced run times single layers from outside. After each item,
``extras`` calls the layers that the item reaches only inside CLI children,
or calls a second time, in-process. Once per traced run, ``cover`` runs
every subcommand and public layer that the items do not call, on the first
item's data, so that each per-layer metric is measured on every workload;
its spans carry the item id "cover". All work runs single-threaded; CLI
children get this checkout's ``src`` on their PYTHONPATH.
"""

from __future__ import annotations

import hashlib
import os
import signal
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gen
from check import check_frames, check_pooled, classify, expect, frame_reference, reference_crossings
from evframes import (
    DAVIS240C_GEOMETRY,
    DAVIS240C_LAYOUT,
    DVS128_GEOMETRY,
    DVS128_LAYOUT,
    KIND_EVENT_COUNT,
    KIND_TIMESTAMP,
    POLARITY_IGNORE,
    POLARITY_MERGED,
    POLICY_DROP_ALL_EMPTY,
    POLICY_KEEP,
    EncodedFrame,
    SensorGeometry,
    SimConfig,
    WindowConfig,
    apply_empty_policy,
    encode_stream,
    make_chunks,
    parse_aedat2_stats,
    parse_scores,
    parse_text,
    read_frame_tensor,
    segment,
    simulate,
    temporal_average_pool,
    write_frame_tensor,
    write_scores,
    write_text,
)

ROOT = Path(__file__).resolve().parent.parent
PEAK_RSS = Path(__file__).with_name("peak_rss.py")
CHILD_TIMEOUT_S = 150
THRESHOLD = 0.2  # contrast threshold of every simulate call
REFRACTORY_US = 2000
FRAME_US = 10_000  # intensity frame spacing

SIZES = {
    "full": {
        "long_recording": {"n_events": 5_000_000, "span_us": 60_000_000},
        "gesture_clips": {"n_clips": 120, "n_events": 20_000},
        "sim_roundtrip": {"n_scenes": 4, "side": 64, "n_frames": 50},
    },
    "tiny": {
        "long_recording": {"n_events": 20_000, "span_us": 2_000_000},
        "gesture_clips": {"n_clips": 3, "n_events": 2_000},
        "sim_roundtrip": {"n_scenes": 1, "side": 16, "n_frames": 12},
    },
}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], stdout: Path) -> float:
    """Run a child to completion through peak_rss.py; return its peak RSS in MB.

    The child runs in its own session, so a child that outlives
    CHILD_TIMEOUT_S is killed together with the wrapper.
    """
    rss = stdout.with_suffix(".rss")
    err = stdout.with_suffix(".err")
    with open(stdout, "wb") as out_file, open(err, "wb") as err_file:
        proc = subprocess.Popen([sys.executable, "-I", "-S", str(PEAK_RSS), str(rss), *argv],
                                stdout=out_file, stderr=err_file, env=child_env(),
                                start_new_session=True)
    try:
        proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        message = err.read_text(errors="replace").strip()
        raise RuntimeError(f"{' '.join(argv[1:4])}... exited {proc.returncode}: {message}")
    return int(rss.read_text()) / 1024  # ru_maxrss is in KiB on Linux


def write_intensity(path: Path, frames: np.ndarray) -> None:
    """Intensity frames as the 1-channel frame tensor `evframes simulate` reads."""
    tensor = [EncodedFrame(px, None, None, k * FRAME_US, (k + 1) * FRAME_US, False)
              for k, px in enumerate(gen.intensity_pixels(frames))]
    path.write_bytes(write_frame_tensor(tensor))


def count_parse(tr, stats) -> None:
    tr.count("ingest.records", stats.records)
    tr.count("ingest.skipped_non_dvs", stats.skipped_non_dvs)
    tr.count("ingest.timestamp_wraps", stats.timestamp_wraps)


def count_frames(tr, frames, chunks, kept) -> None:
    tr.count("windowing.windows", len(frames))
    tr.count("windowing.empty_windows", sum(f.empty for f in frames))
    tr.count("chunking.chunks", len(chunks))
    tr.count("chunking.kept", len(kept))


@dataclass
class Input:
    id: int
    path: Path
    events: int = 0
    ref: object = None


@dataclass
class Output:
    events: int
    frames: list
    n_chunks: int | None
    kept: list[int]
    vectors: list
    mean_scores: np.ndarray
    label: int
    blobs: list[bytes]
    state: object = None  # what check() and the traced calls need beyond the above

    def digest(self) -> str:
        h = hashlib.sha256()
        for blob in self.blobs:
            h.update(hashlib.sha256(blob).digest())
        h.update(np.asarray(self.mean_scores, dtype="<f8").tobytes())
        return h.hexdigest()


class Workload:
    cli_flags: list[str] = []  # how `evframes` reads this workload's event files

    def __init__(self, workdir: Path, size: str = "full"):
        self.workdir = workdir
        self.size = size
        self.inputs: list[Input] = []
        self.child_peak_mb = 0.0

    @property
    def params(self) -> dict:
        return SIZES[self.size][self.name]

    def load_inputs(self) -> list[Input]:
        """The input files an earlier setup() wrote, without their references."""
        self.inputs = [Input(i, p) for i, p in enumerate(sorted(self.workdir.glob(self.pattern)))]
        return self.inputs

    def input_bytes(self) -> int:
        return sum(inp.path.stat().st_size for inp in self.inputs)

    def peak_rss_mb(self) -> float:
        """Peak RSS of a fresh process that runs one item of every input."""
        argv = [sys.executable, str(Path(__file__).with_name("probe.py")), self.name,
                str(self.workdir), self.size]
        return run_child(argv, self.workdir / "probe.out")

    def extras(self, inp: Input, out: Output, tr) -> None:
        """Calls made after each item in the traced run, outside the item's span."""

    def cli(self, tr, command: str, *args: str) -> str:
        """Run one ``evframes`` subcommand in its own span; return its stdout."""
        stdout = self.workdir / f"cli_{command}.out"
        with tr.span(f"cli.{command}"):
            peak = run_child([sys.executable, "-m", "evframes", command, *args], stdout)
        self.child_peak_mb = max(self.child_peak_mb, peak)
        tr.count(f"cli.{command}.peak_rss_mb", peak)
        return stdout.read_text()

    def cli_chain(self, tr, source: Path, *encode_flags: str, policy: str) -> Output:
        """`evframes encode`, then `chunk`, the stand-in classifier and `aggregate`."""
        w = self.workdir
        frames_path, manifest, scores, prediction = (
            w / "frames.evfr", w / "chunks.txt", w / "scores.txt", w / "prediction.txt")
        self.cli(tr, "encode", str(source), str(frames_path), *self.cli_flags, *encode_flags)
        self.cli(tr, "chunk", str(frames_path), "--policy", policy, "-o", str(manifest))
        with tr.span("classifier"):
            blob = frames_path.read_bytes()
            with tr.span("formats.read_frame_tensor"):
                tensor = read_frame_tensor(blob)
            lines = manifest.read_text().splitlines()
            kept = [int(line.split()[-1]) for line in lines]
            vectors = classify(tensor.frames, kept)
            with tr.span("formats.scores"):
                scores.write_text(write_scores(vectors))
        self.cli(tr, "aggregate", str(scores), "-o", str(prediction))
        result = dict(line.split(": ", 1) for line in prediction.read_text().splitlines())
        return Output(
            0, tensor.frames, None, kept, vectors,
            np.array([float(s) for s in result["mean_scores"].split()]), int(result["label"]),
            [blob, manifest.read_bytes(), scores.read_bytes(), prediction.read_bytes()],
        )

    def cover(self, inp: Input, out: Output, tr) -> None:
        """Once per traced run: what the items do not call, on the first item's data."""
        raise NotImplementedError

    def cover_tools(self, tr, source: Path, geometry: SensorGeometry, intensity: Path) -> None:
        """`evframes info`, `truncate` and `simulate`, checked against in-process calls.

        The truncated head goes through parse_text and write_text, and the
        intensity tensor through simulate with and without refractory.
        """
        w = self.workdir
        self.cli(tr, "info", str(source), *self.cli_flags)
        self.cli(tr, "truncate", str(source), str(w / "head.txt"), *self.cli_flags,
                 "--ratio", "0.05")
        self.cli(tr, "simulate", str(intensity), str(w / "simulated.txt"),
                 "--threshold", str(THRESHOLD), "--refractory-us", str(REFRACTORY_US))
        head = (w / "head.txt").read_text()
        with tr.span("ingest.parse_text"):
            stream = parse_text(head, geometry)
            tr.work(events=len(stream))
        with tr.span("ingest.write_text"):
            text = write_text(stream)
            tr.work(events=len(stream))
        expect(text == head, "`evframes truncate` output differs from write_text")
        frames = read_frame_tensor(intensity.read_bytes()).frames
        intensities = 1.0 + np.stack([f.pixels[:, :, 0] for f in frames]).astype(np.float64)
        times = np.array([f.window_start for f in frames], dtype=np.int64)
        with tr.span("simulator.simulate"):
            events = simulate(intensities, times, SimConfig(THRESHOLD, REFRACTORY_US))
            tr.work(events=len(events))
        with tr.span("simulator.simulate_norefractory"):
            full = simulate(intensities, times, SimConfig(THRESHOLD, 0))
            tr.work(events=len(full))
        expect(write_text(events) == (w / "simulated.txt").read_text(),
               "`evframes simulate` output differs from simulate()")


class LongRecording(Workload):
    name = "long_recording"
    why = ("one 5M-event, 60 s DVS-128 recording through the CLI chain: per-event parse "
           "and encode cost and whole-file memory dominate")
    window = WindowConfig(80_000)
    pattern = "recording.aedat"
    cli_flags = ["--layout", "dvs128"]
    min_items = 3

    def peak_rss_mb(self) -> float:
        """The largest peak RSS of the CLI children so far."""
        return self.child_peak_mb

    def setup(self, seed: int) -> list[Input]:
        events, data = gen.long_recording(seed, **self.params)
        path = self.workdir / "recording.aedat"
        path.write_bytes(data)
        g = DVS128_GEOMETRY
        ref = frame_reference(events.x, events.y, events.t, events.p, g.width, g.height,
                              self.window.window_length_us, "timestamp", True, True)
        write_intensity(self.workdir / "intensity.evfr", gen.scene(seed, 0, 64, 50))
        self.inputs = [Input(0, path, len(events), ref)]
        return self.inputs

    def run(self, inp: Input, tr) -> Output:
        out = self.cli_chain(tr, inp.path, "--window-us", str(self.window.window_length_us),
                             "--kind", "timestamp", "--polarity", "merged",
                             policy=POLICY_DROP_ALL_EMPTY)
        out.events = inp.events
        tr.count("formats.frame_tensor_bytes", len(out.blobs[0]))
        return out

    def check(self, inp: Input, out: Output) -> None:
        check_frames(inp.ref, out.frames, out.n_chunks, out.kept)
        manifest = out.blobs[1].decode().splitlines()
        expect(manifest == [f"{j - 2} {j - 1} {j}" for j in out.kept], "chunk manifest malformed")
        check_pooled(out.vectors, out.mean_scores, out.label)

    def extras(self, inp: Input, out: Output, tr) -> None:
        """The layers `evframes encode` and `chunk` run, called in-process."""
        with tr.span("ingest.parse_aedat2"):
            stream, stats = parse_aedat2_stats(inp.path.read_bytes(), DVS128_LAYOUT,
                                               DVS128_GEOMETRY)
            tr.work(records=stats.records)
        count_parse(tr, stats)
        with tr.span("windowing.segment"):
            segment(stream, self.window)
        with tr.span("pipeline.encode_stream"):
            frames = encode_stream(stream, self.window, KIND_TIMESTAMP, POLARITY_MERGED)
            tr.work(events=len(stream), frames=len(frames))
        del stream
        with tr.span("formats.write_frame_tensor"):
            blob = write_frame_tensor(frames)
        expect(blob == out.blobs[0], "in-process frame tensor differs from `evframes encode`")
        with tr.span("chunking"):
            chunks = make_chunks(frames)
            kept = apply_empty_policy(chunks, POLICY_DROP_ALL_EMPTY)
        check_frames(inp.ref, frames, len(chunks), [c.index for c in kept])
        count_frames(tr, frames, chunks, kept)
        with tr.span("scoring.pool"):
            temporal_average_pool(out.vectors)

    def cover(self, inp: Input, out: Output, tr) -> None:
        self.cover_tools(tr, inp.path, DVS128_GEOMETRY, self.workdir / "intensity.evfr")


class GestureClips(Workload):
    name = "gesture_clips"
    why = ("a batch of 1-1.5 s DAVIS240C clips through the library: fixed cost per "
           "window and per call dominates")
    window = WindowConfig(10_000)
    pattern = "clip_*.aedat"
    cli_flags = ["--layout", "davis240c"]

    @property
    def min_items(self) -> int:
        return len(self.inputs)  # one full pass, so p90 rests on >= 100 items

    def setup(self, seed: int) -> list[Input]:
        self.inputs = []
        g = DAVIS240C_GEOMETRY
        for i in range(self.params["n_clips"]):
            events, data = gen.gesture_clip(seed, i, self.params["n_events"])
            path = self.workdir / f"clip_{i:04d}.aedat"
            path.write_bytes(data)
            ref = frame_reference(events.x, events.y, events.t, events.p, g.width, g.height,
                                  self.window.window_length_us, "count", False, True)
            self.inputs.append(Input(i, path, len(events), ref))
        return self.inputs

    def run(self, inp: Input, tr) -> Output:
        data = inp.path.read_bytes()
        with tr.span("ingest.parse_aedat2"):
            stream, stats = parse_aedat2_stats(data, DAVIS240C_LAYOUT, DAVIS240C_GEOMETRY)
            tr.work(records=stats.records)
        with tr.span("pipeline.encode_stream"):
            frames = encode_stream(stream, self.window, KIND_EVENT_COUNT, POLARITY_IGNORE)
            tr.work(events=len(stream), frames=len(frames))
        with tr.span("formats.write_frame_tensor"):
            blob = write_frame_tensor(frames)
        with tr.span("formats.read_frame_tensor"):
            tensor = read_frame_tensor(blob)
        with tr.span("chunking"):
            chunks = make_chunks(tensor.frames)
            kept = apply_empty_policy(chunks, POLICY_DROP_ALL_EMPTY)
        with tr.span("classifier"):
            vectors = classify(tensor.frames, [c.index for c in kept])
        with tr.span("formats.scores"):
            table = write_scores(vectors)
            parsed, _ = parse_scores(table)
        with tr.span("scoring.pool"):
            prediction = temporal_average_pool(parsed)
        count_parse(tr, stats)
        count_frames(tr, frames, chunks, kept)
        tr.count("formats.frame_tensor_bytes", len(blob))
        return Output(len(stream), tensor.frames, len(chunks), [c.index for c in kept], vectors,
                      prediction.mean_scores, prediction.label, [blob, table.encode()], stream)

    def check(self, inp: Input, out: Output) -> None:
        expect(out.events == inp.events, f"{out.events} events parsed, expected {inp.events}")
        check_frames(inp.ref, out.frames, out.n_chunks, out.kept)
        check_pooled(out.vectors, out.mean_scores, out.label)

    def extras(self, inp: Input, out: Output, tr) -> None:
        with tr.span("windowing.segment"):
            segment(out.state, self.window)

    def cover(self, inp: Input, out: Output, tr) -> None:
        """The CLI chain on the clip must match the library; its count frames feed simulate."""
        chain = self.cli_chain(tr, inp.path, "--window-us", str(self.window.window_length_us),
                               "--kind", "count", "--polarity", "ignore",
                               policy=POLICY_DROP_ALL_EMPTY)
        expect(chain.blobs[0] == out.blobs[0], "`evframes encode` differs from the library")
        expect(np.array_equal(chain.mean_scores, out.mean_scores),
               "`evframes aggregate` differs from the library")
        self.cover_tools(tr, inp.path, DAVIS240C_GEOMETRY, self.workdir / "frames.evfr")


class SimRoundtrip(Workload):
    name = "sim_roundtrip"
    why = ("seeded 64x64 scenes through simulate with refractory, text write and parse, "
           "encode and pooling: the only simulator and text I/O load")
    window = WindowConfig(10_000)
    pattern = "scene_*.npy"

    @property
    def min_items(self) -> int:
        return len(self.inputs)

    @property
    def cli_flags(self) -> list[str]:
        return ["--geometry", f"{self.params['side']}x{self.params['side']}"]

    def setup(self, seed: int) -> list[Input]:
        self.inputs = []
        side, n_frames = self.params["side"], self.params["n_frames"]
        times = np.arange(n_frames, dtype=np.int64) * FRAME_US
        sample = np.arange(0, side * side, max(1, side * side // 64))
        for i in range(self.params["n_scenes"]):
            frames = gen.scene(seed, i, side, n_frames)
            path = self.workdir / f"scene_{i:02d}.npy"
            np.save(path, frames)
            ref = {"pixels": sample}
            for refractory in (REFRACTORY_US, 0):
                ref[refractory] = reference_crossings(
                    np.log(frames), times, THRESHOLD, refractory, sample)
            self.inputs.append(Input(i, path, 0, ref))
        write_intensity(self.workdir / "intensity.evfr", np.load(self.inputs[0].path))
        return self.inputs

    def run(self, inp: Input, tr) -> Output:
        frames_in = np.load(inp.path)
        times = np.arange(len(frames_in), dtype=np.int64) * FRAME_US
        with tr.span("simulator.simulate"):
            events = simulate(frames_in, times, SimConfig(THRESHOLD, REFRACTORY_US))
            tr.work(events=len(events))
        with tr.span("ingest.write_text"):
            text = write_text(events)
            tr.work(events=len(events))
        with tr.span("ingest.parse_text"):
            stream = parse_text(text, events.geometry)
            tr.work(events=len(stream))
        with tr.span("pipeline.encode_stream"):
            frames = encode_stream(stream, self.window, KIND_TIMESTAMP, POLARITY_MERGED)
            tr.work(events=len(stream), frames=len(frames))
        with tr.span("chunking"):
            chunks = make_chunks(frames)
            kept = apply_empty_policy(chunks, POLICY_KEEP)
        with tr.span("classifier"):
            vectors = classify(frames, [c.index for c in kept])
        with tr.span("scoring.pool"):
            prediction = temporal_average_pool(vectors)
        tr.count("simulator.events_out", len(events))
        count_frames(tr, frames, chunks, kept)
        pixels = b"".join(f.pixels.tobytes() for f in frames)
        return Output(len(events), frames, len(chunks), [c.index for c in kept], vectors,
                      prediction.mean_scores, prediction.label, [text.encode(), pixels],
                      (events, stream, frames_in, times, text))

    def check(self, inp: Input, out: Output) -> None:
        events, stream, *_ = out.state
        self.check_events(inp, events, REFRACTORY_US)
        expect(stream == events, "parse_text(write_text(events)) differs from the events")
        g = stream.geometry
        ref = frame_reference(stream.x, stream.y, stream.t, stream.p, g.width, g.height,
                              self.window.window_length_us, "timestamp", True, False)
        check_frames(ref, out.frames, out.n_chunks, out.kept)
        check_pooled(out.vectors, out.mean_scores, out.label)

    def check_events(self, inp: Input, events, refractory: int) -> None:
        """Events at the sampled pixels equal the reference sensor's, bit for bit."""
        pix = events.y.astype(np.int64) * events.geometry.width + events.x
        sel = np.isin(pix, inp.ref["pixels"])
        got = np.stack([events.t[sel], pix[sel], events.p[sel].astype(np.int64)], axis=1)
        expect(np.array_equal(got, inp.ref[refractory]),
               f"simulated events at sampled pixels differ (refractory {refractory} us)")

    def extras(self, inp: Input, out: Output, tr) -> None:
        """Simulate without refractory, segment, and the frame-tensor and score formats."""
        events, stream, frames_in, times, _ = out.state
        with tr.span("simulator.simulate_norefractory"):
            full = simulate(frames_in, times, SimConfig(THRESHOLD, 0))
            tr.work(events=len(full))
        self.check_events(inp, full, 0)
        tr.count("simulator.refractory_suppressed", len(full) - len(events))
        with tr.span("windowing.segment"):
            segment(stream, self.window)
        with tr.span("formats.write_frame_tensor"):
            blob = write_frame_tensor(out.frames)
        with tr.span("formats.read_frame_tensor"):
            tensor = read_frame_tensor(blob)
        expect(all(a.pixels.tobytes() == b.pixels.tobytes() for a, b in zip(out.frames, tensor.frames)),
               "frame tensor round trip changed pixels")
        tr.count("formats.frame_tensor_bytes", len(blob))
        with tr.span("formats.scores"):
            parse_scores(write_scores(out.vectors))

    def cover(self, inp: Input, out: Output, tr) -> None:
        """The events as an AEDAT file and through the CLI chain, then the other subcommands."""
        events, stream, *_, text = out.state
        data = gen.aedat(gen.dvs128_address(stream.x, stream.y, stream.p), stream.t)
        with tr.span("ingest.parse_aedat2"):
            back, stats = parse_aedat2_stats(data, DVS128_LAYOUT, stream.geometry)
            tr.work(records=stats.records)
        expect(back == stream, "the events written as AEDAT do not parse back unchanged")
        count_parse(tr, stats)
        source = self.workdir / "events.txt"
        source.write_text(text)
        chain = self.cli_chain(tr, source, "--window-us", str(self.window.window_length_us),
                               "--kind", "timestamp", "--polarity", "merged", policy=POLICY_KEEP)
        expect(np.array_equal(chain.mean_scores, out.mean_scores),
               "`evframes aggregate` differs from the library")
        self.cover_tools(tr, source, stream.geometry, self.workdir / "intensity.evfr")


WORKLOADS = {w.name: w for w in (LongRecording, GestureClips, SimRoundtrip)}
