"""Bounded memory: one input block at a time, and every subcommand flat in its input's size.

``WatchedBlocks`` hands out fresh blocks and, each time it is asked for the
next one, notes which earlier blocks still have a live column. A consumer
that keeps a loop variable, or a view, of block k while block k+1 is read
shows up there. Each block closes windows, so none lies wholly inside the
open window, whose tail it would then rightly be.

The guard runs each subcommand in a child on inputs of N and 8N items and
reads the child's peak RSS through a small wrapper process, as
``perfbench/peak_rss.py`` does.

The heap-layout guard runs ``encode`` at several output-name lengths: the
page faults it takes must not follow the path's length.
"""

import contextlib
import ctypes
import os
import struct
import subprocess
import sys
import weakref
from collections import deque

import numpy as np
import pytest

from evframes import cli, simulator
from evframes.cli import main
from evframes.encoders import encode_blocks
from evframes.options import DVS128_GEOMETRY, SensorGeometry
from evframes.stream import EventStream, truncate_blocks
from evframes.windowing import WindowConfig

from tests.test_cli import child_env, davis_file, intensity_tensor


class WatchedBlocks:
    """Re-iterable blocks of 1000 events each, 1 us apart, that watch their own lifetimes.

    ``held`` has one list per pass, and in it one entry per block asked for
    after the first: the indices of the earlier blocks with a column still alive.
    """

    def __init__(self, count=6, geometry=DVS128_GEOMETRY):
        self.count, self.geometry = count, geometry
        self.held = []

    def __iter__(self):
        refs = []
        self.held.append([])
        for k in range(self.count):
            if k:
                alive = [j for j, columns in enumerate(refs) if any(map(_alive, columns))]
                self.held[-1].append(alive)
            yield self._block(k, refs)

    def _block(self, k, refs):
        g, n = self.geometry, 1000
        rng = np.random.default_rng(k)
        columns = (
            rng.integers(0, g.width, n, dtype=np.int32),
            rng.integers(0, g.height, n, dtype=np.int32),
            np.arange(k * n, (k + 1) * n, dtype=np.int64),
            rng.choice(np.array([1, -1], dtype=np.int8), n),
        )
        refs.append([weakref.ref(c) for c in columns])
        return EventStream(g, *columns)


def _alive(ref):
    return ref() is not None


NOTHING_HELD = [[]] * 5  # one pass over six blocks: nothing held at any of its five changes


class TestOneBlockAtATime:
    # 100 us windows close ten per block. On 4x4 every window holds more
    # events than its frame has cells, so it folds.
    @pytest.mark.parametrize("geometry", [DVS128_GEOMETRY, SensorGeometry(4, 4)],
                             ids=["dvs128", "fold"])
    @pytest.mark.parametrize("kind", ["timestamp", "count"])
    def test_encode_blocks(self, geometry, kind):
        blocks = WatchedBlocks(geometry=geometry)
        deque(encode_blocks(blocks, WindowConfig(100), kind, "merged"), maxlen=0)
        assert blocks.held == [NOTHING_HELD]

    def test_both_passes_of_truncate_blocks(self):
        blocks = WatchedBlocks()
        deque(truncate_blocks(blocks, 0.95), maxlen=0)  # the cut falls in the last block
        assert blocks.held == [NOTHING_HELD, NOTHING_HELD]

    @pytest.mark.parametrize(
        "argv,passes",
        [(["info", "in.txt"], 1), (["truncate", "in.txt", "out.txt", "--ratio", "0.95"], 2),
         (["encode", "in.txt", "out.evfr", "--window-us", "100"], 1)],
        ids=["info", "truncate", "encode"],
    )
    def test_commands(self, tmp_path, monkeypatch, capsys, argv, passes):
        blocks = WatchedBlocks()

        @contextlib.contextmanager
        def open_blocks(args):
            yield blocks

        monkeypatch.setattr(cli, "_open_blocks", open_blocks)
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0
        assert blocks.held == [NOTHING_HELD] * passes

    def test_simulate_writes_each_interval_before_the_next(self, tmp_path, monkeypatch):
        blocks = WatchedBlocks()
        monkeypatch.setattr(simulator, "simulate_intervals", lambda frames, times, config: blocks)
        tensor = tmp_path / "in.evfr"
        intensity_tensor(tensor, np.zeros((2, 1, 1)))
        assert main(["simulate", str(tensor), str(tmp_path / "events.txt")]) == 0
        assert blocks.held == [NOTHING_HELD]


# Reads the command's peak RSS in a small process: ru_maxrss is a high-water
# mark that a child of this large test process would carry across exec.
PEAK_RSS = (
    "import os, resource, sys; "
    "pid = os.posix_spawnp(sys.argv[1], sys.argv[1:], os.environ); "
    "status = os.waitpid(pid, 0)[1]; "
    "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=sys.stderr); "
    "sys.exit(os.waitstatus_to_exitcode(status))"
)


def peak_rss_kib(*argv):
    """The peak RSS, in KiB, of `python -m evframes argv` run to success in a child."""
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", PEAK_RSS, sys.executable, "-m", "evframes",
         *map(str, argv)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=child_env(), timeout=120,
    )
    *messages, peak = result.stderr.decode().splitlines()
    assert result.returncode == 0, messages
    return int(peak)


def recording(command):
    """command's argv over a DAVIS240C recording of 2**17 or 2**20 records, about 50 us apart."""

    def make(tmp_path, n):
        src = tmp_path / f"rec{n}.aedat"
        davis_file(src, 1 << 17 if n == 1 else 1 << 20)
        return [*command(src, tmp_path), "--layout", "davis240c"]

    return make


def frame_tensor(tmp_path, n):
    # One-pixel frames, a third of them empty: 20,000 or 160,000 of them.
    path, count = tmp_path / f"frames{n}.evfr", 20_000 * n
    prefix = struct.Struct("<qqBB")  # the prefix and the one pixel byte
    path.write_bytes(
        struct.pack("<4sBIIII", b"EVFR", 1, 1, 1, 1, count)
        + b"".join(prefix.pack(i, i + 1, i % 3 == 0, 0) for i in range(count))
    )
    return ["chunk", path, "--policy", "drop_all_empty_chunks", "-o", tmp_path / "chunks.txt"]


def score_table(tmp_path, n):
    # 20,000 or 160,000 k=2 rows.
    path = tmp_path / f"scores{n}.txt"
    path.write_text(
        "# k=2 classes=a,b\n"
        + "".join(f"{i},{i % 7 / 8},{i % 5 / 4}\n" for i in range(20_000 * n))
    )
    return ["aggregate", path, "-o", tmp_path / "prediction.txt"]


def intensities(tmp_path, n):
    # 4 or 32 DAVIS240C frames, with a bright square drifting over a still background.
    values = np.full((4 * n, 180, 240), 40, dtype=np.uint8)
    for i in range(4 * n):
        values[i, 60:100, 2 * i : 2 * i + 40] = 200
    path = tmp_path / f"intensity{n}.evfr"
    intensity_tensor(path, values)
    return ["simulate", path, tmp_path / "events.txt"]


COMMANDS = {
    "encode": recording(lambda src, d: ["encode", src, d / "frames.evfr", "--window-us", 10**6]),
    "info": recording(lambda src, d: ["info", src]),
    "truncate": recording(lambda src, d: ["truncate", src, d / "head.txt", "--ratio", 0.25]),
    "chunk": frame_tensor,
    "aggregate": score_table,
    "simulate": intensities,
}


@pytest.mark.parametrize("command", COMMANDS)
def test_peak_rss_does_not_grow_with_the_input(tmp_path, command):
    small, large = (peak_rss_kib(*COMMANDS[command](tmp_path, n)) for n in (1, 8))
    # Peaks repeat to about 0.5 MiB; holding 7N more table rows would take 40 MiB.
    assert large - small < 3 << 10, (small, large)


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except OSError:
        return False


def encode_minor_faults(src, out):
    """The minor page faults of one `python -m evframes encode src out` child."""
    argv = [sys.executable, "-m", "evframes", "encode", str(src), str(out), "--window-us", "80000"]
    pid = os.posix_spawn(sys.executable, argv, child_env())
    _, status, usage = os.wait4(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    return usage.ru_minflt


@pytest.mark.skipif(not _has_mallopt(), reason="no mallopt in the C library, so no heap pad")
def test_encode_faults_do_not_follow_the_output_path(tmp_path):
    # 786,432 uniform DVS-128 events, ~12 us apart. Without the CLI's heap
    # pad, whether glibc gave a freed block back turned on where the path
    # strings fell: over these eight names the faults spread x1.24-1.31 from
    # three base directories, and x1.01-1.02 with the pad. At 2**19 events
    # one of the three did not exceed x1.1.
    n = 3 << 18
    rng = np.random.default_rng(0)
    records = np.empty((n, 2), dtype=">u4")
    x, y, p = rng.integers(0, 128, n), rng.integers(0, 128, n), rng.integers(0, 2, n)
    records[:, 0] = (x << 1) | (y << 8) | p
    records[:, 1] = np.cumsum(rng.integers(0, 25, n))
    src = tmp_path / "rec.aedat"
    src.write_bytes(b"#!AER-DAT2.0\r\n" + records.tobytes())
    faults = [encode_minor_faults(src, tmp_path / ("o" * k + ".evfr")) for k in range(1, 33, 4)]
    assert max(faults) <= 1.1 * min(faults), faults
