import contextlib
import io
import os
import resource
import stat
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evframes import cli, formats, ingest
from evframes.chunking import POLICIES
from evframes.cli import main
from evframes.encoders import KIND_EVENT_COUNT, POLARITY_MERGED, EncodedFrame
from evframes.formats import (
    read_frame_tensor,
    write_frame_tensor,
    write_frame_tensor_to,
    write_pnm,
    write_scores,
)
from evframes.ingest import parse_aedat2, parse_text, write_text
from evframes.options import (
    DAVIS240C_GEOMETRY,
    DAVIS240C_LAYOUT,
    DVS128_GEOMETRY,
    DVS128_LAYOUT,
    SensorGeometry,
)
from evframes.scoring import ScoreVector
from evframes.simulator import SimConfig, simulate
from evframes.stream import truncate_by_ratio
from evframes.windowing import WindowConfig

from tests.oracles import encode_per_window
from tests.test_formats import make_frames, score_vectors, valid_tensors
from tests.test_ingest import HEADER, davis_record, dvs128_record


def run(*argv):
    return main([str(a) for a in argv])


def child_env():
    """The environment of a child that imports the evframes this suite tests, installed or not."""
    package_root = os.path.dirname(os.path.dirname(formats.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    return env


def write_events(path, lines):
    path.write_text("".join(line + "\n" for line in lines))


def traced_peak(*argv):
    """(exit code, peak bytes traced by tracemalloc) of one main() call."""
    tracemalloc.start()
    try:
        code = run(*argv)
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def davis_file(path, n, seed=0):
    """An n-record DAVIS240C file with a tick wrap and ~10% non-DVS records."""
    rng = np.random.default_rng(seed)
    ticks = (2**32 - n // 2 * 50 + np.cumsum(rng.integers(0, 100, n))) % 2**32
    addr = (
        (rng.integers(0, 180, n) << 22)
        | (rng.integers(0, 240, n) << 12)
        | (rng.integers(0, 2, n) << 11)
        | ((rng.random(n) < 0.1).astype(np.int64) << 31)
    )
    path.write_bytes(HEADER + np.stack([addr, ticks], axis=1).astype(">u4").tobytes())


def as_input(src, fmt, layout=DVS128_LAYOUT, geometry=DVS128_GEOMETRY):
    """The AEDAT file src, or for fmt "text" its events written beside it as text."""
    if fmt == "aedat":
        return src
    text = src.with_suffix(".txt")
    text.write_text(write_text(parse_aedat2(src.read_bytes(), layout, geometry)))
    return text


def and_text(values):
    """Each value with format "aedat" under its own id, then with "text" under id "<value>-text"."""
    return [pytest.param(v, "aedat", id=str(v)) for v in values] + [
        pytest.param(v, "text", id=f"{v}-text") for v in values
    ]


def intensity_tensor(path, values, dt_us=1000):
    """Write a 1-channel frame tensor whose pixel stacks are `values` (N,H,W)."""
    values = np.asarray(values, dtype=np.uint8)
    frames = [
        EncodedFrame(
            values[i][:, :, np.newaxis],
            KIND_EVENT_COUNT,
            POLARITY_MERGED,
            i * dt_us,
            (i + 1) * dt_us,
            False,
        )
        for i in range(len(values))
    ]
    path.write_bytes(write_frame_tensor(frames))


class TestEncode:
    def test_250ms_span_gives_four_default_windows(self, tmp_path):
        src = tmp_path / "ev.txt"
        write_events(src, ["0 1 1 1", "250000 2 2 -1"])
        out = tmp_path / "frames.evfr"
        assert run("encode", src, out, "--geometry", "16x16") == 0
        tensor = read_frame_tensor(out.read_bytes())
        assert len(tensor.frames) == 4
        assert tensor.shape == (16, 16, 3)

    @pytest.mark.parametrize("window_us,expected", [(20000, 13), (50000, 6), (80000, 4)])
    def test_window_length_flag(self, tmp_path, window_us, expected):
        src = tmp_path / "ev.txt"
        write_events(src, ["0 1 1 1", "250000 2 2 -1"])
        out = tmp_path / "frames.evfr"
        assert run("encode", src, out, "--geometry", "16x16", "--window-us", window_us) == 0
        assert len(read_frame_tensor(out.read_bytes()).frames) == expected

    def test_empty_input_gives_zero_frames(self, tmp_path):
        src = tmp_path / "ev.txt"
        src.write_text("")
        out = tmp_path / "frames.evfr"
        assert run("encode", src, out, "--geometry", "8x4") == 0
        tensor = read_frame_tensor(out.read_bytes())
        assert tensor.frames == []
        assert tensor.shape == (4, 8, 3)

    @pytest.mark.parametrize("polarity,channels", [("merged", 3), ("ignore", 1)])
    def test_empty_input_tensor_has_the_polarity_modes_channels(self, tmp_path, polarity, channels):
        src = tmp_path / "ev.txt"
        src.write_text("")
        out = tmp_path / "frames.evfr"
        assert run("encode", src, out, "--geometry", "8x4", "--polarity", polarity) == 0
        assert out.read_bytes() == struct.pack("<4sBIIII", b"EVFR", 1, 8, 4, channels, 0)

    def test_polarity_ignore_writes_one_channel(self, tmp_path):
        src = tmp_path / "ev.txt"
        write_events(src, ["0 1 1 1", "10 1 1 -1"])
        out = tmp_path / "frames.evfr"
        assert run("encode", src, out, "--geometry", "4x4", "--polarity", "ignore") == 0
        assert read_frame_tensor(out.read_bytes()).shape == (4, 4, 1)

    def test_count_kind_records_counts(self, tmp_path):
        src = tmp_path / "ev.txt"
        write_events(src, ["0 1 2 1", "10 1 2 1", "20 3 0 -1"])
        out = tmp_path / "frames.evfr"
        assert run("encode", src, out, "--geometry", "4x4", "--kind", "count") == 0
        frame = read_frame_tensor(out.read_bytes()).frames[0]
        # counts are jointly rescaled so the max count maps to 255
        assert frame.pixels[2, 1, 0] == 255
        assert frame.pixels[0, 3, 1] == 128

    def test_emit_images(self, tmp_path):
        src = tmp_path / "ev.txt"
        write_events(src, ["0 1 1 1", "250000 2 2 -1"])
        out = tmp_path / "frames.evfr"
        img_dir = tmp_path / "imgs"
        assert run("encode", src, out, "--geometry", "16x16", "--emit-images", img_dir) == 0
        files = sorted(p.name for p in img_dir.iterdir())
        assert files == [f"frame_{i:06d}.ppm" for i in range(4)]
        assert (img_dir / "frame_000000.ppm").read_bytes().startswith(b"P6\n16 16\n255\n")

    def test_emit_images_grayscale_for_single_channel(self, tmp_path):
        src = tmp_path / "ev.txt"
        write_events(src, ["0 1 1 1"])
        out = tmp_path / "frames.evfr"
        img_dir = tmp_path / "imgs"
        assert (
            run("encode", src, out, "--geometry", "4x4", "--polarity", "ignore",
                "--emit-images", img_dir) == 0
        )
        assert (img_dir / "frame_000000.pgm").read_bytes().startswith(b"P5\n4 4\n")

    def test_runs_are_deterministic_and_thread_count_neutral(self, tmp_path):
        rng = np.random.default_rng(17)
        t = np.sort(rng.integers(0, 400_000, size=500))
        lines = [
            f"{t[i]} {rng.integers(0, 32)} {rng.integers(0, 32)} {rng.choice([1, -1])}"
            for i in range(500)
        ]
        src = tmp_path / "ev.txt"
        write_events(src, lines)
        outputs = []
        for name in ("a", "b", "c"):
            out = tmp_path / f"{name}.evfr"
            assert run("encode", src, out, "--geometry", "32x32") == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("polarity,fmt", and_text(["merged", "ignore"]))
    def test_small_blocks_give_identical_tensor_and_images(
        self, tmp_path, monkeypatch, polarity, fmt
    ):
        rng = np.random.default_rng(5)
        ticks = 2**32 - 30_000 + np.cumsum(rng.integers(0, 2_000, size=60))
        aedat = tmp_path / "rec.aedat"
        aedat.write_bytes(
            HEADER
            + b"".join(
                dvs128_record(int(rng.integers(0, 128)), int(rng.integers(0, 128)),
                              int(rng.choice([1, -1])), int(t) % 2**32)
                for t in ticks
            )
        )
        src = as_input(aedat, fmt)
        results = []
        for block in (ingest._BLOCK_RECORDS, 3):
            monkeypatch.setattr(ingest, "_BLOCK_RECORDS", block)
            out, imgs = tmp_path / f"{block}.evfr", tmp_path / f"imgs{block}"
            args = ("--window-us", 5000, "--polarity", polarity, "--emit-images", imgs)
            assert run("encode", src, out, *args) == 0
            images = [(p.name, p.read_bytes()) for p in sorted(imgs.iterdir())]
            results.append((out.read_bytes(), images))
        assert results[0] == results[1]
        assert len(results[0][1]) == len(read_frame_tensor(results[0][0]).frames) > 10

    @pytest.mark.parametrize("polarity,suffix", [("merged", "ppm"), ("ignore", "pgm")])
    def test_emitted_images_are_the_tensor_frames(self, tmp_path, polarity, suffix):
        src = tmp_path / "rec.aedat"
        davis_file(src, 500)
        out, imgs = tmp_path / "frames.evfr", tmp_path / "imgs"
        argv = ("--layout", "davis240c", "--window-us", 2000, "--polarity", polarity)
        assert run("encode", src, out, *argv, "--emit-images", imgs) == 0
        frames = read_frame_tensor(out.read_bytes()).frames
        images = sorted(imgs.iterdir())
        assert [p.name for p in images] == [f"frame_{i:06d}.{suffix}" for i in range(len(frames))]
        assert [p.read_bytes() for p in images] == [write_pnm(f.pixels) for f in frames]
        assert len(frames) > 5

    def test_frame_count_limit_is_data_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(formats, "MAX_FRAME_COUNT", 2)
        src = tmp_path / "ev.txt"
        write_events(src, ["0 1 1 1", "250000 2 2 -1"])
        assert run("encode", src, tmp_path / "frames.evfr", "--geometry", "16x16") == 1
        assert capsys.readouterr().err == (
            "evframes: frame tensor format version 1 holds at most 2 frames\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ev.txt"]

    def test_aedat_input_autodetected(self, tmp_path):
        src = tmp_path / "rec.aedat"
        src.write_bytes(HEADER + dvs128_record(5, 6, 1, 100) + dvs128_record(7, 8, -1, 200))
        out = tmp_path / "frames.evfr"
        assert run("encode", src, out) == 0
        tensor = read_frame_tensor(out.read_bytes())
        assert tensor.shape == (128, 128, 3)
        assert len(tensor.frames) == 1


class TestChunk:
    def write_tensor(self, path, n, empty_mask=None):
        empty_mask = empty_mask or [False] * n
        frames = [
            EncodedFrame(
                np.zeros((2, 2, 3), dtype=np.uint8), None, None, i * 10, (i + 1) * 10, empty_mask[i]
            )
            for i in range(n)
        ]
        path.write_bytes(write_frame_tensor(frames, shape=(2, 2, 3)))

    def test_five_frames_manifest(self, tmp_path, capsys):
        path = tmp_path / "frames.evfr"
        self.write_tensor(path, 5)
        assert run("chunk", path) == 0
        assert capsys.readouterr().out == "0 1 2\n1 2 3\n2 3 4\n"

    def test_three_frames_one_line(self, tmp_path, capsys):
        path = tmp_path / "frames.evfr"
        self.write_tensor(path, 3)
        assert run("chunk", path) == 0
        assert capsys.readouterr().out == "0 1 2\n"

    def test_two_frames_empty_manifest(self, tmp_path, capsys):
        path = tmp_path / "frames.evfr"
        self.write_tensor(path, 2)
        assert run("chunk", path) == 0
        assert capsys.readouterr().out == ""

    def test_drop_policy(self, tmp_path, capsys):
        path = tmp_path / "frames.evfr"
        self.write_tensor(path, 5, empty_mask=[False, True, True, True, True])
        assert run("chunk", path, "--policy", "drop_all_empty_chunks") == 0
        assert capsys.readouterr().out == "0 1 2\n"

    def test_output_file(self, tmp_path):
        path = tmp_path / "frames.evfr"
        self.write_tensor(path, 4)
        manifest = tmp_path / "chunks.txt"
        assert run("chunk", path, "-o", manifest) == 0
        assert manifest.read_text() == "0 1 2\n1 2 3\n"

    def test_reads_only_frame_prefixes(self, tmp_path):
        path, manifest = tmp_path / "frames.evfr", tmp_path / "chunks.txt"
        pixels = np.zeros((128, 128, 3), dtype=np.uint8)
        with open(path, "wb") as f:
            write_frame_tensor_to(
                f, (EncodedFrame(pixels, None, None, i, i + 1, i % 4 > 0) for i in range(200)),
                (128, 128, 3),
            )
        assert path.stat().st_size > 9_000_000
        code, peak = traced_peak("chunk", path, "--policy", "drop_all_empty_chunks", "-o", manifest)
        assert code == 0
        assert peak < 1 << 20
        assert manifest.read_text() == "".join(
            f"{j - 2} {j - 1} {j}\n" for j in range(2, 200) if j % 4 < 3
        )

    def test_memory_holds_no_chunk_list(self, tmp_path):
        # 50,000 one-pixel frames, a third of them empty, in runs of three.
        path, manifest = tmp_path / "frames.evfr", tmp_path / "chunks.txt"
        empty = [i // 3 % 3 == 0 for i in range(50_000)]
        pixel = np.zeros((1, 1, 1), dtype=np.uint8)
        with open(path, "wb") as f:
            write_frame_tensor_to(
                f, (EncodedFrame(pixel, None, None, i, i + 1, e) for i, e in enumerate(empty)),
                (1, 1, 1),
            )
        code, peak = traced_peak("chunk", path, "--policy", "drop_all_empty_chunks", "-o", manifest)
        assert code == 0
        assert peak < 2 << 20
        assert manifest.read_text() == "".join(
            f"{j - 2} {j - 1} {j}\n" for j in range(2, 50_000) if not all(empty[j - 2 : j + 1])
        )

    def test_memory_holds_one_byte_per_flag(self, tmp_path):
        # 60,000 one-pixel frames, a third of them empty: a list of their flags
        # takes 480 kB in slots alone, a bytearray 60 kB.
        path, manifest = tmp_path / "frames.evfr", tmp_path / "chunks.txt"
        n = 60_000
        empty = [i // 3 % 3 == 0 for i in range(n)]
        prefix = struct.Struct("<qqBB")  # the prefix and the one pixel byte
        path.write_bytes(
            struct.pack("<4sBIIII", b"EVFR", 1, 1, 1, 1, n)
            + b"".join(prefix.pack(i, i + 1, e, 0) for i, e in enumerate(empty))
        )
        code, peak = traced_peak("chunk", path, "--policy", "drop_all_empty_chunks", "-o", manifest)
        assert code == 0
        assert peak < 512 << 10
        assert manifest.read_text() == "".join(
            f"{j - 2} {j - 1} {j}\n" for j in range(2, n) if not all(empty[j - 2 : j + 1])
        )

    @pytest.mark.parametrize(
        "corrupt,message",
        [
            (lambda d: b"JUNK" + d[4:], "bad magic b'JUNK', expected b'EVFR'"),
            (lambda d: d[:-1], "file length 165 does not match header "
                               "(5 frames of 2x2x3 need 166 bytes)"),
            (lambda d: d[:21 + 3 * 29 + 16] + b"\x02" + d[21 + 3 * 29 + 17 :],
             "frame 3: empty flag must be 0 or 1, got 2"),
        ],
        ids=["magic", "truncated", "flag"],
    )
    def test_corrupt_tensor_is_data_error(self, tmp_path, capsys, corrupt, message):
        path = tmp_path / "frames.evfr"
        self.write_tensor(path, 5)
        path.write_bytes(corrupt(path.read_bytes()))
        assert run("chunk", path) == 1
        captured = capsys.readouterr()
        assert captured.err == f"evframes: {message}\n"
        assert captured.out == ""


class TestAggregate:
    def test_two_chunk_mean(self, tmp_path, capsys):
        scores = tmp_path / "scores.txt"
        scores.write_text("# k=2\n0,0.2,0.8\n1,0.4,0.6\n")
        assert run("aggregate", scores) == 0
        out = capsys.readouterr().out.splitlines()
        values = [float(v) for v in out[0].split(":")[1].split()]
        np.testing.assert_allclose(values, [0.3, 0.7])
        assert out[1] == "label: 1"

    def test_class_names_reported(self, tmp_path, capsys):
        scores = tmp_path / "scores.txt"
        scores.write_text("# k=2 classes=walk,run\n0,0.9,0.1\n")
        assert run("aggregate", scores) == 0
        assert "label_name: walk" in capsys.readouterr().out

    def test_overflowing_sums_give_finite_means(self, tmp_path, capsys):
        scores = tmp_path / "scores.txt"
        scores.write_text("# k=2\n0,1.5e308,1.7e308\n1,1.5e308,1.7e308\n")
        assert run("aggregate", scores) == 0
        captured = capsys.readouterr()
        assert captured.out == "mean_scores: 1.5e+308 1.7e+308\nlabel: 1\n"
        assert captured.err == ""

    def test_bad_score_file_is_data_error(self, tmp_path, capsys):
        scores = tmp_path / "scores.txt"
        scores.write_text("0,0.9,0.1\n")
        assert run("aggregate", scores) == 1
        assert "header" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [b"# caf\xe9", b"1,0.5\xe9,0.5"], ids=["comment", "data"])
    def test_bad_byte_names_its_line(self, tmp_path, capsys, line):
        scores = tmp_path / "scores.txt"
        scores.write_bytes(b"# k=2\n0,0.5,0.5\n" + line + b"\n")
        assert run("aggregate", scores) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "evframes: line 3: not valid UTF-8\n")

    def test_utf8_text_and_crlf_line_ends(self, tmp_path, capsys):
        scores = tmp_path / "scores.txt"
        text = "# k=2 classes=caf\u00e9,th\u00e9\r\n# n\u00e9\r\n0,0.2,0.8\r\n"
        scores.write_bytes(text.encode())
        assert run("aggregate", scores) == 0
        assert capsys.readouterr().out.endswith("label: 1\nlabel_name: th\u00e9\n")


# Score tables and what `evframes aggregate` made of them before it read
# tables a row at a time: (id, bytes, exit code, stdout, error message or "").
AGGREGATE_PARITY = [
    ("bad-header", b"# k=zero\n0,1,2\n", 1, "", "line 1: bad k value 'zero'"),
    ("no-k", b"# classes=a,b\n", 1, "", "line 1: header must declare k=<positive count>"),
    ("short-row", b"# k=3\n0,0.1,0.2,0.3\n1,0.5\n", 1, "", "line 3: expected 3 scores, got 1"),
    ("long-row", b"# k=1\n0,0.1,0.2\n", 1, "", "line 2: expected 1 scores, got 2"),
    ("nan", b"# k=2\n0,0.5,0.5\n1,nan,0.5\n", 1, "", "line 3: scores must be finite"),
    ("inf", b"# k=2\n0,inf,0.5\n", 1, "", "line 2: scores must be finite"),
    ("bad-float", b"# k=2\n0,0.5,abc\n", 1, "",
     "line 2: could not convert string to float: 'abc'"),
    ("bad-index", b"# k=1\nx,0.5\n", 1, "",
     "line 2: invalid literal for int() with base 10: 'x'"),
    ("non-ascending", b"# k=2\n3,0.1,0.2\n5,0.1,0.2\n4,0.3,0.3\n", 1, "",
     "line 4: chunk index 4 not greater than previous 5"),
    ("repeated-index", b"# k=2\n3,0.1,0.2\n3,0.1,0.2\n", 1, "",
     "line 3: chunk index 3 not greater than previous 3"),
    ("invalid-utf8-data", b"# k=2\n0,0.5,0.5\n1,0.5\xe9,0.5\n", 1, "", "line 3: not valid UTF-8"),
    ("invalid-utf8-comment", b"# k=2\n0,0.5,0.5\n# caf\xe9\n", 1, "", "line 3: not valid UTF-8"),
    ("invalid-utf8-first", b"\xff\n# k=2\n", 1, "", "line 1: not valid UTF-8"),
    ("crlf-vt", b"# k=2 classes=a,b\r\n0,0.25,0.75\x0b1,0.5,0.5\r\n\r2,0.125,0.0\r", 0,
     "mean_scores: 0.2916666666666667 0.4166666666666667\nlabel: 1\nlabel_name: b\n", ""),
    ("other-breaks", b"# k=1\x1c0,1.5\xe2\x80\xa81,2.5\xc2\x85\x0c2,-1.0\n", 0,
     "mean_scores: 1.0\nlabel: 0\n", ""),
    ("empty", b"", 1, "", "score file has no '# k=...' header"),
    ("blank-lines", b"\n \n\t\n", 1, "", "score file has no '# k=...' header"),
    ("huge-k", b"# k=1000000000000\n", 1, "", "no chunks to aggregate"),
    ("huge-k-row", b"# k=1000000000000\n0,1.0\n", 1, "",
     "line 2: expected 1000000000000 scores, got 1"),
    ("only-comments", b"# k=2\n# note\n#\n", 1, "", "no chunks to aggregate"),
    ("data-before-header", b"\n0,0.9,0.1\n# k=2\n", 1, "",
     "line 2: expected '# k=...' header before data"),
    ("class-count", b"# k=2 classes=a\n0,1,2\n", 1, "", "line 1: 1 class names for k=2"),
    ("class-names",
     b"# k=3 classes=walk,run,caf\xc3\xa9\n0,0.1,0.2,0.3\n2,0.3,0.1,0.9\n7,0.5,0.05,0.5\n", 0,
     "mean_scores: 0.3 0.11666666666666668 0.5666666666666667\nlabel: 2\nlabel_name: caf\u00e9\n",
     ""),
    ("second-header-ignored", b"# k=2\n0,1,2\n# k=3 classes=a,b,c\n1,3,4\n", 0,
     "mean_scores: 2.0 3.0\nlabel: 1\n", ""),
    ("tie", b"# k=3\n0,0.5,0.25,0.5\n", 0, "mean_scores: 0.5 0.25 0.5\nlabel: 0\n", ""),
    ("negative-zero", b"# k=1\n0,-0.0\n", 0, "mean_scores: 0.0\nlabel: 0\n", ""),
    ("negative-zero-2", b"# k=2\n-4,-0.0,-5e-324\n0,-0.0,0.0\n", 0,
     "mean_scores: 0.0 -0.0\nlabel: 0\n", ""),
    ("negative-indices", b"# k=2\n-9,0.1,0.3\n-2,0.7,0.2\n5,0.2,0.2\n", 0,
     "mean_scores: 0.3333333333333333 0.2333333333333333\nlabel: 0\n", ""),
    # Classes x and z overflow, so the table is read twice.
    ("overflow",
     b"# k=3 classes=x,y,z\n0,1.5e308,0.1,-1.7e308\n1,1.5e308,0.2,-1.7e308\n"
     b"2,1.6e308,0.3,-1.0e308\n", 0,
     "mean_scores: 1.5333333333333334e+308 0.20000000000000004 -1.4666666666666666e+308\n"
     "label: 0\nlabel_name: x\n", ""),
    ("overflow-then-bad", b"# k=2\n0,1.5e308,1.7e308\n1,1.5e308,1.7e308\n2,0.5\n", 1, "",
     "line 4: expected 2 scores, got 1"),
    ("spaces", b"  # k=2   classes=p,q  \n  0 , 0.5 , 0.25 \n\t1,0.5,0.75\t\n", 0,
     "mean_scores: 0.5 0.5\nlabel: 0\nlabel_name: p\n", ""),
]


class TestAggregateParity:
    @pytest.mark.parametrize(
        "data,code,out,err", [pytest.param(*case[1:], id=case[0]) for case in AGGREGATE_PARITY]
    )
    def test_output_error_and_exit_code(self, tmp_path, capsys, data, code, out, err):
        scores = tmp_path / "scores.txt"
        scores.write_bytes(data)
        assert run("aggregate", scores) == code
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (out, f"evframes: {err}\n" if err else "")


class TestWithoutNumpy:
    """`import evframes`, `--help`, `chunk` and `aggregate` never import numpy.

    Each runs `python -m evframes` in a child, which reports at exit whether
    numpy was imported. Only a score table whose sums overflow may import it,
    for the rescale of the overflowing classes.
    """

    CHILD = (
        "import atexit, runpy, sys; "
        "atexit.register(lambda: print('numpy' in sys.modules, file=sys.stderr)); "
        "runpy.run_module('evframes', run_name='__main__', alter_sys=True)"
    )

    def run_child(self, *argv):
        result = subprocess.run(
            [sys.executable, "-c", self.CHILD, *map(str, argv)],
            capture_output=True, env=child_env(), timeout=60,
        )
        *_, numpy_imported = result.stderr.decode().splitlines()
        return result.returncode, numpy_imported == "True"

    def test_import_alone(self):
        code = "import sys, evframes; print('numpy' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, env=child_env(), timeout=60
        )
        assert result.stdout == b"False\n"

    def test_commands(self, tmp_path):
        frames, bad_frames = tmp_path / "frames.evfr", tmp_path / "bad.evfr"
        pixel = np.zeros((1, 1, 1), dtype=np.uint8)
        frames.write_bytes(
            write_frame_tensor([EncodedFrame(pixel, None, None, i, i + 1, i < 3) for i in range(6)])
        )
        bad_frames.write_bytes(b"JUNK" + frames.read_bytes()[4:])
        scores, bad_scores = tmp_path / "scores.txt", tmp_path / "bad.txt"
        scores.write_text("# k=2 classes=walk,run\n0,0.2,0.8\n3,0.4,0.6\n")
        bad_scores.write_text("# k=2\n0,0.2,1e999\n")
        out = tmp_path / "out.txt"
        for argv, code in [
            (["--help"], 0),
            (["chunk", frames], 0),
            (["chunk", frames, "--policy", "drop_all_empty_chunks", "-o", out], 0),
            (["chunk", bad_frames], 1),
            (["chunk", frames, "--policy", "nope"], 2),
            (["aggregate", scores], 0),
            (["aggregate", scores, "-o", out], 0),
            (["aggregate", bad_scores], 1),
            (["aggregate"], 2),
        ]:
            assert self.run_child(*argv) == (code, False), argv

    def test_overflowing_table_may_import_numpy(self, tmp_path):
        scores = tmp_path / "scores.txt"
        scores.write_text("# k=2\n0,1.5e308,1.7e308\n1,1.5e308,1.7e308\n")
        assert self.run_child("aggregate", scores) == (0, True)


class TestHeapPad:
    """Only the block-reading commands pad the heap top, and the others never load ctypes."""

    def test_only_block_readers_pad(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "_pad_heap_top", lambda: calls.append(True))
        events, frames = tmp_path / "in.txt", tmp_path / "frames.evfr"
        write_events(events, ["0 1 2 1", "10 3 4 -1"])
        scores = tmp_path / "scores.txt"
        scores.write_text("# k=2\n0,0.2,0.8\n")
        for argv, pads in [
            (["encode", events, frames], 1),
            (["info", events], 1),
            (["truncate", events, tmp_path / "head.txt", "--ratio", "0.5"], 1),
            (["chunk", frames, "-o", tmp_path / "chunks.txt"], 0),
            (["aggregate", scores, "-o", tmp_path / "prediction.txt"], 0),
        ]:
            calls.clear()
            assert run(*argv) == 0
            assert len(calls) == pads, argv

    def test_lean_paths_never_load_ctypes(self, tmp_path):
        frames, scores = tmp_path / "frames.evfr", tmp_path / "scores.txt"
        pixel = np.zeros((1, 1, 1), dtype=np.uint8)
        frames.write_bytes(write_frame_tensor([EncodedFrame(pixel, None, None, 0, 1, False)]))
        scores.write_text("# k=2\n0,0.2,0.8\n")
        report = "import atexit, sys; atexit.register(lambda: print('ctypes' in sys.modules)); "
        for code in [
            report + "import evframes",
            *(report + f"import runpy; sys.argv[1:] = {list(map(str, argv))!r}; "
              "runpy.run_module('evframes', run_name='__main__', alter_sys=True)"
              for argv in (["--help"], ["chunk", frames], ["aggregate", scores])),
        ]:
            result = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, env=child_env(), timeout=60
            )
            assert result.stdout.decode().splitlines()[-1] == "False", code


def test_score_layer_runs_without_numpy():
    code = (
        "import sys\n"
        "from evframes.formats import parse_scores, write_scores\n"
        "from evframes.scoring import ScoreVector, temporal_average_pool\n"
        "vectors = [ScoreVector([0.25, 0.75], 2), ScoreVector([0.5, 0.125], 0)]\n"
        "back, names = parse_scores(write_scores(vectors, ['walk', 'run']))\n"
        "p = temporal_average_pool(back, names)\n"
        "print([v.values for v in back], p.values, p.label_name, 'numpy' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, env=child_env(), timeout=60
    )
    assert result.stdout.decode() == (
        "[(0.5, 0.125), (0.25, 0.75)] (0.375, 0.4375) run False\n"
    ), result.stderr.decode()


class TestSimulate:
    def test_constant_scene_gives_empty_stream(self, tmp_path):
        tensor = tmp_path / "in.evfr"
        intensity_tensor(tensor, np.full((3, 2, 2), 40))
        out = tmp_path / "events.txt"
        assert run("simulate", tensor, out) == 0
        assert out.read_text() == ""

    def test_two_frame_ramp(self, tmp_path):
        tensor = tmp_path / "in.evfr"
        v0, v1 = 0, 200  # log(201/1) spans many thresholds
        intensity_tensor(tensor, [[[v0]], [[v1]]], dt_us=1000)
        out = tmp_path / "events.txt"
        assert run("simulate", tensor, out, "--threshold", "1.0") == 0
        stream = parse_text(out.read_text(), SensorGeometry(1, 1))
        assert len(stream) == int(np.floor(np.log(201.0) / 1.0))
        assert np.all(stream.p == 1)

    def test_prescaled_pairs_match(self, tmp_path):
        # intensity 1+v: (v0,v1)=(0,1) and (1,3) both double the intensity,
        # so the emitted streams are identical
        out_a, out_b = tmp_path / "a.txt", tmp_path / "b.txt"
        for name, (v0, v1) in [(out_a, (0, 1)), (out_b, (1, 3))]:
            tensor = tmp_path / f"{name.stem}.evfr"
            intensity_tensor(tensor, [[[v0]], [[v1]]])
            assert run("simulate", tensor, name, "--threshold", "0.3") == 0
        assert out_a.read_text() == out_b.read_text()
        assert out_a.read_text() != ""

    def test_frame_times_near_int64_max_are_data_error(self, tmp_path, capsys):
        tensor = tmp_path / "in.evfr"
        frames = [
            EncodedFrame(np.full((2, 2, 1), v, dtype=np.uint8), None, None, start, start + 1, False)
            for v, start in [(0, 2**63 - 1001), (200, 2**63 - 2)]
        ]
        tensor.write_bytes(write_frame_tensor(frames))
        out = tmp_path / "out.txt"
        assert run("simulate", tensor, out) == 1
        assert capsys.readouterr().err == (
            "evframes: frame timestamps must lie in 0..9007199254740992 us\n"
        )
        assert not out.exists()

    def test_infinite_or_tiny_threshold_is_refused(self, tmp_path, capsys):
        tensor, out = tmp_path / "in.evfr", tmp_path / "out.txt"
        intensity_tensor(tensor, [[[0, 0], [0, 0]], [[1, 1], [1, 1]]])
        with pytest.raises(SystemExit) as exc:
            run("simulate", tensor, out, "--threshold", "inf")
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            " error: argument --threshold: must be finite and > 0, got inf\n"
        )
        assert run("simulate", tensor, out, "--threshold", "1e-300") == 1
        assert capsys.readouterr().err == (
            "evframes: frames 0 to 1: more threshold crossings than int64 can count\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.evfr"]

    def test_events_past_memory_are_data_error(self, tmp_path, capsys):
        # ~5e17 crossings fit int64, but their events do not fit memory: numpy
        # refuses the 3.68 EiB request without allocating any of it.
        tensor, out = tmp_path / "in.evfr", tmp_path / "out.txt"
        intensity_tensor(tensor, [[[0]], [[200]]])
        assert run("simulate", tensor, out, "--threshold", "1e-17") == 1
        err = capsys.readouterr().err
        assert err.startswith("evframes: Unable to allocate 3.68 EiB ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_multichannel_input_is_data_error(self, tmp_path, capsys):
        tensor = tmp_path / "in.evfr"
        frames = [
            EncodedFrame(np.zeros((2, 2, 3), dtype=np.uint8), None, None, i * 10, (i + 1) * 10, False)
            for i in range(2)
        ]
        tensor.write_bytes(write_frame_tensor(frames))
        assert run("simulate", tensor, tmp_path / "out.txt") == 1
        assert "1-channel" in capsys.readouterr().err

    @pytest.mark.parametrize("refractory", [0, 700])
    def test_matches_library_simulate(self, tmp_path, refractory):
        rng = np.random.default_rng(refractory)
        values = rng.integers(0, 256, size=(6, 5, 7))
        tensor, out = tmp_path / "in.evfr", tmp_path / "events.txt"
        intensity_tensor(tensor, values, dt_us=1500)
        assert run("simulate", tensor, out, "--refractory-us", refractory) == 0
        times = np.arange(6) * 1500
        expected = simulate(values + 1.0, times, SimConfig(0.2, refractory))
        assert len(expected) > 100
        assert out.read_text() == write_text(expected)

    def test_memory_stays_within_a_few_frames(self, tmp_path):
        # 64 DAVIS240C frames, whose float64 stack alone is 22 MB, with a
        # bright square drifting over a still background.
        values = np.full((64, 180, 240), 40, dtype=np.uint8)
        for i in range(64):
            values[i, 60:100, 2 * i : 2 * i + 40] = 200
        tensor, out = tmp_path / "in.evfr", tmp_path / "events.txt"
        intensity_tensor(tensor, values)
        code, peak = traced_peak("simulate", tensor, out)
        assert code == 0
        assert peak < 8 << 20
        expected = simulate(values + 1.0, np.arange(64) * 1000, SimConfig())
        assert out.read_text() == write_text(expected)

    def test_memory_holds_one_int64_per_frame_time(self, tmp_path, capsys):
        # 100,000 two-channel 1x1 frames, refused after the prefix pass: a list
        # of their times takes 800 kB in slots and 2.8 MB in ints, an int64 array 800 kB.
        tensor = tmp_path / "in.evfr"
        n = 100_000
        prefix = struct.Struct("<qqBH")  # the prefix and the two pixel bytes
        tensor.write_bytes(
            struct.pack("<4sBIIII", b"EVFR", 1, 1, 1, 2, n)
            + b"".join(prefix.pack(i, i + 1, 0, 0) for i in range(n))
        )
        code, peak = traced_peak("simulate", tensor, tmp_path / "out.txt")
        assert code == 1
        assert capsys.readouterr().err == (
            "evframes: simulate needs 1-channel intensity frames, got 2 channels\n"
        )
        assert peak < 2 << 20

    def test_single_frame_is_data_error(self, tmp_path, capsys):
        tensor = tmp_path / "in.evfr"
        intensity_tensor(tensor, np.zeros((1, 2, 2)))
        assert run("simulate", tensor, tmp_path / "out.txt") == 1
        assert "two frames" in capsys.readouterr().err


class TestTruncate:
    def test_full_ratio_round_trips(self, tmp_path):
        src = tmp_path / "ev.txt"
        lines = ["0 1 1 1", "100 2 2 -1", "900 3 3 1"]
        write_events(src, lines)
        out = tmp_path / "out.txt"
        assert run("truncate", src, out, "--geometry", "8x8", "--ratio", "1.0") == 0
        assert out.read_text() == "0 1 1 1\n100 2 2 -1\n900 3 3 1\n"

    def test_uniform_stream_keeps_leading_tenth(self, tmp_path):
        src = tmp_path / "ev.txt"
        write_events(src, [f"{t} 0 0 1" for t in range(1000)])
        out = tmp_path / "out.txt"
        assert run("truncate", src, out, "--geometry", "8x8", "--ratio", "0.1") == 0
        kept = out.read_text().splitlines()
        assert len(kept) == 100
        assert kept[-1].startswith("99 ")

    @pytest.mark.parametrize("block,fmt", and_text([3, 64, ingest._BLOCK_RECORDS]))
    @pytest.mark.parametrize("ratio", [1.0, 0.1, 0.05])
    def test_matches_library_truncation(self, tmp_path, monkeypatch, block, fmt, ratio):
        aedat, out = tmp_path / "rec.aedat", tmp_path / "out.txt"
        davis_file(aedat, 300)
        stream = parse_aedat2(aedat.read_bytes(), DAVIS240C_LAYOUT, DAVIS240C_GEOMETRY)
        src = as_input(aedat, fmt, DAVIS240C_LAYOUT, DAVIS240C_GEOMETRY)
        monkeypatch.setattr(ingest, "_BLOCK_RECORDS", block)
        assert run("truncate", src, out, "--layout", "davis240c", "--ratio", ratio) == 0
        assert out.read_text() == write_text(truncate_by_ratio(stream, ratio))

    @pytest.mark.parametrize("fmt", ["aedat", "text"])
    def test_memory_stays_within_a_few_blocks(self, tmp_path, monkeypatch, fmt):
        # One block of 1000 records costs about 0.3 MB, mostly its text;
        # the whole 100k-record stream would cost about 25 MB.
        aedat, out = tmp_path / "rec.aedat", tmp_path / "out.txt"
        davis_file(aedat, 100_000)
        src = as_input(aedat, fmt, DAVIS240C_LAYOUT, DAVIS240C_GEOMETRY)
        monkeypatch.setattr(ingest, "_BLOCK_RECORDS", 1000)
        flags = ("--layout", "davis240c")
        code, peak = traced_peak("truncate", src, out, *flags, "--ratio", 0.9)
        assert code == 0
        assert peak < 1 << 20
        assert len(out.read_text().splitlines()) > 80_000
        assert traced_peak("info", src, *flags)[1] < 1 << 20
        assert traced_peak("encode", src, tmp_path / "frames.evfr", *flags)[1] < 1 << 20

    @pytest.mark.parametrize("fmt", ["aedat", "text"])
    def test_one_window_memory_stays_within_a_few_blocks(self, tmp_path, monkeypatch, fmt):
        # The 100k events of one window would cost about 2 MB as columns and
        # far more as per-event temporaries; folded, the window costs one
        # int64 per cell of the 240x180 frame (0.35 MB).
        aedat, frames = tmp_path / "rec.aedat", tmp_path / "frames.evfr"
        davis_file(aedat, 100_000)
        src = as_input(aedat, fmt, DAVIS240C_LAYOUT, DAVIS240C_GEOMETRY)
        monkeypatch.setattr(ingest, "_BLOCK_RECORDS", 1000)
        flags = ("--layout", "davis240c", "--window-us", 10**9, "--polarity", "ignore")
        code, peak = traced_peak("encode", src, frames, *flags)
        assert code == 0
        assert peak < 2 << 20
        stream = parse_aedat2(aedat.read_bytes(), DAVIS240C_LAYOUT, DAVIS240C_GEOMETRY)
        expected = encode_per_window(stream, WindowConfig(10**9), "timestamp", "ignore")
        assert len(expected) == 1
        assert frames.read_bytes() == write_frame_tensor(expected, (180, 240, 1))

    @pytest.mark.parametrize(
        "name,data,message",
        [
            ("rec.aedat", HEADER, "cannot truncate empty stream"),
            ("rec.aedat",
             HEADER + b"".join(dvs128_record(9 if i == 5 else 1, 1, 1, i) for i in range(8)),
             "record 5: coordinate (9, 1) outside 8x8 geometry"),
            ("ev.txt", b"", "cannot truncate empty stream"),
            ("ev.txt", "".join(f"{i} {9 if i == 5 else 1} 1 1\n" for i in range(8)).encode(),
             "line 6: coordinate (9, 1) outside 8x8 geometry"),
        ],
        ids=["empty", "bad-coordinate", "empty-text", "bad-coordinate-text"],
    )
    def test_data_error_writes_nothing(self, tmp_path, capsys, monkeypatch, name, data, message):
        monkeypatch.setattr(ingest, "_BLOCK_RECORDS", 2)
        src = tmp_path / name
        src.write_bytes(data)
        assert run("truncate", src, tmp_path / "out.txt", "--geometry", "8x8", "--ratio", 1) == 1
        assert capsys.readouterr().err == f"evframes: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [name]

    @pytest.mark.parametrize(
        "text,message",
        [
            ("", "cannot truncate empty stream"),
            ("0 1 1 1\n5 9 1 1\n", "line 2: coordinate (9, 1) outside 8x8 geometry"),
        ],
        ids=["empty", "bad-coordinate"],
    )
    def test_input_error_comes_before_a_missing_output_directory(
        self, tmp_path, capsys, text, message
    ):
        # The whole input is read and checked before the output is opened.
        src = tmp_path / "ev.txt"
        src.write_text(text)
        out = tmp_path / "missing" / "out.txt"
        assert run("truncate", src, out, "--geometry", "8x8", "--ratio", 1) == 1
        assert capsys.readouterr().err == f"evframes: {message}\n"
        src.write_text("0 1 1 1\n")
        assert run("truncate", src, out, "--geometry", "8x8", "--ratio", 1) == 1
        missing = f"evframes: [Errno 2] No such file or directory: '{out}'\n"
        assert capsys.readouterr().err == missing
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ev.txt"]

    @pytest.mark.parametrize("ratio", ["1.5", "0", "-0.1"])
    def test_out_of_range_ratio_is_usage_error(self, tmp_path, ratio):
        src = tmp_path / "ev.txt"
        write_events(src, ["0 1 1 1"])
        with pytest.raises(SystemExit) as exc:
            run("truncate", src, tmp_path / "o.txt", "--geometry", "8x8", "--ratio", ratio)
        assert exc.value.code == 2


class TestInfo:
    def test_aedat_summary_with_stats(self, tmp_path, capsys):
        src = tmp_path / "rec.aedat"
        src.write_bytes(
            HEADER + dvs128_record(1, 2, 1, 100) + dvs128_record(3, 4, -1, 250)
        )
        assert run("info", src) == 0
        out = capsys.readouterr().out
        assert "geometry: 128x128" in out
        assert "events: 2" in out
        assert "duration_us: 150" in out
        assert "positive: 1" in out
        assert "negative: 1" in out
        assert "records: 2" in out
        assert "timestamp_wraps: 0" in out

    @pytest.mark.parametrize("block,fmt", and_text([1, 2, 7]))
    def test_block_size_does_not_change_summary(self, tmp_path, capsys, monkeypatch, block, fmt):
        recs = [davis_record(i, 2 * i, 1 if i % 3 else -1, (2**32 - 40 + 10 * i) % 2**32,
                             non_dvs=i % 4 == 1) for i in range(9)]
        aedat = tmp_path / "rec.aedat"
        aedat.write_bytes(HEADER + b"".join(recs))
        src = as_input(aedat, fmt, DAVIS240C_LAYOUT, DAVIS240C_GEOMETRY)
        monkeypatch.setattr(ingest, "_BLOCK_RECORDS", block)
        assert run("info", src, "--layout", "davis240c") == 0
        summary = (
            "geometry: 240x180\nevents: 7\nt_first: 4294967256\nt_last: 4294967336\n"
            "duration_us: 80\npositive: 4\nnegative: 3\n"
        )
        stats = "header_lines: 1\nrecords: 9\nskipped_non_dvs: 2\ntimestamp_wraps: 1\n"
        assert capsys.readouterr().out == summary + (stats if fmt == "aedat" else "")

    @pytest.mark.parametrize("data,header_lines", [(b"", 0), (HEADER, 1)])
    def test_aedat_without_records(self, tmp_path, capsys, data, header_lines):
        src = tmp_path / "rec.aedat"
        src.write_bytes(data)
        assert run("info", src) == 0
        assert capsys.readouterr().out == (
            "geometry: 128x128\nevents: 0\nduration_us: 0\npositive: 0\nnegative: 0\n"
            f"header_lines: {header_lines}\nrecords: 0\nskipped_non_dvs: 0\n"
            "timestamp_wraps: 0\n"
        )

    def test_empty_stream_zero_counts(self, tmp_path, capsys):
        src = tmp_path / "ev.txt"
        src.write_text("")
        assert run("info", src, "--geometry", "4x4") == 0
        out = capsys.readouterr().out
        assert "events: 0" in out
        assert "positive: 0" in out
        assert "negative: 0" in out
        assert "duration_us: 0" in out


class TestExitCodes:
    def test_missing_file_is_data_error(self, tmp_path, capsys):
        assert run("info", tmp_path / "nope.txt") == 1
        assert "evframes:" in capsys.readouterr().err

    def test_corrupt_input_is_data_error(self, tmp_path, capsys):
        src = tmp_path / "ev.txt"
        src.write_text("not an event line\n")
        assert run("info", src) == 1
        assert "line 1" in capsys.readouterr().err

    def test_text_timestamp_beyond_int64_is_data_error(self, tmp_path, capsys):
        src = tmp_path / "ev.txt"
        src.write_text(f"{2**70} 1 1 1\n")
        assert run("info", src) == 1
        err = capsys.readouterr().err
        assert err.startswith("evframes: line 1:") and err.count("\n") == 1

    def test_window_edge_beyond_int64_is_data_error(self, tmp_path, capsys):
        src = tmp_path / "ev.txt"
        write_events(src, ["9223372036854775000 1 1 1", "9223372036854775800 2 2 -1"])
        out = tmp_path / "frames.evfr"
        assert run("encode", src, out, "--window-us", 1000) == 1
        err = capsys.readouterr().err
        assert err.startswith("evframes:") and "int64" in err and err.count("\n") == 1
        assert not out.exists()

    def test_window_end_overflow_fails_before_writing(self, tmp_path):
        # 34 bytes whose 80 ms windows would number 1.15e14 and end past
        # 2**63 - 1. A child with a 1 MiB file-size limit and a timeout keeps
        # a regression from filling the disk.
        src = tmp_path / "ev.txt"
        write_events(src, ["0 0 0 1", "9223372036854775806 0 0 1"])
        out = tmp_path / "frames.evfr"
        proc = subprocess.run(
            [sys.executable, "-m", "evframes", "encode", str(src), str(out)],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=30,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (1 << 20, 1 << 20)),
        )
        edge = ((2**63 - 2) // 80_000 + 1) * 80_000
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", (
            f"evframes: last window would end at {edge}, beyond the int64 range "
            "(events 0..9223372036854775806, window 80000 us)\n"
        ))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ev.txt"]

    def test_more_windows_than_a_tensor_holds_fails_before_writing(self, tmp_path):
        # 16 bytes: two DVS-128 records 2**32 - 1 ticks apart, so 2**32 windows
        # of 1 us, one more than a frame tensor holds. The child is limited as
        # in the test above.
        src = tmp_path / "span.aedat"
        src.write_bytes(dvs128_record(0, 0, 1, 0) + dvs128_record(0, 0, 1, 2**32 - 1))
        out = tmp_path / "span.evfr"
        proc = subprocess.run(
            [sys.executable, "-m", "evframes", "encode", str(src), str(out), "--window-us", "1"],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=30,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (1 << 20, 1 << 20)),
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", (
            "evframes: stream would need 4294967296 windows, more than the 4294967295 frames "
            "of a frame tensor (events 0..4294967295, window 1 us)\n"
        ))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["span.aedat"]

    def test_bad_coordinate_in_later_block_leaves_no_output(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(ingest, "_BLOCK_RECORDS", 2)
        src = tmp_path / "rec.aedat"
        src.write_bytes(
            HEADER + b"".join(dvs128_record(9 if i == 7 else 1, 1, 1, 1000 * i) for i in range(10))
        )
        out, imgs = tmp_path / "frames.evfr", tmp_path / "imgs"
        argv = ("encode", src, out, "--geometry", "8x8", "--window-us", 1000, "--emit-images", imgs)
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err == "evframes: record 7: coordinate (9, 1) outside 8x8 geometry\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rec.aedat"]
        out.write_bytes(b"an earlier tensor")
        assert run(*argv) == 1
        assert out.read_bytes() == b"an earlier tensor"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["frames.evfr", "rec.aedat"]

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run("frobnicate")
        assert exc.value.code == 2

    def test_bad_geometry_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("info", tmp_path / "x.txt", "--geometry", "wide")
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["info", "encode"])
    def test_geometry_beyond_int32_columns_is_usage_error(self, tmp_path, capsys, command):
        src = tmp_path / "big.txt"
        src.write_text("0 3000000000 0 1\n")
        argv = [command, src] + ([tmp_path / "frames.evfr"] if command == "encode" else [])
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--geometry", "4000000000x1")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(
            "error: argument --geometry: geometry sides must be at most 2147483647, "
            "got 4000000000x1\n"
        )
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["big.txt"]

    @pytest.mark.parametrize("command,flag,value,message", [
        ("encode", "--window-us", "1e3", "must be a positive integer, got 1e3"),
        ("encode", "--window-us", "0", "must be a positive integer, got 0"),
        ("simulate", "--threshold", "x", "must be finite and > 0, got x"),
        ("simulate", "--threshold", "nan", "must be finite and > 0, got nan"),
        ("simulate", "--refractory-us", "1.5", "must be >= 0, got 1.5"),
        ("simulate", "--refractory-us", "-1", "must be >= 0, got -1"),
        ("truncate", "--ratio", "abc", "ratio must be in (0, 1], got abc"),
        ("truncate", "--ratio", "1.5", "ratio must be in (0, 1], got 1.5"),
        ("info", "--geometry", "wide", "geometry must look like 320x240, got 'wide'"),
        ("encode", "--geometry", "0x5", "geometry must be at least 1x1, got 0x5"),
    ], ids=[f"{flag}-{case}" for flag in ("window-us", "threshold", "refractory-us", "ratio",
                                          "geometry") for case in ("unparsed", "out-of-range")])
    def test_flag_errors_state_the_rule(self, tmp_path, capsys, command, flag, value, message):
        src = tmp_path / "in"
        src.write_text("0 1 1 1\n")
        outputs = [] if command == "info" else [tmp_path / "out"]
        extra = ["--ratio", "1"] if command == "truncate" and flag != "--ratio" else []
        with pytest.raises(SystemExit) as exc:
            run(command, src, *outputs, *extra, flag, value)
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f" error: argument {flag}: {message}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in"]

    @pytest.mark.parametrize("blocker", ["dir-is-a-file", "image-is-a-dir"])
    def test_failed_image_leaves_the_output_as_it_was(self, tmp_path, capsys, blocker):
        src, out, imgs = tmp_path / "ev.txt", tmp_path / "out.evfr", tmp_path / "imgs"
        write_events(src, ["0 1 1 1", "10 2 2 0"])
        out.write_bytes(b"old")
        if blocker == "dir-is-a-file":
            imgs.touch()
            error = f"[Errno 17] File exists: '{imgs}'"
        else:
            (imgs / "frame_000000.ppm").mkdir(parents=True)
            error = f"[Errno 21] Is a directory: '{imgs / 'frame_000000.ppm'}'"
        assert run("encode", src, out, "--geometry", "4x4", "--emit-images", imgs) == 1
        assert capsys.readouterr().err == f"evframes: {error}\n"
        assert out.read_bytes() == b"old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ev.txt", "imgs", "out.evfr"]

    def test_console_script_installed(self, tmp_path):
        src = tmp_path / "ev.txt"
        src.write_text("0 1 1 1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "evframes", "info", str(src), "--geometry", "4x4"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert "events: 1" in proc.stdout


def writer_runs(d):
    """For each command that writes a file: argv of a valid run writing to `out`, inputs in d."""
    events, tensor, scores = d / "ev.txt", d / "frames.evfr", d / "scores.txt"
    write_events(events, ["0 1 1 1", "10 2 2 -1", "20 3 3 1"])
    intensity_tensor(tensor, [[[0, 1]], [[4, 9]], [[30, 2]]])
    scores.write_text("# k=2 classes=walk,run\n0,0.2,0.8\n1,0.4,0.6\n")
    return {
        "encode": lambda out: ["encode", events, out, "--geometry", "4x4"],
        "truncate": lambda out: ["truncate", events, out, "--geometry", "4x4", "--ratio", 1],
        "simulate": lambda out: ["simulate", tensor, out],
        "chunk": lambda out: ["chunk", tensor, "-o", out],
        "aggregate": lambda out: ["aggregate", scores, "-o", out],
    }


WRITERS = ["encode", "truncate", "simulate", "chunk", "aggregate"]


class TestOutputFiles:
    @pytest.mark.parametrize("node", ["fifo", "directory"])
    @pytest.mark.parametrize("command", WRITERS)
    def test_output_that_is_not_a_regular_file_is_refused(self, tmp_path, capsys, command, node):
        argv = writer_runs(tmp_path)[command]
        out = tmp_path / "out"
        make, is_node = (os.mkfifo, stat.S_ISFIFO) if node == "fifo" else (os.mkdir, stat.S_ISDIR)
        make(out)
        # A reader held open keeps a regression from blocking on the FIFO.
        reader = os.open(out, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert run(*argv(out)) == 1
        finally:
            os.close(reader)
        assert capsys.readouterr().err == f"evframes: output {out} is not a regular file\n"
        assert is_node(os.lstat(out).st_mode)
        names = ["ev.txt", "frames.evfr", "out", "scores.txt"]
        assert sorted(p.name for p in tmp_path.iterdir()) == names
        assert node == "fifo" or list(out.iterdir()) == []

    @pytest.mark.parametrize("command", WRITERS)
    def test_symlink_output_replaces_its_target(self, tmp_path, command):
        argv = writer_runs(tmp_path)[command]
        (tmp_path / "real").mkdir()
        expected, target, link = tmp_path / "expected", tmp_path / "real" / "out", tmp_path / "out"
        assert run(*argv(expected)) == 0
        target.write_bytes(b"old")
        link.symlink_to(target)
        assert run(*argv(link)) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == expected.read_bytes()
        assert [p.name for p in (tmp_path / "real").iterdir()] == ["out"]

    def test_chunk_output_over_a_size_limit_keeps_the_old_output(self, tmp_path):
        # A 1000-frame manifest of about 11 KiB, written under a 4 KiB file-size limit.
        tensor, manifest = tmp_path / "frames.evfr", tmp_path / "chunks.txt"
        frames = (EncodedFrame(np.zeros((1, 1, 1), np.uint8), None, None, i, i + 1, False)
                  for i in range(1000))
        with open(tensor, "wb") as f:
            write_frame_tensor_to(f, frames, (1, 1, 1))
        manifest.write_bytes(b"0 1 2\n")
        proc = subprocess.run(
            [sys.executable, "-m", "evframes", "chunk", str(tensor), "-o", str(manifest)],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=30,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096)),
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("evframes: ") and proc.stderr.count("\n") == 1
        assert manifest.read_bytes() == b"0 1 2\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["chunks.txt", "frames.evfr"]

    def test_aggregate_output_is_utf8_in_an_ascii_locale(self, tmp_path):
        scores, out = tmp_path / "scores.txt", tmp_path / "out.txt"
        scores.write_bytes("# k=2 classes=caf\u00e9,th\u00e9\n0,0.75,0.25\n".encode())
        env = dict(child_env(), LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        to_file, to_stdout = (
            subprocess.run(
                [sys.executable, "-m", "evframes", "aggregate", str(scores), *output],
                capture_output=True,
                env=env,
                timeout=30,
            )
            for output in (["-o", str(out)], [])
        )
        assert (to_file.returncode, to_file.stdout, to_file.stderr) == (0, b"", b"")
        expected = "mean_scores: 0.75 0.25\nlabel: 0\nlabel_name: caf\u00e9\n"
        assert out.read_bytes() == expected.encode("utf-8")
        # stdout gets the same bytes as the output file, not the locale's encoding.
        assert (to_stdout.returncode, to_stdout.stderr) == (0, b"")
        assert to_stdout.stdout == out.read_bytes()

    def test_no_command_uses_the_locale_encoding(self, tmp_path):
        runs = writer_runs(tmp_path)
        o = tmp_path / "out"
        argvs = [
            runs["encode"](tmp_path / "ev.evfr") + ["--emit-images", tmp_path / "imgs"],
            ["chunk", tmp_path / "frames.evfr"],
            runs["chunk"](o / "chunks.txt"),
            ["aggregate", tmp_path / "scores.txt"],
            runs["aggregate"](o / "prediction.txt"),
            runs["simulate"](o / "sim.txt"),
            runs["truncate"](o / "truncated.txt"),
            ["info", tmp_path / "ev.txt", "--geometry", "4x4"],
        ]
        o.mkdir()
        for argv in argvs:
            proc = subprocess.run(
                [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
                 "-m", "evframes", *map(str, argv)],
                capture_output=True,
                text=True,
                env=child_env(),
                timeout=60,
            )
            assert (proc.returncode, proc.stderr) == (0, ""), argv[0]
        assert len(list((tmp_path / "imgs").iterdir())) == 1
        assert len(list(o.iterdir())) == 4


@st.composite
def aedat_files(draw):
    """A header (or none) and a few DVS-128 or DAVIS240C records with rising ticks."""
    header = draw(st.sampled_from([b"", HEADER, HEADER + b"# a comment\r\n"]))
    records = []
    tick = draw(st.integers(0, 2**32 - 1))
    for _ in range(draw(st.integers(0, 8))):
        tick = (tick + draw(st.integers(0, 5000))) % 2**32
        x, y = draw(st.integers(0, 239)), draw(st.integers(0, 179))
        p = draw(st.sampled_from([-1, 1]))
        if draw(st.booleans()):
            records.append(dvs128_record(x % 128, y % 128, p, tick))
        else:
            records.append(davis_record(x, y, p, tick, non_dvs=draw(st.booleans())))
    return header + b"".join(records)


@st.composite
def text_files(draw):
    """A few `t x y p` lines with rising timestamps."""
    t, lines = draw(st.integers(0, 2**63 - 1)), []
    for _ in range(draw(st.integers(0, 8))):
        t = min(t + draw(st.integers(0, 10**6)), 2**63 - 1)
        x, y = draw(st.integers(0, 7)), draw(st.integers(0, 7))
        p = draw(st.sampled_from([-1, 0, 1]))
        lines.append(f"{t} {x} {y} {p}\n")
    return "".join(lines).encode()


@st.composite
def intensity_files(draw):
    """A 1-channel frame tensor of 2-4 small frames, as simulate reads."""
    n, seed = draw(st.integers(2, 4)), draw(st.integers(0, 99))
    return write_frame_tensor(make_frames(n, shape=(4, 5, 1), seed=seed))


score_files = score_vectors.map(
    lambda rows: write_scores([ScoreVector(r, i) for i, r in enumerate(rows)]).encode()
)


@st.composite
def mutated(draw, valid):
    """Valid bytes, or the same with one byte changed, cut short or extended."""
    data = bytearray(draw(valid))
    mutation = draw(st.sampled_from(["none", "byte", "cut", "extend"]))
    if data and mutation == "byte":
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    elif data and mutation == "cut":
        del data[draw(st.integers(0, len(data) - 1)) :]
    elif mutation == "extend":
        data += draw(st.binary(min_size=1, max_size=12))
    return bytes(data)


any_input = st.one_of(
    st.binary(max_size=64),
    mutated(aedat_files()),
    mutated(text_files()),
    mutated(valid_tensors().map(lambda case: case[1])),
    mutated(intensity_files()),
    mutated(score_files),
)
event_files = mutated(aedat_files() | text_files())
# Each command mostly reads inputs shaped for it, and sometimes any other.
command_inputs = {
    "encode": event_files,
    "info": event_files,
    "truncate": event_files,
    "chunk": mutated(valid_tensors().map(lambda case: case[1])),
    "simulate": mutated(intensity_files()),
    "aggregate": mutated(score_files),
}


def fuzz_argv(command, source, out, variant):
    """argv for one fuzzed run; variant's bits pick the input format, layout and modes."""
    text = variant & 1
    stream = ["--format", "text" if text else "aedat2",
              "--layout", "davis240c" if variant & 2 else "dvs128"]
    if command == "encode":
        # At most a few windows, whatever the timestamps: a text timestamp is
        # below 2**63 and an AEDAT file this small spans fewer than 2**36 us.
        window = 2**62 if text else 2**36
        return [command, source, out, *stream, "--window-us", window,
                "--kind", "count" if variant & 4 else "timestamp",
                "--polarity", "ignore" if variant & 8 else "merged"]
    if command == "info":
        return [command, source, *stream]
    if command == "truncate":
        return [command, source, out, *stream, "--ratio", 0.5 if variant & 4 else 1]
    if command == "chunk":
        return [command, source, "--policy", POLICIES[variant % len(POLICIES)], "-o", out]
    if command == "aggregate":
        return [command, source, "-o", out]
    return [command, source, out, "--refractory-us", 500 if variant & 4 else 0]


def fuzz_main(workdir, command, data, variant, bad_flag):
    """Run main() on data; exit code 0, or 1 with one stderr line, or 2 from argparse."""
    source, out = workdir / "input", workdir / "output"
    source.write_bytes(data)
    argv = [str(a) for a in fuzz_argv(command, source, out, variant)]
    if bad_flag:
        argv.append("--no-such-flag")
    err = io.StringIO()
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")  # main() writes to its buffer
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert bad_flag  # only argparse exits, and only on the bad flag
            assert exc.code == 2
            return
    assert not bad_flag
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code == 1
        lines = err.getvalue().splitlines(keepends=True)
        assert len(lines) == 1 and lines[0].startswith("evframes: ") and lines[0].endswith("\n")


def cli_fuzz_test(command):
    @settings(max_examples=75, deadline=None, derandomize=True)
    @given(data=command_inputs[command] | any_input, variant=st.integers(0, 15),
           bad_flag=st.sampled_from([False, False, False, True]))
    @example(data=b"", variant=0, bad_flag=False)
    @example(data=HEADER, variant=2, bad_flag=False)
    @example(data=HEADER + davis_record(5, 140, 1, 10), variant=2, bad_flag=False)
    @example(data=HEADER + davis_record(160, 140, 1, 10), variant=2, bad_flag=False)
    @example(data=write_frame_tensor(make_frames(3, shape=(2, 3, 1)))[:-1], variant=0,
             bad_flag=False)
    def test(self, tmp_path_factory, data, variant, bad_flag):
        fuzz_main(tmp_path_factory.mktemp(command), command, data, variant, bad_flag)

    return test


# Text inputs, each with the message that info, encode and truncate all gave
# when text was parsed whole. None: info and encode succeed, and truncate
# finds no events. Blocks of 2 events put block boundaries between lines.
TEXT_PARITY = {
    "fields": ("0 1 1 1\n5 1 1\n", "line 2: expected 4 fields 't x y p', got 3"),
    "non-integer": ("0 1 1 1\n5 1 x 1\n", "line 2: non-integer field in '5 1 x 1'"),
    "polarity": ("0 1 1 1\n5 1 1 2\n", "line 2: polarity must be 1, -1 or 0, got 2"),
    "negative": ("-5 1 1 1\n", "line 1: negative timestamp -5"),
    "beyond-int64": ("0 1 1 1\n9223372036854775808 1 1 1\n",
                     "line 2: timestamp 9223372036854775808 beyond the int64 range"),
    "coordinate": ("0 1 1 1\n5 200 1 1\n", "line 2: coordinate (200, 1) outside 128x128 geometry"),
    "backward": ("10 1 1 1\n5 1 1 1\n", "line 2: timestamp moves backward (5 after 10)"),
    "backward-after-boundary": ("0 1 1 1\n# c\n7 1 1 1\n3 1 1 1\n",
                                "line 4: timestamp moves backward (3 after 7)"),
    "line-ends": ("0 1 1 1\r\n1 1 1 1\x0b\x1c\u20285 1 1\n",
                  "line 5: expected 4 fields 't x y p', got 3"),
    "empty": ("", None),
    "comments-only": ("# a\n\n  \n# b\r\n", None),
}


class TestTextParity:
    @pytest.mark.parametrize("command", ["info", "encode", "truncate"])
    @pytest.mark.parametrize("case", list(TEXT_PARITY))
    def test_exit_code_and_stderr(self, tmp_path, capsys, monkeypatch, command, case):
        text, message = TEXT_PARITY[case]
        if message is None and command == "truncate":
            message = "cannot truncate empty stream"
        monkeypatch.setattr(ingest, "_BLOCK_RECORDS", 2)
        src = tmp_path / "input"
        src.write_bytes(text.encode())
        code = run(*fuzz_argv(command, src, tmp_path / "output", variant=1))
        err = capsys.readouterr().err
        if message is None:
            assert (code, err) == (0, "")
        else:
            assert (code, err) == (1, f"evframes: {message}\n")
            assert [p.name for p in tmp_path.iterdir()] == ["input"]

    @pytest.mark.parametrize("command", ["info", "encode", "truncate"])
    def test_undecodable_text_is_one_error_line(self, tmp_path, capsys, command):
        src = tmp_path / "input"
        src.write_bytes(b"0 1 1 1\n\xff 1 1 1\n")
        assert run(*fuzz_argv(command, src, tmp_path / "output", variant=1)) == 1
        assert capsys.readouterr().err == "evframes: line 2: not valid UTF-8\n"

    @pytest.mark.parametrize("line", [b"\xff 1 1 1", b"# caf\xe9"], ids=["data", "comment"])
    def test_bad_byte_past_the_first_decode_chunk_names_its_line(self, tmp_path, capsys, line):
        # 3000 lines of 12 bytes put line 3001 well past the decoder's first 8 KiB.
        src = tmp_path / "input"
        src.write_bytes(b"".join(b"%d 1 1 1\n" % (10_000 + i) for i in range(3000)) + line + b"\n")
        assert run("info", src) == 1
        assert capsys.readouterr().err == "evframes: line 3001: not valid UTF-8\n"


class TestCliFuzz:
    """Arbitrary and mutated input files end in exit code 0, or 1 with one stderr line.

    Seeded with an empty file, a header-only AEDAT file, bodies whose first
    byte is '#' and a truncated tensor.
    """

    test_encode = cli_fuzz_test("encode")
    test_chunk = cli_fuzz_test("chunk")
    test_aggregate = cli_fuzz_test("aggregate")
    test_info = cli_fuzz_test("info")
    test_truncate = cli_fuzz_test("truncate")
    test_simulate = cli_fuzz_test("simulate")
