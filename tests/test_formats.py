import io
import struct

import numpy as np
import pytest

from evframes.encoders import KIND_EVENT_COUNT, POLARITY_MERGED, EncodedFrame
from evframes.formats import (
    FRAME_TENSOR_MAGIC,
    parse_scores,
    read_frame_tensor,
    write_frame_tensor,
    write_frame_tensor_to,
    write_pgm,
    write_ppm,
    write_scores,
)
from evframes.ingest import FormatError
from evframes.scoring import ScoreVector


def make_frames(n, shape=(3, 4, 3), seed=0):
    rng = np.random.default_rng(seed)
    frames = []
    for i in range(n):
        pixels = rng.integers(0, 256, size=shape, dtype=np.uint8)
        frames.append(
            EncodedFrame(pixels, KIND_EVENT_COUNT, POLARITY_MERGED, i * 80_000, (i + 1) * 80_000, i % 3 == 2)
        )
    return frames


class TestFrameTensor:
    def test_round_trip(self):
        frames = make_frames(5)
        data = write_frame_tensor(frames)
        tensor = read_frame_tensor(data)
        assert (tensor.width, tensor.height, tensor.channels) == (4, 3, 3)
        assert len(tensor.frames) == 5
        for orig, back in zip(frames, tensor.frames):
            assert np.array_equal(back.pixels, orig.pixels)
            assert back.window_start == orig.window_start
            assert back.window_end == orig.window_end
            assert back.empty == orig.empty
            assert back.kind is None  # the file does not record the encoding
        # a second pass through the writer is byte-identical
        assert write_frame_tensor(tensor.frames) == data

    def test_header_layout(self):
        frames = make_frames(2, shape=(2, 5, 1))
        data = write_frame_tensor(frames)
        magic, version, w, h, c, n = struct.unpack_from("<4sBIIII", data)
        assert magic == FRAME_TENSOR_MAGIC == b"EVFR"
        assert version == 1
        assert (w, h, c, n) == (5, 2, 1, 2)
        assert len(data) == 21 + 2 * (17 + 2 * 5 * 1)

    def test_pixels_are_row_major_channel_interleaved(self):
        pixels = np.arange(24, dtype=np.uint8).reshape(2, 4, 3)
        frame = EncodedFrame(pixels, KIND_EVENT_COUNT, POLARITY_MERGED, 0, 10, False)
        data = write_frame_tensor([frame])
        raster = data[21 + 17 :]
        assert raster == bytes(range(24))

    def test_empty_tensor_needs_shape(self):
        data = write_frame_tensor([], shape=(6, 8, 3))
        tensor = read_frame_tensor(data)
        assert tensor.frames == []
        assert (tensor.height, tensor.width, tensor.channels) == (6, 8, 3)
        with pytest.raises(ValueError, match="shape is required"):
            write_frame_tensor([])

    def test_mismatched_frame_shapes_rejected(self):
        frames = make_frames(2) + make_frames(1, shape=(3, 5, 3))
        with pytest.raises(ValueError, match="frame 2"):
            write_frame_tensor(frames)

    def test_bad_magic(self):
        data = bytearray(write_frame_tensor(make_frames(1)))
        data[:4] = b"JUNK"
        with pytest.raises(FormatError, match="magic"):
            read_frame_tensor(bytes(data))

    def test_bad_version(self):
        data = bytearray(write_frame_tensor(make_frames(1)))
        data[4] = 9
        with pytest.raises(FormatError, match="version 9"):
            read_frame_tensor(bytes(data))

    def test_truncated_file_rejected(self):
        data = write_frame_tensor(make_frames(3))
        with pytest.raises(FormatError, match="length"):
            read_frame_tensor(data[:-1])
        with pytest.raises(FormatError, match="length"):
            read_frame_tensor(data + b"\x00")
        with pytest.raises(FormatError, match="header"):
            read_frame_tensor(data[:10])

    def test_bad_empty_flag(self):
        data = bytearray(write_frame_tensor(make_frames(1)))
        data[21 + 16] = 2
        with pytest.raises(FormatError, match="empty flag"):
            read_frame_tensor(bytes(data))

    def test_read_pixels_are_read_only(self):
        tensor = read_frame_tensor(write_frame_tensor(make_frames(1)))
        with pytest.raises(ValueError):
            tensor.frames[0].pixels[0, 0, 0] = 1

    def test_read_pixels_are_views_of_the_input(self):
        data = write_frame_tensor(make_frames(3))
        whole = np.frombuffer(data, dtype=np.uint8)
        for frame in read_frame_tensor(data).frames:
            assert np.shares_memory(frame.pixels, whole)

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_streamed_write_patches_frame_count(self, n):
        frames = make_frames(n)
        f = io.BytesIO()
        f.write(b"prefix")
        assert write_frame_tensor_to(f, iter(frames), shape=(3, 4, 3)) == n
        assert f.getvalue() == b"prefix" + write_frame_tensor(frames, shape=(3, 4, 3))
        assert f.tell() == len(f.getvalue())

    def test_streamed_write_rejects_later_shape_mismatch(self):
        frames = make_frames(2) + make_frames(1, shape=(4, 3, 3))
        with pytest.raises(ValueError, match=r"^frame 2: shape \(4, 3, 3\) does not match \(3, 4, 3\)$"):
            write_frame_tensor_to(io.BytesIO(), iter(frames))


class TestScoreFile:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        vectors = [ScoreVector(rng.random(4), i * 2) for i in range(10)]
        text = write_scores(vectors, class_names=["a", "b", "c", "d"])
        back, names = parse_scores(text)
        assert names == ["a", "b", "c", "d"]
        assert [v.chunk_index for v in back] == [v.chunk_index for v in vectors]
        for orig, parsed in zip(vectors, back):
            np.testing.assert_array_equal(parsed.scores, orig.scores)

    def test_repr_floats_survive_exactly(self):
        v = ScoreVector([0.1, 1 / 3, 2.5e-17], 0)
        back, _ = parse_scores(write_scores([v]))
        np.testing.assert_array_equal(back[0].scores, v.scores)

    def test_header_without_classes(self):
        text = write_scores([ScoreVector([1.0, 2.0], 0)])
        assert text.splitlines()[0] == "# k=2"
        _, names = parse_scores(text)
        assert names is None

    def test_hand_written_file(self):
        text = "# k=3 classes=walk,run,jump\n0,0.2,0.5,0.3\n4,0.0,1.0,0.0\n"
        vectors, names = parse_scores(text)
        assert names == ["walk", "run", "jump"]
        assert [v.chunk_index for v in vectors] == [0, 4]
        assert vectors[1].scores.tolist() == [0.0, 1.0, 0.0]

    def test_blank_lines_and_extra_comments_skipped(self):
        text = "# k=1\n\n0,0.5\n# trailing note\n1,0.25\n"
        vectors, _ = parse_scores(text)
        assert len(vectors) == 2

    def test_missing_header(self):
        with pytest.raises(FormatError, match="header"):
            parse_scores("0,0.5\n")
        with pytest.raises(FormatError, match="header"):
            parse_scores("")

    def test_wrong_score_count(self):
        with pytest.raises(FormatError, match="line 3: expected 2 scores"):
            parse_scores("# k=2\n0,0.1,0.9\n1,0.5\n")

    def test_non_increasing_index(self):
        with pytest.raises(FormatError, match="line 3"):
            parse_scores("# k=1\n5,0.1\n5,0.2\n")

    def test_bad_number(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_scores("# k=1\n0,abc\n")

    def test_class_count_mismatch_in_header(self):
        with pytest.raises(FormatError, match="class names"):
            parse_scores("# k=3 classes=a,b\n0,1,2,3\n")

    def test_write_rejects_bad_class_names(self):
        with pytest.raises(ValueError, match="class name"):
            write_scores([ScoreVector([1.0], 0)], class_names=["a,b"])
        with pytest.raises(ValueError, match="1 class names"):
            write_scores([ScoreVector([1.0, 2.0], 0)], class_names=["a"])


class TestPortableImages:
    def test_pgm_header_and_raster(self):
        pixels = np.arange(6, dtype=np.uint8).reshape(2, 3)
        data = write_pgm(pixels)
        assert data == b"P5\n3 2\n255\n" + bytes(range(6))

    def test_pgm_accepts_single_channel_3d(self):
        pixels = np.zeros((2, 2, 1), dtype=np.uint8)
        assert write_pgm(pixels).startswith(b"P5\n2 2\n")

    def test_ppm_header_and_raster(self):
        pixels = np.arange(12, dtype=np.uint8).reshape(2, 2, 3)
        data = write_ppm(pixels)
        assert data == b"P6\n2 2\n255\n" + bytes(range(12))

    def test_channel_count_enforced(self):
        with pytest.raises(ValueError, match="one channel"):
            write_pgm(np.zeros((2, 2, 3), dtype=np.uint8))
        with pytest.raises(ValueError, match="three channels"):
            write_ppm(np.zeros((2, 2), dtype=np.uint8))
