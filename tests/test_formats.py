import io
import os
import re
import struct
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evframes import formats

from evframes.encoders import KIND_EVENT_COUNT, POLARITY_MERGED, EncodedFrame
from evframes.formats import (
    FRAME_TENSOR_MAGIC,
    FrameTensorReader,
    parse_scores,
    read_frame_tensor,
    write_frame_tensor,
    write_frame_tensor_to,
    write_pnm,
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
        assert tensor.shape == (3, 4, 3)
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
        assert tensor.shape == (6, 8, 3)
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

    def test_first_bad_flag_is_named(self):
        data = bytearray(write_frame_tensor(make_frames(5)))
        frame_bytes = 17 + 3 * 4 * 3
        data[21 + 3 * frame_bytes + 16] = 2
        data[21 + 1 * frame_bytes + 16] = 7
        message = r"^frame 1: empty flag must be 0 or 1, got 7$"
        with pytest.raises(FormatError, match=message):
            read_frame_tensor(bytes(data))
        with pytest.raises(FormatError, match=message):
            list(FrameTensorReader(io.BytesIO(bytes(data))).prefixes())

    def test_pixels_of_writable_input_are_read_only_views(self):
        frames = make_frames(4)
        data = bytearray(write_frame_tensor(frames))
        whole = np.frombuffer(data, dtype=np.uint8)
        back = read_frame_tensor(data).frames
        assert back == [EncodedFrame(f.pixels, None, None, f.window_start, f.window_end, f.empty)
                        for f in frames]
        for frame in back:
            assert not frame.pixels.flags.writeable
            assert np.shares_memory(frame.pixels, whole)
        assert all(type(f.empty) is bool and type(f.window_start) is int for f in back)

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
            write_frame_tensor_to(io.BytesIO(), iter(frames), (3, 4, 3))


def as_row(frame):
    return (frame.window_start, frame.window_end, frame.empty, frame.pixels.shape,
            frame.pixels.tobytes())


def outcome(read, row=as_row):
    """The items read, each passed through row, or the FormatError message."""
    try:
        return [row(item) for item in read()]
    except FormatError as exc:
        return str(exc)


def three_readings(data):
    """read_frame_tensor and both FrameTensorReader iterations of the same bytes."""
    whole = outcome(lambda: read_frame_tensor(data).frames)
    frames = outcome(lambda: FrameTensorReader(io.BytesIO(data)).frames())
    prefixes = outcome(lambda: FrameTensorReader(io.BytesIO(data)).prefixes(), tuple)
    return whole, frames, prefixes


def assert_readings_agree(data):
    whole, frames, prefixes = three_readings(data)
    assert frames == whole
    if isinstance(whole, str):
        assert prefixes == whole
    else:
        assert prefixes == [(start, end, empty) for start, end, empty, _, _ in whole]


class TestFrameTensorReader:
    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_matches_read_frame_tensor(self, n):
        data = write_frame_tensor(make_frames(n), shape=(3, 4, 3))
        f = io.BytesIO(b"prefix" + data)
        f.seek(6)
        reader = FrameTensorReader(f)
        assert (reader.shape, reader.frame_count) == ((3, 4, 3), n)
        tensor = read_frame_tensor(data)
        for _ in range(2):  # each iteration starts again at the first frame
            assert list(reader.frames()) == tensor.frames
            assert list(reader.prefixes()) == [
                (fr.window_start, fr.window_end, fr.empty) for fr in tensor.frames
            ]

    def test_frames_are_read_only(self):
        frame = next(FrameTensorReader(io.BytesIO(write_frame_tensor(make_frames(2)))).frames())
        with pytest.raises(ValueError):
            frame.pixels[0, 0, 0] = 1

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda d: b"JUNK" + d[4:],
            lambda d: d[:4] + b"\x09" + d[5:],
            lambda d: d[:-1],
            lambda d: d + b"\x00",
            lambda d: d[:10],
            lambda d: b"",
        ],
        ids=["magic", "version", "short", "long", "header", "empty"],
    )
    def test_header_errors_match_read_frame_tensor(self, corrupt):
        data = corrupt(write_frame_tensor(make_frames(3)))
        with pytest.raises(FormatError) as whole:
            read_frame_tensor(data)
        with pytest.raises(FormatError) as streamed:
            FrameTensorReader(io.BytesIO(data))
        assert str(streamed.value) == str(whole.value)

    def test_bad_flag_raised_when_its_frame_is_reached(self):
        data = bytearray(write_frame_tensor(make_frames(4)))
        data[21 + 2 * (17 + 36) + 16] = 7
        message = "frame 2: empty flag must be 0 or 1, got 7"
        with pytest.raises(FormatError, match=f"^{message}$"):
            read_frame_tensor(bytes(data))
        reader = FrameTensorReader(io.BytesIO(bytes(data)))
        for iteration in (reader.frames(), reader.prefixes()):
            assert len([next(iteration), next(iteration)]) == 2
            with pytest.raises(FormatError, match=f"^{message}$"):
                next(iteration)

    @pytest.mark.parametrize(
        "cut,frames_names,prefixes_names",
        [(21 + 2 * 53 + 5, 2, 2), (21 + 2 * 53 + 17 + 5, 2, 3)],
        ids=["in-prefix", "in-pixels"],
    )
    def test_file_cut_after_the_length_check(self, tmp_path, cut, frames_names, prefixes_names):
        path = tmp_path / "frames.evfr"
        path.write_bytes(write_frame_tensor(make_frames(4)))
        with open(path, "rb") as f:
            reader = FrameTensorReader(f)
            os.truncate(path, cut)
            for iteration, i in ((reader.frames(), frames_names),
                                 (reader.prefixes(), prefixes_names)):
                with pytest.raises(FormatError, match=f"^frame {i}: file ended while reading$"):
                    list(iteration)



class TestFrameCountLimit:
    def test_writer_names_the_limit_before_exceeding_it(self, monkeypatch):
        monkeypatch.setattr(formats, "MAX_FRAME_COUNT", 2)
        assert len(read_frame_tensor(write_frame_tensor(make_frames(2))).frames) == 2
        with pytest.raises(
            ValueError, match=r"^frame tensor format version 1 holds at most 2 frames$"
        ):
            write_frame_tensor(make_frames(3))

    def test_limit_is_the_u32_count_field(self):
        assert formats.MAX_FRAME_COUNT == 2**32 - 1


def packed_by_hand(frames, shape):
    """The frame-tensor layout written out field by field, as the module docstring gives it."""
    height, width, channels = shape
    data = struct.pack("<4sBIIII", b"EVFR", 1, width, height, channels, len(frames))
    for f in frames:
        data += struct.pack("<qqB", f.window_start, f.window_end, f.empty) + f.pixels.tobytes()
    return data


def reversed_columns(n):
    return [EncodedFrame(f.pixels[:, ::-1], None, None, f.window_start, f.window_end, f.empty)
            for f in make_frames(n)]


class TestWriterEquivalence:
    """The in-memory and the streaming writer give the same bytes for the same input."""

    CASES = {
        "generator": (lambda: (f for f in make_frames(4)), (3, 4, 3)),
        "read_only_views": (lambda: read_frame_tensor(write_frame_tensor(make_frames(3))).frames,
                            (3, 4, 3)),
        "non_contiguous": (lambda: reversed_columns(3), (3, 4, 3)),
        "zero_size_frames": (lambda: make_frames(3, shape=(0, 3, 1)), (0, 3, 1)),
        "empty_with_shape": (lambda: [], (3, 4, 3)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_both_writers_give_the_layout_bytes(self, case):
        frames_of, shape = self.CASES[case]
        frames = list(frames_of())
        expected = packed_by_hand(frames, frames[0].pixels.shape if frames else shape)
        assert write_frame_tensor(frames_of(), shape) == expected
        f = io.BytesIO()
        assert write_frame_tensor_to(f, frames_of(), shape) == len(frames)
        assert f.getvalue() == expected

    def test_both_writers_name_the_limit(self, monkeypatch):
        monkeypatch.setattr(formats, "MAX_FRAME_COUNT", 2)
        message = r"^frame tensor format version 1 holds at most 2 frames$"
        with pytest.raises(ValueError, match=message):
            write_frame_tensor(make_frames(3))
        with pytest.raises(ValueError, match=message):
            write_frame_tensor_to(io.BytesIO(), make_frames(3), (3, 4, 3))

    @pytest.mark.parametrize(
        "start,end",
        [(2**63, 2**63 + 1), (-(2**63) - 1, 0), (0.0, 1)],
        ids=["above", "below", "float"],
    )
    @pytest.mark.parametrize("index", [0, 1])
    def test_both_writers_name_a_frame_whose_bounds_are_not_int64(self, start, end, index):
        frames = make_frames(2)
        frames[index] = EncodedFrame(frames[index].pixels, None, None, start, end, False)
        message = rf"^frame {index}: window bounds are not int64 values$"
        with pytest.raises(ValueError, match=message):
            write_frame_tensor(frames)
        with pytest.raises(ValueError, match=message):
            write_frame_tensor_to(io.BytesIO(), frames, (3, 4, 3))

    @pytest.mark.parametrize("index", [0, 1])
    def test_both_writers_refuse_pixels_that_are_not_uint8(self, index):
        # Cast to uint8, 300.7 and -1.0 would wrap to 44 and 255.
        frames = make_frames(2)
        pixels = np.full((3, 4, 3), 300.7)
        pixels[0, 0, 0] = -1.0
        frames[index] = EncodedFrame(pixels, None, None, 0, 1, False)
        message = rf"^frame {index}: pixels must be uint8, got float64$"
        with pytest.raises(ValueError, match=message):
            write_frame_tensor(frames)
        with pytest.raises(ValueError, match=message):
            write_frame_tensor_to(io.BytesIO(), frames, (3, 4, 3))

    @pytest.mark.parametrize(
        "shape",
        [[3, 4, 3], np.array([3, 4, 3]), (np.int64(3), np.uint32(4), 3)],
        ids=["list", "array", "numpy_ints"],
    )
    def test_both_writers_take_a_shape_as_any_three_sizes(self, shape):
        frames = make_frames(2)
        expected = packed_by_hand(frames, (3, 4, 3))
        assert write_frame_tensor(frames, shape) == expected
        f = io.BytesIO()
        assert write_frame_tensor_to(f, frames, shape) == 2
        assert f.getvalue() == expected

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize(
        "shape",
        [(3, 4, -1), (3, 4, 2**32), (3, 4), (3, 4, 3, 1), (3.0, 4, 3), "343", 3],
        ids=["negative", "above_u32", "two", "four", "float", "text", "int"],
    )
    def test_both_writers_refuse_a_shape_that_is_not_three_u32_sizes(self, shape, n):
        with pytest.raises(ValueError) as whole:
            write_frame_tensor(make_frames(n), shape)
        f = io.BytesIO()
        with pytest.raises(ValueError) as streamed:
            write_frame_tensor_to(f, make_frames(n), shape)
        message = (f"frame tensor shape {shape!r} is not three sizes in 0..2**32-1 "
                   "with a product of at most sys.maxsize")
        assert str(whole.value) == str(streamed.value) == message
        assert f.getvalue() == b""  # refused before the header is written

    # Zero sizes do not count, and 2**31 * (2**32 - 1) is sys.maxsize - (2**31 - 1).
    @pytest.mark.parametrize("shape", [(2**32 - 1, 2**32 - 1, 1), (2**31 + 1, 2**32 - 1, 0)])
    def test_both_writers_refuse_a_shape_the_readers_refuse(self, shape):
        # The readers refuse even an empty tensor of this shape as too large.
        blob = struct.pack("<4sBIIII", b"EVFR", 1, shape[1], shape[0], shape[2], 0)
        with pytest.raises(FormatError, match="too large"):
            read_frame_tensor(blob)
        with pytest.raises(ValueError, match="with a product of at most sys.maxsize$"):
            write_frame_tensor([], shape)
        f = io.BytesIO()
        with pytest.raises(ValueError, match="with a product of at most sys.maxsize$"):
            write_frame_tensor_to(f, [], shape)
        assert f.getvalue() == b""

    def test_both_writers_take_the_largest_shape_the_readers_take(self):
        shape = (2**31, 2**32 - 1, 0)
        blob = write_frame_tensor([], shape)
        assert len(read_frame_tensor(blob).frames) == 0
        f = io.BytesIO()
        assert write_frame_tensor_to(f, [], shape) == 0
        assert f.getvalue() == blob

    def test_both_writers_check_shapes_in_frame_order(self, monkeypatch):
        monkeypatch.setattr(formats, "MAX_FRAME_COUNT", 2)
        frames = make_frames(1) + make_frames(2, shape=(4, 3, 3))
        message = r"^frame 1: shape \(4, 3, 3\) does not match \(3, 4, 3\)$"
        with pytest.raises(ValueError, match=message):
            write_frame_tensor(frames)
        with pytest.raises(ValueError, match=message):
            write_frame_tensor_to(io.BytesIO(), frames, (3, 4, 3))


@st.composite
def valid_tensors(draw):
    """(frames, frame-tensor bytes) with 0-4 frames of up to 3x3x3 pixels."""
    shape = (draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.sampled_from([1, 3])))
    size = shape[0] * shape[1] * shape[2]
    bound = st.integers(-(2**63), 2**63 - 1)
    frames = [
        EncodedFrame(
            np.frombuffer(draw(st.binary(min_size=size, max_size=size)), np.uint8).reshape(shape),
            None, None, draw(bound), draw(bound), draw(st.booleans()),
        )
        for _ in range(draw(st.integers(0, 4)))
    ]
    return frames, write_frame_tensor(frames, shape)


@st.composite
def tensor_files(draw):
    """Frame-tensor bytes: random, or valid with one byte changed, cut short or extended."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=120))
    data = bytearray(draw(valid_tensors())[1])
    mutation = draw(st.sampled_from(["byte", "cut", "extend"]))
    if mutation == "byte":
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    elif mutation == "cut":
        del data[draw(st.integers(0, len(data) - 1)) :]
    else:
        data += draw(st.binary(min_size=1, max_size=20))
    return bytes(data)


class TestFrameTensorFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(tensor_files())
    # Frame shapes no array could take, with no frames and with one zero-size frame.
    @example(struct.pack("<4sBIIII", b"EVFR", 1, 2**32 - 1, 2**32 - 1, 2**32 - 1, 0))
    @example(struct.pack("<4sBIIII", b"EVFR", 1, 0, 2**32 - 1, 2**32 - 1, 1) + bytes(17))
    def test_readers_return_alike_or_raise_the_same_format_error(self, data):
        # Any exception other than FormatError fails the property.
        assert_readings_agree(data)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(valid_tensors())
    def test_readers_agree_on_valid_tensors(self, case):
        frames, data = case
        whole, streamed, prefixes = three_readings(data)
        assert whole == streamed == [as_row(f) for f in frames]
        assert prefixes == [(f.window_start, f.window_end, f.empty) for f in frames]


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

    @pytest.mark.parametrize("line", ["# caf\udce9", "1,0.5\udce9,0.5"], ids=["comment", "data"])
    def test_byte_that_was_not_utf8_names_its_line(self, line):
        # A file read with errors="surrogateescape" holds such a byte as a lone surrogate.
        with pytest.raises(FormatError, match=r"^line 3: not valid UTF-8$"):
            parse_scores("# k=2\n0,0.5,0.5\n" + line + "\n")
        vectors, _ = parse_scores("# k=2\n0,0.5,0.5\n# caf\u00e9\n")
        assert len(vectors) == 1

    def test_class_count_mismatch_in_header(self):
        with pytest.raises(FormatError, match="class names"):
            parse_scores("# k=3 classes=a,b\n0,1,2,3\n")

    def test_write_rejects_whitespace_in_class_names(self):
        # Every character str.splitlines breaks at, found over all code points.
        lines = "".join(map(chr, range(sys.maxunicode + 1))).splitlines(keepends=True)
        breaks = [line[-1] for line in lines[:-1]]
        assert "\x1c" in breaks and "\u2028" in breaks
        for c in [" ", "\t", "\u3000", *breaks]:
            with pytest.raises(ValueError, match="commas or whitespace"):
                write_scores([ScoreVector([1.0, 2.0], 0)], class_names=["a", f"b{c}c"])

    def test_write_rejects_no_vectors(self):
        with pytest.raises(ValueError, match="^no score vectors to write$"):
            write_scores([])

    def test_write_rejects_mixed_vector_lengths(self):
        vectors = [ScoreVector([1.0, 2.0], 0), ScoreVector([1.0], 1)]
        with pytest.raises(ValueError, match=r"^chunk 1: score vector has 1 classes, expected 2$"):
            write_scores(vectors)

    def test_write_rejects_repeated_chunk_index(self):
        vectors = [ScoreVector([1.0], 3), ScoreVector([2.0], 2), ScoreVector([1.0], 3)]
        with pytest.raises(ValueError, match=r"^chunk 3: chunk index appears more than once$"):
            write_scores(vectors)

    def test_write_rejects_bad_class_names(self):
        with pytest.raises(ValueError, match="class name"):
            write_scores([ScoreVector([1.0], 0)], class_names=["a,b"])
        with pytest.raises(ValueError, match="1 class names"):
            write_scores([ScoreVector([1.0, 2.0], 0)], class_names=["a"])


finite = st.floats(allow_nan=False, allow_infinity=False)
score_vectors = st.integers(1, 5).flatmap(
    lambda k: st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=k, max_size=k),
        min_size=1,
        max_size=8,
    )
)
class_names = st.text(max_size=4) | st.lists(
    st.sampled_from(["a", "b", ",", " ", "\t", "\r", "\n", "\x1c", "\x85", "\u2028", "\u3000"]),
    max_size=4,
).map("".join)
score_fragments = st.sampled_from(
    ["# k=", "# k=2", "classes=", "a,b", ",", "#", "\n", "\r\n", " ", "0", "-3", "1.5", "1e999",
     "nan", "inf", "x", "9" * 5000, "\x1c", "\u2028", "k=0", "k=-1", "k=x"]
)
score_texts = st.one_of(st.text(), st.lists(score_fragments, max_size=30).map("".join))


class TestScoreFileFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(score_texts)
    @example("# k=1\n0,1e999\n")
    @example("# k=1\n" + "9" * 5000 + ",0.5\n")
    def test_arbitrary_text_parses_or_raises_format_error(self, text):
        # Any exception other than FormatError fails the property.
        try:
            vectors, names = parse_scores(text)
        except FormatError:
            return
        assert all(isinstance(v, ScoreVector) for v in vectors)
        assert names is None or isinstance(names, list)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(score_vectors, st.data())
    def test_written_scores_round_trip_bit_for_bit(self, rows, data):
        k = len(rows[0])
        indices = sorted(data.draw(st.sets(st.integers(-(2**70), 2**70), min_size=len(rows),
                                           max_size=len(rows))))
        names = data.draw(st.none() | st.lists(class_names, min_size=k, max_size=k))
        vectors = [ScoreVector(r, i) for r, i in zip(rows, indices)]
        try:
            text = write_scores(vectors, names)
        except ValueError:
            assert names is not None
            return
        back, back_names = parse_scores(text)
        assert back_names == names
        assert [v.chunk_index for v in back] == indices
        assert [v.scores.tobytes() for v in back] == [v.scores.tobytes() for v in vectors]
        assert write_scores(back, back_names) == text

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.integers(-3, 3), st.lists(finite, min_size=1, max_size=3)),
                    min_size=1, max_size=6))
    @example([(0, [1.0, 2.0]), (1, [1.0])])
    @example([(3, [1.0]), (2, [2.0]), (3, [1.0])])
    def test_mixed_vectors_are_rejected_or_read_back(self, rows):
        # Vector lengths may differ and chunk indices may repeat.
        vectors = [ScoreVector(scores, i) for i, scores in rows]
        try:
            text = write_scores(vectors)
        except ValueError as exc:
            assert str(exc).startswith("chunk ")
            return
        back, names = parse_scores(text)
        assert names is None
        ordered = sorted(vectors, key=lambda v: v.chunk_index)
        assert [v.chunk_index for v in back] == [v.chunk_index for v in ordered]
        assert [v.scores.tobytes() for v in back] == [v.scores.tobytes() for v in ordered]


class TestPortableImages:
    def test_pgm_header_and_raster(self):
        pixels = np.arange(6, dtype=np.uint8).reshape(2, 3)
        data = write_pnm(pixels)
        assert data == b"P5\n3 2\n255\n" + bytes(range(6))

    def test_pgm_accepts_single_channel_3d(self):
        pixels = np.arange(6, dtype=np.uint8).reshape(2, 3, 1)
        assert write_pnm(pixels) == write_pnm(pixels[:, :, 0])

    def test_ppm_header_and_raster(self):
        pixels = np.arange(12, dtype=np.uint8).reshape(2, 2, 3)
        data = write_pnm(pixels)
        assert data == b"P6\n2 2\n255\n" + bytes(range(12))

    def test_channel_count_enforced(self):
        for shape in [(2, 2, 2), (2, 2, 4), (4,), (2, 2, 3, 1)]:
            with pytest.raises(ValueError, match=re.escape(f"three channels, got shape {shape}")):
                write_pnm(np.zeros(shape, dtype=np.uint8))

    @pytest.mark.parametrize("value,dtype", [(300, "int64"), (-1.5, "float64")])
    def test_pixels_that_are_not_uint8_refused(self, value, dtype):
        # Cast to uint8, 300 would wrap to 44 and -1.5 to 255.
        with pytest.raises(ValueError, match=f"^PNM needs uint8 pixels, got {dtype}$"):
            write_pnm(np.full((1, 2), value))
