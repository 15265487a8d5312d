"""Block-wise AEDAT reading, segmentation, encoding and frame writing against the one-block run.

The block size is patched down to a few records, so block boundaries fall
inside windows, at timestamp wraps and next to non-DVS records. Every result
and every error message must equal the one-block run's, which reads the
whole (small) file as a single block. On a 4x4 sensor, windows hold more
events than their frames have cells, so ``encode_blocks`` folds them.
"""

import io
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evframes import ingest
from evframes.encoders import encode_blocks, encode_stream
from evframes.formats import write_frame_tensor, write_frame_tensor_to
from evframes.ingest import AedatReader, FormatError, parse_aedat2_stats
from evframes.options import (
    DAVIS240C_GEOMETRY,
    DAVIS240C_LAYOUT,
    DVS128_GEOMETRY,
    DVS128_LAYOUT,
    KIND_EVENT_COUNT,
    KIND_TIMESTAMP,
    POLARITY_IGNORE,
    POLARITY_MERGED,
    SensorGeometry,
)
from evframes.windowing import WindowConfig, segment

from tests.oracles import encode_per_window
from tests.test_ingest import HEADER, davis_record, dvs128_record

BLOCK_SIZES = [1, 2, 3, 7]
MODES = [
    (kind, mode)
    for kind in (KIND_TIMESTAMP, KIND_EVENT_COUNT)
    for mode in (POLARITY_MERGED, POLARITY_IGNORE)
]
WINDOW = WindowConfig(100)
LAYOUTS = {
    "dvs128": (DVS128_LAYOUT, DVS128_GEOMETRY),
    "davis240c": (DAVIS240C_LAYOUT, DAVIS240C_GEOMETRY),
}


def counts(reader):
    """A reader's parse statistics, as one comparable tuple."""
    return (reader.header_lines, reader.records, reader.events, reader.skipped_non_dvs,
            reader.timestamp_wraps)


def one_block(data, layout, geometry):
    """Stream and counts, or the FormatError message, from a run with one block."""
    try:
        stream, reader = parse_aedat2_stats(data, layout, geometry)
    except FormatError as exc:
        return str(exc)
    return stream, counts(reader)


def blocks_of(data, layout, geometry):
    """(reader, blocks) with the module's current block size."""
    reader = AedatReader(io.BytesIO(data), layout, geometry)
    return reader, list(reader)


def assert_matches_one_block(data, layout, geometry, block, window=WINDOW):
    whole = one_block(data, layout, geometry)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "_BLOCK_RECORDS", block)
        if isinstance(whole, str):
            with pytest.raises(FormatError) as exc:
                parse_aedat2_stats(data, layout, geometry)
            assert str(exc.value) == whole
            with pytest.raises(FormatError) as exc:
                list(encode_blocks(AedatReader(io.BytesIO(data), layout, geometry), window))
            assert str(exc.value) == whole
            return
        stream, stats = whole
        again, reader = parse_aedat2_stats(data, layout, geometry)
        assert (again, counts(reader)) == (stream, stats)
        reader, blocks = blocks_of(data, layout, geometry)
        assert all(len(b) <= block for b in blocks)
        assert counts(reader) == stats
        for kind, mode in MODES:
            # segment's windows, each scattered by encode_window: the unfolded reference.
            expected = encode_per_window(stream, window, kind, mode)
            assert encode_stream(stream, window, kind, mode) == expected
            shape = (geometry.height, geometry.width, 3 if mode == POLARITY_MERGED else 1)
            out = io.BytesIO()
            assert write_frame_tensor_to(out, iter(expected), shape) == len(expected)
            assert out.getvalue() == write_frame_tensor(expected, shape)
            out = io.BytesIO()
            write_frame_tensor_to(out, encode_blocks(blocks, window, kind, mode), shape)
            assert out.getvalue() == write_frame_tensor(expected, shape)


@st.composite
def aedat_files(draw):
    """An AEDAT file in either layout with wraps, gaps of empty windows and non-DVS records."""
    name = draw(st.sampled_from(sorted(LAYOUTS)))
    layout, geometry = LAYOUTS[name]
    tick = draw(st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32 - 600, 2**32 - 1)))
    n = draw(st.integers(0, 30))
    body = b""
    for _ in range(n):
        tick += draw(st.one_of(st.integers(0, 40), st.integers(100, 500)))
        x = draw(st.integers(0, geometry.width - 1))
        y = draw(st.integers(0, geometry.height - 1))
        p = draw(st.sampled_from([1, -1]))
        ticks = tick % 2**32
        if name == "dvs128":
            body += dvs128_record(x, y, p, ticks)
        else:
            body += davis_record(x, y, p, ticks, non_dvs=draw(st.integers(0, 5)) == 0)
    return name, draw(st.sampled_from([b"", HEADER])) + body


class TestRandomFiles:
    @pytest.mark.parametrize("block", BLOCK_SIZES)
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(aedat_files())
    def test_blocks_match_one_block(self, block, case):
        name, data = case
        assert_matches_one_block(data, *LAYOUTS[name], block)


TINY = SensorGeometry(4, 4)  # 16 cells with polarity ignored, 48 merged


@st.composite
def dense_files(draw):
    """A DVS-128-layout file on a 4x4 sensor whose 100 us spans hold 0 to 120 events each."""
    tick = draw(st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32 - 600, 2**32 - 1)))
    counts = st.one_of(st.just(0), st.integers(1, 20), st.integers(40, 120))
    body = b""
    for n in draw(st.lists(counts, max_size=6)):
        for offset in sorted(draw(st.lists(st.integers(0, 99), min_size=n, max_size=n))):
            pixel = draw(st.integers(0, 31))  # x, y and polarity in one draw
            p = 1 if pixel & 16 else -1
            body += dvs128_record(pixel % 4, pixel // 4 % 4, p, (tick + offset) % 2**32)
        tick += 100
    return body


def dense(per_window):
    """A 4x4 file with the given event counts in consecutive 100 us windows, over all pixels."""
    return b"".join(
        dvs128_record(i % 4, (i // 4 + k) % 4, 1 if i % 3 else -1, 100 * k + 90 * i // n)
        for k, n in enumerate(per_window)
        for i in range(n)
    )


class TestFold:
    @pytest.mark.parametrize("block", BLOCK_SIZES)
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(dense_files())
    def test_dense_windows_match_one_block(self, block, data):
        assert_matches_one_block(data, DVS128_LAYOUT, TINY, block)

    @pytest.mark.parametrize("block", BLOCK_SIZES + [1 << 16])
    @pytest.mark.parametrize(
        "per_window",
        [[49, 49], [100, 0, 17, 100, 100], [200, 5, 60, 0, 0, 48, 47, 200]],
        ids=["just-above-merged", "folded-then-empty", "mixed"],
    )
    def test_folded_windows_match_encode_stream(self, block, per_window):
        data = dense(per_window)
        stream = parse_aedat2_stats(data, DVS128_LAYOUT, TINY)[0]
        # Some window holds more events than even a merged frame has cells.
        assert max(map(len, segment(stream, WINDOW))) > 48
        assert_matches_one_block(data, DVS128_LAYOUT, TINY, block)

    def test_one_timestamp_per_folded_window(self):
        # Three windows of 60 events each, all at one tick.
        ticks = [7 + 100 * (i // 60) for i in range(180)]
        data = b"".join(dvs128_record(i % 4, i // 4 % 4, 1, t) for i, t in enumerate(ticks))
        assert_matches_one_block(data, DVS128_LAYOUT, TINY, 7)
        stream = parse_aedat2_stats(data, DVS128_LAYOUT, TINY)[0]
        frames = list(encode_blocks([stream], WINDOW, KIND_TIMESTAMP, POLARITY_IGNORE))
        assert [f.pixels.max() for f in frames] == [255, 255, 255]

    def test_bad_mode_is_refused_by_the_call(self):
        with pytest.raises(ValueError, match="unknown polarity mode"):
            encode_blocks([], WINDOW, KIND_TIMESTAMP, "both")
        with pytest.raises(ValueError, match="unknown frame kind"):
            encode_blocks([], WINDOW, "latest", POLARITY_MERGED)


class TestBoundaries:
    def test_wrap_exactly_at_block_boundary(self):
        recs = [(1, 0xFFFFFFEC), (2, 0xFFFFFFF6), (3, 5), (4, 6)]
        data = HEADER + b"".join(dvs128_record(x, 0, 1, t) for x, t in recs)
        assert_matches_one_block(data, DVS128_LAYOUT, DVS128_GEOMETRY, 2)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "_BLOCK_RECORDS", 2)
            stream, stats = parse_aedat2_stats(data, DVS128_LAYOUT, DVS128_GEOMETRY)
        assert stats.timestamp_wraps == 1
        assert list(stream.t) == [2**32 - 20, 2**32 - 10, 2**32 + 5, 2**32 + 6]

    def test_backward_tick_across_block_boundary(self):
        data = HEADER + b"".join(dvs128_record(0, 0, 1, t) for t in (10, 20, 15, 30))
        assert_matches_one_block(data, DVS128_LAYOUT, DVS128_GEOMETRY, 2)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "_BLOCK_RECORDS", 2)
            with pytest.raises(FormatError) as exc:
                parse_aedat2_stats(data, DVS128_LAYOUT, DVS128_GEOMETRY)
        assert str(exc.value) == (
            "record 2: timestamp moves backward (15 after 20) and is not a 32-bit wrap"
        )

    @pytest.mark.parametrize("block", BLOCK_SIZES)
    def test_non_dvs_record_first_in_block(self, block):
        flags = [False, False, True, False, True, True, False, True, True, True, False]
        data = HEADER + b"".join(
            davis_record(i, i, 1 if i % 3 else -1, 50 * i, non_dvs=f) for i, f in enumerate(flags)
        )
        assert_matches_one_block(data, DAVIS240C_LAYOUT, DAVIS240C_GEOMETRY, block)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "_BLOCK_RECORDS", block)
            reader, blocks = blocks_of(data, DAVIS240C_LAYOUT, DAVIS240C_GEOMETRY)
        assert reader.skipped_non_dvs == sum(flags)
        assert sum(len(b) for b in blocks) == len(flags) - sum(flags)

    def test_window_spanning_many_blocks(self):
        data = HEADER + b"".join(dvs128_record(i, 1, 1, 5 * i) for i in range(10))
        assert_matches_one_block(data, DVS128_LAYOUT, DVS128_GEOMETRY, 1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "_BLOCK_RECORDS", 3)
            _, blocks = blocks_of(data, DVS128_LAYOUT, DVS128_GEOMETRY)
        assert len(blocks) == 4
        frames = list(encode_blocks(blocks, WINDOW, KIND_EVENT_COUNT, POLARITY_MERGED))
        assert [(f.window_start, f.empty) for f in frames] == [(0, False)]
        # One positive event at each (i, 1), all in the one window.
        assert np.flatnonzero(frames[0].pixels[..., 0]).tolist() == [128 + i for i in range(10)]

    def test_empty_windows_between_blocks(self):
        ticks = [0, 10, 1000, 1010, 1020, 5000]
        data = HEADER + b"".join(dvs128_record(1, 1, -1, t) for t in ticks)
        for block in BLOCK_SIZES:
            assert_matches_one_block(data, DVS128_LAYOUT, DVS128_GEOMETRY, block)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "_BLOCK_RECORDS", 2)
            _, blocks = blocks_of(data, DVS128_LAYOUT, DVS128_GEOMETRY)
        frames = list(encode_blocks(blocks, WINDOW))
        assert len(frames) == 51
        assert [k for k, f in enumerate(frames) if not f.empty] == [0, 10, 50]

    @pytest.mark.parametrize("data", [b"", HEADER], ids=["empty", "header_only"])
    def test_no_records(self, data):
        assert_matches_one_block(data, DVS128_LAYOUT, DVS128_GEOMETRY, 1)
        reader, blocks = blocks_of(data, DVS128_LAYOUT, DVS128_GEOMETRY)
        assert blocks == []
        assert list(encode_blocks(blocks)) == []
        assert counts(reader) == (data.count(b"\n"), 0, 0, 0, 0)


    def test_second_iteration_reads_the_file_again(self):
        recs = [davis_record(i, i, 1, (2**32 - 25 + 10 * i) % 2**32, non_dvs=i == 2)
                for i in range(6)]
        data = HEADER + b"".join(recs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "_BLOCK_RECORDS", 2)
            reader, first = blocks_of(data, DAVIS240C_LAYOUT, DAVIS240C_GEOMETRY)
            stats = counts(reader)
            assert reader.timestamp_wraps == 1 and reader.skipped_non_dvs == 1
            assert list(reader) == first
            assert counts(reader) == stats


class TestErrorMessages:
    @pytest.mark.parametrize("block", BLOCK_SIZES)
    def test_bad_coordinate_in_later_block(self, block):
        data = HEADER + b"".join(dvs128_record(9 if i == 8 else 1, 1, 1, i) for i in range(12))
        assert_matches_one_block(data, DVS128_LAYOUT, SensorGeometry(8, 8), block)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "_BLOCK_RECORDS", block)
            with pytest.raises(FormatError, match=r"^record 8: coordinate \(9, 1\) outside 8x8"):
                parse_aedat2_stats(data, DVS128_LAYOUT, SensorGeometry(8, 8))

    @pytest.mark.parametrize("block", BLOCK_SIZES)
    def test_bad_coordinate_after_skipped_records(self, block):
        recs = [davis_record(1, 1, 1, i, non_dvs=i % 2 == 0) for i in range(9)]
        recs.append(davis_record(239, 1, 1, 9))
        data = HEADER + b"".join(recs)
        assert_matches_one_block(data, DAVIS240C_LAYOUT, SensorGeometry(200, 150), block)

    @pytest.mark.parametrize("block", BLOCK_SIZES)
    def test_backward_tick_outranks_earlier_bad_coordinate(self, block):
        ticks = [0, 1, 2, 3, 4, 5, 6, 7, 3, 9]
        data = HEADER + b"".join(
            dvs128_record(9 if i == 1 else 1, 1, 1, t) for i, t in enumerate(ticks)
        )
        assert_matches_one_block(data, DVS128_LAYOUT, SensorGeometry(8, 8), block)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "_BLOCK_RECORDS", block)
            with pytest.raises(FormatError, match="^record 8: timestamp moves backward"):
                parse_aedat2_stats(data, DVS128_LAYOUT, SensorGeometry(8, 8))

    @pytest.mark.parametrize("block", BLOCK_SIZES)
    @pytest.mark.parametrize("within", [0, 3], ids=["at-record-edge", "in-record"])
    def test_file_cut_after_the_length_check(self, tmp_path, monkeypatch, block, within):
        path = tmp_path / "rec.aedat"
        path.write_bytes(HEADER + b"".join(dvs128_record(1, 1, 1, i) for i in range(10)))
        monkeypatch.setattr(ingest, "_BLOCK_RECORDS", block)
        with open(path, "rb") as f:
            reader = AedatReader(f, DVS128_LAYOUT, DVS128_GEOMETRY)
            os.truncate(path, len(HEADER) + 5 * 8 + within)
            with pytest.raises(FormatError, match="^record 5: file ended while reading$"):
                list(reader)

    @pytest.mark.parametrize("block", BLOCK_SIZES)
    def test_trailing_partial_record(self, block):
        data = HEADER + b"".join(dvs128_record(1, 1, 1, i) for i in range(10)) + b"\x00\x01"
        assert_matches_one_block(data, DVS128_LAYOUT, DVS128_GEOMETRY, block)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "_BLOCK_RECORDS", block)
            with pytest.raises(FormatError) as exc:
                parse_aedat2_stats(data, DVS128_LAYOUT, DVS128_GEOMETRY)
        assert str(exc.value) == (
            f"trailing partial record: 2 byte(s) at byte offset {len(HEADER) + 80}"
        )
