import io
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evframes import ingest
from evframes.ingest import (
    DAVIS240C_LAYOUT,
    DVS128_LAYOUT,
    AedatLayout,
    FormatError,
    TextReader,
    parse_aedat2,
    parse_aedat2_stats,
    parse_text,
    write_text,
)
from evframes.stream import (
    DAVIS240C_GEOMETRY,
    DVS128_GEOMETRY,
    Event,
    EventStream,
    SensorGeometry,
    validate_stream,
)

from tests.oracles import parse_text_whole

HEADER = b"#!AER-DAT2.0\n"


def dvs128_record(x, y, p, ticks):
    # Independent bit composer: polarity bit 0 (0 means +1), x bits 1-7, y bits 8-14.
    addr = ((y & 0x7F) << 8) | ((x & 0x7F) << 1) | (0 if p == 1 else 1)
    return struct.pack(">II", addr, ticks)


def davis_record(x, y, p, ticks, non_dvs=False):
    addr = ((y & 0x1FF) << 22) | ((x & 0x3FF) << 12) | ((1 if p == 1 else 0) << 11)
    if non_dvs:
        addr |= 1 << 31
    return struct.pack(">II", addr, ticks)


class TestParseAedat2:
    def test_header_only_gives_empty_stream(self):
        stream = parse_aedat2(HEADER, DVS128_LAYOUT, DVS128_GEOMETRY)
        assert len(stream) == 0

    def test_hand_decoded_record(self):
        # Address word 0x00001205, timestamp 100: polarity bit 1 -> p=-1,
        # x=(0x1205>>1)&0x7F=2, y=(0x1205>>8)&0x7F=18.
        data = HEADER + bytes([0x00, 0x00, 0x12, 0x05, 0x00, 0x00, 0x00, 0x64])
        stream = parse_aedat2(data, DVS128_LAYOUT, DVS128_GEOMETRY)
        assert list(stream) == [Event(x=2, y=18, t=100, p=-1)]

    def test_timestamp_wraparound(self):
        data = HEADER + dvs128_record(1, 1, 1, 0xFFFFFFFF) + dvs128_record(1, 1, 1, 0x00000001)
        stream = parse_aedat2(data, DVS128_LAYOUT, DVS128_GEOMETRY)
        assert list(stream.t) == [4294967295, 4294967297]

    def test_multiple_wraps_accumulate(self):
        recs = (
            dvs128_record(0, 0, 1, 10)
            + dvs128_record(0, 0, 1, 0xFFFFFFF0)
            + dvs128_record(0, 0, 1, 5)
            + dvs128_record(0, 0, 1, 0xFFFFFFFF)
            + dvs128_record(0, 0, 1, 2)
        )
        stream, stats = parse_aedat2_stats(HEADER + recs, DVS128_LAYOUT, DVS128_GEOMETRY)
        assert stats.timestamp_wraps == 2
        assert list(np.diff(stream.t) >= 0) == [True] * 4
        assert stream.t[-1] == 2 + 2 * 2**32

    def test_trailing_partial_record(self):
        data = HEADER + dvs128_record(1, 1, 1, 10) + b"\x00\x01\x02"
        with pytest.raises(FormatError, match=rf"byte offset {len(HEADER) + 8}"):
            parse_aedat2(data, DVS128_LAYOUT, DVS128_GEOMETRY)

    def test_out_of_bounds_coordinate_names_record(self):
        data = HEADER + dvs128_record(2, 3, 1, 10) + dvs128_record(9, 9, 1, 20)
        with pytest.raises(FormatError, match="record 1"):
            parse_aedat2(data, DVS128_LAYOUT, SensorGeometry(8, 8))

    def test_backward_timestamp_without_wrap_rejected(self):
        data = HEADER + dvs128_record(0, 0, 1, 1000) + dvs128_record(0, 0, 1, 900)
        with pytest.raises(FormatError, match="record 1.*backward"):
            parse_aedat2(data, DVS128_LAYOUT, DVS128_GEOMETRY)

    def test_header_must_be_text(self):
        data = b"#\xff\xfe\x00garbage\n"
        with pytest.raises(FormatError, match="not valid text"):
            parse_aedat2(data, DVS128_LAYOUT, DVS128_GEOMETRY)

    def test_unterminated_header(self):
        with pytest.raises(FormatError, match="missing trailing newline"):
            parse_aedat2(b"#!AER-DAT2.0", DVS128_LAYOUT, DVS128_GEOMETRY)

    # A DAVIS240C record with y in 140..143 starts with the byte '#'.
    @pytest.mark.parametrize("x, y, t", [
        (5, 140, 10),  # the tick ends in a newline byte
        (5, 141, 0x01020304),  # no newline byte follows
        (165, 140, 5),  # the second byte is a newline
    ])
    def test_record_starting_with_hash_is_not_header(self, x, y, t):
        data = HEADER + davis_record(x, y, 1, t) + davis_record(6, 10, -1, 0x01020305)
        stream, stats = parse_aedat2_stats(data, DAVIS240C_LAYOUT, DAVIS240C_GEOMETRY)
        assert (stats.header_lines, stats.records) == (1, 2)
        assert list(stream) == [Event(x, y, t, 1), Event(6, 10, 0x01020305, -1)]

    def test_header_line_with_control_character(self):
        with pytest.raises(FormatError, match=r"header line 2: not valid text \(control "
                           r"character 0x1b in position 2\)"):
            parse_aedat2(HEADER + b"# \x1b[0m\n" + b"\x00" * 7, DVS128_LAYOUT, DVS128_GEOMETRY)

    def test_no_header_is_allowed(self):
        stream = parse_aedat2(dvs128_record(3, 4, -1, 7), DVS128_LAYOUT, DVS128_GEOMETRY)
        assert list(stream) == [Event(3, 4, 7, -1)]

    def test_davis_layout_skips_non_dvs_records(self):
        data = (
            HEADER
            + davis_record(10, 20, 1, 100)
            + davis_record(0, 0, 1, 150, non_dvs=True)
            + davis_record(239, 179, -1, 200)
        )
        stream, stats = parse_aedat2_stats(data, DAVIS240C_LAYOUT, DAVIS240C_GEOMETRY)
        assert list(stream) == [Event(10, 20, 100, 1), Event(239, 179, 200, -1)]
        assert stats.skipped_non_dvs == 1
        assert stats.records == 3
        assert stats.events == 2

    def test_output_is_valid_stream(self):
        rng = np.random.default_rng(42)
        recs = b"".join(
            dvs128_record(
                int(rng.integers(0, 128)),
                int(rng.integers(0, 128)),
                int(rng.choice([-1, 1])),
                int(t),
            )
            for t in np.sort(rng.integers(0, 10**6, size=300))
        )
        stream = parse_aedat2(HEADER + recs, DVS128_LAYOUT, DVS128_GEOMETRY)
        assert validate_stream(stream) == []


class TestAedatLayout:
    def test_overlapping_fields_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            AedatLayout(
                x_shift=0, x_mask=0x7F, y_shift=3, y_mask=0x7F,
                polarity_shift=15, polarity_on_value=1,
            )

    def test_field_outside_the_address_word_rejected(self):
        with pytest.raises(ValueError, match="x bit field lies outside the 32-bit"):
            AedatLayout(
                x_shift=28, x_mask=0x7F, y_shift=8, y_mask=0x7F,
                polarity_shift=0, polarity_on_value=1,
            )

    def test_bad_polarity_on_value(self):
        with pytest.raises(ValueError):
            AedatLayout(
                x_shift=1, x_mask=0x7F, y_shift=8, y_mask=0x7F,
                polarity_shift=0, polarity_on_value=2,
            )


class TestParseText:
    def test_basic_line(self):
        stream = parse_text("100 2 18 1\n", DVS128_GEOMETRY)
        assert list(stream) == [Event(x=2, y=18, t=100, p=1)]

    def test_zero_polarity_reads_as_negative(self):
        stream = parse_text("100 2 18 0\n", DVS128_GEOMETRY)
        assert stream[0].p == -1

    def test_empty_file(self):
        assert len(parse_text("", DVS128_GEOMETRY)) == 0

    def test_comments_and_blank_lines_skipped(self):
        text = "# header\n\n10 1 1 1\n# mid\n20 2 2 -1\n"
        stream = parse_text(text, DVS128_GEOMETRY)
        assert len(stream) == 2

    def test_commas_accepted(self):
        stream = parse_text("100,2,18,1", DVS128_GEOMETRY)
        assert stream[0] == Event(2, 18, 100, 1)

    def test_malformed_line_number(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_text("10 1 1 1\n20 1 1\n", DVS128_GEOMETRY)

    def test_non_integer_field(self):
        with pytest.raises(FormatError, match="line 1"):
            parse_text("10.5 1 1 1\n", DVS128_GEOMETRY)

    def test_bad_polarity_value(self):
        with pytest.raises(FormatError, match="polarity"):
            parse_text("10 1 1 3\n", DVS128_GEOMETRY)

    def test_out_of_bounds_coordinate(self):
        with pytest.raises(FormatError, match="line 1"):
            parse_text("10 128 0 1\n", DVS128_GEOMETRY)

    def test_backward_timestamp(self):
        with pytest.raises(FormatError, match="line 2.*backward"):
            parse_text("10 1 1 1\n5 1 1 1\n", DVS128_GEOMETRY)

    def test_timestamp_beyond_int64_rejected(self):
        top = 2**63 - 1
        assert parse_text(f"{top} 1 1 1\n", DVS128_GEOMETRY).t_last == top
        for t in (top + 1, 2**70):
            with pytest.raises(FormatError, match="line 2: timestamp .* int64"):
                parse_text(f"0 1 1 1\n{t} 1 1 1\n", DVS128_GEOMETRY)


class TestRoundTrip:
    def test_empty_stream(self):
        s = EventStream.empty(DVS128_GEOMETRY)
        assert write_text(s) == ""
        assert parse_text(write_text(s), DVS128_GEOMETRY) == s

    def test_single_event_line(self):
        s = EventStream.from_events(DVS128_GEOMETRY, [(2, 18, 100, 1)])
        assert write_text(s) == "100 2 18 1\n"

    def test_random_streams_round_trip_exactly(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            n = int(rng.integers(0, 500))
            t = np.sort(rng.integers(0, 10**7, size=n))
            s = EventStream(
                DVS128_GEOMETRY,
                rng.integers(0, 128, size=n),
                rng.integers(0, 128, size=n),
                t,
                rng.choice([-1, 1], size=n),
            )
            assert parse_text(write_text(s), DVS128_GEOMETRY) == s


def per_line_text(stream):
    """The per-line writer that write_text's single format call replaced."""
    if len(stream) == 0:
        return ""
    cols = np.empty((len(stream), 4), dtype=np.int64)
    cols[:, 0] = stream.t
    cols[:, 1] = stream.x
    cols[:, 2] = stream.y
    cols[:, 3] = stream.p
    return "\n".join(" ".join(str(v) for v in row) for row in cols.tolist()) + "\n"


TEXT_GEOMETRY = SensorGeometry(7, 5)
text_events = st.lists(
    st.tuples(
        st.integers(0, 6), st.integers(0, 4), st.integers(0, 2**63 - 1), st.sampled_from([-1, 1])
    ),
    max_size=40,
)


class TestWriteText:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(text_events)
    @example([(0, 0, 0, -1)])
    @example([(6, 4, 2**63 - 1, -1)])
    @example([(1, 2, 0, 1), (3, 4, 0, -1), (5, 0, 2**63 - 1, -1)])
    def test_matches_the_per_line_writer(self, events):
        s = EventStream.from_events(TEXT_GEOMETRY, sorted(events, key=lambda e: e[2]))
        text = write_text(s)
        assert text == per_line_text(s)
        assert parse_text(text, TEXT_GEOMETRY) == s


LAYOUTS = {
    "dvs128": (DVS128_LAYOUT, DVS128_GEOMETRY),
    "davis240c": (DAVIS240C_LAYOUT, DAVIS240C_GEOMETRY),
}


@st.composite
def aedat_files(draw):
    """(header lines, layout name, records as (x, y, p, ticks, non_dvs)) of a valid file."""
    header = draw(st.lists(
        st.text(st.characters(exclude_categories=("Cc", "Cs"), include_characters="\t\r")),
        max_size=3,
    ))
    name = draw(st.sampled_from(sorted(LAYOUTS)))
    g = LAYOUTS[name][1]
    n = draw(st.integers(0, 12))
    ticks = sorted(draw(st.lists(st.integers(0, 2**32 - 1), min_size=n, max_size=n)))
    records = []
    for i, t in enumerate(ticks):
        # A DAVIS240C address starts with the byte '#' when y is 140..143.
        hash_first = i == 0 and name == "davis240c" and draw(st.booleans())
        records.append((
            draw(st.integers(0, g.width - 1)),
            draw(st.integers(140, 143) if hash_first else st.integers(0, g.height - 1)),
            draw(st.sampled_from([-1, 1])), t, name == "davis240c" and draw(st.booleans()),
        ))
    return header, name, records


SWALLOWED = (["!AER-DAT2.0"], "davis240c", [(5, 140, 1, 10, False), (6, 10, 1, 20, False)])


def aedat_bytes(header, name, records):
    record = dvs128_record if name == "dvs128" else davis_record
    return b"".join(f"#{line}\n".encode() for line in header) + b"".join(
        record(x, y, p, t, *((non_dvs,) if non_dvs else ())) for x, y, p, t, non_dvs in records
    )


aedat_fragments = st.sampled_from([
    b"#", b"\n", b"\r\n", b"#!AER-DAT2.0\r\n", b"\x00" * 4, b"\xff", b"\x80",
    davis_record(5, 140, 1, 10), davis_record(165, 140, 1, 5), dvs128_record(1, 2, 1, 3),
    dvs128_record(1, 2, 1, 2**32 - 1), b"\x00\x00\x00\x0a",
])
arbitrary_aedat = st.one_of(
    st.binary(max_size=80), st.lists(aedat_fragments, max_size=12).map(b"".join)
)
text_fragments = st.sampled_from([
    "0 0 0 1", "3,1,2,-1", " ", ",", "\n", "\r\n", "#", "-", "0", "1", "9" * 20, " ", "\x1c",
    "١", "1e3", "0x10", "\t",
])
arbitrary_text = st.one_of(st.text(max_size=80), st.lists(text_fragments, max_size=30).map("".join))


class TestParserFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(aedat_files())
    @example(SWALLOWED)
    @example((["!AER-DAT2.0"], "davis240c", [(5, 141, 1, 2**24 + 2**16, False)]))
    @example(([], "davis240c", [(165, 140, 1, 5, False), (6, 10, -1, 20, False)]))
    def test_header_never_swallows_a_record(self, spec):
        header, name, records = spec
        layout, geometry = LAYOUTS[name]
        stream, stats = parse_aedat2_stats(aedat_bytes(header, name, records), layout, geometry)
        assert (stats.header_lines, stats.records) == (len(header), len(records))
        assert list(stream) == [Event(x, y, t, p) for x, y, p, t, non_dvs in records if not non_dvs]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(arbitrary_aedat, st.sampled_from(sorted(LAYOUTS)))
    @example(aedat_bytes(*SWALLOWED), "davis240c")
    def test_arbitrary_bytes_parse_or_raise_format_error(self, data, name):
        # Any exception other than FormatError fails the property.
        try:
            parse_aedat2_stats(data, *LAYOUTS[name])
        except FormatError:
            pass

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(arbitrary_text)
    @example("0 0 0 1\n9223372036854775808 0 0 1\n")
    @example(aedat_bytes(*SWALLOWED).decode("latin-1"))
    def test_arbitrary_text_parses_or_raises_format_error(self, text):
        try:
            parse_text(text, TEXT_GEOMETRY)
        except FormatError:
            pass


# Every line end str.splitlines() knows.
LINE_ENDS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@st.composite
def event_texts(draw):
    """Events with rising timestamps, comments and blank lines, any line ends; maybe corrupted."""
    t, lines = draw(st.integers(0, 2**40)), []
    for _ in range(draw(st.integers(0, 12))):
        line = draw(st.sampled_from(["event"] * 6 + ["bad event", "# note", "", " \t"]))
        if line.endswith("event"):
            t += draw(st.integers(0, 50))
            fields = [t, draw(st.integers(0, 6)), draw(st.integers(0, 4)), draw(st.integers(-1, 1))]
            if line == "bad event":  # a field out of range, or a backward timestamp
                bad = [(0, -1), (0, 2**63), (0, 0), (1, 7), (2, 5), (3, 2)]
                i, value = draw(st.sampled_from(bad))
                fields[i] = value
            line = draw(st.sampled_from([" ", ",", "\t", " , "])).join(map(str, fields))
        lines.append(line + draw(st.sampled_from(LINE_ENDS)))
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].splitlines()[0]  # no final line end
    text = "".join(lines)
    mutation = draw(st.sampled_from(["none", "none", "replace", "insert", "cut"]))
    i = draw(st.integers(0, len(text)))
    if mutation == "replace":
        text = text[:i] + draw(text_fragments) + text[i + 1 :]
    elif mutation == "insert":
        text = text[:i] + draw(text_fragments | st.sampled_from(LINE_ENDS)) + text[i:]
    elif mutation == "cut":
        text = text[:i]
    return text


def outcome(read):
    """What read() returns, or the message of the FormatError it raises."""
    try:
        return read()
    except FormatError as exc:
        return str(exc)


class TestTextReader:
    """TextReader gives the stream, or the FormatError message, of the whole-text parse."""

    @pytest.mark.parametrize("block", [1, 2, 3, 2**16])
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(event_texts() | arbitrary_text)
    @example("".join(f"{i} 1 1 1{end}" for i, end in enumerate(LINE_ENDS)) + "# last\n")
    @example("# header\r\n\r\n10,1,1,1\r\n \t\r\n# mid\r\n20 , 2 , 2 , 0\r\n")
    @example("0 1 1 1\n5 2 2 -1")
    @example("0 1 1 1\n5 1 1\n")
    @example("0 1 1 1\n5 1 x 1\n")
    @example("0 1 1 2\n")
    @example("0 1 1 1\n-5 1 1 1\n")
    @example("0 1 1 1\n9223372036854775808 1 1 1\n")
    @example("0 7 1 1\n")
    @example("# c\n10 1 1 1\n\n5 1 1 1\n")
    # \r\n astride the file object's 8192-character decode chunks
    @example("0 1 1 1" + " " * 8184 + "\r\n5 1 1\n")
    def test_matches_the_whole_text_parse(self, block, text):
        expected = outcome(lambda: parse_text_whole(text, TEXT_GEOMETRY))
        f = io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8", newline="")
        reader = TextReader(f, TEXT_GEOMETRY)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "_BLOCK_RECORDS", block)
            for _ in range(2):  # each iteration reads the file again
                blocks = outcome(lambda: list(reader))
                if isinstance(expected, str):
                    assert blocks == expected
                else:
                    n = len(expected)
                    sizes = [block] * (n // block) + ([n % block] if n % block else [])
                    assert [len(b) for b in blocks] == sizes
                    assert EventStream.concat(TEXT_GEOMETRY, blocks) == expected
            assert outcome(lambda: parse_text(text, TEXT_GEOMETRY)) == expected
