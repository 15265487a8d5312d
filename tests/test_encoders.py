import math

import numpy as np
import pytest

from evframes.encoders import (
    EncodedFrame,
    encode_stream,
    encode_window,
    event_count_field,
    quantize,
    timestamp_field,
)
from evframes.options import KIND_EVENT_COUNT, KIND_TIMESTAMP, POLARITY_IGNORE, POLARITY_MERGED
from evframes.stream import MAX_TIMESTAMP_US, SensorGeometry
from evframes.windowing import EventWindow, WindowConfig

from tests.oracles import loop_field, quantize_exact, stream_of


def window_from_events(events, window_start, window_end, geometry):
    """Build a window directly from (x, y, t, p) tuples sorted by t."""
    events = sorted(events, key=lambda e: e[2])
    if events:
        x, y, t, p = (np.asarray(col) for col in zip(*events))
    else:
        x = y = t = p = np.asarray([], dtype=np.int64)
    return EventWindow(
        geometry,
        x.astype(np.int32),
        y.astype(np.int32),
        t.astype(np.int64),
        p.astype(np.int8),
        window_start,
        window_end,
    )


def random_window(rng, width=16, height=16, max_events=200, span=100_000):
    n = int(rng.integers(1, max_events + 1))
    events = [
        (
            int(rng.integers(0, width)),
            int(rng.integers(0, height)),
            int(rng.integers(0, span)),
            int(rng.choice([-1, 1])),
        )
        for _ in range(n)
    ]
    return window_from_events(events, 0, span, SensorGeometry(width, height))


GEOM = SensorGeometry(8, 8)


class TestTimestampField:
    def test_pixel_value_from_latest_event(self):
        # Window bounds 0..80000 come from corner events; pixel (3, 4) has
        # events at 10000 and 50000, so its value is 50000/80000 = 0.625.
        w = window_from_events(
            [(0, 0, 0, 1), (3, 4, 10_000, 1), (3, 4, 50_000, 1), (7, 7, 80_000, 1)],
            0,
            80_001,
            GEOM,
        )
        field = timestamp_field(w)
        assert field[4, 3] == 0.625

    def test_extremes(self):
        w = window_from_events([(1, 1, 100, 1), (2, 2, 500, -1)], 0, 80_000, GEOM)
        field = timestamp_field(w)
        assert field[1, 1] == 0.0  # pixel with only the earliest event
        assert field[2, 2] == 1.0  # pixel with the latest event

    def test_degenerate_window_all_same_timestamp(self):
        w = window_from_events([(1, 1, 42, 1), (5, 5, 42, -1)], 0, 80_000, GEOM)
        field = timestamp_field(w)
        assert field[1, 1] == 1.0
        assert field[5, 5] == 1.0
        assert field.sum() == 2.0

    def test_polarity_filter_uses_window_global_bounds(self):
        # Negative event at t=40000; bounds 0..80000 come from positive events.
        w = window_from_events(
            [(0, 0, 0, 1), (3, 3, 40_000, -1), (7, 7, 80_000, 1)], 0, 80_001, GEOM
        )
        field = timestamp_field(w, polarity=-1)
        assert field[3, 3] == 0.5
        assert field[0, 0] == 0.0 and field[7, 7] == 0.0

    def test_no_filtered_events_gives_zero_field(self):
        w = window_from_events([(1, 1, 10, 1)], 0, 80_000, GEOM)
        assert timestamp_field(w, polarity=-1).sum() == 0.0

    def test_empty_window(self):
        w = window_from_events([], 0, 80_000, GEOM)
        assert timestamp_field(w).sum() == 0.0

    def test_matches_oracle_on_random_windows(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            w = random_window(rng)
            for polarity in (None, 1, -1):
                got = timestamp_field(w, polarity)
                want = loop_field(w, KIND_TIMESTAMP, polarity)
                assert np.array_equal(got, want)
                assert got.min() >= 0.0 and got.max() <= 1.0

    def test_time_shift_invariance(self):
        rng = np.random.default_rng(2)
        w = random_window(rng)
        shifted = EventWindow(
            w.geometry, w.x, w.y, w.t + 123_456, w.p,
            w.window_start + 123_456, w.window_end + 123_456,
        )
        assert np.array_equal(timestamp_field(w), timestamp_field(shifted))

    def test_monotone_in_latest_event_time(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            w = random_window(rng)
            field = timestamp_field(w)
            oracle_latest = {}
            for i in range(len(w.t)):
                oracle_latest[(int(w.x[i]), int(w.y[i]))] = int(w.t[i])
            pixels = sorted(oracle_latest.items(), key=lambda kv: kv[1])
            for (a, b) in zip(pixels, pixels[1:]):
                if b[1] > a[1]:
                    assert field[a[0][1], a[0][0]] < field[b[0][1], b[0][0]]


class TestEventCountField:
    def test_counts_events_per_pixel(self):
        w = window_from_events(
            [(2, 3, 10, 1), (2, 3, 20, -1), (2, 3, 30, 1), (4, 4, 15, 1)], 0, 100, GEOM
        )
        field = event_count_field(w)
        assert field[3, 2] == 3
        assert field[4, 4] == 1

    def test_empty_window_all_zeros(self):
        w = window_from_events([], 0, 100, GEOM)
        assert event_count_field(w).sum() == 0

    def test_matches_histogram_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            w = random_window(rng, max_events=1000)
            for polarity in (None, 1, -1):
                assert np.array_equal(
                    event_count_field(w, polarity), loop_field(w, KIND_EVENT_COUNT, polarity)
                )

    def test_count_additivity(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            w = random_window(rng)
            total = event_count_field(w, 1) + event_count_field(w, -1)
            assert np.array_equal(total, event_count_field(w, None))


class TestQuantize:
    def test_timestamp_scaling(self):
        assert quantize(np.array([[0.625]]), 1.0)[0, 0] == round(255 * 0.625)  # 159

    def test_half_up_rounding(self):
        # 255 * 2 / 4 = 127.5 rounds up to 128
        assert quantize(np.array([[2.0]]), 4.0)[0, 0] == 128

    def test_integer_counts_match_exact_rational_rounding(self):
        # Guards the op order in quantize: 25 of 50 is exactly 127.5 and must
        # round up, which a premultiplied 255/v_max scale gets wrong.
        rng = np.random.default_rng(40)
        cases = [(25, 50), (29, 58), (21, 210), (105, 210), (90, 100)]
        for _ in range(500):
            m = int(rng.integers(1, 3000))
            cases.append((int(rng.integers(0, m + 1)), m))
        for c, m in cases:
            count, v_max = np.array([[float(c)]]), float(m)
            np.testing.assert_array_equal(quantize(count, v_max), quantize_exact(count, v_max))

    def test_zero_scale_gives_zeros(self):
        assert quantize(np.ones((2, 2)), 0.0).sum() == 0

    @pytest.mark.parametrize("value,v_max", [(5.0, 1.0), (-1.0, 1.0), (7.5, 7.0), (-0.5, 4.0)])
    def test_value_outside_zero_to_v_max_is_refused(self, value, v_max):
        # A uint8 cast would wrap these: 5.0 of 1.0 would give 251.
        with pytest.raises(ValueError, match=rf"^quantize needs values in \[0, {v_max}\]$"):
            quantize(np.array([0.0, value]), v_max)

    @pytest.mark.parametrize(
        "value,v_max",
        [(math.nan, 1.0), (math.nan, 0.0), (0.5, math.nan), (math.inf, 1.0), (math.inf, math.inf)],
    )
    def test_nan_or_infinite_value_is_refused(self, value, v_max):
        with pytest.raises(
            ValueError, match=r"^quantize needs finite values and a v_max that is not NaN$"
        ):
            quantize(np.array([[0.25, value]]), v_max)

    def test_max_maps_to_255(self):
        assert quantize(np.array([[7.0]]), 7.0)[0, 0] == 255

    def test_matches_scale_divide_round_formula(self):
        # Only a v_max of exactly 1.0 may skip the division.
        rng = np.random.default_rng(41)
        for v_max in (0.3, 0.5, 1.0, 1.0 + 2**-52, 2.0, 7.0):
            field = rng.random(200) * v_max
            expected = np.floor(field * 255.0 / v_max + 0.5).astype(np.uint8)
            np.testing.assert_array_equal(quantize(field, v_max), expected)


class TestEncodeMerged:
    def test_positive_only_leaves_channel1_zero(self):
        w = window_from_events([(1, 1, 10, 1), (2, 2, 20, 1)], 0, 100, GEOM)
        frame = encode_window(w, KIND_TIMESTAMP, POLARITY_MERGED)
        assert frame.pixels.shape[2] == 3
        assert frame.pixels[..., 1].sum() == 0
        assert frame.pixels[..., 2].sum() == 0
        assert frame.pixels[..., 0].max() == 255

    def test_timestamp_quantization_value(self):
        w = window_from_events(
            [(0, 0, 0, 1), (3, 4, 50_000, 1), (7, 7, 80_000, 1)], 0, 80_001, GEOM
        )
        frame = encode_window(w, KIND_TIMESTAMP, POLARITY_MERGED)
        assert frame.pixels[4, 3, 0] == 159  # round(255 * 0.625)

    def test_count_joint_normalization(self):
        # positive max 4 at (1,1); pixel (2,2) has 2 positives -> 128; one
        # negative at (3,3) -> round(255/4) = 64.
        events = [(1, 1, t, 1) for t in (1, 2, 3, 4)]
        events += [(2, 2, t, 1) for t in (5, 6)]
        events += [(3, 3, 7, -1)]
        w = window_from_events(events, 0, 100, GEOM)
        frame = encode_window(w, KIND_EVENT_COUNT, POLARITY_MERGED)
        assert frame.pixels[1, 1, 0] == 255
        assert frame.pixels[2, 2, 0] == 128
        assert frame.pixels[3, 3, 1] == 64

    def test_polarity_flip_swaps_channels(self):
        rng = np.random.default_rng(6)
        for kind in (KIND_TIMESTAMP, KIND_EVENT_COUNT):
            for _ in range(20):
                w = random_window(rng)
                flipped = EventWindow(
                    w.geometry, w.x, w.y, w.t, (-w.p).astype(np.int8),
                    w.window_start, w.window_end,
                )
                a = encode_window(w, kind, POLARITY_MERGED)
                b = encode_window(flipped, kind, POLARITY_MERGED)
                assert np.array_equal(a.pixels[..., 0], b.pixels[..., 1])
                assert np.array_equal(a.pixels[..., 1], b.pixels[..., 0])

    def test_empty_window_flagged(self):
        w = window_from_events([], 0, 100, GEOM)
        frame = encode_window(w, KIND_EVENT_COUNT, POLARITY_MERGED)
        assert frame.empty
        assert frame.pixels.sum() == 0

    def test_nonempty_window_not_flagged_and_not_all_zero(self):
        w = window_from_events([(0, 0, 5, -1)], 0, 100, GEOM)
        frame = encode_window(w, KIND_TIMESTAMP, POLARITY_MERGED)
        assert not frame.empty
        assert frame.pixels.sum() > 0


class TestEncodeSingle:
    def test_one_channel(self):
        w = window_from_events([(1, 1, 10, 1), (1, 1, 20, -1)], 0, 100, GEOM)
        frame = encode_window(w, KIND_EVENT_COUNT, POLARITY_IGNORE)
        assert frame.pixels.shape[2] == 1
        assert frame.polarity_mode == "ignore"
        assert frame.pixels[1, 1, 0] == 255  # count 2 of max 2

    def test_counts_both_polarities(self):
        w = window_from_events([(1, 1, 10, 1), (1, 1, 20, -1), (2, 2, 30, 1)], 0, 100, GEOM)
        field = event_count_field(w)
        frame = encode_window(w, KIND_EVENT_COUNT, POLARITY_IGNORE)
        assert field[1, 1] == 2
        assert frame.pixels[2, 2, 0] == 128  # round(255 * 1/2)

    def test_unknown_kind_rejected(self):
        w = window_from_events([(1, 1, 10, 1)], 0, 100, GEOM)
        with pytest.raises(ValueError, match="unknown frame kind"):
            encode_window(w, "voxel", POLARITY_IGNORE)

    @pytest.mark.parametrize(
        "kind,mode,message",
        [
            ("latest", POLARITY_MERGED, "unknown frame kind"),
            (KIND_TIMESTAMP, "both", "unknown polarity mode"),
        ],
    )
    @pytest.mark.parametrize(
        "events",
        # No window to encode; and two windows, the last ending past int64.
        [[], [(0, 0, 0, 1), (1, 1, MAX_TIMESTAMP_US - 1, -1)]],
        ids=["empty", "window-end-overflow"],
    )
    def test_unknown_mode_rejected_by_the_call(self, kind, mode, message, events):
        stream = stream_of(GEOM, events)
        with pytest.raises(ValueError, match=message):
            encode_stream(stream, WindowConfig(2**62), kind, mode)


class TestFrameInvariants:
    def test_pixels_in_byte_range_and_dtype(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            w = random_window(rng)
            for frame in (
                encode_window(w, KIND_TIMESTAMP, POLARITY_MERGED),
                encode_window(w, KIND_EVENT_COUNT, POLARITY_IGNORE),
            ):
                assert frame.pixels.dtype == np.uint8
                assert frame.pixels.shape[1] == w.geometry.width
                assert frame.pixels.shape[0] == w.geometry.height

    def test_frame_equality(self):
        w = window_from_events([(1, 1, 10, 1)], 0, 100, GEOM)
        frame = encode_window(w, KIND_TIMESTAMP, POLARITY_MERGED)
        assert frame == encode_window(w, KIND_TIMESTAMP, POLARITY_MERGED)
        assert frame != encode_window(w, KIND_EVENT_COUNT, POLARITY_MERGED)
        # Against a foreign type each class returns NotImplemented, and == is False.
        for value in (stream_of(GEOM, [(1, 1, 10, 1)]), w, frame):
            assert (value == "value") is False
            assert value != 0
