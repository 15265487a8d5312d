import numpy as np
import pytest

from evframes.stream import DVS128_GEOMETRY, EventStream, truncate_by_ratio
from evframes.windowing import EventWindow, WindowConfig, segment

from .test_stream import make_stream, random_stream


def brute_force_assignment(stream, T):
    """Independent oracle: window index of each event is floor((t - t_first)/T)."""
    t_first = int(stream.t[0])
    return [(int(t) - t_first) // T for t in stream.t]


class TestWindowConfig:
    def test_default_is_80ms(self):
        assert WindowConfig().window_length_us == 80_000

    def test_positive_required(self):
        with pytest.raises(ValueError):
            WindowConfig(0)


class TestSegment:
    def test_empty_stream(self):
        assert segment(EventStream.empty(DVS128_GEOMETRY), WindowConfig()) == []

    def test_both_events_inside_one_window(self):
        s = make_stream([(0, 0, 0, 1), (0, 0, 79_999, 1)])
        windows = segment(s, WindowConfig(80_000))
        assert len(windows) == 1
        assert len(windows[0]) == 2
        assert windows[0].window_start == 0
        assert windows[0].window_end == 80_000

    def test_half_open_boundary(self):
        s = make_stream([(0, 0, 0, 1), (0, 0, 80_000, 1)])
        windows = segment(s, WindowConfig(80_000))
        assert [len(w) for w in windows] == [1, 1]
        assert list(windows[1].t) == [80_000]

    def test_empty_interior_window_emitted(self):
        s = make_stream([(0, 0, 0, 1), (0, 0, 100, 1), (0, 0, 200_000, 1)])
        windows = segment(s, WindowConfig(80_000))
        expected_idx = brute_force_assignment(s, 80_000)
        assert expected_idx == [0, 0, 2]
        assert [len(w) for w in windows] == [2, 0, 1]
        assert windows[1].empty
        assert windows[1].t_begin is None and windows[1].t_end is None

    def test_anchored_at_first_event(self):
        s = make_stream([(0, 0, 1_000_000, 1), (0, 0, 1_050_000, 1)])
        windows = segment(s, WindowConfig(80_000))
        assert len(windows) == 1
        assert windows[0].window_start == 1_000_000

    def test_single_event_stream(self):
        s = make_stream([(3, 4, 12_345, -1)])
        windows = segment(s, WindowConfig(80_000))
        assert len(windows) == 1
        assert windows[0].t_begin == windows[0].t_end == 12_345

    @pytest.mark.parametrize("T", [20_000, 50_000, 80_000])
    def test_partition_property(self, T):
        rng = np.random.default_rng(T)
        for _ in range(20):
            s = random_stream(rng, int(rng.integers(1, 300)), span_us=400_000)
            windows = segment(s, WindowConfig(T))
            span = int(s.t[-1]) - int(s.t[0])
            assert len(windows) == -(-(span + 1) // T)  # ceil
            # every event in exactly one window, order preserved
            assert sum(len(w) for w in windows) == len(s)
            recombined = np.concatenate([w.t for w in windows])
            assert np.array_equal(recombined, s.t)
            for k, w in enumerate(windows):
                assert w.window_start == int(s.t[0]) + k * T
                assert w.window_end == w.window_start + T
                if not w.empty:
                    assert w.window_start <= w.t_begin <= w.t_end < w.window_end

    def test_truncate_ratio_one_preserves_segmentation(self):
        rng = np.random.default_rng(5)
        s = random_stream(rng, 250)
        cfg = WindowConfig(20_000)
        assert segment(truncate_by_ratio(s, 1.0), cfg) == segment(s, cfg)

    def test_last_edge_beyond_int64_rejected(self):
        # The edge t_first + 1000 wraps in int64; it must not pass silently.
        s = make_stream([(0, 0, 9223372036854775000, 1), (1, 1, 9223372036854775800, -1)])
        with pytest.raises(ValueError, match="int64"):
            segment(s, WindowConfig(1000))

    def test_last_edge_at_int64_max_accepted(self):
        top = 2**63 - 1
        s = make_stream([(0, 0, top - 1000, 1), (1, 1, top - 1, -1)])
        windows = segment(s, WindowConfig(1000))
        assert [(w.window_start, w.window_end, len(w)) for w in windows] == [
            (top - 1000, top, 2)
        ]

    def test_windows_share_stream_geometry(self):
        s = make_stream([(0, 0, 0, 1)])
        assert segment(s, WindowConfig())[0].geometry == s.geometry
