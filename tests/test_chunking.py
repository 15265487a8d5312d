import numpy as np
import pytest

from evframes.chunking import (
    POLICY_DROP_ALL_EMPTY,
    POLICY_KEEP,
    apply_empty_policy,
    make_chunks,
    select_chunks,
)
from evframes.encoders import KIND_TIMESTAMP, EncodedFrame


def make_frame(i, empty=False, shape=(4, 4, 3), kind=KIND_TIMESTAMP, polarity_mode="merged"):
    pixels = np.zeros(shape, dtype=np.uint8)
    if not empty:
        pixels[0, 0, 0] = i + 1
    return EncodedFrame(pixels, kind, polarity_mode, i * 100, (i + 1) * 100, empty)


def frames(n, empty_mask=None):
    empty_mask = empty_mask or [False] * n
    return [make_frame(i, empty=empty_mask[i]) for i in range(n)]


class TestMakeChunks:
    def test_five_frames_give_three_chunks(self):
        chunks = make_chunks(frames(5))
        assert len(chunks) == 3
        assert [c.frame_indices for c in chunks] == [(0, 1, 2), (1, 2, 3), (2, 3, 4)]

    def test_three_frames_boundary(self):
        chunks = make_chunks(frames(3))
        assert len(chunks) == 1
        assert chunks[0].index == 2

    def test_below_buffer_size(self):
        assert make_chunks(frames(2)) == []
        assert make_chunks(frames(1)) == []
        assert make_chunks([]) == []

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 50])
    def test_chunk_count_formula(self, n):
        assert len(make_chunks(frames(n))) == max(0, n - 2)

    def test_chunks_hold_consecutive_frames_in_order(self):
        fs = frames(10)
        for c in make_chunks(fs):
            lo = c.index - 2
            assert c.frames == tuple(fs[lo : c.index + 1])

    def test_mixed_shape_rejected(self):
        fs = frames(3)
        fs[2] = make_frame(2, shape=(5, 4, 3))
        with pytest.raises(ValueError, match="frame 2"):
            make_chunks(fs)

    def test_mixed_kind_rejected(self):
        fs = frames(3)
        fs[1] = make_frame(1, kind="event_count")
        with pytest.raises(ValueError, match="frame 1.*kind"):
            make_chunks(fs)

    def test_mixed_polarity_mode_rejected(self):
        fs = frames(4)
        fs[3] = make_frame(3, polarity_mode="ignore")
        with pytest.raises(
            ValueError, match=r"^frame 3: polarity mode 'ignore' does not match 'merged'$"
        ):
            make_chunks(fs)

    def test_first_of_several_mismatches_is_named(self):
        fs = frames(5)
        fs[4] = make_frame(4, kind="event_count")
        fs[2] = make_frame(2, shape=(4, 5, 3))
        with pytest.raises(ValueError, match=r"^frame 2: shape 5x4x3 does not match frame 0 \(4x4x3\)$"):
            make_chunks(fs)


class TestEmptyPolicy:
    def test_keep_is_identity(self):
        chunks = make_chunks(frames(5))
        assert apply_empty_policy(chunks, POLICY_KEEP) == chunks

    def test_no_empty_frames_policies_agree(self):
        chunks = make_chunks(frames(6))
        assert apply_empty_policy(chunks, POLICY_DROP_ALL_EMPTY) == chunks

    def test_all_empty_frames_drop_everything(self):
        chunks = make_chunks(frames(5, empty_mask=[True] * 5))
        assert apply_empty_policy(chunks, POLICY_DROP_ALL_EMPTY) == []

    def test_mixed_sequence_matches_flag_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            n = int(rng.integers(3, 20))
            mask = [bool(rng.integers(0, 2)) for _ in range(n)]
            chunks = make_chunks(frames(n, empty_mask=mask))
            kept = apply_empty_policy(chunks, POLICY_DROP_ALL_EMPTY)
            expected = [
                c for c in chunks if not (mask[c.index - 2] and mask[c.index - 1] and mask[c.index])
            ]
            assert kept == expected

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown policy"):
            apply_empty_policy([], "discard")


class TestSelectChunks:
    def test_ranges_of_five_frames(self):
        assert select_chunks([False] * 5) == [range(0, 3), range(1, 4), range(2, 5)]

    @pytest.mark.parametrize("policy", [POLICY_KEEP, POLICY_DROP_ALL_EMPTY])
    def test_matches_chunk_objects(self, policy):
        rng = np.random.default_rng(31)
        for _ in range(30):
            mask = [bool(v) for v in rng.integers(0, 2, size=int(rng.integers(0, 12)))]
            kept = apply_empty_policy(make_chunks(frames(len(mask), mask)), policy)
            assert select_chunks(mask, policy) == [range(c.index - 2, c.index + 1) for c in kept]

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="unknown policy"):
            select_chunks([], "discard")
