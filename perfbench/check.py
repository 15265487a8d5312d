"""Correctness gate: references built from ground truth, and the stand-in classifier.

Nothing here calls into evframes except to build the score vectors the
pipeline consumes; every expected value is derived from the generator's
events (or, for the simulator, from the intensity frames) with plain numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from evframes import ScoreVector


class Mismatch(AssertionError):
    """An item's output differs from the reference."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def sample_windows(n: int) -> list[int]:
    """A fixed sample of window indices: first, quartiles and last."""
    return sorted({0, n // 4, n // 2, 3 * n // 4, n - 1}) if n else []


def reference_frame(x, y, t, p, width, height, kind, merged) -> np.ndarray:
    """One window's uint8 frame, from the README's definition of the encoders."""
    channels = 3 if merged else 1
    out = np.zeros((height, width, channels), dtype=np.uint8)
    if len(t) == 0:
        return out
    groups = [(p == 1, 0), (p == -1, 1)] if merged else [(slice(None), 0)]
    fields = []
    for sel, _ in groups:
        if kind == "timestamp":
            last = np.full((height, width), -1, dtype=np.int64)
            np.maximum.at(last, (y[sel], x[sel]), t[sel])
            field = np.zeros((height, width))
            active = last >= 0
            t_begin, t_end = int(t[0]), int(t[-1])
            if t_end == t_begin:
                field[active] = 1.0
            else:
                field[active] = (last[active] - t_begin) / (t_end - t_begin)
        else:
            field = np.zeros((height, width))
            np.add.at(field, (y[sel], x[sel]), 1.0)
        fields.append(field)
    v_max = 1.0 if kind == "timestamp" else max(float(f.max()) for f in fields)
    for field, (_, channel) in zip(fields, groups):
        if v_max > 0:
            out[..., channel] = np.floor(field * 255.0 / v_max + 0.5).astype(np.uint8)
    return out


@dataclass
class FrameReference:
    """What segmenting, encoding and chunking one event stream must produce."""

    n_frames: int
    starts: np.ndarray
    empty: np.ndarray
    samples: dict
    kept: list[int]


def frame_reference(x, y, t, p, width, height, window_us, kind, merged, drop_empty):
    n = (int(t[-1]) - int(t[0]) + window_us) // window_us  # ceil((span + 1) / T)
    starts = int(t[0]) + window_us * np.arange(n + 1, dtype=np.int64)
    cuts = np.searchsorted(t, starts)
    empty = cuts[1:] == cuts[:-1]
    samples = {}
    for k in sample_windows(n):
        lo, hi = cuts[k], cuts[k + 1]
        samples[k] = reference_frame(x[lo:hi], y[lo:hi], t[lo:hi], p[lo:hi], width, height, kind, merged)
    kept = [j for j in range(2, n) if not (drop_empty and empty[j - 2 : j + 1].all())]
    return FrameReference(n, starts, empty, samples, kept)


def check_frames(ref: FrameReference, frames, n_chunks: int | None, kept: list[int]) -> None:
    """Frame count, window bounds, empty flags, sampled pixels and chunk counts."""
    expect(len(frames) == ref.n_frames, f"{len(frames)} frames, expected {ref.n_frames}")
    empty = np.array([f.empty for f in frames], dtype=bool)
    expect(np.array_equal(empty, ref.empty), "empty-window flags differ from the reference")
    for k, pixels in ref.samples.items():
        f = frames[k]
        expect(
            (f.window_start, f.window_end) == (ref.starts[k], ref.starts[k + 1]),
            f"frame {k}: window [{f.window_start}, {f.window_end}) is misplaced",
        )
        expect(np.array_equal(f.pixels, pixels), f"frame {k}: pixels differ from the reference")
    if n_chunks is not None:
        expected = max(0, ref.n_frames - 2)
        expect(n_chunks == expected, f"{n_chunks} chunks before the policy, expected {expected}")
    expect(kept == ref.kept, f"{len(kept)} chunks kept, expected {len(ref.kept)}")


def classify(frames, chunk_indices: list[int]) -> list[ScoreVector]:
    """Stand-in classifier: four scores per chunk from its frames' mean pixel values."""
    means = {}
    vectors = []
    for i in chunk_indices:
        for j in (i - 2, i - 1, i):
            if j not in means:
                means[j] = float(frames[j].pixels.mean())
        a, b, c = means[i - 2], means[i - 1], means[i]
        vectors.append(ScoreVector(np.array([a, b, c, c - a]), i))
    return vectors


def check_pooled(vectors, mean_scores, label: int) -> None:
    """The pooled prediction is the chunk-order mean of the stand-in scores."""
    total = np.zeros(len(vectors[0].scores))
    for v in sorted(vectors, key=lambda v: v.chunk_index):
        total += v.scores
    mean = total / len(vectors)
    expect(np.array_equal(np.asarray(mean_scores), mean), "pooled mean differs from the scores' mean")
    expect(label == int(np.argmax(mean)), f"label {label}, expected {int(np.argmax(mean))}")


def reference_crossings(log_frames, times_us, threshold, refractory_us, pixels):
    """Events an ideal sensor emits at the given flat pixel indices, (t, pixel) order.

    Per pixel, log intensity is interpolated linearly between frames; the
    reference level steps by the threshold at each crossing, suppressed or
    not; crossing times round half-up to whole microseconds.
    """
    n_frames, height, width = log_frames.shape
    rows = []
    for pix in pixels:
        yy, xx = divmod(int(pix), width)
        ref = log_frames[0, yy, xx]
        last_emit = -math.inf
        for f in range(n_frames - 1):
            l0, l1 = log_frames[f, yy, xx], log_frames[f + 1, yy, xx]
            if l1 == l0:
                continue
            direction = 1.0 if l1 > l0 else -1.0
            n_cross = int(math.floor(direction * (l1 - ref) / threshold))
            if n_cross <= 0:
                continue
            inv_slope = float(times_us[f + 1] - times_us[f]) / (l1 - l0)
            for k in range(1, n_cross + 1):
                t_cross = float(times_us[f]) + (ref + direction * k * threshold - l0) * inv_slope
                if refractory_us <= 0 or t_cross - last_emit >= refractory_us:
                    rows.append((math.floor(t_cross + 0.5), yy * width + xx, int(direction)))
                    last_emit = t_cross
            ref += direction * n_cross * threshold
    rows.sort()
    return np.array(rows, dtype=np.int64).reshape(-1, 3)
