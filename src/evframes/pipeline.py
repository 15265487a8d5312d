"""Stream-to-frames pipeline: segment into windows, encode each window."""

from __future__ import annotations

from .encoders import POLARITY_MERGED, EncodedFrame, encode_window
from .stream import EventStream
from .windowing import WindowConfig, segment


def encode_stream(
    stream: EventStream,
    config: WindowConfig = WindowConfig(),
    kind: str = "timestamp",
    polarity_mode: str = POLARITY_MERGED,
) -> list[EncodedFrame]:
    """Segment a stream and encode every window; one frame per window."""
    return [encode_window(w, kind, polarity_mode) for w in segment(stream, config)]
