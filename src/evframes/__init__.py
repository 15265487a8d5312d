"""Event-camera stream toolkit.

Parse DVS recordings (AEDAT 2.0 or plain text), cut them into fixed-length
time windows, encode each window as an 8-bit frame (normalized latest-event
timestamps or per-pixel event counts, with polarities merged into separate
channels or pooled), group frames into sliding 3-frame chunks, average
per-chunk classifier scores into one prediction, and synthesize event
streams from intensity frames with an ideal contrast-threshold sensor
model. The ``evframes`` CLI drives the same pipeline over files.
"""

from .chunking import (
    POLICY_DROP_ALL_EMPTY,
    POLICY_KEEP,
    Chunk,
    apply_empty_policy,
    make_chunks,
    select_chunks,
)
from .encoders import (
    KIND_EVENT_COUNT,
    KIND_TIMESTAMP,
    POLARITY_IGNORE,
    POLARITY_MERGED,
    EncodedFrame,
    encode_blocks,
    encode_stream,
    encode_window,
    event_count_field,
    quantize,
    timestamp_field,
)
from .formats import (
    FrameTensor,
    FrameTensorReader,
    parse_scores,
    read_frame_tensor,
    write_frame_tensor,
    write_frame_tensor_to,
    write_pnm,
    write_scores,
)
from .ingest import (
    DAVIS240C_LAYOUT,
    DVS128_LAYOUT,
    AedatLayout,
    AedatReader,
    FormatError,
    TextReader,
    parse_aedat2,
    parse_aedat2_stats,
    parse_text,
    write_text,
)
from .scoring import ScoreVector, VideoPrediction, temporal_average_pool
from .simulator import SimConfig, simulate
from .stream import (
    DAVIS240C_GEOMETRY,
    DVS128_GEOMETRY,
    EventStream,
    SensorGeometry,
    truncate_blocks,
    truncate_by_ratio,
)
from .windowing import DEFAULT_WINDOW_US, EventWindow, WindowConfig, segment

__version__ = "0.1.0"

# The simulator has one implementation; reports name it.
BACKEND = "numpy"

__all__ = [
    "BACKEND",
    "DEFAULT_WINDOW_US",
    "DAVIS240C_GEOMETRY",
    "DAVIS240C_LAYOUT",
    "DVS128_GEOMETRY",
    "DVS128_LAYOUT",
    "KIND_EVENT_COUNT",
    "KIND_TIMESTAMP",
    "POLARITY_IGNORE",
    "POLARITY_MERGED",
    "POLICY_DROP_ALL_EMPTY",
    "POLICY_KEEP",
    "AedatLayout",
    "AedatReader",
    "Chunk",
    "EncodedFrame",
    "EventStream",
    "EventWindow",
    "FormatError",
    "FrameTensor",
    "FrameTensorReader",
    "ScoreVector",
    "SensorGeometry",
    "SimConfig",
    "TextReader",
    "VideoPrediction",
    "WindowConfig",
    "apply_empty_policy",
    "encode_blocks",
    "encode_stream",
    "encode_window",
    "event_count_field",
    "make_chunks",
    "parse_aedat2",
    "parse_aedat2_stats",
    "parse_scores",
    "parse_text",
    "quantize",
    "read_frame_tensor",
    "segment",
    "select_chunks",
    "simulate",
    "temporal_average_pool",
    "timestamp_field",
    "truncate_blocks",
    "truncate_by_ratio",
    "write_frame_tensor",
    "write_frame_tensor_to",
    "write_pnm",
    "write_scores",
    "write_text",
    "__version__",
]
