"""Event-camera stream toolkit.

Parse DVS recordings (AEDAT 2.0 or plain text), cut them into fixed-length
time windows, encode each window as an 8-bit frame (normalized latest-event
timestamps or per-pixel event counts, with polarities merged into separate
channels or pooled), group frames into sliding 3-frame chunks, average
per-chunk classifier scores into one prediction, and synthesize event
streams from intensity frames with an ideal contrast-threshold sensor
model. The ``evframes`` CLI drives the same pipeline over files.
"""

import importlib

# Each public name by the module it comes from. A name is imported on first
# use (PEP 562), so that `import evframes` and the CLI's chunk and aggregate
# commands do not import numpy.
_EXPORTS = {
    "chunking": (
        "POLICY_DROP_ALL_EMPTY", "POLICY_KEEP", "Chunk", "apply_empty_policy", "make_chunks",
        "select_chunks",
    ),
    "encoders": (
        "EncodedFrame", "encode_blocks", "encode_stream", "encode_window", "event_count_field",
        "quantize", "timestamp_field",
    ),
    "formats": (
        "FormatError", "FrameTensor", "FrameTensorReader", "ScoreTableReader", "parse_scores",
        "read_frame_tensor", "write_frame_tensor", "write_frame_tensor_to", "write_pnm",
        "write_scores",
    ),
    "ingest": (
        "AedatReader", "TextReader", "parse_aedat2", "parse_aedat2_stats", "parse_text",
        "write_text",
    ),
    "options": (
        "DAVIS240C_GEOMETRY", "DAVIS240C_LAYOUT", "DEFAULT_WINDOW_US", "DVS128_GEOMETRY",
        "DVS128_LAYOUT", "KIND_EVENT_COUNT", "KIND_TIMESTAMP", "POLARITY_IGNORE",
        "POLARITY_MERGED", "AedatLayout", "SensorGeometry",
    ),
    "scoring": ("ScoreVector", "VideoPrediction", "pool_in_chunk_order", "temporal_average_pool"),
    "simulator": ("SimConfig", "simulate"),
    "stream": ("EventStream", "truncate_blocks", "truncate_by_ratio"),
    "windowing": ("EventWindow", "WindowConfig", "segment"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    """A submodule, or a public name, imported on first use; the name is then kept here."""
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"

# The simulator has one implementation; reports name it.
BACKEND = "numpy"

__all__ = ["BACKEND", *_MODULE_OF, "__version__"]
