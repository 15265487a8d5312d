"""Command-line pipeline: parse -> window -> encode -> chunk -> aggregate.

Exit codes: 0 on success, 1 for data errors (bad file contents, reported
with position context on stderr), 2 for usage errors (argparse's own
convention, also used for out-of-domain flag values).

Each command imports the array modules it needs when it runs, so that
``--help``, ``chunk`` and ``aggregate`` run without numpy.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import contextmanager
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Iterable, Iterator

from .chunking import POLICIES, POLICY_KEEP, select_chunks
from .formats import FrameTensorReader, ScoreTableReader, write_frame_tensor_to, write_pnm
from .options import (
    DAVIS240C_GEOMETRY, DAVIS240C_LAYOUT, DEFAULT_WINDOW_US, DVS128_GEOMETRY, DVS128_LAYOUT,
    KIND_TIMESTAMP, KINDS, POLARITY_CHANNELS, POLARITY_MERGED, SensorGeometry,
)
from .scoring import pool_in_chunk_order

if TYPE_CHECKING:
    from .ingest import AedatReader, TextReader

_LAYOUTS = {
    "dvs128": (DVS128_LAYOUT, DVS128_GEOMETRY),
    "davis240c": (DAVIS240C_LAYOUT, DAVIS240C_GEOMETRY),
}


# ---------------------------------------------------------------------------
# Argument value parsers (bad flag values are usage errors, exit code 2)
# ---------------------------------------------------------------------------


def _geometry_arg(text: str) -> SensorGeometry:
    try:
        w, h = map(int, text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"geometry must look like 320x240, got {text!r}") from None
    try:
        return SensorGeometry(w, h)
    except ValueError as exc:  # the library states the range
        raise argparse.ArgumentTypeError(str(exc)) from None


def _flag_value(convert, accept, rule: str):
    """A flag value's parser; text that does not convert breaks the rule, as a bad value does."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            pass
        else:
            if accept(value):
                return value
        raise argparse.ArgumentTypeError(f"{rule}, got {text}")

    return parse


_positive_int = _flag_value(int, lambda v: v > 0, "must be a positive integer")
_non_negative_int = _flag_value(int, lambda v: v >= 0, "must be >= 0")
_positive_float = _flag_value(float, lambda v: 0 < v < math.inf, "must be finite and > 0")
_ratio = _flag_value(float, lambda v: 0.0 < v <= 1.0, "ratio must be in (0, 1]")


# ---------------------------------------------------------------------------
# Shared stream loading
# ---------------------------------------------------------------------------


@contextmanager
def _open_blocks(args) -> Iterator[AedatReader | TextReader]:
    """The input's reader: its geometry, and its blocks from the start on each iteration."""
    from .ingest import AedatReader, TextReader

    fmt = args.format
    if fmt == "auto":
        fmt = "aedat2" if args.input.endswith(".aedat") else "text"
    layout, native_geometry = _LAYOUTS[args.layout]
    geometry = args.geometry if args.geometry is not None else native_geometry
    if fmt == "text":
        with open(args.input, newline="", encoding="utf-8", errors="surrogateescape") as f:
            yield TextReader(f, geometry)
    else:
        with open(args.input, "rb") as f:
            yield AedatReader(f, layout, geometry)


@contextmanager
def _replace_on_success(path: Path) -> Iterator[BinaryIO]:
    """A new file beside path that replaces it if the block succeeds and is removed if not.

    A failed run thus leaves neither a partial output nor the temporary file. An
    existing output must be a regular file; a symlink's target is replaced.
    """
    target = Path(os.path.realpath(path))
    if target.exists() and not target.is_file():
        raise OSError(f"output {path} is not a regular file")
    partial = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        f = open(partial, "xb")
    except OSError as exc:  # name the output, not the temporary file
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with f:
            yield f
        os.replace(partial, target)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def _add_stream_input(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("input", help="event stream file")
    parser.add_argument(
        "--format",
        choices=("auto", "text", "aedat2"),
        default="auto",
        help="input format; auto picks aedat2 for *.aedat files, text otherwise",
    )
    parser.add_argument(
        "--layout",
        choices=sorted(_LAYOUTS),
        default="dvs128",
        help="AEDAT address bit layout (also sets the default geometry)",
    )
    parser.add_argument(
        "--geometry",
        type=_geometry_arg,
        default=None,
        metavar="WxH",
        help="sensor size, e.g. 128x128 (default: the layout's native size)",
    )


def _pad_heap_top() -> None:
    """Keep 2 MiB spare at the top of this process's heap (glibc's M_TOP_PAD).

    The block-reading commands free one block's arrays before they decode the
    next. Unpadded, whether glibc gave that memory back to the system, only to
    fault it in again for the next block, turned on where the small
    allocations before it fell, down to the length of a path argument. A pad
    of 1 MiB, about one block's working set, still left the faults 12 %
    apart between output names. The program sets this for its own process
    only; the library never touches the allocator.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # no C library to open, or one without mallopt: no pad
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-2, 2 << 20)  # -2 is M_TOP_PAD


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_encode(args) -> int:
    _pad_heap_top()
    from .encoders import encode_blocks
    from .windowing import WindowConfig

    with _open_blocks(args) as reader, _replace_on_success(Path(args.output)) as f:
        config = WindowConfig(args.window_us)
        frames = encode_blocks(reader, config, args.kind, args.polarity)
        shape = (reader.geometry.height, reader.geometry.width, POLARITY_CHANNELS[args.polarity])
        write_frame_tensor_to(f, frames, shape)
        if args.emit_images is not None:
            # Before the tensor replaces the output, so that a failure here leaves it as it was.
            f.flush()
            os.makedirs(args.emit_images, exist_ok=True)
            suffix = "pgm" if shape[2] == 1 else "ppm"
            with open(f.name, "rb") as written:
                for i, frame in enumerate(FrameTensorReader(written).frames()):
                    image = Path(args.emit_images, f"frame_{i:06d}.{suffix}")
                    image.write_bytes(write_pnm(frame.pixels))
    return 0


def cmd_chunk(args) -> int:
    with open(args.frames, "rb") as f:
        # Every flag is read and checked before the first manifest line goes out.
        empty = bytearray(flag for _, _, flag in FrameTensorReader(f).prefixes())
    chunks = select_chunks(empty, args.policy)
    _emit((" ".join(map(str, r)) + "\n" for r in chunks), args.output)
    return 0


def cmd_aggregate(args) -> int:
    """Pool the table in one pass over its rows, and read it again only if a class sum overflows."""
    with open(args.scores, newline="", encoding="utf-8", errors="surrogateescape") as f:
        table = ScoreTableReader(f)
        mean, label = pool_in_chunk_order(table)
    lines = ["mean_scores: " + " ".join(map(repr, mean)), f"label: {label}"]
    if table.class_names is not None:
        lines.append(f"label_name: {table.class_names[label]}")
    _emit((line + "\n" for line in lines), args.output)
    return 0


def cmd_simulate(args) -> int:
    import numpy as np

    from .ingest import text_slices
    from .simulator import SimConfig, check_frame_times, simulate_intervals

    with open(args.input, "rb") as f:
        tensor = FrameTensorReader(f)
        # The prefix pass checks every empty flag before the checks below.
        times = np.fromiter((s for s, _, _ in tensor.prefixes()), np.int64, tensor.frame_count)
        if tensor.shape[2] != 1:
            raise ValueError(
                f"simulate needs 1-channel intensity frames, got {tensor.shape[2]} channels"
            )
        check_frame_times(times, len(times))
        log_frames = (np.log(frame.pixels[:, :, 0] + 1.0) for frame in tensor.frames())
        config = SimConfig(args.threshold, args.refractory_us)
        blocks = simulate_intervals(log_frames, times, config)
        _emit(chain.from_iterable(map(text_slices, blocks)), args.output)
    return 0


def cmd_truncate(args) -> int:
    _pad_heap_top()
    from .ingest import text_slices
    from .stream import truncate_blocks

    with _open_blocks(args) as reader:
        heads = truncate_blocks(reader, args.ratio)  # input errors come before the output opens
        # chain and map, unlike a loop variable, hold no head while the next is read.
        _emit(chain.from_iterable(map(text_slices, heads)), args.output)
    return 0


def cmd_info(args) -> int:
    _pad_heap_top()
    import numpy as np

    from .ingest import AedatReader

    events = positive = negative = 0
    t_first = t_last = None
    with _open_blocks(args) as reader:
        for block in filter(len, reader):
            t_first = block.t_first if t_first is None else t_first
            t_last = block.t_last
            events += len(block)
            positive += int(np.count_nonzero(block.p == 1))
            negative += int(np.count_nonzero(block.p == -1))
            block = None  # not held while the next block is read
    g = reader.geometry
    lines = [f"geometry: {g.width}x{g.height}", f"events: {events}"]
    if events:
        lines.append(f"t_first: {t_first}")
        lines.append(f"t_last: {t_last}")
    lines.append(f"duration_us: {t_last - t_first if events > 1 else 0}")
    lines.append(f"positive: {positive}")
    lines.append(f"negative: {negative}")
    if isinstance(reader, AedatReader):
        lines.append(f"header_lines: {reader.header_lines}")
        lines.append(f"records: {reader.records}")
        lines.append(f"skipped_non_dvs: {reader.skipped_non_dvs}")
        lines.append(f"timestamp_wraps: {reader.timestamp_wraps}")
    _emit((line + "\n" for line in lines), None)
    return 0


def _emit(texts: Iterable[str], output: str | None) -> None:
    """Write texts as UTF-8 to stdout, or through _replace_on_success to the output path."""
    data = (text.encode("utf-8") for text in texts)
    if output is None:
        sys.stdout.flush()  # text written to sys.stdout before goes first
        sys.stdout.buffer.writelines(data)
    else:
        with _replace_on_success(Path(output)) as f:
            f.writelines(data)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evframes",
        description="Event-camera stream preprocessing: windowed frame encoding, "
        "chunking, score aggregation and a contrast-threshold simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("encode", help="segment a stream into windows and encode frames")
    _add_stream_input(p)
    p.add_argument("output", help="frame tensor output path")
    p.add_argument(
        "--window-us",
        type=_positive_int,
        default=DEFAULT_WINDOW_US,
        help=f"window length in microseconds (default {DEFAULT_WINDOW_US})",
    )
    p.add_argument(
        "--kind",
        choices=sorted(KINDS),
        default=KIND_TIMESTAMP,
        help="per-pixel statistic: latest normalized timestamp, or event count",
    )
    p.add_argument(
        "--polarity",
        choices=POLARITY_CHANNELS,
        default=POLARITY_MERGED,
        help="merged keeps polarities in separate channels; ignore pools them",
    )
    p.add_argument(
        "--emit-images",
        metavar="DIR",
        default=None,
        help="also write one PGM/PPM image per frame into DIR (frame_000000.*)",
    )
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("chunk", help="list sliding 3-frame chunks of a frame tensor")
    p.add_argument("frames", help="frame tensor file")
    p.add_argument(
        "--policy",
        choices=POLICIES,
        default=POLICY_KEEP,
        help="what to do with chunks whose frames are all empty",
    )
    p.add_argument("-o", "--output", default=None, help="manifest path (default: stdout)")
    p.set_defaults(func=cmd_chunk)

    p = sub.add_parser("aggregate", help="average per-chunk scores into one prediction")
    p.add_argument("scores", help="score table file")
    p.add_argument("-o", "--output", default=None, help="prediction path (default: stdout)")
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("simulate", help="generate events from intensity frames")
    p.add_argument("input", help="1-channel frame tensor; pixel v maps to intensity 1+v")
    p.add_argument("output", help="event stream output path (text format)")
    p.add_argument(
        "--threshold", type=_positive_float, default=0.2, help="contrast threshold (log units)"
    )
    p.add_argument(
        "--refractory-us", type=_non_negative_int, default=0, help="per-pixel dead time"
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("truncate", help="keep only the leading fraction of a stream's span")
    _add_stream_input(p)
    p.add_argument("output", help="event stream output path (text format)")
    p.add_argument("--ratio", type=_ratio, required=True, help="observed fraction in (0, 1]")
    p.set_defaults(func=cmd_truncate)

    p = sub.add_parser("info", help="print stream summary and parse statistics")
    _add_stream_input(p)
    p.set_defaults(func=cmd_info)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # evframes calls no BLAS routine, but importing numpy starts OpenBLAS's
    # thread pool, which cost the encode command a third of its CPU time.
    # A setting of the user's own still wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        # A MemoryError that Python raises itself has no message.
        print(f"evframes: {exc or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
