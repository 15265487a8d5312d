"""Command-line pipeline: parse -> window -> encode -> chunk -> aggregate.

Exit codes: 0 on success, 1 for data errors (bad file contents, reported
with position context on stderr), 2 for usage errors (argparse's own
convention, also used for out-of-domain flag values).
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

import numpy as np

from .chunking import POLICIES, POLICY_KEEP, select_chunks
from .encoders import _CHANNELS, KINDS, POLARITY_IGNORE, POLARITY_MERGED, encode_blocks
from .formats import FrameTensorReader, parse_scores, write_frame_tensor_to, write_pnm
from .ingest import DAVIS240C_LAYOUT, DVS128_LAYOUT, AedatReader, TextReader, text_slices
from .scoring import temporal_average_pool
from .simulator import SimConfig, check_frame_times, simulate_intervals
from .stream import DAVIS240C_GEOMETRY, DVS128_GEOMETRY, SensorGeometry, truncate_blocks
from .windowing import DEFAULT_WINDOW_US, WindowConfig

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
_positive_float = _flag_value(float, lambda v: v > 0, "must be > 0")
_ratio = _flag_value(float, lambda v: 0.0 < v <= 1.0, "ratio must be in (0, 1]")


# ---------------------------------------------------------------------------
# Shared stream loading
# ---------------------------------------------------------------------------


@contextmanager
def _open_blocks(args) -> Iterator[AedatReader | TextReader]:
    """The input's reader: its geometry, and its blocks from the start on each iteration."""
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


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_encode(args) -> int:
    with _open_blocks(args) as reader, _replace_on_success(Path(args.output)) as f:
        config = WindowConfig(args.window_us)
        frames = encode_blocks(reader, config, args.kind, args.polarity)
        shape = (reader.geometry.height, reader.geometry.width, _CHANNELS[args.polarity])
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
        empty = [flag for _, _, flag in FrameTensorReader(f).prefixes()]
    chunks = select_chunks(empty, args.policy)
    _emit((" ".join(map(str, r)) + "\n" for r in chunks), args.output)
    return 0


def cmd_aggregate(args) -> int:
    with open(args.scores, newline="", encoding="utf-8", errors="surrogateescape") as f:
        vectors, class_names = parse_scores(f.read())
    prediction = temporal_average_pool(vectors, class_names=class_names)
    lines = [
        "mean_scores: " + " ".join(repr(float(s)) for s in prediction.mean_scores),
        f"label: {prediction.label}",
    ]
    if prediction.label_name is not None:
        lines.append(f"label_name: {prediction.label_name}")
    _emit((line + "\n" for line in lines), args.output)
    return 0


def cmd_simulate(args) -> int:
    with open(args.input, "rb") as f:
        tensor = FrameTensorReader(f)
        # The prefix pass checks every empty flag before the checks below.
        times = np.array([start for start, _, _ in tensor.prefixes()], dtype=np.int64)
        if tensor.channels != 1:
            raise ValueError(
                f"simulate needs 1-channel intensity frames, got {tensor.channels} channels"
            )
        check_frame_times(times, len(times))
        log_frames = (np.log(frame.pixels[:, :, 0] + 1.0) for frame in tensor.frames())
        config = SimConfig(args.threshold, args.refractory_us)
        blocks = simulate_intervals(log_frames, times, config)
        _emit((text for block in blocks for text in text_slices(block)), args.output)
    return 0


def cmd_truncate(args) -> int:
    with _open_blocks(args) as reader:
        heads = truncate_blocks(reader, args.ratio)  # input errors come before the output opens
        _emit((text for head in heads for text in text_slices(head)), args.output)
    return 0


def cmd_info(args) -> int:
    events = positive = negative = 0
    t_first = t_last = None
    with _open_blocks(args) as reader:
        for block in filter(len, reader):
            t_first = block.t_first if t_first is None else t_first
            t_last = block.t_last
            events += len(block)
            positive += int(np.count_nonzero(block.p == 1))
            negative += int(np.count_nonzero(block.p == -1))
    g = reader.geometry
    lines = [f"geometry: {g.width}x{g.height}", f"events: {events}"]
    if events:
        lines.append(f"t_first: {t_first}")
        lines.append(f"t_last: {t_last}")
    lines.append(f"duration_us: {t_last - t_first if events > 1 else 0}")
    lines.append(f"positive: {positive}")
    lines.append(f"negative: {negative}")
    if isinstance(reader, AedatReader):
        stats = reader.stats
        lines.append(f"header_lines: {stats.header_lines}")
        lines.append(f"records: {stats.records}")
        lines.append(f"skipped_non_dvs: {stats.skipped_non_dvs}")
        lines.append(f"timestamp_wraps: {stats.timestamp_wraps}")
    _emit((line + "\n" for line in lines), None)
    return 0


def _emit(texts: Iterable[str], output: str | None) -> None:
    """Write texts to stdout, or as UTF-8 through _replace_on_success to the output path."""
    if output is None:
        sys.stdout.writelines(texts)
    else:
        with _replace_on_success(Path(output)) as f:
            f.writelines(text.encode("utf-8") for text in texts)


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
        default="timestamp",
        help="per-pixel statistic: latest normalized timestamp, or event count",
    )
    p.add_argument(
        "--polarity",
        choices=(POLARITY_MERGED, POLARITY_IGNORE),
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
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"evframes: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
