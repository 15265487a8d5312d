"""The package's export list, its imports, and the README's examples run against it."""

import ast
import dataclasses
import io
import re
import types
from pathlib import Path

import numpy as np
import pytest

import evframes
import evframes.cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_names_exactly_the_public_names():
    # The package imports a name on first use, so vars() holds only resolved names.
    for name in evframes.__all__:
        getattr(evframes, name)
    public = {
        name
        for name, value in vars(evframes).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    # Equal as sorted lists: no name is missing, left over or listed twice.
    assert sorted(evframes.__all__) == sorted(public | {"__version__"})


def test_lazy_names_resolve_as_imports_do():
    namespace = {}
    exec("from evframes import *", namespace)
    assert set(evframes.__all__) <= set(namespace)
    for module in evframes._EXPORTS:
        assert isinstance(getattr(evframes, module), types.ModuleType)
    for name in set(evframes.__all__) - {"BACKEND", "__version__"}:
        module = evframes._MODULE_OF[name]
        assert getattr(evframes, name) is getattr(getattr(evframes, module), name)
        assert namespace[name] is getattr(evframes, name)
    assert not hasattr(evframes, "no_such_name")
    # Names defined in options and formats are still read where they were defined before.
    for module, name in [
        ("stream", "SensorGeometry"), ("ingest", "AedatLayout"), ("ingest", "FormatError"),
        ("encoders", "KINDS"), ("windowing", "DEFAULT_WINDOW_US"),
    ]:
        assert hasattr(getattr(evframes, module), name)


def test_block_forms_beside_whole_stream_functions():
    assert {
        "truncate_blocks", "encode_blocks", "AedatReader", "TextReader"
    } <= set(evframes.__all__)
    # truncate_blocks holds the per-block cut; encode_stream lives with the encoders.
    assert "truncate_block" not in evframes.__all__
    assert evframes.encode_stream is evframes.encoders.encode_stream


def test_streams_are_read_as_columns_only():
    # The per-event view and the invariant checker live in tests/oracles.py.
    for name in ("Event", "Violation", "validate_stream"):
        assert name not in evframes.__all__
        assert not hasattr(evframes, name) and not hasattr(evframes.stream, name)
    assert not hasattr(evframes.EventStream, "from_events")
    assert not {"__iter__", "__getitem__"} & set(vars(evframes.EventStream))
    assert not hasattr(evframes.Chunk, "all_empty")


def test_one_name_for_a_frame_shape_an_empty_stream_and_the_count_kind():
    # A frame's shape is pixels.shape, a frame tensor's is the shape of its
    # frames as both readers give it, an empty stream is the constructor's,
    # and the library and the CLI spell the count kind alike.
    frame = evframes.EncodedFrame(np.zeros((2, 3, 1), np.uint8), None, None, 0, 1, False)
    data = evframes.write_frame_tensor([frame])
    tensor = evframes.read_frame_tensor(data)
    reader = evframes.FrameTensorReader(io.BytesIO(data))
    assert [field.name for field in dataclasses.fields(evframes.FrameTensor)] == ["shape", "frames"]
    assert tensor.shape == tensor.frames[0].pixels.shape == (2, 3, 1)
    assert reader.shape == next(reader.frames()).pixels.shape == (2, 3, 1)
    for name in ("height", "width", "channels"):
        assert not hasattr(evframes.EncodedFrame, name)
        assert not hasattr(tensor, name)
        assert not hasattr(reader, name)
    assert not hasattr(evframes.EventStream, "empty")
    assert not hasattr(evframes.cli, "_KINDS")
    assert evframes.KIND_EVENT_COUNT == "count"


def test_one_window_assembler_and_one_image_writer():
    # Windows come from segment and frames in bounded memory from encode_blocks;
    # write_pnm writes both PGM and PPM.
    modules = (evframes, evframes.windowing, evframes.formats, evframes.cli)
    for name in ("segment_blocks", "write_pgm", "write_ppm"):
        assert name not in evframes.__all__
        assert not any(hasattr(module, name) for module in modules)
    assert "write_pnm" in evframes.__all__
    assert evframes.write_pnm is evframes.formats.write_pnm


def test_parse_counts_live_on_the_reader():
    # AedatReader's own attributes are the parse statistics; no snapshot type repeats them.
    assert "ParseStats" not in evframes.__all__
    assert not hasattr(evframes.ingest, "ParseStats")
    assert not hasattr(evframes.AedatReader, "stats")


def test_package_imports_itself_only_relatively():
    # Two trees of the package can then be imported side by side under two names.
    # A module imports from a sibling only the names it uses, annotations included,
    # so that no module re-exports another's name and each name has one import path.
    sources = sorted(Path(evframes.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    absolute, unused = [], []
    for source in sources:
        tree = ast.parse(source.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                unused += [
                    f"{source.name}:{alias.asname or alias.name}"
                    for alias in node.names
                    if (alias.asname or alias.name) not in used
                ]
                continue
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "evframes" for name in names):
                absolute.append(f"{source.name}:{node.lineno}")
    assert absolute == []
    assert unused == []


@pytest.mark.parametrize(
    "make, text",
    [
        (
            lambda: evframes.EncodedFrame(
                np.zeros((2, 3, 1), np.uint8), "count", "ignore", 0, 1, False
            ),
            "EncodedFrame(3x2x1, count, ignore, [0, 1))",
        ),
        (
            lambda: evframes.EventWindow(evframes.DVS128_GEOMETRY, [1], [2], [7], [1], 5, 80005),
            "EventWindow([5, 80005), 1 events)",
        ),
        (
            lambda: evframes.EventWindow(evframes.DVS128_GEOMETRY, [], [], [], [], 0, 1),
            "EventWindow([0, 1), 0 events, empty)",
        ),
        (
            lambda: evframes.EventStream(evframes.SensorGeometry(4, 3), [1], [2], [7], [1]),
            "EventStream(1 events, 4x3)",
        ),
        (
            lambda: evframes.ScoreVector([0.5, 1.0], 3),
            "ScoreVector(scores=array([0.5, 1. ]), chunk_index=3)",
        ),
        (
            lambda: evframes.VideoPrediction([0.5, 1.0], 1, "x"),
            "VideoPrediction(mean_scores=array([0.5, 1. ]), label=1, label_name='x')",
        ),
    ],
)
def test_reprs(make, text):
    # Sizes print as width x height (x channels), so a non-square shape pins the order.
    assert repr(make()) == text


def test_readme_python_examples_run(tmp_path, monkeypatch):
    examples = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert examples
    # A DVS-128 recording of 400 events, one per millisecond: five 80 ms windows.
    n = 400
    rng = np.random.default_rng(5)
    addr = (rng.integers(0, 128, n) << 8) | (rng.integers(0, 128, n) << 1) | (np.arange(n) % 2)
    records = np.stack([addr, np.arange(n) * 1000], axis=1).astype(">u4")
    (tmp_path / "rec.aedat").write_bytes(b"#!AER-DAT2.0\r\n" + records.tobytes())
    (tmp_path / "rec.txt").write_text(
        "".join(f"{t} {a >> 1 & 127} {a >> 8 & 127} {a & 1}\n" for a, t in records.tolist())
    )
    monkeypatch.chdir(tmp_path)
    namespace = {"classifier": lambda chunk: [0.25, 0.75]}
    for i, code in enumerate(examples):
        exec(compile(code, f"README.md python example {i + 1}", "exec"), namespace)
