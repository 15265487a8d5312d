"""Golden digests: the CLI's output bytes on one seeded recording, in every mode.

The recording is built here in pure Python, so it does not depend on
numpy's random streams: ~200k DVS-128 events over ~3 s, with a tick wrap
0.7 s in, an empty half second and a dense run that folds at 1 s windows.
It is written as AEDAT 2.0 and as text, and each command's output is
compared by sha256 with the constant below. A change that moves bytes on
purpose must say which digest changed and why.

``simulate`` is left to the oracle tests: its ``np.log`` may differ in the
last bit between CPUs.
"""

import hashlib
import random
import struct

import pytest

from evframes.cli import main

WRAP_AT_US = 700_000  # into the recording
T0 = 2**32 - WRAP_AT_US  # the first event's tick


def recording_events(seed=2020):
    """(t, x, y, p) tuples, t in microseconds from the first tick and non-decreasing."""
    rng = random.Random(seed)
    events = []

    def run(start, end, mean_step, x0, y0, side):
        t = start
        while True:
            t += rng.randrange(2 * mean_step + 1)
            if t >= end:
                return
            x, y = x0 + rng.randrange(side), y0 + rng.randrange(side)
            events.append((t, x, y, rng.choice((1, -1))))

    run(0, 1_000_000, 16, 0, 0, 128)  # sparse, across the wrap
    # Nothing from 1.0 s to 1.5 s: five empty 80 ms windows.
    run(1_500_000, 2_000_000, 5, 40, 72, 32)  # dense, in a 32x32 patch
    run(2_000_000, 3_000_000, 25, 0, 0, 128)
    return events


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The recording as AEDAT 2.0 and as text, in a directory of their own."""
    d = tmp_path_factory.mktemp("golden")
    events = recording_events()
    words = []
    for t, x, y, p in events:
        words += [(y << 8) | (x << 1) | (p != 1), (T0 + t) % 2**32]
    (d / "rec.aedat").write_bytes(
        b"#!AER-DAT2.0\r\n# golden recording\r\n" + struct.pack(f">{len(words)}I", *words)
    )
    (d / "rec.txt").write_text(
        "# golden recording\n" + "".join(f"{T0 + t} {x} {y} {p}\n" for t, x, y, p in events)
    )
    rng = random.Random(7)
    (d / "scores.txt").write_text(
        "# k=3 classes=walk,run,wave\n"
        + "".join(f"{i},{rng.random()!r},{rng.random()!r},{rng.random()!r}\n"
                  for i in range(0, 300, 3))
    )
    return d


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


ENCODINGS = {
    ("timestamp", "merged", 80_000):
        "9a11f52e95e8d7120b2e136dc4ad35ad090eba152d8046702c83f8f4dd9d04a3",
    ("timestamp", "ignore", 80_000):
        "4770cadc45ef9316ea290b35bc284ed5f5a21d89d05a1a9ee4617d786c7044d3",
    ("count", "merged", 80_000):
        "94f6a27d5792f8cad7165f899bd647137f932dfb04cefb563e588686aafcb302",
    ("count", "ignore", 80_000):
        "f4172c2ef6164f86a823da601e922b76baa0aa32f317ecd9b5ba91be6459d545",
    ("timestamp", "merged", 1_000_000):
        "96767f74039ce7ff6500cd36dd34bf6ccc3fed65ee727230d1d0598e3c7b91ec",
    ("count", "merged", 1_000_000):
        "78ea9b2c697206edeaaa3a9174bf61daef06ad1ee43f7210883c56530f1e723c",
}


@pytest.mark.parametrize("kind,polarity,window_us", ENCODINGS)
def test_encode(inputs, tmp_path, kind, polarity, window_us):
    assert digest(encode(inputs / "rec.aedat", tmp_path, kind, polarity, window_us)) == (
        ENCODINGS[kind, polarity, window_us]
    )


@pytest.mark.parametrize("kind,polarity,window_us", [
    ("timestamp", "merged", 80_000),
    ("count", "merged", 1_000_000),
])
def test_encode_from_text_gives_the_aedat_digest(inputs, tmp_path, kind, polarity, window_us):
    assert digest(encode(inputs / "rec.txt", tmp_path, kind, polarity, window_us)) == (
        ENCODINGS[kind, polarity, window_us]
    )


def encode(src, tmp_path, kind, polarity, window_us):
    out = tmp_path / "frames.evfr"
    argv = ["encode", src, out, "--window-us", window_us, "--kind", kind, "--polarity", polarity]
    assert main(list(map(str, argv))) == 0
    return out


@pytest.fixture(scope="module")
def frames(inputs):
    """The timestamp/merged tensor at 80 ms."""
    out = inputs / "frames.evfr"
    assert main(["encode", str(inputs / "rec.aedat"), str(out), "--window-us", "80000"]) == 0
    return out


@pytest.mark.parametrize("policy,expected", [
    ("keep", "160fb226aa751f30b51a02b3e74201353fb570da6e42a1b87d850aa4e3096927"),
    ("drop_all_empty_chunks", "c4e4afc5ec52299f774f0116c468424ea2020adaf71e43f74eda4267ff26dfd6"),
])
def test_chunk(frames, tmp_path, policy, expected):
    out = tmp_path / "chunks.txt"
    assert main(["chunk", str(frames), "--policy", policy, "-o", str(out)]) == 0
    assert digest(out) == expected


def test_aggregate(inputs, tmp_path):
    out = tmp_path / "prediction.txt"
    assert main(["aggregate", str(inputs / "scores.txt"), "-o", str(out)]) == 0
    assert digest(out) =="2cac1a663895d880e609c533fd800f0f06082a2578d6af31d12f6019cbd94436"


@pytest.mark.parametrize("form,expected", [
    ("aedat", "3cd726a81a00d76f213da89ccae073bee48e9e29a638503a6f70f67197c9eb25"),
    ("txt", "2644073dbb11e7bb33d98862428cc6c45f71433e7be7636c05fa2e761531f0fa"),
])
def test_info(inputs, capsysbinary, form, expected):
    assert main(["info", str(inputs / f"rec.{form}")]) == 0
    assert hashlib.sha256(capsysbinary.readouterr().out).hexdigest() == expected


def test_truncate(inputs, tmp_path):
    out = tmp_path / "head.txt"
    assert main(["truncate", str(inputs / "rec.aedat"), str(out), "--ratio", "0.37"]) == 0
    assert digest(out) =="1c23005a11486c9d1f6fb4ce7ec09f7fc55c932cb6830941d83b7a67236706c2"
