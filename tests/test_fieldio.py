import json
import re

import numpy as np
import pytest

from lanslab.fieldio import read_field, write_field
from lanslab.fields import random_band_mixture, taylor_green
from lanslab.grid import Grid


def test_round_trip_exact(tmp_path):
    grid = Grid(3, 16)
    f = taylor_green(grid, 0.3)
    path = tmp_path / "f.lans"
    write_field(path, f, field_id="tg")
    g = read_field(path)
    assert g.grid == grid
    assert np.array_equal(g.data, f.data)


def test_header_is_self_describing(tmp_path):
    grid = Grid(2, 32)
    f = random_band_mixture(grid, seed=1, ncomp=2)
    path = tmp_path / "f.lans"
    write_field(path, f)
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    assert header["format"] == "lans-field"
    assert header["n"] == 2 and header["N"] == 32 and header["components"] == 2
    assert header["dtype"] == "<f8" and header["order"] == "C"
    payload = path.stat().st_size - (len(json.dumps(header, sort_keys=True)) + 1)
    assert payload == 2 * 32 * 32 * 8


def test_rejects_non_snapshot(tmp_path):
    path = tmp_path / "junk.lans"
    path.write_bytes(b"\x00\x01\x02 not a header\n1234")
    with pytest.raises(ValueError):
        read_field(path)


def test_rejects_wrong_format(tmp_path):
    path = tmp_path / "other.lans"
    path.write_bytes(b'{"format": "something-else"}\n')
    with pytest.raises(ValueError):
        read_field(path)


def _snapshot(tmp_path, trailing=b"", **header_changes):
    grid = Grid(2, 8)
    path = tmp_path / "f.lans"
    write_field(path, random_band_mixture(grid, seed=2, ncomp=2))
    header_line, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(header_line)
    header.update(header_changes)
    path.write_bytes(json.dumps(header).encode("ascii") + b"\n" + payload + trailing)
    return path


@pytest.mark.parametrize(
    "key, value",
    [
        ("dtype", ">f4"),
        ("dtype", ">f8"),
        ("order", "F"),
        ("version", 7),
        ("version", True),
        ("components", 1),
        ("components", 2.0),
        ("N", 16),
        ("n", "2"),
    ],
)
def test_rejects_header_the_payload_does_not_match(tmp_path, key, value):
    path = _snapshot(tmp_path, **{key: value})
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}.*'{key}'"):
        read_field(path)


def test_rejects_trailing_bytes(tmp_path):
    path = _snapshot(tmp_path, trailing=b"\x00" * 8)
    with pytest.raises(ValueError, match="payload"):
        read_field(path)


def test_rejects_truncated_payload(tmp_path):
    path = _snapshot(tmp_path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="payload"):
        read_field(path)


def test_lp_analyze_exits_2_on_loose_header(tmp_path):
    from lanslab.cli import main

    path = _snapshot(tmp_path, dtype=">f4")
    assert main(["lp-analyze", "--field", str(path), "--out", str(tmp_path / "o")]) == 2
