import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from lanslab.cli import main
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


# ----------------------------------------------------------------------
# fuzz: one fault in an otherwise valid snapshot; lp-analyze exits 2

_HEADER = {"format": "lans-field", "version": 1, "n": 2, "N": 8, "components": 2,
           "dtype": "<f8", "order": "C"}
_PAYLOAD = np.arange(2 * 8 * 8, dtype="<f8").tobytes()
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6,
)


@st.composite
def _broken_snapshot(draw):
    header, payload = dict(_HEADER), _PAYLOAD
    key = draw(st.sampled_from(sorted(header)))
    fault = draw(st.sampled_from(
        ["drop key", "rename key", "change value", "truncate", "pad", "non-ascii header"]
    ))
    if fault == "drop key":
        del header[key]
    elif fault == "rename key":
        name = draw(st.text(max_size=8))
        assume(name not in header)
        header[name] = header.pop(key)
    elif fault == "change value":
        value = draw(_JSON_VALUES)
        assume(json.dumps(value) != json.dumps(header[key]))
        header[key] = value
    elif fault == "truncate":
        payload = payload[: draw(st.integers(0, len(payload) - 1))]
    elif fault == "pad":
        payload += draw(st.binary(min_size=1, max_size=24))
    line = json.dumps(header, sort_keys=True).encode()
    if fault == "non-ascii header":
        i = draw(st.integers(0, len(line) - 1))
        line = line[:i] + bytes([draw(st.integers(0x80, 0xFF))]) + line[i + 1:]
    return line + b"\n" + payload


def test_valid_snapshot_analyzes(tmp_path):
    path = tmp_path / "f.lans"
    path.write_bytes(json.dumps(_HEADER, sort_keys=True).encode() + b"\n" + _PAYLOAD)
    assert main(["lp-analyze", "--field", str(path), "--out", str(tmp_path / "out")]) == 0


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(snapshot=_broken_snapshot())
def test_fuzz_broken_snapshot_exits_2(snapshot):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.lans"
        path.write_bytes(snapshot)
        assert main(["lp-analyze", "--field", str(path), "--out", str(Path(tmp) / "out")]) == 2
