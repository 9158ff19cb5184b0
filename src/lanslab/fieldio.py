"""Field snapshot files: one JSON header line, then raw samples.

Layout: the first line is a JSON object terminated by a newline with keys
{format, version, n, N, components, dtype, order} (dtype "<f8" =
little-endian float64, order "C" = row-major, component index slowest);
the payload is exactly components * N^n float64 values.  Files round-trip
exactly; the reader rejects any other header value or payload length.
"""

import json

import numpy as np

from .fields import VectorField
from .grid import Grid

_FORMAT = "lans-field"
_VERSION = 1
# header keys with the only values this format has
_FIXED = {"format": _FORMAT, "version": _VERSION, "dtype": "<f8", "order": "C"}


def write_field(path, f, field_id=None):
    header = {**_FIXED, "n": f.grid.n, "N": f.grid.N, "components": f.ncomp}
    if field_id is not None:
        header["field_id"] = str(field_id)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        fh.write(np.ascontiguousarray(f.data, dtype="<f8").tobytes())


def read_field(path):
    """Read a snapshot written by `write_field`.  A header that differs from
    the format in any key, or a payload of any other length, raises
    ValueError naming the file and the key."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        payload = fh.read()
    try:
        header = json.loads(header_line.decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: not a field snapshot ({exc})") from exc
    if not isinstance(header, dict):
        raise ValueError(f"{path}: not a field snapshot (header is not an object)")
    for key, expected in _FIXED.items():
        value = header.get(key)
        if type(value) is not type(expected) or value != expected:
            raise ValueError(f"{path}: header key {key!r} must be {expected!r}, got {value!r}")
    for key in ("n", "N", "components"):
        value = header.get(key)
        if type(value) is not int or value < 1:
            raise ValueError(f"{path}: header key {key!r} must be a positive integer, got {value!r}")
    try:
        grid = Grid(header["n"], header["N"])
    except ValueError as exc:
        raise ValueError(f"{path}: header keys 'n', 'N': {exc}") from exc
    ncomp = header["components"]
    nbytes = 8 * ncomp * grid.npoints
    if len(payload) != nbytes:
        raise ValueError(
            f"{path}: payload is {len(payload)} bytes, but header keys 'components', "
            f"'n', 'N' give {ncomp}*{grid.N}^{grid.n}*8 = {nbytes}"
        )
    data = np.frombuffer(payload, dtype="<f8").reshape((ncomp,) + grid.shape)
    return VectorField(grid, data.astype(np.float64))
