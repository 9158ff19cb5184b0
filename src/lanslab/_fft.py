"""Thin wrappers around scipy.fft with a process-wide worker count.

All transforms act on the trailing spatial axes so leading axes batch
components and dyadic blocks in a single call.  The worker count is a
performance knob only; results are bitwise independent of it.  `norm`
is scipy's: "forward" puts the whole 1/N^n on the forward transform.
"""

import os

import scipy.fft as _sfft

from .errors import ConfigError

_workers = 1


def set_workers(k):
    """Set the FFT worker count (1 = serial)."""
    global _workers
    _workers = max(1, int(k))


def get_workers():
    return _workers


def workers_from_env():
    """The LANS_LAB_THREADS worker count, 1 (serial) when it is unset or
    empty; any other value that is not a positive integer raises
    ConfigError naming the variable."""
    raw = os.environ.get("LANS_LAB_THREADS", "")
    if not raw:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"LANS_LAB_THREADS={raw!r} is not a positive integer")
    return workers


def fftn(a, nax):
    return _sfft.fftn(a, axes=tuple(range(-nax, 0)), workers=_workers)


def ifftn(a, nax):
    return _sfft.ifftn(a, axes=tuple(range(-nax, 0)), workers=_workers)


def rfftn(a, nax, *, norm=None):
    return _sfft.rfftn(a, axes=tuple(range(-nax, 0)), norm=norm, workers=_workers)


def irfftn(a, shape, *, norm=None):
    return _sfft.irfftn(
        a, s=shape, axes=tuple(range(-len(shape), 0)), norm=norm, workers=_workers
    )
