"""`lanslab._fft` calls scipy's pocketfft extension directly; each wrapper
is cross-checked bitwise against the scipy.fft function it stands for,
with norm="forward", on the layouts lanslab transforms: the c2c wrappers
on the whole lattice, the real ones on the 2/3 rule's cube."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft as sfft

from helpers import cube_of, half_of
from lanslab import _fft

SRC = Path(__file__).resolve().parent.parent / "src"
SHAPES = [(n, N) for n in (2, 3) for N in (8, 16, 32, 64)]


@pytest.fixture(params=[1, 2], ids=["workers1", "workers2"])
def workers(request):
    before = _fft.get_workers()
    _fft.set_workers(request.param)
    yield request.param
    _fft.set_workers(before)


def _layouts(n, N, complex_):
    """A batched field stack, one field alone, a batch reversed along its
    leading axis and a view strided in the last spatial axis: the last
    two are not contiguous."""
    rng = np.random.default_rng(1000 * n + N)

    def draw(shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if complex_ else x

    grid = (N,) * n
    reversed_ = draw((2,) + grid)[::-1]
    strided = draw((2,) + grid[:-1] + (2 * N,))[..., ::2]
    assert not reversed_.flags.c_contiguous and not strided.flags.c_contiguous
    stack, single = draw((2,) + grid), draw(grid)
    return {"stack": stack, "single": single, "reversed": reversed_, "strided": strided}


def _axes(n):
    return tuple(range(-n, 0))


@pytest.mark.parametrize("n, N", SHAPES)
@pytest.mark.parametrize("complex_", [True, False], ids=["complex", "real"])
def test_c2c_bitwise_equal_to_scipy_fft(n, N, complex_, workers):
    for name, a in _layouts(n, N, complex_).items():
        kw = {"axes": _axes(n), "norm": "forward", "workers": workers}
        assert np.array_equal(_fft.fftn(a, n), sfft.fftn(a, **kw)), name
        assert np.array_equal(_fft.ifftn(a, n), sfft.ifftn(a, **kw)), name


@pytest.mark.parametrize("n, N", SHAPES)
def test_c2c_overwrite_reuses_the_input_buffer(n, N, workers):
    kw = {"axes": _axes(n), "norm": "forward", "workers": workers}
    for ours, theirs in ((_fft.fftn, sfft.fftn), (_fft.ifftn, sfft.ifftn)):
        # fresh draws in the same layouts: each transform may consume its input
        expected = {k: theirs(a, overwrite_x=True, **kw) for k, a in _layouts(n, N, True).items()}
        for name, buffer in _layouts(n, N, True).items():
            out = ours(buffer, n, overwrite=True)
            assert np.shares_memory(out, buffer), name
            assert np.array_equal(out, expected[name]), name


@pytest.mark.parametrize("n, N", SHAPES)
def test_real_transforms_bitwise_equal_to_scipy_fft(n, N, workers):
    # rfftn is scipy's on the cube, irfftn scipy's of the zero-padded cube
    shape = (N,) * n
    for name, x in _layouts(n, N, False).items():
        kw = {"axes": _axes(n), "norm": "forward", "workers": workers}
        cube = _fft.rfftn(x, n)
        assert cube.shape == x.shape[:-n] + (2 * (N // 3) + 1,) * (n - 1) + (N // 3 + 1,)
        assert np.array_equal(cube, cube_of(sfft.rfftn(x, **kw), n)), name
        # the cube, and cubes that are non-contiguous views
        strided = np.repeat(cube, 2, axis=-1)[..., ::2]
        for view in (cube, cube[::-1], strided):
            want = sfft.irfftn(half_of(view, shape), s=shape, **kw)
            assert np.array_equal(_fft.irfftn(view, shape), want), name


@pytest.mark.parametrize("n", [2, 3])
def test_cube_transforms_leave_their_input_alone(n):
    # their c2c passes run in place, on buffers of their own
    x = np.random.default_rng(n).standard_normal((2,) + (32,) * n)
    kept = x.copy()
    cube = _fft.rfftn(x, n)
    assert np.array_equal(x, kept)
    kept = cube.copy()
    _fft.irfftn(cube, x.shape[1:])
    assert np.array_equal(cube, kept)


IMPORT_ORDER_PROBE = """
import sys
import numpy as np
{first}
{second}
from scipy.fft._pocketfft import basic
name = "scipy.fft._pocketfft.pypocketfft"
same = sys.modules[name] is _fft._pfft and basic.pfft is _fft._pfft
x = np.random.default_rng(0).standard_normal((3, 16, 16, 16))
equal = np.array_equal(_fft.fftn(x, 3), scipy.fft.fftn(x, axes=(-3, -2, -1), norm="forward"))
print(same, equal)
"""


def _python(code, *path):
    pythonpath = os.pathsep.join(filter(None, [*map(str, path), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )


@pytest.mark.parametrize("lanslab_first", [True, False], ids=["lanslab_first", "scipy_first"])
def test_lanslab_and_scipy_fft_share_one_extension_module(lanslab_first):
    imports = ["from lanslab import _fft", "import scipy.fft"]
    first, second = imports if lanslab_first else imports[::-1]
    done = _python(IMPORT_ORDER_PROBE.format(first=first, second=second), SRC)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "True"]


def test_missing_extension_raises_import_error_naming_the_directory(tmp_path):
    # a scipy package without the compiled extension, found before the real one
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("")
    done = _python("import lanslab", tmp_path, SRC)
    assert done.returncode != 0
    assert "ImportError" in done.stderr
    assert str(tmp_path / "scipy" / "fft" / "_pocketfft") in done.stderr
