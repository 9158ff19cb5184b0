"""Importing lanslab loads one module of scipy, its compiled pocketfft
extension, and none of scipy.fft's Python layer; `_fft` is the one module
that transforms: the owner of the coefficient convention and the binding
site every transform goes through.  Inside `_fft` the extension is called
only from the four transform functions, the spans the bench tracer sees."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import pkgutil, sys
import scipy.fft
baseline = set(sys.modules)
import lanslab
for mod in pkgutil.iter_modules(lanslab.__path__):
    if mod.name != "__main__":  # running it would start the CLI
        __import__("lanslab." + mod.name)
print(sorted(m for m in set(sys.modules) - baseline if m.split(".")[0] == "scipy"))
"""


def _probe(source):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", source],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return done.stdout.strip()


def test_every_module_adds_no_scipy_module_beyond_fft():
    assert _probe(PROBE) == "[]"


def test_fresh_import_loads_only_the_pocketfft_extension_of_scipy():
    source = PROBE.replace("import scipy.fft\n", "")
    assert "scipy.fft" not in source
    assert _probe(source) == "['scipy.fft._pocketfft.pypocketfft']"


# numpy/scipy names a module other than `_fft` may use from an fft namespace
ALLOWED_FFT_NAMES = {"fftfreq"}


def _dotted(node):
    """"np.fft.fftn" for the attribute chain np.fft.fftn, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id] + parts[::-1])


def fft_owner_violations(source, filename):
    """Where the module `source` transforms outside `_fft`: an import from
    scipy or numpy.fft, a numpy/scipy fft name other than the allowed ones,
    or a call into `_fft` that passes `norm=`."""
    found = []
    fft_aliases = set()  # names bound to `_fft` or to one of its functions
    tree = ast.parse(source, filename)
    for node in ast.walk(tree):
        where = f"{filename}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "scipy" or alias.name.startswith("numpy.fft"):
                    found.append(f"{where}: import {alias.name}")
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = {alias.name for alias in node.names}
            if module.split(".")[0] == "scipy" or module.startswith("numpy.fft") or (
                module == "numpy" and "fft" in names
            ):
                found.append(f"{where}: from {module} import {', '.join(sorted(names))}")
            if node.level and module in ("", "_fft"):  # from . import _fft / from ._fft import
                fft_aliases.update(
                    a.asname or a.name for a in node.names if module or a.name == "_fft"
                )
        elif isinstance(node, ast.Attribute):
            name = _dotted(node)
            parts = name.split(".") if name else []
            if "fft" in parts[:-1] and parts[-1] not in ALLOWED_FFT_NAMES:
                found.append(f"{where}: {name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = _dotted(node.func) or ""
            if name.split(".")[0] in fft_aliases and any(k.arg == "norm" for k in node.keywords):
                found.append(f"{filename}:{node.lineno}: {name}(norm=...)")
    return found


def test_only_fft_module_transforms():
    modules = sorted((SRC / "lanslab").glob("*.py"))
    assert any(m.name == "fields.py" for m in modules)
    found = []
    for path in modules:
        if path.name != "_fft.py":
            found += fft_owner_violations(path.read_text(), path.name)
    assert found == []


def test_fft_owner_check_flags_each_kind_of_violation():
    source = """
import numpy as np
import scipy.fft as sfft
from scipy import fft
from numpy.fft import rfftn
from . import _fft, fields
from ._fft import ifftn as inverse

k = np.fft.fftfreq(8)
a = np.fft.fftn(k) + np.fft.fft(k)
b = _fft.rfftn(a, 3, norm="forward")
c = inverse(a, 3, norm="ortho")
d = _fft.fftn(a, 3)
e = fields.lp_norm(d, norm=2)
"""
    found = fft_owner_violations(source, "probe.py")
    assert sorted(line.split(": ", 1)[1] for line in found) == sorted([
        "import scipy.fft",
        "from scipy import fft",
        "from numpy.fft import rfftn",
        "np.fft.fftn",
        "np.fft.fft",
        "_fft.rfftn(norm=...)",
        "inverse(norm=...)",
    ])


TRANSFORMS = {"fftn", "ifftn", "rfftn", "irfftn"}


def untraced_pocketfft_uses(source, filename):
    """Where `source` uses the pocketfft extension `_pfft` (a call, an
    alias or an attribute of `_fft`) outside the functions `TRANSFORMS`:
    a transform there would escape the bench tracer's `_fft` spans."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            uses = (isinstance(child, ast.Name) and child.id == "_pfft"
                    and isinstance(child.ctx, ast.Load)) or (
                isinstance(child, ast.Attribute) and child.attr == "_pfft")
            if uses and function not in TRANSFORMS:
                found.append(f"{filename}:{child.lineno}: _pfft in {function or 'module scope'}")
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else function)

    visit(ast.parse(source, filename), None)
    return found


def test_pocketfft_is_called_only_by_the_four_transforms():
    found = []
    for path in sorted((SRC / "lanslab").glob("*.py")):
        found += untraced_pocketfft_uses(path.read_text(), path.name)
    assert found == []
    assert "_pfft.c2c(view" in (SRC / "lanslab" / "_fft.py").read_text()


def test_untraced_pocketfft_check_flags_each_kind_of_use():
    source = """
from . import _fft
_pfft = _load()
c2c = _pfft.c2c

def _pass(view, axis):
    return _pfft.c2c(view, (axis,), True, 2, view, 1)

def rfftn(a, nax):
    def inner(b):
        return _pfft.r2c(b, (b.ndim - 1,), True, 2, None, 1)
    return _pass(_pfft.r2c(a, (a.ndim - 1,), True, 2, None, 1), 0)

def fftn(a, nax):
    return _pfft.c2c(a, (0,), True, 2, None, 1)

x = _fft._pfft.c2r
"""
    found = untraced_pocketfft_uses(source, "probe.py")
    assert [line.split(": ", 1)[1] for line in found] == [
        "_pfft in module scope",
        "_pfft in _pass",
        "_pfft in inner",
        "_pfft in module scope",
    ]
