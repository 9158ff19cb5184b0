"""Importing lanslab loads no part of scipy beyond scipy.fft."""

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


def test_every_module_adds_no_scipy_module_beyond_fft():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.stdout.strip() == "[]"
