"""Span recorder that wraps lanslab's layer functions from outside.

A traced function is replaced at every binding site: the attribute of the
module that defines it, every `from .x import y` alias of it in another
lanslab module, and the class attribute for methods.  Each call records one
span [name, start, end, parent, size], where `parent` is the index of the
span open when the call began (-1 at top level) and `size` is the work
count the span carries (transformed points, bytes written), else 0.
Spans stay in memory until `write` is called at the end of the run.
"""

import functools
import json
import os
import sys
import time


def _fft_points(args):
    return args[0].size


def _irfft_points(args):
    a, shape = args[0], args[1]
    batch = a.size
    for extent in a.shape[-len(shape):]:
        batch //= extent
    points = batch
    for extent in shape:
        points *= extent
    return points


def _file_bytes(args):
    return os.path.getsize(args[0])


def _check_name(args):
    return f"checks.{args[0]}"


# (module, attribute, span name, size function); "Class.method" patches
# the class.  The span name is the per-layer metric prefix; a callable
# names the span from the call's arguments.
TARGETS = [
    ("lanslab._fft", "fftn", "_fft.c2c", _fft_points),
    ("lanslab._fft", "ifftn", "_fft.c2c", _fft_points),
    ("lanslab._fft", "rfftn", "_fft.r2c", _fft_points),
    ("lanslab._fft", "irfftn", "_fft.r2c", _irfft_points),
    ("lanslab.solver", "solve_ivp", "solver.solve_ivp", None),
    ("lanslab.solver", "SpectralStepper.step", "solver.step", None),
    ("lanslab.solver", "SpectralStepper.nonlinear", "solver.nonlinear", None),
    ("lanslab.dyadic", "DyadicFamily.besov_norm", "dyadic.besov_norm", None),
    ("lanslab.dyadic", "DyadicFamily.block_samples", "dyadic.block_samples", None),
    ("lanslab.dynamics", "nonlinearity_V", "dynamics.nonlinearity_V", None),
    ("lanslab.fields", "dealias_array", "fields.dealias_array", None),
    ("lanslab.fields", "to_spectral", "fields.to_spectral", None),
    ("lanslab.fields", "to_real", "fields.to_real", None),
    ("lanslab.operators", "stokes_project", "operators.stokes_project", None),
    ("lanslab.operators", "leray_project", "operators.leray_project", None),
    ("lanslab.quadrature", "duhamel_on_nodes", "quadrature.duhamel_on_nodes", None),
    ("lanslab.picard", "picard_solve", "picard.picard_solve", None),
    ("lanslab.paraproduct", "paraproduct_T", "paraproduct.paraproduct_T", None),
    ("lanslab.paraproduct", "remainder_R", "paraproduct.remainder_R", None),
    ("lanslab.checks", "run_check", _check_name, None),
    ("lanslab.cli", "write_csv", "cli.write", _file_bytes),
    ("lanslab.cli", "write_json", "cli.write", _file_bytes),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.binding_sites = {}

    def _wrap(self, label, fn, size):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        named_by_arg = callable(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [label(args) if named_by_arg else label, 0.0, 0.0,
                    stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[1], span[2] = t0, clock()
                stack.pop()
            if size is not None:
                span[4] = size(args)
            return result

        return traced

    def install(self):
        """Wrap every target at every lanslab binding site.  The lanslab
        modules must be imported already."""
        modules = [
            m for key, m in sys.modules.items()
            if key == "lanslab" or key.startswith("lanslab.")
        ]
        for mod_name, attr, name, size in TARGETS:
            owner = sys.modules[mod_name]
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, original, size))
                self.binding_sites[f"{mod_name}.{attr}"] = [f"{mod_name}.{attr}"]
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, size)
            sites = []
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        sites.append(f"{mod.__name__}.{key}")
            self.binding_sites[f"{mod_name}.{attr}"] = sorted(sites)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))
