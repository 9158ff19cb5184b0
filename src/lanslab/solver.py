"""Solver configuration, trajectories and the production time stepper.

The stepper integrates the projected filtered dynamics

    d/dt u_hat = nu Lap u_hat - P[ div(u (x) u) + div tau(u) ]_hat

with an integrating-factor RK4 scheme: the stiff viscous factor is applied
exactly through e^{-nu |k|^2 dt} multipliers and only the dealiased
nonlinearity is advanced by the Runge-Kutta stages, giving fourth-order
accuracy on the nonlinear term.  States stay divergence-free to round-off
because every stage is Leray-projected in spectral space.  The state is
the spectrum `_fft.rfftn` returns on the 2/3 rule's cube, in the
coefficient convention of `_fft`; `to_state` drops the modes beyond it.

`RANGES` is the range table, by name, of the numbers in configs, verify
suites and `lp-analyze --indices`; all three call `check_range`.
"""

import math
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from types import UnionType
from typing import get_args, get_origin

import numpy as np

from . import _fft
from .dynamics import _slabs, _stress_filter, _stress_product
from .errors import BlowUpError, ConfigError
from .fields import VectorField, taylor_green, zero_field
from .grid import Grid
from .operators import leray_project


def _smoothness(v, grid):
    # The Besov weights 2^{s j}, j <= j_max, with one level to spare, stay
    # finite, as the bernstein gate keeps 2^{j order} finite.
    if grid is None:  # k2_tail's r: its sum of 2^{k(2 - r)} stops at k_max
        return True, ""
    j_max = grid.max_dyadic_index
    requirement = f"a smoothness index with |s| (j_max + 1) < 1024, j_max = {j_max}"
    return abs(v) * (j_max + 1) < 1024, requirement


def _dyadic_index(v, grid):
    j_max = grid.max_dyadic_index
    return 0 <= v <= j_max, f"a resolved dyadic index, 0 <= j <= {j_max}"


def _at_least(bound):
    return lambda v, grid: (v >= bound, f"at least {bound}")


# The range of each input number, by its own name: a check
# parameter, an `lp-analyze --indices` index or the last part of a dotted
# config key (`besov.q` is `q`).  (value, grid) -> (in range, requirement);
# grid is None for a check without one.  NaN is in no range.
RANGES = {
    **dict.fromkeys(("j_max", "j_lo", "j_hi"), _dyadic_index),
    # counts, and the Lebesgue and summability exponents
    **dict.fromkeys(
        ("trials", "pairs", "sample_stride", "csv_stride", "max_iter", "panels", "grading", "p",
         "q", "q1", "q2", "p0", "p1", "p2", "p_tilde", "p_bar", "r1", "r2", "emb_p1", "emb_p2"),
        _at_least(1),
    ),
    **dict.fromkeys(("order", "seed", "a", "snapshot_stride", "j"), _at_least(0)),
    **dict.fromkeys(("s", "s0", "s1", "beta1", "beta2", "gamma2", "r"), _smoothness),
    **dict.fromkeys(("T", "nu", "dt", "blowup_threshold", "tol", "ball_radius"),
                    lambda v, grid: (v > 0, "positive")),
    "nodes_per_panel": _at_least(2),
    "k_max": _at_least(3),
    "alpha": lambda v, grid: (v >= 0 and math.isfinite(float(v) * v),  # an int squares exactly
                              "at least 0, with a finite square"),
    "t_grid": lambda v, grid: (
        all(0 <= t < math.inf for t in v) and any(t > 0 for t in v),
        "a non-empty list of finite times >= 0, one of them positive",
    ),
}


def check_range(where, name, value, grid):
    """Raise ConfigError, `where` naming the key, unless `value` is in the range
    RANGES gives `name`; a name without a rule and a None value (a default) pass."""
    if name in RANGES and value is not None:
        in_range, requirement = RANGES[name](value, grid)
        if not in_range:
            raise ConfigError(f"{where} must be {requirement}, got {value!r}")


@dataclass(frozen=True)
class BesovIndices:
    """Norm indices carried by a run: base space (r, p, q), auxiliary
    smoothing space (s, p_tilde) with weight a = (s - r + n/p - n/p~)/2."""

    r: float = 2.5
    s: float = 3.0
    p: float = 2.0
    p_tilde: float = 2.0
    q: float = 2.0


@dataclass(frozen=True)
class PicardParams:
    tol: float = 1e-8
    max_iter: int = 25
    panels: int = 8
    nodes_per_panel: int = 4
    grading: float = 2.0
    ball_radius: float | None = None


INITIAL_KINDS = ("taylor_green", "zero", "random_band", "random_divfree")


@dataclass(frozen=True)
class InitialSpec:
    kind: str = "taylor_green"  # one of INITIAL_KINDS
    amplitude: float = 0.1
    j: int = 1

    def __post_init__(self):
        if self.kind not in INITIAL_KINDS:
            raise ConfigError(
                f"config key 'initial.kind' must be one of {', '.join(INITIAL_KINDS)}, "
                f"got {self.kind!r}"
            )

    def build(self, grid, seed=0):
        if self.kind == "taylor_green":
            return taylor_green(grid, self.amplitude)
        if self.kind == "zero":
            return zero_field(grid)
        if self.kind == "random_band":
            from .fields import random_band_limited

            u = random_band_limited(grid, self.j, seed, ncomp=grid.n)
            return leray_project(self.amplitude * u)
        from .fields import random_divergence_free

        return self.amplitude * random_divergence_free(grid, seed)


def _leaves(section, prefix):
    """(dotted key, value) of each leaf of the config dataclass `section`."""
    for name in section.__dataclass_fields__:
        value = getattr(section, name)
        if is_dataclass(value):
            yield from _leaves(value, f"{prefix}{name}.")
        else:
            yield prefix + name, value


@dataclass(frozen=True)
class SolverConfig:
    n: int = 3
    N: int = 32
    alpha: float = 1.0
    nu: float = 1.0
    T: float = 1.0
    dt: float = 1e-3
    seed: int = 0
    initial: InitialSpec = field(default_factory=InitialSpec)
    besov: BesovIndices = field(default_factory=BesovIndices)
    picard: PicardParams = field(default_factory=PicardParams)
    snapshot_stride: int = 0
    csv_stride: int = 1
    blowup_threshold: float = 1e6

    def __post_init__(self):
        try:
            grid = Grid(self.n, self.N)
        except ValueError as exc:
            raise ConfigError(f"config keys 'n', 'N': {exc}") from exc
        for key, value in _leaves(self, ""):
            check_range(f"config key {key!r}", key.rpartition(".")[2], value, grid)
        # at most 10^7 steps, whose five per-step series alone take 400 MB; no
        # quotient, which overflows for a subnormal dt
        if not self.T <= 10**7 * self.dt:
            raise ConfigError(f"config keys 'T', 'dt': T/dt must be at most 10^7 steps, "
                              f"got T={self.T!r}, dt={self.dt!r}")
        if self.initial.kind == "random_band" and self.initial.j > grid.max_dyadic_index:
            raise ConfigError(
                f"initial.j={self.initial.j} is not a resolved annulus on N={self.N}: "
                f"random_band needs 0 <= initial.j <= {grid.max_dyadic_index} (2^(j+1) <= N/2)"
            )

    @property
    def grid(self):
        return Grid(self.n, self.N)

    @property
    def steps(self):
        """The number of IF-RK4 steps: T/dt rounded, at least 1."""
        return max(1, round(self.T / self.dt))

    def initial_field(self):
        return self.initial.build(self.grid, seed=self.seed)

    def to_dict(self):
        return asdict(self)

    def with_updates(self, **kw):
        return replace(self, **kw)


_JSON_TYPES = {float: "number", int: "integer", bool: "boolean", str: "string", type(None): "null"}


def _json_type(kind):
    if get_origin(kind) is list:
        return f"array of {_json_type(get_args(kind)[0])}"
    if isinstance(kind, UnionType):
        return " or ".join(_json_type(k) for k in get_args(kind))
    return _JSON_TYPES[kind]


def _matches(value, kind):
    if get_origin(kind) is list:
        return isinstance(value, list) and all(_matches(v, get_args(kind)[0]) for v in value)
    if isinstance(kind, UnionType):
        return any(_matches(value, k) for k in get_args(kind))
    if kind is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return isinstance(value, kind) and isinstance(value, bool) == (kind is bool)


def expect_type(where, value, kind):
    """Raise ConfigError unless `value` is of type `kind`.

    A float accepts an int or a float, an int only an int, a bool only
    true/false and a str only a string; `X | None` also accepts null and
    `list[X]` a list of X.  `where` names the key in the message.
    """
    if not _matches(value, kind):
        raise ConfigError(f"{where} must be of type {_json_type(kind)}, got {value!r}")


def _from_json(cls, raw, prefix=""):
    """Dataclass `cls` from a JSON object whose keys are its fields; values
    are type-checked against the annotations and passed on unconverted."""
    types = {name: f.type for name, f in cls.__dataclass_fields__.items()}
    kwargs = {}
    for key, value in raw.items():
        name = prefix + key
        if key not in types:
            raise ConfigError(f"unknown config key {name!r}")
        if is_dataclass(types[key]):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {name!r} must be an object, got {value!r}")
            value = _from_json(types[key], value, name + ".")
        else:
            expect_type(f"config key {name!r}", value, types[key])
        kwargs[key] = value
    return cls(**kwargs)


def config_from_dict(raw):
    """Build a SolverConfig from parsed JSON, rejecting unknown keys and
    values whose type does not match the field's annotation."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return _from_json(SolverConfig, raw)


@dataclass
class Trajectory:
    """Time-ordered field samples plus scalar series.

    `series` holds per-step diagnostics from the stepper (times, energy,
    L^2 and gradient norms, divergence residuals).
    """

    times: np.ndarray
    fields: list
    series: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if len(self.fields) != len(self.times):
            raise ValueError("times and fields length mismatch")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("sample times must be strictly increasing")

    @property
    def grid(self):
        return self.fields[0].grid

    def final(self):
        return self.fields[-1]


class SpectralStepper:
    """Integrating-factor RK4 stepper on the 2/3 rule's cube of modes, the
    spectra `_fft.rfftn` returns."""

    def __init__(self, grid, alpha, nu, dt):
        self.grid = grid
        self.alpha = float(alpha)
        self.nu = float(nu)
        self.dt = float(dt)
        n, kc = grid.n, grid.N // 3
        k = np.r_[0 : kc + 1, -kc:0].astype(float)  # a full axis of the cube
        mesh = np.meshgrid(*([k] * (n - 1) + [k[: kc + 1]]), indexing="ij")
        kv = np.stack(mesh)
        k2 = np.sum(kv**2, axis=0)
        # The multiplier tables are complex so that they scale complex
        # arrays without a per-call cast (the products are unchanged).
        self.kv = kv.astype(complex)
        self.ik = 1j * kv
        self.kv_k2 = (kv / np.where(k2 > 0, k2, 1.0)).astype(complex)  # k/|k|^2, 0 at k = 0
        # the divergence of tau_hat from the transformed stress product
        self.ik_tau = self.ik * _stress_filter(self.alpha**2, k2)
        # Parseval weights (2 where kz > 0 stands for +-k), times 1, |k|^2
        # and the Helmholtz symbol for the L^2, gradient and energy diagnostics.
        w = np.where(mesh[-1] > 0, 2.0, 1.0)
        self.weights = np.stack([w, w * k2, w * (1.0 + self.alpha**2 * k2)])
        self.e_full = np.exp(-self.nu * k2 * self.dt).astype(complex)
        self.e_half = np.exp(-self.nu * k2 * self.dt / 2.0).astype(complex)
        self.shape = grid.shape

    # -- transforms between VectorField and the internal state ----------

    def to_state(self, u):
        """u's spectrum on the cube: the modes beyond it are dropped on entry."""
        return _fft.rfftn(u.data, self.grid.n)

    def to_field(self, state):
        return VectorField(self.grid, _fft.irfftn(state, self.shape))

    # -- diagnostics -----------------------------------------------------

    def diagnostics(self, state):
        """(energy, l2, grad_l2, div_residual) of a state from one pass
        over |u_hat|^2; div_residual is ||div u||_2 / ||u||_2 (0 for u = 0)."""
        power = np.einsum("i...,i...->...", state.real, state.real)
        power += np.einsum("i...,i...->...", state.imag, state.imag)
        l2_sq, grad_sq, energy = (float(np.vdot(w, power)) for w in self.weights)
        div = np.einsum("i...,i...->...", self.kv, state)
        div_sq = float(np.vdot(self.weights[0], div.real**2 + div.imag**2))
        l2 = math.sqrt(l2_sq)
        return energy, l2, math.sqrt(grad_sq), math.sqrt(div_sq) / l2 if l2 else 0.0

    # -- dynamics ----------------------------------------------------------

    def project(self, state):
        """Leray projection u_hat - k (k.u_hat)/|k|^2."""
        return state - self.kv_k2 * np.einsum("i...,i...->...", self.kv, state)

    def nonlinear(self, state):
        """-P[div(u (x) u) + div tau(u)] in spectral variables.

        The advective term is evaluated in convective form (u.grad)u, which
        coincides with div(u (x) u) to round-off here: the state lives on
        the 2/3 rule's cube, so products are alias-free on it, and the
        state is exactly divergence-free.  One batch of n + n^2 inverse
        transforms gives u and J = grad u, one batch of forward transforms
        the convective term and the stress product (J + J^T)(J - J^T).
        """
        n, shape = self.grid.n, self.shape
        spec = state.shape[1:]
        grad = np.empty((n + n * n,) + spec, dtype=complex)
        grad[:n] = state
        np.multiply(self.ik[None], state[:, None], out=grad[n:].reshape((n, n) + spec))
        phys = _fft.irfftn(grad, shape)
        del grad
        u, jac = phys[:n], phys[n:].reshape((n, n) + shape)
        flux = np.empty((n + n * n if self.alpha > 0 else n,) + shape)
        conv, prod = flux[:n], flux[n:].reshape((-1, n) + shape)
        for part in _slabs(shape):
            J = jac[:, :, part]
            np.einsum("j...,ij...->i...", u[:, part], J, out=conv[:, part])
            if self.alpha > 0:
                _stress_product(J, prod[:, :, part])
        # the views go with their bases: J of phys, conv and prod of flux
        del phys, u, jac, J
        fwd = _fft.rfftn(flux, n)
        del flux, conv, prod
        vhat = fwd[:n]
        if self.alpha > 0:
            tau = fwd[n:].reshape((n, n) + spec)
            for j in range(n):
                vhat += self.ik_tau[j] * tau[:, j]
        return -self.project(vhat)

    def step(self, state):
        dt, e1, e2 = self.dt, self.e_half, self.e_full
        k1 = self.nonlinear(state)
        stage = 0.5 * dt * k1
        stage += state
        stage *= e1
        k2 = self.nonlinear(stage)
        stage = e1 * state
        stage += 0.5 * dt * k2
        k3 = self.nonlinear(stage)
        e2_state = e2 * state
        stage = dt * e1 * k3
        stage += e2_state
        k4 = self.nonlinear(stage)
        # e2 u + dt/6 (e2 k1 + 2 e1 (k2 + k3) + k4), accumulated in place
        k2 += k3
        k2 *= 2.0 * e1
        k2 += e2 * k1
        k2 += k4
        k2 *= dt / 6.0
        k2 += e2_state
        return k2


def solve_ivp(u0, cfg, sample_stride=None, besov_stride=0):
    """Integrate the filtered dynamics from u0 over [0, cfg.T].

    u0 is Leray-projected once, on the stepper's cube.
    Returns a Trajectory whose `series` dict carries per-step scalars
    (t, energy, l2, grad_l2, div_residual) and, when besov_stride > 0,
    subsampled Besov norms in the configured base and critical spaces with
    the step index of each ("besov_step").
    Its fields are the states every `sample_stride` steps (by default
    about 100 of them) and the final state; sample_stride = 0 keeps the
    final state only.
    Raises BlowUpError when the L^2 norm crosses cfg.blowup_threshold.
    """
    grid = cfg.grid
    if u0.grid != grid:
        raise ConfigError("initial data grid does not match config")
    nsteps = cfg.steps
    dt = cfg.T / nsteps
    stepper = SpectralStepper(grid, cfg.alpha, cfg.nu, dt)
    state = stepper.project(stepper.to_state(u0))
    if sample_stride is None:
        sample_stride = max(1, nsteps // 100)

    besov_idx = None
    if besov_stride:
        from .dyadic import BesovIndex, build_dyadic_family

        family = build_dyadic_family(grid)
        besov_idx = (
            BesovIndex(cfg.besov.r, 2, cfg.besov.q),
            BesovIndex(1.0 + grid.n / 2.0, 2, cfg.besov.q),
        )

    t_series = np.empty(nsteps + 1)
    cols = {key: np.empty(nsteps + 1) for key in ("energy", "l2", "grad_l2", "div_residual")}
    besov_rows = []
    times, fields = [], []

    def record(i, t, state, diag):
        t_series[i] = t
        for key, value in zip(cols, diag):
            cols[key][i] = value
        keep_sample = i == nsteps or (sample_stride > 0 and i % sample_stride == 0)
        if keep_sample:
            times.append(t)
            fields.append(stepper.to_field(state))
        if besov_idx is not None and (i % besov_stride == 0 or i == nsteps):
            f = fields[-1] if keep_sample else stepper.to_field(state)
            besov_rows.append(
                (i, t, family.besov_norm(f, besov_idx[0]), family.besov_norm(f, besov_idx[1]))
            )

    record(0, 0.0, state, stepper.diagnostics(state))
    for i in range(1, nsteps + 1):
        state = stepper.step(state)
        t = i * dt
        diag = stepper.diagnostics(state)
        nrm = diag[1]
        if not math.isfinite(nrm) or nrm > cfg.blowup_threshold:
            raise BlowUpError(t, nrm, cfg.blowup_threshold)
        record(i, t, state, diag)

    series = {"t": t_series, **cols}
    if besov_rows:
        steps, *rows = zip(*besov_rows)
        series["besov_step"] = np.array(steps)
        series["besov_t"], series["besov_base"], series["besov_critical"] = map(np.array, rows)
    return Trajectory(times=np.asarray(times), fields=fields, series=series)
