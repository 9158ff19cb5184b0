"""Solver configuration, trajectories and the production time stepper.

The stepper integrates the projected filtered dynamics

    d/dt u_hat = nu Lap u_hat - P[ div(u (x) u) + div tau(u) ]_hat

with an integrating-factor RK4 scheme: the stiff viscous factor is applied
exactly through e^{-nu |k|^2 dt} multipliers and only the dealiased
nonlinearity is advanced by the Runge-Kutta stages, giving fourth-order
accuracy on the nonlinear term.  States stay divergence-free to round-off
because every stage is Leray-projected in spectral space.
"""

import math
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from types import UnionType
from typing import get_args, get_origin

import numpy as np

from . import _fft
from .errors import BlowUpError, ConfigError
from .fields import VectorField, taylor_green, zero_field
from .grid import Grid
from .operators import leray_project


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

    def __post_init__(self):
        if self.tol <= 0 or self.max_iter < 1:
            raise ConfigError("picard.tol must be > 0 and picard.max_iter >= 1")
        if self.panels < 1 or self.nodes_per_panel < 2 or self.grading < 1.0:
            raise ConfigError(
                "picard needs panels >= 1, nodes_per_panel >= 2, grading >= 1"
            )


@dataclass(frozen=True)
class InitialSpec:
    kind: str = "taylor_green"  # taylor_green | zero | random_band | random_divfree
    amplitude: float = 0.1
    j: int = 1

    def build(self, grid, seed=0):
        if self.kind == "taylor_green":
            return taylor_green(grid, self.amplitude)
        if self.kind == "zero":
            return zero_field(grid)
        if self.kind == "random_band":
            from .fields import random_band_limited

            u = random_band_limited(grid, self.j, seed, ncomp=grid.n)
            return leray_project(self.amplitude * u)
        if self.kind == "random_divfree":
            from .fields import random_divergence_free

            return self.amplitude * random_divergence_free(grid, seed)
        raise ConfigError(f"unknown initial data kind '{self.kind}'")


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
        if self.alpha < 0 or self.nu <= 0:
            raise ConfigError("need alpha >= 0 and nu > 0")
        if self.dt <= 0 or self.T <= 0:
            raise ConfigError("need dt > 0 and T > 0")
        grid = Grid(self.n, self.N)  # validates n, N
        j_max = grid.max_dyadic_index
        if self.initial.kind == "random_band" and not 0 <= self.initial.j <= j_max:
            raise ConfigError(
                f"initial.j={self.initial.j} is not a resolved annulus on N={self.N}: "
                f"random_band needs 0 <= initial.j <= {j_max} (2^(j+1) <= N/2)"
            )

    @property
    def grid(self):
        return Grid(self.n, self.N)

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
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def config_from_dict(raw):
    """Build a SolverConfig from parsed JSON, rejecting unknown keys and
    values whose type does not match the field's annotation."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return _from_json(SolverConfig, raw)


@dataclass
class Trajectory:
    """Time-ordered field samples plus cached scalar series.

    `series` holds per-step diagnostics from the stepper (times, energy,
    L^2 and gradient norms, divergence residuals); `norm_cache` memoizes
    Besov norms computed by the time functionals.
    """

    times: np.ndarray
    fields: list
    series: dict = field(default_factory=dict)
    norm_cache: dict = field(default_factory=dict)

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
    """Integrating-factor RK4 stepper in (real-input) spectral variables."""

    def __init__(self, grid, alpha, nu, dt):
        self.grid = grid
        self.alpha = float(alpha)
        self.nu = float(nu)
        self.dt = float(dt)
        n, N = grid.n, grid.N
        kfull = np.fft.fftfreq(N, 1.0 / N)
        khalf = np.arange(N // 2 + 1, dtype=float)
        axes = [kfull] * (n - 1) + [khalf]
        mesh = np.meshgrid(*axes, indexing="ij")
        self.kv = np.stack(mesh)
        self.k2 = np.sum(self.kv**2, axis=0)
        self.k2_safe = self.k2.copy()
        self.k2_safe[(0,) * n] = 1.0
        kc = N // 3
        self.dealias = np.all(np.abs(self.kv) <= kc, axis=0)
        self.helm = 1.0 + self.alpha**2 * self.k2
        # Parseval weights for the half spectrum
        w = np.ones_like(self.k2)
        kz = mesh[-1]
        w[(kz > 0) & (kz < N // 2)] = 2.0
        self.parseval = w
        self.e_full = np.exp(-self.nu * self.k2 * self.dt)
        self.e_half = np.exp(-self.nu * self.k2 * self.dt / 2.0)
        self.npoints = grid.npoints
        self.shape = grid.shape

    # -- transforms between VectorField and the internal state ----------

    def to_state(self, u):
        return _fft.rfftn(u.data, self.grid.n) / self.npoints

    def to_field(self, state):
        return VectorField(
            self.grid, _fft.irfftn(state * self.npoints, self.shape)
        )

    # -- diagnostics -----------------------------------------------------

    def l2(self, state):
        return math.sqrt(float(np.sum(self.parseval * np.abs(state) ** 2)))

    def grad_l2(self, state):
        return math.sqrt(
            float(np.sum(self.parseval * self.k2 * np.abs(state) ** 2))
        )

    def energy(self, state):
        return float(
            np.sum(self.parseval * (1.0 + self.alpha**2 * self.k2) * np.abs(state) ** 2)
        )

    def div_residual(self, state):
        div = np.sum(1j * self.kv * state, axis=0)
        nrm = self.l2(state)
        if nrm == 0.0:
            return 0.0
        return math.sqrt(float(np.sum(self.parseval * np.abs(div) ** 2))) / nrm

    # -- dynamics ----------------------------------------------------------

    def project(self, state):
        kdot = np.sum(self.kv * state, axis=0)
        out = state - self.kv * (kdot / self.k2_safe)[None]
        zero = (slice(None),) + (0,) * self.grid.n
        out[zero] = state[zero]
        return out

    def nonlinear(self, state):
        """-P[div(u (x) u) + div tau(u)] in spectral variables.

        The advective term is evaluated in convective form (u.grad)u, which
        coincides with div(u (x) u) to round-off here: the state spectrum
        lives inside the 2/3 mask, so products are alias-free after masking
        and the state is exactly divergence-free.
        """
        n = self.grid.n
        jac_hat = (1j * self.kv[None, :] * state[:, None]).reshape(
            (n * n,) + self.k2.shape
        )
        phys = _fft.irfftn(
            np.concatenate([state, jac_hat]) * self.npoints, self.shape
        )
        u = phys[:n]
        jac = phys[n:].reshape((n, n) + self.shape)
        conv = np.einsum("j...,ij...->i...", u, jac)
        if self.alpha > 0:
            deform = 0.5 * (jac + np.swapaxes(jac, 0, 1))
            rotation = jac - np.swapaxes(jac, 0, 1)
            prod = np.einsum("ik...,kj...->ij...", deform, rotation)
            fwd = _fft.rfftn(
                np.concatenate([conv, prod.reshape((n * n,) + self.shape)]), n
            ) * (self.dealias / self.npoints)
            vhat = fwd[:n]
            tau_hat = (
                self.alpha**2 * fwd[n:].reshape((n, n) + self.k2.shape)
                / self.helm[None, None]
            )
            vhat = vhat + np.einsum("j...,ij...->i...", 1j * self.kv, tau_hat)
        else:
            vhat = _fft.rfftn(conv, n) * (self.dealias / self.npoints)
        return -self.project(vhat)

    def step(self, state):
        dt, e1, e2 = self.dt, self.e_half, self.e_full
        k1 = self.nonlinear(state)
        k2 = self.nonlinear(e1 * (state + 0.5 * dt * k1))
        k3 = self.nonlinear(e1 * state + 0.5 * dt * k2)
        k4 = self.nonlinear(e2 * state + dt * e1 * k3)
        return e2 * state + (dt / 6.0) * (e2 * k1 + 2.0 * e1 * (k2 + k3) + k4)


def solve_ivp(u0, cfg, sample_stride=None, besov_stride=0, family=None):
    """Integrate the filtered dynamics from u0 over [0, cfg.T].

    Returns a Trajectory whose `series` dict carries per-step scalars
    (t, energy, l2, grad_l2, div_residual) and, when besov_stride > 0,
    subsampled Besov norms in the configured base and critical spaces.
    Raises BlowUpError when the L^2 norm crosses cfg.blowup_threshold.
    """
    grid = cfg.grid
    if u0.grid != grid:
        raise ConfigError("initial data grid does not match config")
    nsteps = max(1, int(round(cfg.T / cfg.dt)))
    dt = cfg.T / nsteps
    stepper = SpectralStepper(grid, cfg.alpha, cfg.nu, dt)
    state = stepper.project(stepper.to_state(leray_project(u0)))
    if sample_stride is None:
        sample_stride = max(1, nsteps // 100)

    besov_idx = None
    if besov_stride:
        from .dyadic import BesovIndex, build_dyadic_family

        family = family or build_dyadic_family(grid)
        besov_idx = (
            BesovIndex(cfg.besov.r, 2, cfg.besov.q),
            BesovIndex(1.0 + grid.n / 2.0, 2, cfg.besov.q),
        )

    t_series = np.empty(nsteps + 1)
    cols = {key: np.empty(nsteps + 1) for key in ("energy", "l2", "grad_l2", "div_residual")}
    besov_rows = []
    times, fields = [], []

    def record(i, t, state):
        t_series[i] = t
        cols["energy"][i] = stepper.energy(state)
        cols["l2"][i] = stepper.l2(state)
        cols["grad_l2"][i] = stepper.grad_l2(state)
        cols["div_residual"][i] = stepper.div_residual(state)
        keep_sample = i % sample_stride == 0 or i == nsteps
        if keep_sample:
            times.append(t)
            fields.append(stepper.to_field(state))
        if besov_idx is not None and (i % besov_stride == 0 or i == nsteps):
            f = fields[-1] if keep_sample else stepper.to_field(state)
            besov_rows.append(
                (t, family.besov_norm(f, besov_idx[0]), family.besov_norm(f, besov_idx[1]))
            )

    record(0, 0.0, state)
    for i in range(1, nsteps + 1):
        state = stepper.step(state)
        t = i * dt
        nrm = stepper.l2(state)
        if not math.isfinite(nrm) or nrm > cfg.blowup_threshold:
            raise BlowUpError(t, nrm, cfg.blowup_threshold)
        record(i, t, state)

    series = {"t": t_series, **cols}
    if besov_rows:
        arr = np.asarray(besov_rows)
        series["besov_t"] = arr[:, 0]
        series["besov_base"] = arr[:, 1]
        series["besov_critical"] = arr[:, 2]
    return Trajectory(times=np.asarray(times), fields=fields, series=series)
