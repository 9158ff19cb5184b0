"""Solver configuration, trajectories and the production time stepper.

The stepper integrates the projected filtered dynamics

    d/dt u_hat = nu Lap u_hat - P[ div(u (x) u) + div tau(u) ]_hat

with an integrating-factor RK4 scheme: the stiff viscous factor is applied
exactly through e^{-nu |k|^2 dt} multipliers and only the dealiased
nonlinearity is advanced by the Runge-Kutta stages, giving fourth-order
accuracy on the nonlinear term.  States stay divergence-free to round-off
because every stage is Leray-projected in spectral space.  The state is
the half spectrum `_fft.rfftn` returns, in the coefficient convention of
`_fft`.
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
from .grid import Grid, dealias_mask, ksq, ksq_safe
from .operators import leray_project

# Lower bounds of the config values, by dotted key, as configs/schema.json
# states them: (bound, whether the bound itself is allowed).  A None value
# (picard.ball_radius's default) is not checked.
_LOWER_BOUNDS = {
    "alpha": (0, True),
    **dict.fromkeys(("nu", "T", "dt", "blowup_threshold"), (0, False)),
    **dict.fromkeys(("seed", "snapshot_stride", "initial.j"), (0, True)),
    "csv_stride": (1, True),
    **dict.fromkeys(("besov.p", "besov.p_tilde", "besov.q"), (1, True)),
    "picard.tol": (0, False),
    **dict.fromkeys(("picard.max_iter", "picard.panels", "picard.grading"), (1, True)),
    "picard.nodes_per_panel": (2, True),
    "picard.ball_radius": (0, False),
}


def _check_bounds(section, prefix):
    """Raise ConfigError, naming the dotted key, for the first field of the
    config dataclass `section` outside its `_LOWER_BOUNDS` entry."""
    for name in section.__dataclass_fields__:
        key, value = prefix + name, getattr(section, name)
        if key not in _LOWER_BOUNDS or value is None:
            continue
        bound, inclusive = _LOWER_BOUNDS[key]
        if not (value >= bound if inclusive else value > bound):  # refuses NaN too
            raise ConfigError(
                f"config key {key!r}: need {key} {'>=' if inclusive else '>'} {bound}, got {value!r}"
            )


@dataclass(frozen=True)
class BesovIndices:
    """Norm indices carried by a run: base space (r, p, q), auxiliary
    smoothing space (s, p_tilde) with weight a = (s - r + n/p - n/p~)/2."""

    r: float = 2.5
    s: float = 3.0
    p: float = 2.0
    p_tilde: float = 2.0
    q: float = 2.0

    def __post_init__(self):
        _check_bounds(self, "besov.")


@dataclass(frozen=True)
class PicardParams:
    tol: float = 1e-8
    max_iter: int = 25
    panels: int = 8
    nodes_per_panel: int = 4
    grading: float = 2.0
    ball_radius: float | None = None

    def __post_init__(self):
        _check_bounds(self, "picard.")


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
        _check_bounds(self, "initial.")

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
        if self.n not in (2, 3):
            raise ConfigError(f"config key 'n' must be 2 or 3, got {self.n!r}")
        try:
            grid = Grid(self.n, self.N)
        except ValueError as exc:
            raise ConfigError(f"config key 'N': {exc}") from exc
        _check_bounds(self, "")
        if not math.isfinite(float(self.alpha) * self.alpha):
            raise ConfigError(f"config key 'alpha': need a finite alpha^2, got {self.alpha!r}")
        j_max = grid.max_dyadic_index
        if self.initial.kind == "random_band" and self.initial.j > j_max:
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
        self.ik = 1j * self.kv
        half = np.s_[..., : N // 2 + 1]  # the half spectrum of a library table
        k2 = ksq(grid)[half]
        self.kv_k2 = self.kv / ksq_safe(grid)[half]  # k/|k|^2, zero at k = 0
        helm = 1.0 + self.alpha**2 * k2
        # The kernel's output is zero off the 2/3 rule's modes: its spectral
        # tail works on their half spectrum alone, its tables restricted to them.
        self.kept = np.flatnonzero(dealias_mask(grid)[half])
        # the divergence of tau_hat from the transformed stress product
        ik_tau = self.ik * _stress_filter(self.alpha**2, k2)
        self.kept_tables = tuple(
            t.reshape(n, -1)[:, self.kept].astype(complex) for t in (self.kv, self.kv_k2, ik_tau)
        )
        # Parseval weights for the half spectrum, times 1, |k|^2 and the
        # Helmholtz symbol for the L^2, gradient and energy diagnostics.
        w = np.ones_like(k2)
        kz = mesh[-1]
        w[(kz > 0) & (kz < N // 2)] = 2.0
        self.weights = np.stack([w, w * k2, w * helm])
        # The multiplier tables are complex so that they scale complex
        # arrays without a per-call cast (the products are unchanged).
        self.e_full = np.exp(-self.nu * k2 * self.dt).astype(complex)
        self.e_half = np.exp(-self.nu * k2 * self.dt / 2.0).astype(complex)
        self.shape = grid.shape

    # -- transforms between VectorField and the internal state ----------

    def to_state(self, u):
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
        coincides with div(u (x) u) to round-off here: the state spectrum
        lives inside the 2/3 mask, so products are alias-free after masking
        and the state is exactly divergence-free.  One batch of n + n^2
        inverse transforms gives u and J = grad u, one batch of forward
        transforms the convective term and the stress product
        (J + J^T)(J - J^T).
        """
        n, shape = self.grid.n, self.shape
        spec = state.shape[1:]
        # The result outlives the temporaries below; allocated first, it does
        # not pin the heap above them, so their memory can be given back.
        out = np.zeros_like(state)
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
        fwd = np.take(fwd.reshape(len(fwd), -1), self.kept, axis=1)
        kv, kv_k2, ik_tau = self.kept_tables
        vhat = fwd[:n]
        if self.alpha > 0:
            tau = fwd[n:].reshape(n, n, -1)
            for j in range(n):
                vhat += ik_tau[j] * tau[:, j]
        # -P vhat = k (k.vhat)/|k|^2 - vhat, as in `project`
        vhat = kv_k2 * np.einsum("ik,ik->k", kv, vhat) - vhat
        for flat, row in zip(out.reshape(n, -1), vhat):  # row by row: faster than 2-D
            flat[self.kept] = row
        return out

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

    u0 is Leray-projected once, on the stepper's half spectrum.
    Returns a Trajectory whose `series` dict carries per-step scalars
    (t, energy, l2, grad_l2, div_residual) and, when besov_stride > 0,
    subsampled Besov norms in the configured base and critical spaces.
    Its fields are the states every `sample_stride` steps (by default
    about 100 of them) and the final state; sample_stride = 0 keeps the
    final state only.
    Raises BlowUpError when the L^2 norm crosses cfg.blowup_threshold.
    """
    grid = cfg.grid
    if u0.grid != grid:
        raise ConfigError("initial data grid does not match config")
    nsteps = max(1, int(round(cfg.T / cfg.dt)))
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
                (t, family.besov_norm(f, besov_idx[0]), family.besov_norm(f, besov_idx[1]))
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
        arr = np.asarray(besov_rows)
        series["besov_t"] = arr[:, 0]
        series["besov_base"] = arr[:, 1]
        series["besov_critical"] = arr[:, 2]
    return Trajectory(times=np.asarray(times), fields=fields, series=series)
