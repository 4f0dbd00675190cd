"""Time integration of the drift-diffusion equation on the periodic box.

The flow is steady and dt fixed, so one step of either scheme is a fixed
map, built once per run: v <- irfft2(factor * rfft2(P v)) on the flattened
field, with P a sparse matrix and factor a per-mode multiplier whose zero
mode, factor[0, 0] = 0, is the mean-zero projection: the map acts on the
mean-zero subspace, where the decay is measured.  The default scheme,
sl_cn, is semi-Lagrangian advection (P samples bilinearly at the departure
points, traced back with a second-order midpoint rule) composed with
Crank-Nicolson diffusion, every other Fourier mode updated exactly by the
rational CN factor; it is unconditionally stable, so long runs at small
diffusivity are cheap.  The explicit upwind scheme, P = I + dt (kappa L_h -
A_h) and a factor of 1 except at the zero mode, is kept as a cross-check.
It is accepted only when every weight of P is non-negative, that is
dt <= 1 / max(2 kappa/hx^2 + 2 kappa/hy^2 + |u_x|/hx + |u_y|/hy) over the
cells, so each step is a convex average; building P checks this, before
any compute.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .domain import DomainBox, VelocityField
from .errors import ConfigError, InstabilityError
from .fields import (MEAN_ZERO_TOL, ScalarField, bilinear_matrix, grad_norm_sq,
                     l2_norm_sq, stencil_matrix)
from .manifest import csv_text

SCHEME_SL_CN = "sl_cn"
SCHEME_UPWIND = "upwind"

# one-step growth factor beyond which the integrator declares blow-up
GROWTH_LIMIT = 10.0

# slack allowed on the monotone-decay invariant, relative to the initial
# norm: bilinear semi-Lagrangian steps at CFL numbers well above 1 can
# overshoot the L2 norm by O(1e-3) transiently
MONOTONE_TOL = 2e-3


@dataclass(frozen=True)
class SolverConfig:
    kappa: float
    dt: float
    t_end: float
    scheme: str = SCHEME_SL_CN
    record_every: int = 10

    def __post_init__(self):
        if not (np.isfinite(self.kappa) and self.kappa >= 0):
            raise ConfigError(f"solver.kappa: must be >= 0 and finite, got {self.kappa}")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ConfigError(f"solver.dt: must be > 0, got {self.dt}")
        if not (np.isfinite(self.t_end) and self.t_end > 0):
            raise ConfigError(f"solver.t_end: must be > 0, got {self.t_end}")
        if self.scheme not in (SCHEME_SL_CN, SCHEME_UPWIND):
            raise ConfigError(f"solver.scheme: unknown scheme {self.scheme!r}")
        if (not isinstance(self.record_every, (int, np.integer))
                or isinstance(self.record_every, bool) or self.record_every < 1):
            raise ConfigError(
                f"solver.record_every: must be a positive integer, got {self.record_every!r}"
            )
        if self.record_every * self.dt > self.t_end * (1 + 1e-12):
            raise ConfigError(
                "solver.record_every: record_every * dt exceeds t_end "
                f"({self.record_every} * {self.dt} > {self.t_end})"
            )
        whole_steps(self.t_end, self.dt, "solver.t_end")

    def n_steps(self) -> int:
        return round(self.t_end / self.dt)


def whole_steps(t: float, dt: float, name: str) -> int:
    """round(t / dt), the number of steps dt that end at t; a ConfigError
    naming the field name when t is no whole number of them (to 1e-9)."""
    steps = round(t / dt)
    if abs(steps * dt - t) > 1e-9 * abs(t):
        raise ConfigError(f"{name}: {t} is not a whole number of solver steps dt={dt}")
    return steps


@dataclass
class DecaySeries:
    """Recorded ||rho(t)||^2 and the running dissipation integral.

    dissipation[i] is the trapezoid accumulation of kappa * ||grad rho||^2
    over the recorded samples up to times[i].
    """

    times: np.ndarray
    norms_sq: np.ndarray
    dissipation: np.ndarray
    final_state: ScalarField | None = dc_field(default=None, repr=False)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.norms_sq = np.asarray(self.norms_sq, dtype=float)
        self.dissipation = np.asarray(self.dissipation, dtype=float)
        if not (len(self.times) == len(self.norms_sq) == len(self.dissipation)):
            raise ConfigError("series: times/norms_sq/dissipation length mismatch")
        for name in ("times", "norms_sq", "dissipation"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ConfigError(f"series.{name}: must be finite")
        if np.any(np.diff(self.times) <= 0):
            raise ConfigError("series.times: must be strictly increasing")
        if np.any(self.norms_sq < 0):
            raise ConfigError("series.norms_sq: negative energy recorded")

    def to_csv(self) -> str:
        return csv_text("t,norm_sq,dissipation",
                        zip(self.times, self.norms_sq, self.dissipation))


def _departure_points(box: DomainBox, velocity: VelocityField, dt: float):
    """Feet of the characteristics through the cell centers, traced back
    over dt with the midpoint rule."""
    xg, yg = box.grid()
    ux, uy = velocity.velocity(xg, yg)
    uxm, uym = velocity.velocity(box.wrap_x(xg - 0.5 * dt * ux), box.wrap_y(yg - 0.5 * dt * uy))
    return box.wrap_x(xg - dt * uxm), box.wrap_y(yg - dt * uym)


def _upwind_matrix(box: DomainBox, velocity: VelocityField, cfg: SolverConfig):
    """I + dt (kappa L_h - A_h): the five-point Laplacian and first-order
    upwind advection, one row per cell.  Rows sum to 1 and the off-centre
    weights are non-negative, so a negative centre weight, a ConfigError,
    is the one way P v can fail to be a convex average of v."""
    ux, uy = (u.ravel() for u in velocity.velocity(*box.grid()))
    dx, dy = cfg.kappa / box.hx ** 2, cfg.kappa / box.hy ** 2
    weights = np.empty((box.nx * box.ny, 5))
    weights[:, 0] = 1.0 - cfg.dt * (2.0 * dx + 2.0 * dy + np.abs(ux) / box.hx
                                    + np.abs(uy) / box.hy)
    lowest = np.min(weights[:, 0])
    if lowest < 0.0:
        raise ConfigError(
            f"solver.dt: {cfg.dt} makes an upwind centre weight negative "
            f"({lowest:.3g}); the upwind scheme needs dt <= {cfg.dt / (1.0 - lowest):.3e}")
    weights[:, 1] = cfg.dt * (dx + np.maximum(ux, 0.0) / box.hx)
    weights[:, 2] = cfg.dt * (dx - np.minimum(ux, 0.0) / box.hx)
    weights[:, 3] = cfg.dt * (dy + np.maximum(uy, 0.0) / box.hy)
    weights[:, 4] = cfg.dt * (dy - np.minimum(uy, 0.0) / box.hy)
    i, j = np.divmod(np.arange(box.nx * box.ny), box.ny)
    return stencil_matrix(box, i, j, ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1)), weights)


def _step_map(box: DomainBox, velocity: VelocityField, cfg: SolverConfig):
    """(P, factor) of one step, as the module docstring sets out; None
    stands for the identity P, and factor[0, 0] = 0 for both schemes."""
    if cfg.scheme == SCHEME_UPWIND:
        P, factor = _upwind_matrix(box, velocity, cfg), np.ones((box.nx, box.ny // 2 + 1))
    else:
        P = None if velocity.is_zero else bilinear_matrix(
            box, *_departure_points(box, velocity, cfg.dt))
        kx = 2.0 * np.pi * np.fft.fftfreq(box.nx, d=box.hx)
        ky = 2.0 * np.pi * np.fft.rfftfreq(box.ny, d=box.hy)
        a = 0.5 * cfg.kappa * cfg.dt * (kx[:, None] ** 2 + ky[None, :] ** 2)
        factor = (1.0 - a) / (1.0 + a)
    factor[0, 0] = 0.0
    return P, factor


def run(rho0: ScalarField, velocity: VelocityField, cfg: SolverConfig) -> DecaySeries:
    """Integrate to t_end, recording the decay and dissipation series.

    Samples are taken at t = 0, every record_every-th step, and the final
    step; the dissipation integral uses the trapezoid rule on exactly
    those samples, with ||grad rho||^2 from centered differences.
    rho0 must be finite and mean-zero, |mean| <= MEAN_ZERO_TOL * max|rho0| on
    its values (a ConfigError otherwise); mean_zero_project(f) makes any
    field mean-zero.  The step map drops the zero mode, so every recorded
    field, and the final one, is mean-zero to rounding.
    """
    max0 = old_max = np.max(np.abs(rho0.values))
    if not np.isfinite(max0):
        raise ConfigError("solver.run: rho0 must be finite")
    if abs(np.mean(rho0.values)) > MEAN_ZERO_TOL * max0:
        raise ConfigError("solver.run: rho0 must be mean-zero")
    P, factor = _step_map(rho0.box, velocity, cfg)

    n_steps = cfg.n_steps()
    f = rho0
    times = [0.0]
    norms = [l2_norm_sq(f)]
    grads = [grad_norm_sq(f)]
    diss = [0.0]
    for i in range(1, n_steps + 1):
        t = i * cfg.dt
        vals = f.values if P is None else (P @ f.values.ravel()).reshape(f.values.shape)
        f = ScalarField(f.box, np.fft.irfft2(factor * np.fft.rfft2(vals), s=vals.shape))
        new_max = np.max(np.abs(f.values))
        if not np.isfinite(new_max) or (old_max > 0 and new_max > GROWTH_LIMIT * old_max):
            raise InstabilityError(
                f"solver: max|rho| grew {new_max / old_max if old_max else np.inf:.3g}x "
                f"in one step (limit {GROWTH_LIMIT}x) at t={t:.6g}", time=t)
        old_max = new_max
        if max0 > 0 and new_max > GROWTH_LIMIT ** 2 * max0:
            # slow blow-up: no single step trips the breaker, the total does
            raise InstabilityError(
                f"solver: max|rho| exceeded {GROWTH_LIMIT ** 2:g}x the initial "
                f"value at t={t:.6g}", time=t)
        if i % cfg.record_every == 0 or i == n_steps:
            g = grad_norm_sq(f)
            diss.append(diss[-1] + cfg.kappa * (t - times[-1]) * 0.5 * (grads[-1] + g))
            times.append(t)
            norms.append(l2_norm_sq(f))
            grads.append(g)
            if norms[-1] - norms[-2] > MONOTONE_TOL * norms[0]:
                raise InstabilityError(
                    f"solver: energy increased by {norms[-1] - norms[-2]:.3e} at "
                    f"t={t:.6g} (beyond MONOTONE_TOL)", time=t)
    return DecaySeries(np.array(times), np.array(norms), np.array(diss), final_state=f)
