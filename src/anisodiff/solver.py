"""Time integration of the drift-diffusion equation on the periodic box.

Default scheme: semi-Lagrangian advection (backward characteristic tracing
with a second-order midpoint rule and bilinear sampling) composed with
Crank-Nicolson diffusion applied in Fourier space, where every mode is
updated exactly by the rational CN factor.  The combination is
unconditionally stable, so long runs at small diffusivity are cheap.

An explicit upwind scheme is kept as a cross-check backend; it is subject
to the usual CFL restriction, validated before any compute.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .domain import DomainBox, VelocityField
from .errors import ConfigError, InstabilityError
from .fields import (ScalarField, _wavenumbers, grad_norm_sq, l2_norm_sq,
                     mean_zero_project, sample_many)

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
        if not isinstance(self.record_every, (int, np.integer)) or self.record_every < 1:
            raise ConfigError(
                f"solver.record_every: must be a positive integer, got {self.record_every!r}"
            )
        if self.record_every * self.dt > self.t_end * (1 + 1e-12):
            raise ConfigError(
                "solver.record_every: record_every * dt exceeds t_end "
                f"({self.record_every} * {self.dt} > {self.t_end})"
            )

    def n_steps(self) -> int:
        n = int(round(self.t_end / self.dt))
        return max(n, 1)


def check_cfl(cfg: SolverConfig, velocity: VelocityField, box: DomainBox) -> None:
    """Enforce dt <= 0.9 * min(h^2/(4 kappa), h / max|u|) for the explicit scheme."""
    if cfg.scheme != SCHEME_UPWIND:
        return
    h = min(box.hx, box.hy)
    bound = np.inf
    if cfg.kappa > 0:
        bound = h * h / (4.0 * cfg.kappa)
    speed = velocity.max_speed(box)
    if speed > 0:
        bound = min(bound, h / speed)
    if cfg.dt > 0.9 * bound:
        raise ConfigError(
            f"solver.dt: {cfg.dt} violates the CFL bound 0.9*min(h^2/4k, h/|u|) "
            f"= {0.9 * bound:.3e} for the explicit upwind scheme"
        )


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
        if np.any(np.diff(self.times) <= 0):
            raise ConfigError("series.times: must be strictly increasing")
        if np.any(self.norms_sq < 0):
            raise ConfigError("series.norms_sq: negative energy recorded")
        if len(self.norms_sq) > 1:
            slack = MONOTONE_TOL * self.norms_sq[0]
            if np.any(np.diff(self.norms_sq) > slack):
                i = int(np.argmax(np.diff(self.norms_sq)))
                raise ConfigError(
                    f"series.norms_sq: energy increased at t={self.times[i + 1]:.4g} "
                    f"by {np.diff(self.norms_sq)[i]:.3e} (beyond solver tolerance)"
                )

    def to_csv(self) -> str:
        lines = ["t,norm_sq,dissipation"]
        for t, n, d in zip(self.times, self.norms_sq, self.dissipation):
            lines.append(f"{float(t)!r},{float(n)!r},{float(d)!r}")
        return "\n".join(lines) + "\n"


class _SemiLagrangianCN:
    """Cached machinery for repeated steps with one (field, velocity, cfg).

    The flow is steady and dt fixed, so the midpoint-rule departure points
    are traced once here; a step samples the field at them and applies the
    per-mode CN factor.
    """

    def __init__(self, box: DomainBox, velocity: VelocityField, cfg: SolverConfig):
        self.departure = None
        if not velocity.is_zero:
            dt = cfg.dt
            xg, yg = box.grid()
            ux, uy = velocity.velocity(xg, yg)
            xm = box.wrap_x(xg - 0.5 * dt * ux)
            ym = box.wrap_y(yg - 0.5 * dt * uy)
            uxm, uym = velocity.velocity(xm, ym)
            self.departure = (box.wrap_x(xg - dt * uxm), box.wrap_y(yg - dt * uym))
        kx, ky = _wavenumbers(box)
        a = 0.5 * cfg.kappa * cfg.dt * (kx[:, None] ** 2 + ky[None, :] ** 2)
        self.cn_factor = (1.0 - a) / (1.0 + a)

    def step_values(self, f: ScalarField) -> np.ndarray:
        vals = f.values if self.departure is None else sample_many(f, *self.departure)
        vh = np.fft.rfft2(vals)
        vh *= self.cn_factor
        return np.fft.irfft2(vh, s=vals.shape)


class _Upwind:
    def __init__(self, box: DomainBox, velocity: VelocityField, cfg: SolverConfig):
        self.box = box
        self.kappa = cfg.kappa
        self.dt = cfg.dt
        xg, yg = box.grid()
        ux, uy = velocity.velocity(xg, yg)
        self.ux_p = np.maximum(ux, 0.0)
        self.ux_m = np.minimum(ux, 0.0)
        self.uy_p = np.maximum(uy, 0.0)
        self.uy_m = np.minimum(uy, 0.0)

    def step_values(self, f: ScalarField) -> np.ndarray:
        v = f.values
        hx, hy = self.box.hx, self.box.hy
        adv = (self.ux_p * (v - np.roll(v, 1, axis=0))
               + self.ux_m * (np.roll(v, -1, axis=0) - v)) / hx
        adv += (self.uy_p * (v - np.roll(v, 1, axis=1))
                + self.uy_m * (np.roll(v, -1, axis=1) - v)) / hy
        lap = (np.roll(v, -1, axis=0) - 2.0 * v + np.roll(v, 1, axis=0)) / hx ** 2
        lap += (np.roll(v, -1, axis=1) - 2.0 * v + np.roll(v, 1, axis=1)) / hy ** 2
        return v + self.dt * (self.kappa * lap - adv)


def _make_stepper(box, velocity, cfg):
    if cfg.scheme == SCHEME_SL_CN:
        return _SemiLagrangianCN(box, velocity, cfg)
    return _Upwind(box, velocity, cfg)


def _checked_step(stepper, f: ScalarField) -> ScalarField:
    old_max = np.max(np.abs(f.values))
    new_vals = stepper.step_values(f)
    new_max = np.max(np.abs(new_vals))
    if not np.isfinite(new_max) or (old_max > 0 and new_max > GROWTH_LIMIT * old_max):
        raise InstabilityError(
            f"solver: max|rho| grew {new_max / old_max if old_max else np.inf:.3g}x "
            f"in one step (limit {GROWTH_LIMIT}x)"
        )
    return mean_zero_project(ScalarField(f.box, new_vals))


def step(f: ScalarField, velocity: VelocityField, cfg: SolverConfig) -> ScalarField:
    """Advance one dt.  The input must be mean-zero."""
    if not f.mean_zero:
        raise ConfigError("solver.step: input field must be mean-zero "
                          "(apply mean_zero_project first)")
    return _checked_step(_make_stepper(f.box, velocity, cfg), f)


def run(rho0: ScalarField, velocity: VelocityField, cfg: SolverConfig,
        grad_backend: str = "difference") -> DecaySeries:
    """Integrate to t_end, recording the decay and dissipation series.

    Samples are taken at t = 0, every record_every-th step, and the final
    step; the dissipation integral uses the trapezoid rule on exactly
    those samples.
    """
    if not rho0.mean_zero:
        raise ConfigError("solver.run: rho0 must be mean-zero")
    check_cfl(cfg, velocity, rho0.box)
    stepper = _make_stepper(rho0.box, velocity, cfg)

    n_steps = cfg.n_steps()
    f = rho0
    max0 = np.max(np.abs(f.values))
    times = [0.0]
    norms = [l2_norm_sq(f)]
    grads = [grad_norm_sq(f, backend=grad_backend)]
    diss = [0.0]
    for i in range(1, n_steps + 1):
        try:
            f = _checked_step(stepper, f)
        except InstabilityError as exc:
            raise InstabilityError(f"{exc} at t={i * cfg.dt:.6g}", time=i * cfg.dt) from None
        if max0 > 0 and np.max(np.abs(f.values)) > GROWTH_LIMIT ** 2 * max0:
            # slow blow-up: no single step trips the breaker, the total does
            raise InstabilityError(
                f"solver: max|rho| exceeded {GROWTH_LIMIT ** 2:g}x the initial "
                f"value at t={i * cfg.dt:.6g}", time=i * cfg.dt)
        if i % cfg.record_every == 0 or i == n_steps:
            t = i * cfg.dt
            g = grad_norm_sq(f, backend=grad_backend)
            diss.append(diss[-1] + cfg.kappa * (t - times[-1]) * 0.5 * (grads[-1] + g))
            times.append(t)
            norms.append(l2_norm_sq(f))
            grads.append(g)
            if norms[-1] - norms[-2] > MONOTONE_TOL * norms[0]:
                raise InstabilityError(
                    f"solver: energy increased by {norms[-1] - norms[-2]:.3e} at "
                    f"t={t:.6g} (beyond MONOTONE_TOL)", time=t)
    return DecaySeries(np.array(times), np.array(norms), np.array(diss), final_state=f)
