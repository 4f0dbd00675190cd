"""Anisotropic geometry and divergence-free velocity fields.

The domain is a periodic box [-Lx, Lx) x [-Ly, Ly).  A velocity field is
one of the three families a config's domain.family names: the stream flow
of psi(x, y) = A * f(x) * g(y), the shear flow (A * g(y), 0) and the zero
flow, where f and g are `profile` with the anisotropy exponents p and q:

    f(x) = (x^2 + eps^2)^(p/2),    g(y) = (y^2 + eps^2)^(q/2)

With eps = 0 these reduce to |x|^p and |y|^q; a positive eps keeps the
profiles smooth at the axes so that derivatives (and hence the velocity)
stay bounded for exponents below 2.

Errors name the config fields a user sets (domain.Lx for half_width_x);
VelocityField's constructor is the one place that states the flow rules.

The velocity, the profiles and the in-place fold keep a float32 array in
float32, the precision the particles step in (see particles); every other
input, float64 arrays, Python scalars and integer arrays alike, is
evaluated in float64.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class AnisotropyParams:
    """Directional scaling exponents p and q."""

    p: float
    q: float

    def __post_init__(self):
        for name in ("p", "q"):
            v = getattr(self, name)
            if not np.isfinite(v) or v <= 0:
                raise ConfigError(f"domain.{name}: must be a positive finite real, got {v}")


@dataclass(frozen=True)
class DomainBox:
    """Periodic box [-Lx, Lx) x [-Ly, Ly) sampled on an nx-by-ny grid.

    Grid values live at cell centers: x_i = -Lx + (i + 1/2) * hx.
    """

    half_width_x: float = 1.0
    half_width_y: float = 1.0
    nx: int = 128
    ny: int = 128

    def __post_init__(self):
        for name, half in (("Lx", self.half_width_x), ("Ly", self.half_width_y)):
            if not (np.isfinite(half) and half > 0):
                raise ConfigError(f"domain.{name}: must be > 0, got {half}")
        for name in ("nx", "ny"):
            n = getattr(self, name)
            if not isinstance(n, (int, np.integer)) or n < 8 or n % 2 != 0:
                raise ConfigError(f"domain.{name}: must be an even integer >= 8, got {n!r}")

    @property
    def hx(self) -> float:
        return 2.0 * self.half_width_x / self.nx

    @property
    def hy(self) -> float:
        return 2.0 * self.half_width_y / self.ny

    def x_centers(self) -> np.ndarray:
        return -self.half_width_x + (np.arange(self.nx) + 0.5) * self.hx

    def y_centers(self) -> np.ndarray:
        return -self.half_width_y + (np.arange(self.ny) + 0.5) * self.hy

    def grid(self) -> tuple[np.ndarray, np.ndarray]:
        """Cell-center coordinate arrays of shape (nx, ny)."""
        return np.meshgrid(self.x_centers(), self.y_centers(), indexing="ij")

    def wrap_x(self, x):
        """x folded into [-Lx, Lx) in a new float array, with the bits of
        numpy's floored remainder mod(x + Lx, 2 Lx) - Lx for every input.

        An array whose every x + Lx lies in [-2 Lx, 4 Lx), about one period
        either side of the box, is folded by at most one period; 0-d input,
        an empty array, NaN, inf or any point farther out sends the whole
        call to numpy's remainder.
        """
        return _wrap_in_place(np.array(x, dtype=float), self.half_width_x)

    def wrap_y(self, y):
        """y folded into [-Ly, Ly); the contract of wrap_x with Ly."""
        return _wrap_in_place(np.array(y, dtype=float), self.half_width_y)


def _wrap_in_place(s: np.ndarray, half: float) -> np.ndarray:
    """Fold s, a float array the caller owns, into [-half, half) in place and
    return it: mod(s + half, 2 half) - half, bit for bit as numpy computes it.

    With every t = s + half in [-2 half, 4 half), subtracting the period
    where t >= period and adding it where t < 0 gives numpy's bits: there
    fmod(t, period) is t or the exact t - period (Sterbenz), and numpy's
    remainder adds the period once to a negative fmod.  The range check
    fails for NaN and inf, so they take the remainder too.
    """
    half = s.dtype.type(half)   # the constants in s's own precision
    period = 2 * half
    s += half
    # NaN bounds fail the range check, so 0-d and empty arrays take the remainder
    lo, hi = (s.min(), s.max()) if s.ndim and s.size else (np.nan, np.nan)
    if not (-period <= lo and hi < 2.0 * period):
        np.mod(s, period, out=s)
    else:   # each pass runs only if some t needs it
        if hi >= period:
            np.subtract(s, period, out=s, where=s >= period)
        if lo < 0.0:
            np.add(s, period, out=s, where=s < 0.0)
    s -= half
    return s


def _float_array(a) -> np.ndarray:
    """a as a float array: a float32 array as it is, anything else as
    float64 (np.asarray(a, dtype=float))."""
    a = np.asarray(a)
    return a if a.dtype == np.float32 else a.astype(float, copy=False)


def _pow_half(base, half_exponent: float):
    """(base)^(half_exponent) for base >= 0.  Exponent 1 returns base
    uncopied and 3/2 is base * sqrt(base); every other exponent takes the **
    operator, which is numpy's sqrt at 1/2 and its square at 2."""
    e = float(half_exponent)
    if e == 1.0:
        return _float_array(base)
    if e == 1.5:
        return base * np.sqrt(base)
    return _float_array(base) ** e


def profile(s, exponent: float, epsilon: float = 0.0):
    """Regularized profile (s^2 + eps^2)^(exponent/2): f with exponent p,
    g with exponent q.

    Equals |s|^exponent exactly when epsilon is 0; even in s for any epsilon.
    """
    if epsilon < 0:
        raise ConfigError(f"domain.epsilon: must be >= 0, got {epsilon}")
    s = _float_array(s)
    return _pow_half(s * s + epsilon * epsilon, exponent / 2.0)


def _profile_and_slope(s, exponent: float, epsilon: float):
    """(profile(s, exponent, epsilon), its derivative in s), both from one
    base = s^2 + eps^2 and in new arrays, with the bits of evaluating each
    on its own.

    d/ds (s^2 + eps^2)^(m/2) = m * s * (s^2 + eps^2)^(m/2 - 1).  At m = 3 the
    profile and the slope share one sqrt; at m = 2 the slope's power is 1
    and is not multiplied in.
    """
    base = s * s
    base += epsilon * epsilon
    half = exponent / 2.0
    if epsilon == 0.0 and exponent < 2.0:
        # 0 * base^(negative) is 0/0 at the axis; the one-sided limit is 0
        # for exponent > 1 and bounded for exponent == 1, so pin it to 0.
        slope = np.zeros_like(s)
        nz = s != 0.0
        slope[nz] = exponent * s[nz] * _pow_half(base[nz], half - 1.0)
        return _pow_half(base, half), slope
    slope = exponent * s
    if half == 1.5:
        root = np.sqrt(base)
        slope *= root
        root *= base
        return root, slope
    if half != 1.0:
        slope *= _pow_half(base, half - 1.0)
    return _pow_half(base, half), slope


@dataclass(frozen=True)
class VelocityField:
    """Incompressible 2-D velocity field with closed-form components.

    Families, the values of a config's domain.family:
      * ``stream``:   u = (dpsi/dy, -dpsi/dx), psi = A * f(x) * g(y).
      * ``shear``:    u = (A * g(y), 0), the classical shear comparison.
      * ``zero``:     u = 0, pure-diffusion runs.

    The constructor states every flow rule.  A stream flow with nonzero
    amplitude needs epsilon > 0 when p < 1 or q < 1, or its components are
    unbounded near the axes; at amplitude 0 a stream or shear flow `is_zero`.

    Evaluation is a pure function of (x, y); callers that live on the
    periodic box are responsible for wrapping coordinates first.
    """

    family: str = "stream"
    params: AnisotropyParams | None = None
    amplitude: float = 1.0
    epsilon: float = 0.0

    def __post_init__(self):
        if self.family not in ("stream", "shear", "zero"):
            raise ConfigError(f"domain.family: must be stream, shear or zero, got {self.family!r}")
        if not self.epsilon >= 0:
            raise ConfigError(f"domain.epsilon: must be >= 0, got {self.epsilon}")
        if self.family in ("stream", "shear"):
            if self.params is None:
                raise ConfigError(f"velocity.params: required for family {self.family!r}")
            if not np.isfinite(self.amplitude):
                raise ConfigError("domain.amplitude: must be finite")
        if (self.family == "stream" and self.amplitude != 0.0 and self.epsilon == 0.0
                and min(self.params.p, self.params.q) < 1.0):
            raise ConfigError(f"domain.epsilon: must be > 0 when p < 1 or q < 1 (got epsilon="
                              f"{self.epsilon}, p={self.params.p}, q={self.params.q})")

    @property
    def is_zero(self) -> bool:
        return self.family == "zero" or self.amplitude == 0.0

    def velocity(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        """Component arrays (u_x, u_y) at the given coordinates, new arrays
        that the caller may overwrite: float32 for float32 coordinates,
        float64 for any other."""
        x = _float_array(x)
        y = _float_array(y)
        if self.family == "zero":
            return np.zeros_like(x), np.zeros_like(y)
        # Python floats take the arrays' precision (NEP 50); numpy scalars would not
        eps = float(self.epsilon)
        a = float(self.amplitude)
        if self.family == "shear":
            return a * profile(y, float(self.params.q), eps), np.zeros_like(y)
        # stream family: u = (psi_y, -psi_x) = (a * f * g', -a * f' * g)
        if x.shape != y.shape:
            x, y = np.broadcast_arrays(x, y)
        ux, dfx = _profile_and_slope(x, float(self.params.p), eps)
        gy, dgy = _profile_and_slope(y, float(self.params.q), eps)
        ux *= a
        ux *= dgy
        dfx *= -a
        dfx *= gy
        return ux, dfx

    def max_speed(self, box: DomainBox) -> float:
        """Largest per-component speed sampled on the box grid."""
        xg, yg = box.grid()
        ux, uy = self.velocity(xg, yg)
        return float(max(np.max(np.abs(ux)), np.max(np.abs(uy))))


def make_velocity(params: AnisotropyParams, amplitude: float,
                  epsilon: float) -> VelocityField:
    """The stream flow psi = amplitude * f(x) * g(y), under VelocityField's
    rules; amplitude 0 gives a stream flow that `is_zero` (a pure-diffusion
    run)."""
    return VelocityField("stream", params, amplitude, epsilon)


def divergence_residual(field: VelocityField, box: DomainBox) -> float:
    """Max |centered-difference divergence| over the grid.

    The stencil evaluates the analytic components at x +/- hx and
    y +/- hy directly (the field extends smoothly past the box edge),
    so the residual measures how far the construction is from exact
    incompressibility: O(h^2) for smooth fields, 0 for shear and zero.
    """
    xg, yg = box.grid()
    hx, hy = box.hx, box.hy
    ux_p, _ = field.velocity(xg + hx, yg)
    ux_m, _ = field.velocity(xg - hx, yg)
    _, uy_p = field.velocity(xg, yg + hy)
    _, uy_m = field.velocity(xg, yg - hy)
    div = (ux_p - ux_m) / (2.0 * hx) + (uy_p - uy_m) / (2.0 * hy)
    return float(np.max(np.abs(div)))
