"""Grid-sampled scalar fields: norms, gradients, projection, interpolation.

Integrals use the midpoint rule on cell centers, which is spectrally
accurate for smooth periodic integrands.  Gradients are centered
differences, second order in the grid spacing.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .domain import DomainBox
from .errors import ConfigError
from .manifest import csv_text

MEAN_ZERO_TOL = 1e-12


@dataclass
class ScalarField:
    """Scalar samples at the cell centers of a periodic box.

    mean_zero marks fields living in the zero-average subspace; it is
    checked at construction against MEAN_ZERO_TOL * max|values|.
    """

    box: DomainBox
    values: np.ndarray
    mean_zero: bool = dc_field(default=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.box.nx, self.box.ny):
            raise ConfigError(
                f"field.values: shape {self.values.shape} does not match grid "
                f"({self.box.nx}, {self.box.ny})"
            )
        if self.mean_zero:
            scale = np.max(np.abs(self.values))
            if scale > 0 and abs(np.mean(self.values)) > MEAN_ZERO_TOL * scale:
                raise ConfigError(
                    f"field.mean_zero: flagged mean-zero but grid mean is "
                    f"{np.mean(self.values):.3e} (max |value| {scale:.3e})"
                )


def fourier_mode(box: DomainBox, mx: int = 1, my: int = 1,
                 amplitude: float = 1.0) -> ScalarField:
    """sin(pi mx x / Lx) * sin(pi my y / Ly), mean-zero by symmetry."""
    if mx < 1 or my < 1:
        raise ConfigError(f"initial.mode: mode numbers must be >= 1, got ({mx}, {my})")
    xg, yg = box.grid()
    vals = amplitude * np.sin(np.pi * mx * xg / box.half_width_x) \
        * np.sin(np.pi * my * yg / box.half_width_y)
    return mean_zero_project(ScalarField(box, vals))


def _trig_sum(box: DomainBox, terms) -> np.ndarray:
    """Grid values of the sum over terms (mx, my, kind, amp) of
    amp * b1(mx pi x / Lx) * b2(my pi y / Ly), kind naming b1 b2 from s/c."""
    xg, yg = box.grid()
    ax = np.pi * xg / box.half_width_x
    ay = np.pi * yg / box.half_width_y
    basis = {"s": np.sin, "c": np.cos}
    vals = np.zeros_like(xg)
    for mx, my, kind, amp in terms:
        if mx < 1 or my < 1:
            raise ConfigError(f"initial.terms: mode numbers must be >= 1, "
                              f"got ({mx}, {my})")
        if len(kind) != 2 or any(k not in basis for k in kind):
            raise ConfigError(f"initial.terms: kind must be two of s/c, got {kind!r}")
        vals += amp * basis[kind[0]](mx * ax) * basis[kind[1]](my * ay)
    return vals


def fourier_sum(box: DomainBox, terms) -> ScalarField:
    """Mean-zero finite Fourier sum.

    terms: iterable of (mx, my, kind, amplitude) with kind one of
    'ss', 'sc', 'cs', 'cc' selecting sin/cos per axis; mode numbers >= 1.
    """
    return mean_zero_project(ScalarField(box, _trig_sum(box, terms)))


def random_fourier_sum(box: DomainBox, max_mode: int = 3, seed: int = 0,
                       amplitude: float = 1.0) -> ScalarField:
    """Mean-zero sum of sin/cos products with seeded random coefficients.

    Every mode pair (mx, my) with 1 <= mx, my <= max_mode contributes all
    four sin/cos combinations, so the result has no special symmetry.
    """
    rng = np.random.default_rng(seed)
    terms = []
    for mx in range(1, max_mode + 1):
        for my in range(1, max_mode + 1):
            c = rng.standard_normal(4) / (mx * my)
            terms += [(mx, my, kind, a) for kind, a in zip(("ss", "sc", "cs", "cc"), c)]
    vals = _trig_sum(box, terms)
    vals *= amplitude / max(np.max(np.abs(vals)), 1e-300)
    return mean_zero_project(ScalarField(box, vals))


def l2_norm_sq(f: ScalarField) -> float:
    """Midpoint quadrature of the squared field over the box."""
    return float(np.sum(f.values * f.values) * f.box.hx * f.box.hy)


def mean_zero_project(f: ScalarField) -> ScalarField:
    """Subtract the grid mean; idempotent and shift-invariant."""
    vals = f.values - np.mean(f.values)
    # one Newton polish so the flag check holds even for adversarial scales
    vals -= np.mean(vals)
    return ScalarField(f.box, vals, mean_zero=True)


def _wavenumbers(box: DomainBox) -> tuple[np.ndarray, np.ndarray]:
    kx = 2.0 * np.pi * np.fft.fftfreq(box.nx, d=box.hx)
    ky = 2.0 * np.pi * np.fft.rfftfreq(box.ny, d=box.hy)
    return kx, ky


def difference_gradient(f: ScalarField) -> tuple[np.ndarray, np.ndarray]:
    """Centered differences with periodic wraparound; O(h^2)."""
    v = f.values
    dx = (np.roll(v, -1, axis=0) - np.roll(v, 1, axis=0)) / (2.0 * f.box.hx)
    dy = (np.roll(v, -1, axis=1) - np.roll(v, 1, axis=1)) / (2.0 * f.box.hy)
    return dx, dy


def grad_norm_sq(f: ScalarField) -> float:
    """Quadrature of |grad rho|^2 with the centered-difference gradient."""
    dx, dy = difference_gradient(f)
    return float(np.sum(dx * dx + dy * dy) * f.box.hx * f.box.hy)


def sample_many(f: ScalarField, x, y) -> np.ndarray:
    """Bilinear interpolation with periodic wraparound, vectorized."""
    box = f.box
    sx = (np.asarray(x, dtype=float) - (-box.half_width_x + 0.5 * box.hx)) / box.hx
    sy = (np.asarray(y, dtype=float) - (-box.half_width_y + 0.5 * box.hy)) / box.hy
    i0 = np.floor(sx).astype(np.int64)
    j0 = np.floor(sy).astype(np.int64)
    wx = sx - i0
    wy = sy - j0
    i0 %= box.nx
    j0 %= box.ny
    i1 = (i0 + 1) % box.nx
    j1 = (j0 + 1) % box.ny
    v = f.values
    return ((1.0 - wx) * (1.0 - wy) * v[i0, j0]
            + wx * (1.0 - wy) * v[i1, j0]
            + (1.0 - wx) * wy * v[i0, j1]
            + wx * wy * v[i1, j1])


def to_csv(f: ScalarField) -> str:
    """Grid CSV: header row nx,ny,Lx,Ly, then one row-major value per line."""
    box = f.box
    return csv_text("nx,ny,Lx,Ly", [(box.nx, box.ny, box.half_width_x, box.half_width_y),
                                    *f.values.reshape(-1, 1)])
