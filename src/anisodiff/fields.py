"""Grid-sampled scalar fields: norms, gradients, projection, interpolation.

Integrals use the midpoint rule on cell centers, which is spectrally
accurate for smooth periodic integrands.  Gradients are centered
differences, second order in the grid spacing.
"""
from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .domain import DomainBox
from .errors import ConfigError
from .manifest import csv_text

MEAN_ZERO_TOL = 1e-12


@dataclass
class ScalarField:
    """Scalar samples at the cell centers of a periodic box."""

    box: DomainBox
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.box.nx, self.box.ny):
            raise ConfigError(
                f"field.values: shape {self.values.shape} does not match grid "
                f"({self.box.nx}, {self.box.ny})"
            )


def fourier_mode(box: DomainBox, mx: int = 1, my: int = 1,
                 amplitude: float = 1.0) -> ScalarField:
    """sin(pi mx x / Lx) * sin(pi my y / Ly), mean-zero by symmetry."""
    for name, m in (("initial.mx", mx), ("initial.my", my)):
        if m < 1:
            raise ConfigError(f"{name}: must be >= 1, got {m}")
    sx = np.sin(np.pi * mx * box.x_centers() / box.half_width_x)
    sy = np.sin(np.pi * my * box.y_centers() / box.half_width_y)
    vals = np.multiply.outer(amplitude * sx, sy)
    return mean_zero_project(ScalarField(box, vals))


def fourier_terms(terms):
    """terms, checked to be a list of [mx, my, kind, amp] with kind one of
    ss, sc, cs, cc naming the sin/cos factor per axis and no mode number
    below 1; whether the numbers are integers is the caller's check."""
    if not isinstance(terms, (list, tuple)) or not all(
            isinstance(t, (list, tuple)) and len(t) == 4 and t[2] in ("ss", "sc", "cs", "cc")
            and not any(isinstance(m, Real) and m < 1 for m in t[:2]) for t in terms):
        raise ConfigError(f"initial.terms: must be a list of [mx, my, kind, amp] with mode "
                          f"numbers >= 1 and kind one of ss, sc, cs, cc, got {terms!r}")
    return terms


def _trig_sum(box: DomainBox, terms) -> np.ndarray:
    """Grid values of the sum over terms (mx, my, kind, amp) of
    amp * b1(mx pi x / Lx) * b2(my pi y / Ly), kind naming b1 b2 from s/c;
    each factor is evaluated on its axis, the product on the grid."""
    ax = np.pi * box.x_centers() / box.half_width_x
    ay = np.pi * box.y_centers() / box.half_width_y
    basis = {"s": np.sin, "c": np.cos}
    vals = np.zeros((box.nx, box.ny))
    for mx, my, kind, amp in fourier_terms(terms):
        vals += np.multiply.outer(amp * basis[kind[0]](mx * ax), basis[kind[1]](my * ay))
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
    # one Newton polish so the mean stays within MEAN_ZERO_TOL * max|values|
    # even for adversarial scales
    vals -= np.mean(vals)
    return ScalarField(f.box, vals)


def grad_norm_sq(f: ScalarField) -> float:
    """Quadrature of |grad rho|^2 with the periodic centered-difference
    gradient, O(h^2): (v[i+1] - v[i-1]) / 2h per axis, taken from slices."""
    v = f.values
    dx, dy = np.empty_like(v), np.empty_like(v)
    for d, w, h in ((dx, v, f.box.hx), (dy.T, v.T, f.box.hy)):
        np.subtract(w[2:], w[:-2], out=d[1:-1])
        np.subtract(w[1], w[-1], out=d[0])
        np.subtract(w[0], w[-2], out=d[-1])
        d /= 2.0 * h
        d *= d
    dx += dy
    return float(np.sum(dx) * f.box.hx * f.box.hy)


def stencil_matrix(box: DomainBox, i, j, offsets, weights) -> sparse.csr_matrix:
    """CSR matrix on the flattened grid whose row r holds weights[r, k] at cell
    (i[r] + di, j[r] + dj) mod the grid for the k-th offset (di, dj); a
    matvec sums each row in offset order."""
    # imported here, not at module level: only a drifted or upwind step
    # needs scipy.sparse, and importing it takes about 0.2 s
    from scipy import sparse

    rows, k = weights.shape
    cols = np.empty((rows, k), dtype=np.int32)
    for col, (di, dj) in zip(cols.T, offsets):
        col[:] = (i + di) % box.nx * box.ny + (j + dj) % box.ny
    return sparse.csr_matrix((weights.ravel(), cols.ravel(), np.arange(0, rows * k + 1, k)),
                             shape=(rows, box.nx * box.ny))


_CORNERS = ((0, 0), (1, 0), (0, 1), (1, 1))


def _bilinear_cells(box: DomainBox, x, y):
    """Base cells (i0, j0) of the broadcast points, not yet wrapped, and a
    (4, points) array of the convex weights of cells (i0,j0), (i1,j0),
    (i0,j1), (i1,j1), where i1 = i0 + 1 and j1 = j0 + 1."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    sx = (x.ravel() - (-box.half_width_x + 0.5 * box.hx)) / box.hx
    sy = (y.ravel() - (-box.half_width_y + 0.5 * box.hy)) / box.hy
    i0, j0 = np.floor(sx), np.floor(sy)
    wx, wy = sx - i0, sy - j0
    weights = np.empty((4, sx.size))
    for w, (di, dj) in zip(weights, _CORNERS):
        w[:] = (wx if di else 1.0 - wx) * (wy if dj else 1.0 - wy)
    return i0.astype(np.int64), j0.astype(np.int64), weights


def bilinear_matrix(box: DomainBox, x, y) -> sparse.csr_matrix:
    """Periodic bilinear interpolation as a sparse matrix: row r samples a
    flattened field at the r-th point of the broadcast of x and y, with the
    convex weights of cells (i0,j0), (i1,j0), (i0,j1), (i1,j1) in that order."""
    i0, j0, weights = _bilinear_cells(box, x, y)
    return stencil_matrix(box, i0, j0, _CORNERS, weights.T)


def sample_many(f: ScalarField, x, y) -> np.ndarray:
    """Bilinear interpolation with periodic wraparound at the points (x, y).

    The four weighted gathers are summed in bilinear_matrix's row order, so
    the values equal bilinear_matrix(f.box, x, y) @ f.values.ravel(), shaped
    like the broadcast of x and y (a scalar for scalars).
    """
    box = f.box
    i0, j0, w = _bilinear_cells(box, x, y)
    i0 %= box.nx
    j0 %= box.ny
    i1 = i0 + 1
    i1[i1 == box.nx] = 0
    j1 = j0 + 1
    j1[j1 == box.ny] = 0
    r0, r1 = i0 * box.ny, i1 * box.ny
    v = f.values.ravel()
    vals = w[0] * v[r0 + j0] + w[1] * v[r1 + j0] + w[2] * v[r0 + j1] + w[3] * v[r1 + j1]
    return vals.reshape(np.broadcast(x, y).shape)[()]


def to_csv(f: ScalarField) -> str:
    """Grid CSV: header row nx,ny,Lx,Ly, then one row-major value per line."""
    box = f.box
    return csv_text("nx,ny,Lx,Ly", [(box.nx, box.ny, box.half_width_x, box.half_width_y),
                                    *f.values.reshape(-1, 1)])
