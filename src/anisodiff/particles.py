"""Backward stochastic trajectories and the Feynman-Kac field estimator.

Trajectories follow the Euler-Maruyama update

    X <- X - u_x(X, Y) ds + sqrt(2 kappa ds) xi_1
    Y <- Y - u_y(X, Y) ds + sqrt(2 kappa ds) xi_2

with positions wrapped into the periodic box after every step.  The drift
sign is negated relative to the forward flow so that integrating the
backward process forward in its own time variable realizes the stochastic
representation of the drift-diffusion equation; literal_signs=True flips
it back for side-by-side comparison.  One kernel, _em_step, performs this
update for both sde_step and feynman_kac; each caller scales its own noise.

Randomness is counter-based: each launch point owns a Philox substream
keyed by (seed, stream, flat point index), so results are bit-identical
no matter how the points are batched or parallelized.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .domain import DomainBox, VelocityField
from .errors import ConfigError
from .fields import ScalarField, sample_many

_POINT_CHUNK = 32  # launch points vectorized together per batch


def _substream(seed: int, stream: int, index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream), int(index)))
    return np.random.Generator(np.random.Philox(ss))


def _em_step(box: DomainBox, velocity: VelocityField, x, y, ds: float, sign: float,
             noise_x=None, noise_y=None):
    """Euler-Maruyama update: drift sign * u * ds, plus the caller's noise, wrapped.

    With neither drift (zero field) nor noise the positions are returned
    as given: wrapping would change the last bits of the cell centres of a
    box whose width is not a power of two.
    """
    if not velocity.is_zero:
        ux, uy = velocity.velocity(x, y)
        x = x + sign * ux * ds
        y = y + sign * uy * ds
    if noise_x is not None:
        x = x + noise_x
        y = y + noise_y
    elif velocity.is_zero:
        return x, y
    return box.wrap_x(x), box.wrap_y(y)


@dataclass
class ParticleEnsemble:
    """Positions of n trajectories plus the owning RNG substream."""

    box: DomainBox
    x: np.ndarray
    y: np.ndarray
    kappa: float
    rng_seed: int
    elapsed: float = 0.0
    x0: np.ndarray | None = dc_field(default=None, repr=False)
    y0: np.ndarray | None = dc_field(default=None, repr=False)
    rng: np.random.Generator | None = dc_field(default=None, repr=False)

    def __post_init__(self):
        self.x = np.atleast_1d(np.asarray(self.x, dtype=float)).copy()
        self.y = np.atleast_1d(np.asarray(self.y, dtype=float)).copy()
        if self.x.shape != self.y.shape:
            raise ConfigError("ensemble: x and y position arrays must match")
        if self.kappa < 0:
            raise ConfigError(f"ensemble.kappa: must be >= 0, got {self.kappa}")
        if not np.all(np.isfinite(self.x)) or not np.all(np.isfinite(self.y)):
            raise ConfigError("ensemble: positions must be finite")
        if self.x0 is None:
            self.x0 = self.x.copy()
            self.y0 = self.y.copy()
        if self.rng is None:
            self.rng = _substream(self.rng_seed, 0, 0)

    @property
    def n(self) -> int:
        return self.x.size

    def displacement(self) -> tuple[np.ndarray, np.ndarray]:
        """Minimal-image displacement since launch (valid while the spread
        stays well under the box size)."""
        return self.box.wrap_x(self.x - self.x0), self.box.wrap_y(self.y - self.y0)


def make_ensemble(box: DomainBox, n: int, x0: float = 0.0, y0: float = 0.0,
                  kappa: float = 0.0, seed: int = 0) -> ParticleEnsemble:
    if n < 1:
        raise ConfigError(f"particles.n: must be >= 1, got {n}")
    x = np.full(n, float(x0))
    y = np.full(n, float(y0))
    return ParticleEnsemble(box=box, x=box.wrap_x(x), y=box.wrap_y(y),
                            kappa=float(kappa), rng_seed=int(seed))


def sde_step(ens: ParticleEnsemble, velocity: VelocityField, ds: float,
             dW: np.ndarray | None = None,
             literal_signs: bool = False) -> ParticleEnsemble:
    """One Euler-Maruyama step of backward time ds.

    dW, when given, supplies the Wiener increments directly (shape (2, n),
    standard deviation sqrt(ds) each); used for common-random-number
    refinement studies.  Otherwise increments are drawn from the
    ensemble's own substream.
    """
    if ds <= 0:
        raise ConfigError(f"particles.ds: must be > 0, got {ds}")
    if dW is None:
        dW = np.sqrt(ds) * ens.rng.standard_normal((2, ens.n))
    elif dW.shape != (2, ens.n):
        raise ConfigError(f"particles.dW: expected shape (2, {ens.n}), got {dW.shape}")
    sig = np.sqrt(2.0 * ens.kappa)
    x, y = _em_step(ens.box, velocity, ens.x, ens.y, ds, 1.0 if literal_signs else -1.0,
                    sig * dW[0], sig * dW[1])
    return replace(ens, x=x, y=y, elapsed=ens.elapsed + ds,
                   x0=ens.x0, y0=ens.y0, rng=ens.rng)


@dataclass
class VarianceMap:
    """Per-launch-point ensemble variance of rho0 along the trajectories.

    values holds the unbiased (ddof=1) variance.  second_moment keeps the
    raw mean of rho0^2 and var_of_var the delta-method variance of the
    variance estimator; both feed diagnostics and error bars.
    """

    box: DomainBox
    values: np.ndarray
    n_per_point: int
    second_moment: np.ndarray | None = dc_field(default=None, repr=False)
    var_of_var: np.ndarray | None = dc_field(default=None, repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.box.nx, self.box.ny):
            raise ConfigError("variance map: grid shape mismatch")
        if np.any(self.values < 0):
            raise ConfigError("variance map: negative variance")

    def to_csv(self) -> str:
        """Same grid CSV layout as a scalar-field snapshot."""
        from .fields import to_csv
        return to_csv(ScalarField(self.box, self.values))


def variance_integral(vmap: VarianceMap) -> float:
    """Midpoint quadrature of the variance map over the box."""
    return float(np.sum(vmap.values) * vmap.box.hx * vmap.box.hy)


def variance_integral_stderr(vmap: VarianceMap) -> float:
    """Monte Carlo standard error of variance_integral (delta method)."""
    if vmap.var_of_var is None:
        raise ConfigError("variance map: no var_of_var data attached")
    return float(np.sqrt(np.sum(vmap.var_of_var)) * vmap.box.hx * vmap.box.hy)


def feynman_kac(rho0: ScalarField, velocity: VelocityField, t: float,
                kappa: float, n: int, ds: float, seed: int,
                launch_box: DomainBox | None = None, stream: int = 0,
                literal_signs: bool = False) -> tuple[ScalarField, VarianceMap]:
    """Monte Carlo estimate of the evolved field and its variance map.

    From every cell center of launch_box (default: rho0's grid), n
    trajectories integrate backward time t in equal Euler-Maruyama steps
    of size ~ds; rho0 is then bilinearly sampled at the endpoints.
    Returns the ensemble-mean field (the estimate of rho at time t) and
    the per-point variance map.
    """
    if n < 2:
        raise ConfigError(f"particles.n: need at least 2 trajectories, got {n}")
    if t <= 0:
        raise ConfigError(f"particles.t: must be > 0, got {t}")
    if ds <= 0 or ds > t:
        raise ConfigError(f"particles.ds: must lie in (0, t], got {ds}")
    if kappa < 0:
        raise ConfigError(f"particles.kappa: must be >= 0, got {kappa}")
    box = launch_box if launch_box is not None else rho0.box
    m = max(1, int(round(t / ds)))
    ds_eff = t / m
    sig = np.sqrt(2.0 * kappa * ds_eff)
    sign = 1.0 if literal_signs else -1.0

    xc = box.x_centers()
    yc = box.y_centers()
    n_points = box.nx * box.ny
    mean_vals = np.empty(n_points)
    var_vals = np.empty(n_points)
    m2_raw = np.empty(n_points)
    vvar = np.empty(n_points)

    if kappa == 0.0:
        # no noise: every trajectory from a point coincides, variance is
        # exactly zero and one trajectory per point suffices
        x, y = box.grid()
        for _ in range(m):
            x, y = _em_step(box, velocity, x, y, ds_eff, sign)
        w = sample_many(rho0, x, y)
        zeros = np.zeros_like(w)
        mean_field = ScalarField(box, w)
        vmap = VarianceMap(box, zeros, n_per_point=n, second_moment=w * w,
                           var_of_var=zeros.copy())
        return mean_field, vmap

    for start in range(0, n_points, _POINT_CHUNK):
        idx = np.arange(start, min(start + _POINT_CHUNK, n_points))
        gens = [_substream(seed, stream, int(k)) for k in idx]
        p = len(idx)
        x = np.repeat(xc[idx // box.ny], n).reshape(p, n)
        y = np.repeat(yc[idx % box.ny], n).reshape(p, n)
        z = np.empty((p, 2, n))
        for _ in range(m):
            for row, g in enumerate(gens):
                z[row] = g.standard_normal((2, n))
            x, y = _em_step(box, velocity, x, y, ds_eff, sign, sig * z[:, 0], sig * z[:, 1])
        w = sample_many(rho0, x, y)
        mu = w.mean(axis=1)
        m2c = w.var(axis=1)                      # biased central second moment
        m4c = ((w - mu[:, None]) ** 4).mean(axis=1)
        mean_vals[idx] = mu
        var_vals[idx] = m2c * n / (n - 1)
        m2_raw[idx] = (w * w).mean(axis=1)
        vvar[idx] = np.maximum(m4c / n - m2c * m2c * (n - 3) / (n * (n - 1)), 0.0)

    shape = (box.nx, box.ny)
    mean_field = ScalarField(box, mean_vals.reshape(shape))
    vmap = VarianceMap(box, var_vals.reshape(shape), n_per_point=n,
                       second_moment=m2_raw.reshape(shape),
                       var_of_var=vvar.reshape(shape))
    return mean_field, vmap
