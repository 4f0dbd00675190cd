"""Backward stochastic trajectories and the Feynman-Kac field estimator.

Trajectories follow the update

    X <- X - u_x(X, Y) ds + sqrt(2 kappa ds) xi_1
    Y <- Y - u_y(X, Y) ds + sqrt(2 kappa ds) xi_2

with positions wrapped into the periodic box after every step.  The drift
is -u, the negated forward flow, so that integrating the backward process
forward in its own time variable realizes the stochastic representation
of the drift-diffusion equation.  One loop, _trajectories, runs this
update for both endpoints (one launch point) and feynman_kac (a grid).

For u = 0 the wrapped chain is exactly wrap(x0 + sqrt(2 kappa t) xi) in
law with xi standard normal, so both take one step of the whole time t
there and ds is unused; every other field takes max(1, round(t/ds))
steps (time_grid).  Those steps are the simplified weak Euler scheme:
xi_1 and xi_2 are independent fair signs, -1 or +1 (Kloeden & Platen 1992,
Numerical Solution of Stochastic Differential Equations, sec. 14.1;
Milstein & Tretyakov 2004, Stochastic Numerics for Mathematical Physics).
Like Euler-Maruyama it has weak order 1, so moments of rho0 at the
endpoints, which are all feynman_kac returns, carry an O(ds) bias; no
pathwise (strong) accuracy is claimed for the endpoints.  Two quirks
follow from the law, and are reported rather than hidden:

- with a constant field, every endpoint lies on a lattice of spacing
  2 sqrt(2 kappa ds) per axis, shifted by the drift;
- a drifted run with one step has only four endpoint positions per
  launch point.

Each launch point draws from its own seeded SFC64 generator, keyed by
(seed, stream, flat point index).  A point's draws therefore do not
depend on which other points share its batch or worker, and that is why
results are bit-identical however the points are batched or parallelized.

feynman_kac computes its chunks of launch points in worker processes when
a run takes more than one step and has more than one worker, and in worker
threads otherwise.  A step is some thirty short numpy calls, and threads
running them contend for the GIL; neither one exact step nor a lone worker
repays starting processes.  Both pools are cheap only under the fork start
method, where a worker inherits the run instead of unpickling it.  Under
spawn or forkserver (the Linux default from Python 3.14), each call's
processes start a fresh interpreter and import the package.
"""
from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field

import numpy as np

from .domain import DomainBox, VelocityField, _wrap_in_place
from .errors import ConfigError
from .fields import ScalarField, sample_many

# A batch of launch points vectorized together holds at most
# _CHUNK_TRAJECTORIES trajectories: 32 points at n = 1000 and 3 points at
# n = 10 000, whose (3, n) arrays take 240 KB each.  A step's temporaries are
# the velocity's two output arrays and the noise block.  In worker processes
# on two cores, a cap of 32 000 ran faster than 80 000 at n = 10 000.
_CHUNK_TRAJECTORIES = 32_000


def _cpu_count() -> int:
    """CPUs this process may run on: the most worker processes or threads
    feynman_kac and analysis.sweep_and_fit start."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _substream(seed: int, stream: int, index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream, index))
    return np.random.Generator(np.random.SFC64(ss))


def _check_key(name: str, value) -> None:
    """A substream key part must be a non-negative integer, not a bool."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < 0:
        raise ConfigError(f"{name}: must be an integer >= 0, got {value!r}")


def _em_step(box: DomainBox, velocity: VelocityField, x, y, ds: float,
             noise_x=None, noise_y=None):
    """Euler-Maruyama update: drift -u * ds, plus the caller's noise, wrapped.

    Returns new arrays and never writes into x, y or the noise: the update
    runs in place in the velocity's own output arrays.  With neither drift
    (zero field) nor noise the positions are returned as given: wrapping
    would change the last bits of the cell centres of a box whose width is
    not a power of two.
    """
    if velocity.is_zero:
        if noise_x is None:
            return x, y
        x_new, y_new = x + noise_x, y + noise_y
    else:
        x_new, y_new = velocity.velocity(x, y)
        x_new *= ds
        y_new *= ds
        np.subtract(x, x_new, out=x_new)
        np.subtract(y, y_new, out=y_new)
        if noise_x is not None:
            x_new += noise_x
            y_new += noise_y
    return (_wrap_in_place(x_new, box.half_width_x),
            _wrap_in_place(y_new, box.half_width_y))


def time_grid(velocity: VelocityField, t: float, kappa: float, n: int,
              ds: float) -> tuple[int, float]:
    """Check a particle run's arguments; return its step count and step size.

    A zero field takes one exact step of the whole t; every other field
    takes max(1, round(t/ds)) equal steps, so one step of t for any ds
    above about 2t/3.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ConfigError(f"particles.n: must be an integer >= 2, got {n!r}")
    if not 0 < t < np.inf:
        raise ConfigError(f"particles.t: must be > 0 and finite, got {t}")
    if not ds > 0:
        raise ConfigError(f"particles.ds: must be > 0, got {ds}")
    if not 0 <= kappa < np.inf:
        raise ConfigError(f"particles.kappa: must be >= 0 and finite, got {kappa}")
    m = 1 if velocity.is_zero else max(1, int(round(t / ds)))
    return m, t / m


def _trajectories(box: DomainBox, velocity: VelocityField, x0, y0, n: int,
                  gens: list, m: int, ds: float, sig: float):
    """Endpoints, shape (p, n), of n trajectories from each of the p launch
    points (x0[k], y0[k]): m steps of size ds whose noise point k draws from
    gens[k], one (2, n) block a step.  Without generators the trajectories
    are noise-free.

    The zero field's one exact step draws sig times standard normals.  A
    drifted field's steps draw the weak scheme's two-point increments, -sig
    or +sig with probability 1/2 each: every step, point k takes
    ceil(2n/64) raw 64-bit words from gens[k] and unpacks them little-endian
    into 2n bits, the first n for x and the next n for y; bit b gives
    b * 2 sig - sig, which is exactly -sig or +sig.
    """
    p = len(x0)
    x = np.repeat(x0, n).reshape(p, n)
    y = np.repeat(y0, n).reshape(p, n)
    z = np.empty((p, 2, n))
    noise = (z[:, 0], z[:, 1]) if gens else ()   # views of z, refilled each step
    flat = z.reshape(p, 2 * n)                   # a view: x's n, then y's n
    words = np.empty((p, -(-2 * n // 64)), dtype="<u8")
    for _ in range(m):
        if gens and velocity.is_zero:
            for row, g in enumerate(gens):
                g.standard_normal(out=z[row])
            z *= sig
        elif gens:
            for row, g in enumerate(gens):
                words[row] = g.bit_generator.random_raw(words.shape[1])
            bits = np.unpackbits(words.view(np.uint8), axis=1, count=2 * n,
                                 bitorder="little")
            np.multiply(bits, 2.0 * sig, out=flat)
            flat -= sig
        x, y = _em_step(box, velocity, x, y, ds, *noise)
    return x, y


def endpoints(box: DomainBox, velocity: VelocityField, x0: float, y0: float,
              t: float, kappa: float, n: int, ds: float,
              seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints of n backward trajectories of time t from the wrapped (x0, y0).

    They draw from substream (seed, 0, 0), which is feynman_kac's launch
    point 0 of stream 0; at kappa = 0 no generator is built.  seed must be
    an integer >= 0 at every kappa.  Steps follow
    time_grid.  A drifted field steps with two-point increments, the module
    docstring's weak scheme: averages of smooth functions of the endpoints
    are right to O(ds), but the endpoints are not Brownian paths (see the
    two quirks there).
    """
    m, ds_eff = time_grid(velocity, t, kappa, n, ds)
    _check_key("particles.seed", seed)
    gens = [_substream(seed, 0, 0)] if kappa > 0.0 else []
    x, y = _trajectories(box, velocity, box.wrap_x(np.array([x0], dtype=float)),
                         box.wrap_y(np.array([y0], dtype=float)), n, gens, m, ds_eff,
                         np.sqrt(2.0 * kappa * ds_eff))
    return x[0], y[0]


# The run whose chunks a feynman_kac worker computes.  The pool's initializer
# stores it once per worker, per thread, so concurrent calls cannot mix runs.
_RUN = threading.local()


def _start_run(*run) -> None:
    _RUN.run = run


def _run_chunk(start: int):
    """Moments of rho0 at the endpoints from the launch points of the chunk
    at flat index start of the stored run: (idx, mean, var, var_of_var)."""
    rho0, velocity, box, n, noisy, seed, stream, chunk, m, ds, sig = _RUN.run
    idx = np.arange(start, min(start + chunk, box.nx * box.ny))
    gens = [_substream(seed, stream, int(k)) for k in idx] if noisy else []
    x, y = _trajectories(box, velocity, box.x_centers()[idx // box.ny],
                         box.y_centers()[idx % box.ny], n if noisy else 1, gens, m,
                         ds, sig)
    w = sample_many(rho0, x, y)
    mu = w.mean(axis=1)
    m2c = w.var(axis=1)                      # biased central second moment
    d = w - mu[:, None]
    d *= d                                   # squared twice: ** 4 calls pow per element
    d *= d
    m4c = d.mean(axis=1)                     # central fourth moment
    return (idx, mu, m2c * n / (n - 1),
            np.maximum(m4c / n - m2c * m2c * (n - 3) / (n * (n - 1)), 0.0))


@dataclass
class VarianceMap:
    """Per-launch-point ensemble variance of rho0 along the trajectories.

    values holds the unbiased (ddof=1) variance and var_of_var the
    delta-method variance of that estimator, which feeds the error bars.
    """

    box: DomainBox
    values: np.ndarray
    var_of_var: np.ndarray = dc_field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.box.nx, self.box.ny):
            raise ConfigError("variance map: grid shape mismatch")
        if np.any(self.values < 0):
            raise ConfigError("variance map: negative variance")


def variance_integral(vmap: VarianceMap) -> float:
    """Midpoint quadrature of the variance map over the box."""
    return float(np.sum(vmap.values) * vmap.box.hx * vmap.box.hy)


def variance_integral_stderr(vmap: VarianceMap) -> float:
    """Monte Carlo standard error of variance_integral (delta method)."""
    return float(np.sqrt(np.sum(vmap.var_of_var)) * vmap.box.hx * vmap.box.hy)


def feynman_kac(rho0: ScalarField, velocity: VelocityField, t: float,
                kappa: float, n: int, ds: float, seed: int,
                launch_box: DomainBox | None = None,
                stream: int = 0) -> tuple[ScalarField, VarianceMap]:
    """Monte Carlo estimate of the evolved field and its variance map.

    From every cell center of launch_box (default: rho0's grid; a
    ConfigError if its extent differs from rho0.box's), n
    trajectories integrate backward time t in equal steps of size ~ds with
    drift -u and two-point increments, the simplified weak Euler scheme of
    the module docstring (weak order 1, like Euler-Maruyama, which is all
    the two moments returned need); rho0, finite or a ConfigError, is then
    bilinearly sampled at the endpoints.  A zero field takes one exact
    step of size t, one (2, n) draw of normals per launch point, and leaves
    ds unused beyond the check that it is > 0.
    Returns the ensemble-mean field (the estimate of rho at time t) and
    the per-point variance map.

    One loop serves every kappa.  At kappa = 0 the n trajectories from a
    point coincide, so it follows one, noise-free, and its moments give
    exactly zero variance and var_of_var.

    Chunks of _CHUNK_TRAJECTORIES // n launch points (at least one) run on
    one worker per available CPU (at most one per chunk): processes for a
    run of more than one step and more than one worker, threads otherwise
    (see the module docstring).  Every point draws from its own substream
    (seed, stream, flat point index; seed and stream integers >= 0), so the
    result is bit-identical for any chunk size, worker count and pool kind;
    the chunk memory in flight grows with the worker count.
    """
    m, ds_eff = time_grid(velocity, t, kappa, n, ds)
    _check_key("particles.seed", seed)
    _check_key("stream", stream)
    box = launch_box if launch_box is not None else rho0.box
    if (box.half_width_x, box.half_width_y) != (rho0.box.half_width_x, rho0.box.half_width_y):
        raise ConfigError(f"particles.launch_box: extent {box.half_width_x} x {box.half_width_y}"
                          f" differs from the field's {rho0.box.half_width_x} x "
                          f"{rho0.box.half_width_y}")
    if not np.all(np.isfinite(rho0.values)):
        raise ConfigError("feynman_kac: rho0 must be finite")
    sig = np.sqrt(2.0 * kappa * ds_eff)

    n_points = box.nx * box.ny
    mean_vals = np.empty(n_points)
    var_vals = np.empty(n_points)
    vvar = np.empty(n_points)

    # kappa = 0: one trajectory per point, and no generators to batch by chunk
    noisy = kappa > 0.0
    chunk = max(1, _CHUNK_TRAJECTORIES // n) if noisy else n_points
    starts = range(0, n_points, chunk)
    # Each chunk's moments land in its own idx slice, so the chunks may run in
    # any order on any worker.  The run reaches each worker once, through the
    # initializer; under fork it is inherited, not pickled.
    workers = min(_cpu_count(), len(starts))
    executor = ProcessPoolExecutor if m > 1 and workers > 1 else ThreadPoolExecutor
    with executor(max_workers=workers, initializer=_start_run,
                  initargs=(rho0, velocity, box, n, noisy, seed, stream, chunk, m,
                            ds_eff, sig)) as pool:
        for idx, mu, var, var_of_var in pool.map(_run_chunk, starts):
            mean_vals[idx] = mu
            var_vals[idx] = var
            vvar[idx] = var_of_var

    shape = (box.nx, box.ny)
    mean_field = ScalarField(box, mean_vals.reshape(shape))
    vmap = VarianceMap(box, var_vals.reshape(shape), var_of_var=vvar.reshape(shape))
    return mean_field, vmap
