"""Rate extraction, kappa sweeps, scaling-law fits, and figure formulas.

Rates are always fitted on the squared norm ||rho(t)||^2, restricted to
the window where it has fallen to between 90% and 10% of the initial
value (the transient before and the noise floor after are excluded).
The sweep regression is ordinary least squares on (ln kappa, ln rate)
with a Student-t confidence interval on the slope (scipy.special.stdtrit).

Two exponent families are kept side by side on purpose: the theoretical
rate exponent p*q/(p+q+2) and the exponent family p/(p+q) that the
packaged figure curves actually plot.  They disagree for every tabulated
(p, q); reports print both and flag the mismatch rather than silently
choosing one.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from numbers import Rational

import numpy as np

from . import particles
from .domain import AnisotropyParams, VelocityField
from .errors import ConfigError, FitWindowError, InsufficientDecayError
from .fields import ScalarField
from .manifest import csv_text
from .particles import feynman_kac, variance_integral, variance_integral_stderr
from .solver import DecaySeries, SolverConfig, run, whole_steps

DEFAULT_FIT_WINDOW = (0.1, 0.9)


def _exponent(formula, p, q):
    """formula(p, q) for two finite exponents > 0, in Fractions when both
    are rational, else in floats."""
    if not (0 < p < np.inf and 0 < q < np.inf):
        raise ConfigError(f"exponent: p and q must be > 0 and finite, got ({p}, {q})")
    if all(isinstance(v, Rational) and not isinstance(v, bool) for v in (p, q)):
        return formula(Fraction(p), Fraction(q))
    return formula(float(p), float(q))


def theoretical_exponent(p, q):
    """Rate exponent p*q/(p+q+2).

    Integer or Fraction inputs are evaluated in exact rational arithmetic
    and return a Fraction; floats return a float.
    """
    return _exponent(lambda p, q: p * q / (p + q + 2), p, q)


def figure1_exponent(p, q):
    """The exponent family p/(p+q) used by the packaged figure-1 curves.

    Differs from theoretical_exponent for all p, q > 0; see exponent_report.
    """
    return _exponent(lambda p, q: p / (p + q), p, q)


# (prefactor, exponent) of the three fixed figure-1 curves; the exponents
# are p/(p+q) for the legend pairs (2,3), (3,4), (4,5).
FIGURE1_CURVES = {
    "blue": (2.0, Fraction(2, 5)),
    "red": (1.5, Fraction(3, 7)),
    "green": (1.2, Fraction(4, 9)),
}
FIGURE1_KAPPA_RANGE = (0.01, 1.0)
FIGURE2_PQ_RANGE = (1.0, 5.0)
FIGURE2_KAPPA = 0.1
FIGURE2_PREFACTOR = 1.5


def figure1_curve(kappa: float, curve: str) -> float:
    """Exact value of one of the three fixed rate curves at kappa."""
    key = str(curve).lower()
    if key not in FIGURE1_CURVES:
        raise ConfigError(f"figure1.curve: must be one of {sorted(FIGURE1_CURVES)}, "
                          f"got {curve!r}")
    lo, hi = FIGURE1_KAPPA_RANGE
    if not (lo <= kappa <= hi):
        raise ConfigError(f"figure1.kappa: must lie in [{lo}, {hi}], got {kappa}")
    coef, expo = FIGURE1_CURVES[key]
    return coef * kappa ** float(expo)


def figure2_surface(p: float, q: float) -> float:
    """Rate surface 1.5 * 0.1^(p q / (p + q + 2)) over (p, q) in [1, 5]^2."""
    lo, hi = FIGURE2_PQ_RANGE
    if not (lo <= p <= hi) or not (lo <= q <= hi):
        raise ConfigError(f"figure2: p and q must lie in [{lo}, {hi}], got ({p}, {q})")
    expo = theoretical_exponent(float(p), float(q))
    return FIGURE2_PREFACTOR * FIGURE2_KAPPA ** expo


@dataclass(frozen=True)
class DecayFit:
    """Exponential fit ||rho(t)||^2 ~ prefactor * exp(-rate * t)."""

    rate: float
    prefactor: float
    window: tuple[float, float]
    r_squared: float
    rate_stderr: float

    def __post_init__(self):
        if not np.isfinite(self.rate):
            raise ConfigError(f"fit.rate: must be finite, got {self.rate}")
        if not self.window[0] < self.window[1]:
            raise ConfigError(f"fit.window: need t_lo < t_hi, got {self.window}")
        if not (-1e-12 <= self.r_squared <= 1.0 + 1e-12):
            raise ConfigError(f"fit.r_squared: must lie in [0, 1], got {self.r_squared}")


def check_window(window, name: str = "fit.window") -> tuple[float, float]:
    """Validate a fit window (lo, hi) of energy fractions: 0 < lo < hi < 1."""
    if len(window) != 2:
        raise ConfigError(f"{name}: need two values (lo, hi), got {len(window)}")
    lo, hi = window
    if not (0.0 < lo < hi < 1.0):
        raise ConfigError(f"{name}: need 0 < lo < hi < 1, got ({lo}, {hi})")
    return lo, hi


def check_sweep(kappas, base_cfg: SolverConfig, dts=None, t_ends=None) -> list[SolverConfig]:
    """The sweep's runs: base_cfg at each of >= 4 strictly increasing kappas
    > 0 spanning a decade, its dt and t_end taken from the ladders dts and
    t_ends when given, one entry per kappa.  The ladders name a bad run."""
    kappas = [float(k) for k in kappas]
    if len(kappas) < 4:
        raise ConfigError(f"sweep.kappas: need >= 4 values, got {len(kappas)}")
    if any(k2 <= k1 for k1, k2 in zip(kappas, kappas[1:])):
        raise ConfigError("sweep.kappas: must be strictly increasing")
    if not kappas[0] > 0.0:
        raise ConfigError(f"sweep.kappas: must be > 0, got {kappas[0]}")
    if kappas[-1] / kappas[0] < 10.0:
        raise ConfigError("sweep.kappas: must span at least one decade")
    for name, ladder in (("dts", dts), ("t_ends", t_ends)):
        if ladder is not None and len(ladder) != len(kappas):
            raise ConfigError(f"sweep.{name}: must match sweep.kappas in length")
    runs = []
    for i, k in enumerate(kappas):
        try:
            runs.append(replace(base_cfg, kappa=k,
                                dt=base_cfg.dt if dts is None else float(dts[i]),
                                t_end=base_cfg.t_end if t_ends is None else float(t_ends[i])))
        except ConfigError as exc:
            raise ConfigError(f"sweep.dts / sweep.t_ends at kappa={k:g}: {exc}") from None
    return runs


def _linregress(x, y):
    """(slope, intercept, r, slope stderr) of the least-squares line through
    (x, y), n >= 3 and x not constant, in scipy.stats.linregress's own
    arithmetic and order, so every value matches it bit for bit.  scipy.stats
    itself is not imported: loading it takes longer than a small command."""
    xmean, ymean = np.mean(x), np.mean(y)
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = np.nan if ssxym == 0 else 0.0
    else:
        r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0)
    slope = ssxym / ssxm
    stderr = np.sqrt((1 - r**2) * ssym / ssxm / (len(x) - 2))
    return slope, ymean - slope * xmean, r, stderr


def fit_decay(series: DecaySeries,
              window: tuple[float, float] = DEFAULT_FIT_WINDOW) -> DecayFit:
    """Least-squares line through (t, ln ||rho||^2) inside the fit window."""
    lo, hi = check_window(window)
    norms = series.norms_sq
    if norms[0] <= 0:
        raise InsufficientDecayError("fit: series starts at zero energy")
    ratio = norms / norms[0]
    if float(np.min(ratio)) > hi:
        raise InsufficientDecayError(
            f"fit: norms never fell below {hi:.2f} of the initial value by "
            f"t={series.times[-1]:.4g}"
        )
    mask = (ratio <= hi) & (ratio >= lo) & (norms > 0)
    if int(np.sum(mask)) < 10:
        raise FitWindowError(
            f"fit: only {int(np.sum(mask))} samples inside the window "
            f"[{lo}, {hi}] (need >= 10)"
        )
    t = series.times[mask]
    y = np.log(norms[mask])
    slope, intercept, r, stderr = _linregress(t, y)
    return DecayFit(rate=float(-slope), prefactor=float(np.exp(intercept)),
                    window=(float(t[0]), float(t[-1])),
                    r_squared=float(r ** 2), rate_stderr=float(stderr))


def fit_power_law(kappas, rates) -> tuple[float, float, float, float]:
    """OLS on (ln kappa, ln rate): slope, intercept, 95% CI half-width, r^2."""
    kappas = np.asarray(kappas, dtype=float)
    rates = np.asarray(rates, dtype=float)
    if kappas.size != rates.size or kappas.size < 3:
        raise ConfigError("power fit: need >= 3 matched (kappa, rate) pairs")
    for name, values in (("kappas", kappas), ("rates", rates)):
        if not np.all(np.isfinite(values)):
            raise ConfigError(f"power fit: {name} must be finite")
    if np.any(kappas <= 0) or np.any(rates <= 0):
        raise ConfigError("power fit: kappas and rates must be positive")
    # imported here, not at module level: only a sweep's fit needs scipy.special
    from scipy.special import stdtrit

    slope, intercept, r, stderr = _linregress(np.log(kappas), np.log(rates))
    tcrit = float(stdtrit(kappas.size - 2, 0.975))
    stderr = float(stderr) if np.isfinite(stderr) else 0.0
    return float(slope), float(intercept), tcrit * stderr, float(r ** 2)


@dataclass
class ExponentFit:
    """Scaling-law regression across a kappa sweep."""

    kappas: np.ndarray
    rates: np.ndarray
    rate_stderrs: np.ndarray
    fit_r2s: np.ndarray
    slope: float
    intercept: float
    ci95: float
    loglog_r2: float

    def __post_init__(self):
        self.kappas = np.asarray(self.kappas, dtype=float)
        self.rates = np.asarray(self.rates, dtype=float)
        self.rate_stderrs = np.asarray(self.rate_stderrs, dtype=float)
        self.fit_r2s = np.asarray(self.fit_r2s, dtype=float)
        if self.kappas.size != self.rates.size or self.kappas.size < 4:
            raise ConfigError("exponent fit: need >= 4 matched (kappa, rate) pairs")
        if np.any(np.diff(self.kappas) <= 0):
            raise ConfigError("exponent fit: kappas must be strictly increasing")

    def to_csv(self) -> str:
        return csv_text("kappa,rate,rate_stderr,fit_r2",
                        zip(self.kappas, self.rates, self.rate_stderrs, self.fit_r2s))


def _sweep_one(rho0, velocity, cfg, window):
    return fit_decay(run(rho0, velocity, cfg), window)


def sweep_and_fit(kappas, rho0: ScalarField, velocity: VelocityField,
                  base_cfg: SolverConfig,
                  window: tuple[float, float] = DEFAULT_FIT_WINDOW,
                  dts=None, t_ends=None) -> ExponentFit:
    """Run the solver (solver.run) once per kappa, fit each decay, regress the rates.

    Runs are independent and execute in a process pool of
    min(CPUs this process may use, number of kappas) workers, the rule
    feynman_kac sizes its pools by.  Processes, not threads: a thread pool
    ran slower at 256x256 and adds about 10 MB of peak memory per concurrent
    run.  Results are merged by kappa index, so the pool size cannot change
    a bit.  The first run, in kappa order, that raised fails the sweep: the
    runs not yet started are cancelled and its exception is re-raised, type
    and attributes kept, message prefixed "sweep: kappa=<kappa>: ".

    dts / t_ends, when given, override base_cfg per kappa (check_sweep).
    Fast decays need finer sampling, slow ones run much cheaper and less
    dissipatively with a coarse step, so a ladder is the usual way to drive
    a multi-decade sweep.
    """
    runs = check_sweep(kappas, base_cfg, dts, t_ends)
    with ProcessPoolExecutor(max_workers=min(particles._cpu_count(), len(runs)),
                             mp_context=particles._pool_context()) as pool:
        futures = [pool.submit(_sweep_one, rho0, velocity, cfg, window) for cfg in runs]
        for cfg, fut in zip(runs, futures):
            if (exc := fut.exception()) is not None:
                pool.shutdown(cancel_futures=True)
                exc.args = (f"sweep: kappa={cfg.kappa:g}: {exc}",)
                raise exc
    fits = [fut.result() for fut in futures]
    ks = np.array([cfg.kappa for cfg in runs])
    rates = np.array([f.rate for f in fits])
    slope, intercept, ci95, r2 = fit_power_law(ks, rates)
    return ExponentFit(
        kappas=ks, rates=rates,
        rate_stderrs=np.array([f.rate_stderr for f in fits]),
        fit_r2s=np.array([f.r_squared for f in fits]),
        slope=slope, intercept=intercept, ci95=ci95, loglog_r2=r2,
    )


@dataclass(frozen=True)
class FdrResult:
    """Both sides of the fluctuation-dissipation check at one time."""

    t: float
    lhs: float
    rhs: float
    ratio: float
    rhs_stderr: float


def check_checkpoint(times, dt: float, record_every: int) -> list[float]:
    """The FDR checkpoints, sorted, distinct and > 0, each a whole number of
    solver steps dt.  Every one but the last, the run's t_end and so its
    final sample, is also a whole number of record_every steps, so one run
    records all."""
    times = sorted(float(t) for t in times)
    if not times:
        raise ConfigError("particles.times: fdr needs at least one checkpoint")
    if times[0] <= 0:
        raise ConfigError(f"particles.times: checkpoints must be > 0, got {times}")
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise ConfigError(f"particles.times: checkpoints must be distinct, got {times}")
    for t in times:
        steps = whole_steps(t, dt, "particles.times")
        if t < times[-1] and steps % record_every:
            raise ConfigError(f"particles.times: checkpoint {t} is not a recorded "
                              f"sample, a whole number of record_every * dt "
                              f"= {record_every} * {dt}")
    return times


def fdr_check(rho0: ScalarField, velocity: VelocityField, cfg: SolverConfig, times,
              n: int, ds: float, seed: int, launch_box=None) -> list[FdrResult]:
    """Cumulative dissipation (PDE side) vs variance integral (particle side),
    one FdrResult per checkpoint, in increasing t.

    lhs = kappa * integral of ||grad rho||^2 up to t, read from one solver
    run of cfg, its t_end replaced by the last checkpoint (centered-difference
    gradient, as in solver.run); rhs = integral of the trajectory-endpoint
    variance map of one feynman_kac call per checkpoint at cfg.kappa, on the
    substream of its index.
    The ratio is reported, not asserted.  For any divergence-free u on the
    torus, integral of Var[rho0(X_t)] dx = ||rho0||^2 - ||rho(t)||^2
    = 2 kappa integral of ||grad rho||^2, so lhs/rhs is exactly 0.5 in the
    continuum for every incompressible flow, not only pure diffusion; a
    departure is PDE numerical dissipation or particle bias, plus Monte
    Carlo noise.  The checkpoints must pass check_checkpoint.
    """
    times = check_checkpoint(times, cfg.dt, cfg.record_every)
    series = run(rho0, velocity, replace(cfg, t_end=times[-1]))
    results = []
    for index, t in enumerate(times):
        steps = round(t / cfg.dt)  # off the record stride only as the run's final sample
        lhs = float(series.dissipation[-1 if steps % cfg.record_every else
                                       steps // cfg.record_every])
        _, vmap = feynman_kac(rho0, velocity, t, cfg.kappa, n, ds, seed,
                              launch_box=launch_box, stream=index)
        rhs = variance_integral(vmap)
        ratio = lhs / rhs if rhs != 0.0 else float("nan")
        results.append(FdrResult(t=t, lhs=lhs, rhs=rhs, ratio=ratio,
                                 rhs_stderr=variance_integral_stderr(vmap)))
    return results


def _fmt_exponent(value) -> str:
    if isinstance(value, Fraction):
        return f"{value} = {float(value):.12g}"
    return f"{float(value):.12g}"


def exponent_report_csv(params: AnisotropyParams,
                        fit: ExponentFit | None = None) -> str:
    """One-row CSV companion of exponent_report."""
    p, q = float(params.p), float(params.q)
    fitted = ((fit.slope, fit.ci95, fit.loglog_r2) if fit is not None
              else (float("nan"),) * 3)
    return csv_text("p,q,theoretical_exponent,figure_exponent,slope,ci95,loglog_r2",
                    [(p, q, theoretical_exponent(p, q), figure1_exponent(p, q),
                      *map(float, fitted))])


def exponent_report(params: AnisotropyParams, fit: ExponentFit | None = None) -> str:
    """Plain-text scaling report: theoretical and figure-curve exponents,
    their mismatch flag, and the measured sweep slope when available."""
    p_int = params.p == int(params.p)
    q_int = params.q == int(params.q)
    p = int(params.p) if p_int else params.p
    q = int(params.q) if q_int else params.q
    theo = theoretical_exponent(p, q)
    fig = figure1_exponent(p, q)
    lines = [
        "scaling exponent report",
        f"p = {p}, q = {q}",
        f"theoretical rate exponent p*q/(p+q+2): {_fmt_exponent(theo)}",
        f"figure-curve exponent     p/(p+q):     {_fmt_exponent(fig)}",
    ]
    if float(theo) != float(fig):
        lines.append(
            "MISMATCH: the figure-curve exponent p/(p+q) differs from the "
            "theoretical exponent p*q/(p+q+2) for these parameters; both are "
            "reported and neither is asserted against the measurement."
        )
    else:
        lines.append("note: the two exponent families coincide for these parameters.")
    if fit is not None:
        lines += [
            "",
            f"measured log-log slope: {fit.slope:.6f} +/- {fit.ci95:.6f} (95% CI)",
            f"log-log r^2: {fit.loglog_r2:.6f}",
            f"kappa range: [{fit.kappas.min():g}, {fit.kappas.max():g}] "
            f"({fit.kappas.size} points)",
        ]
    return "\n".join(lines) + "\n"
