"""Rate extraction, kappa sweeps, scaling-law fits, and figure formulas.

Rates are always fitted on the squared norm ||rho(t)||^2, restricted to
the window where it has fallen to between 90% and 10% of the initial
value (the transient before and the noise floor after are excluded).
The sweep regression is ordinary least squares on (ln kappa, ln rate)
with a t-distribution confidence interval on the slope.

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
from scipy import stats

from .domain import AnisotropyParams, VelocityField
from .errors import ConfigError, FitWindowError, InsufficientDecayError, SweepError
from .fields import ScalarField
from .particles import feynman_kac, variance_integral, variance_integral_stderr
from .solver import DecaySeries, SolverConfig, run

DEFAULT_SWEEP_KAPPAS = (1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1)
DEFAULT_FIT_WINDOW = (0.1, 0.9)


def _exact_ok(*vals) -> bool:
    return all(isinstance(v, Rational) and not isinstance(v, bool) for v in vals)


def theoretical_exponent(p, q=None):
    """Rate exponent p*q/(p+q+2).

    Accepts an AnisotropyParams or the two exponents directly.  Integer or
    Fraction inputs are evaluated in exact rational arithmetic and return
    a Fraction; floats return a float.
    """
    if isinstance(p, AnisotropyParams):
        if q is not None:
            raise ConfigError("theoretical_exponent: pass params or (p, q), not both")
        p, q = p.p, p.q
    if p <= 0 or q <= 0:
        raise ConfigError(f"exponent: p and q must be > 0, got ({p}, {q})")
    if _exact_ok(p, q):
        return Fraction(p) * Fraction(q) / (Fraction(p) + Fraction(q) + 2)
    return float(p) * float(q) / (float(p) + float(q) + 2.0)


def figure1_exponent(p, q=None):
    """The exponent family p/(p+q) used by the packaged figure-1 curves.

    Differs from theoretical_exponent for all p, q > 0; see exponent_report.
    """
    if isinstance(p, AnisotropyParams):
        if q is not None:
            raise ConfigError("figure1_exponent: pass params or (p, q), not both")
        p, q = p.p, p.q
    if p <= 0 or q <= 0:
        raise ConfigError(f"exponent: p and q must be > 0, got ({p}, {q})")
    if _exact_ok(p, q):
        return Fraction(p) / (Fraction(p) + Fraction(q))
    return float(p) / (float(p) + float(q))


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


def fit_decay(series: DecaySeries,
              window: tuple[float, float] = DEFAULT_FIT_WINDOW) -> DecayFit:
    """Least-squares line through (t, ln ||rho||^2) inside the fit window."""
    lo, hi = window
    if not (0.0 < lo < hi < 1.0):
        raise ConfigError(f"fit.window: need 0 < lo < hi < 1, got ({lo}, {hi})")
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
    res = stats.linregress(t, y)
    return DecayFit(rate=float(-res.slope), prefactor=float(np.exp(res.intercept)),
                    window=(float(t[0]), float(t[-1])),
                    r_squared=float(res.rvalue ** 2),
                    rate_stderr=float(res.stderr))


def fit_power_law(kappas, rates) -> tuple[float, float, float, float]:
    """OLS on (ln kappa, ln rate): slope, intercept, 95% CI half-width, r^2."""
    kappas = np.asarray(kappas, dtype=float)
    rates = np.asarray(rates, dtype=float)
    if kappas.size != rates.size or kappas.size < 3:
        raise ConfigError("power fit: need >= 3 matched (kappa, rate) pairs")
    if np.any(kappas <= 0) or np.any(rates <= 0):
        raise ConfigError("power fit: kappas and rates must be positive")
    res = stats.linregress(np.log(kappas), np.log(rates))
    dof = kappas.size - 2
    tcrit = float(stats.t.ppf(0.975, dof))
    stderr = float(res.stderr) if np.isfinite(res.stderr) else 0.0
    return float(res.slope), float(res.intercept), tcrit * stderr, float(res.rvalue ** 2)


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
    theoretical: float | None

    def __post_init__(self):
        self.kappas = np.asarray(self.kappas, dtype=float)
        self.rates = np.asarray(self.rates, dtype=float)
        if self.kappas.size != self.rates.size or self.kappas.size < 4:
            raise ConfigError("exponent fit: need >= 4 matched (kappa, rate) pairs")
        if np.any(np.diff(self.kappas) <= 0):
            raise ConfigError("exponent fit: kappas must be strictly increasing")

    def to_csv(self) -> str:
        lines = ["kappa,rate,rate_stderr,fit_r2"]
        for k, r, s, r2 in zip(self.kappas, self.rates, self.rate_stderrs, self.fit_r2s):
            lines.append(f"{float(k)!r},{float(r)!r},{float(s)!r},{float(r2)!r}")
        return "\n".join(lines) + "\n"


def _sweep_one(args):
    rho0, velocity, cfg, grad_backend, window = args
    series = run(rho0, velocity, cfg, grad_backend=grad_backend)
    return fit_decay(series, window)


def sweep_and_fit(kappas, rho0: ScalarField, velocity: VelocityField,
                  base_cfg: SolverConfig, params: AnisotropyParams | None = None,
                  n_jobs: int = 1, window: tuple[float, float] = DEFAULT_FIT_WINDOW,
                  grad_backend: str = "difference", dts=None,
                  t_ends=None) -> ExponentFit:
    """Run the solver once per kappa, fit each decay, regress the rates.

    Runs are independent; with n_jobs > 1 they execute in separate
    processes and are merged by kappa index.  Individual fit failures are
    tolerated up to half the sweep, then a SweepError carries the causes.

    dts / t_ends, when given, override base_cfg per kappa (one entry per
    kappa).  Fast decays need finer sampling, slow ones run much cheaper
    and less dissipatively with a coarse step, so a ladder is the usual
    way to drive a multi-decade sweep.
    """
    kappas = [float(k) for k in kappas]
    if len(kappas) < 4:
        raise ConfigError(f"sweep.kappas: need >= 4 values, got {len(kappas)}")
    if any(k2 <= k1 for k1, k2 in zip(kappas, kappas[1:])):
        raise ConfigError("sweep.kappas: must be strictly increasing")
    if kappas[-1] / kappas[0] < 10.0:
        raise ConfigError("sweep.kappas: must span at least one decade")
    if params is None:
        params = velocity.params
    if dts is None:
        dts = [base_cfg.dt] * len(kappas)
    if t_ends is None:
        t_ends = [base_cfg.t_end] * len(kappas)
    if len(dts) != len(kappas) or len(t_ends) != len(kappas):
        raise ConfigError("sweep: dts and t_ends must match kappas in length")

    jobs = [(rho0, velocity, replace(base_cfg, kappa=k, dt=float(dt), t_end=float(te)),
             grad_backend, window)
            for k, dt, te in zip(kappas, dts, t_ends)]
    results: list[DecayFit | Exception] = []
    if n_jobs > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            futures = [pool.submit(_sweep_one, j) for j in jobs]
            for fut in futures:
                try:
                    results.append(fut.result())
                except Exception as exc:  # noqa: BLE001 - re-raised below per kappa
                    results.append(exc)
    else:
        for j in jobs:
            try:
                results.append(_sweep_one(j))
            except Exception as exc:  # noqa: BLE001
                results.append(exc)

    failures = {k: r for k, r in zip(kappas, results) if isinstance(r, Exception)}
    if failures:
        detail = "; ".join(f"kappa={k:g}: {e}" for k, e in failures.items())
        if len(failures) > len(kappas) / 2 or len(kappas) - len(failures) < 4:
            raise SweepError(f"sweep: {len(failures)}/{len(kappas)} runs failed "
                             f"({detail})", failures=failures)

    ok = [(k, r) for k, r in zip(kappas, results) if not isinstance(r, Exception)]
    ks = np.array([k for k, _ in ok])
    fits = [r for _, r in ok]
    rates = np.array([f.rate for f in fits])
    slope, intercept, ci95, r2 = fit_power_law(ks, rates)
    return ExponentFit(
        kappas=ks, rates=rates,
        rate_stderrs=np.array([f.rate_stderr for f in fits]),
        fit_r2s=np.array([f.r_squared for f in fits]),
        slope=slope, intercept=intercept, ci95=ci95, loglog_r2=r2,
        theoretical=float(theoretical_exponent(float(params.p), float(params.q)))
        if params is not None else None,
    )


@dataclass(frozen=True)
class FdrResult:
    """Both sides of the fluctuation-dissipation check at one time."""

    t: float
    lhs: float
    rhs: float
    ratio: float
    rhs_stderr: float


def check_checkpoint(t: float, dt: float) -> None:
    """Reject an FDR checkpoint t that is not a whole number of solver steps dt."""
    if abs(round(t / dt) * dt - t) > 1e-9 * abs(t):
        raise ConfigError(f"fdr.t: checkpoint {t} is not a whole number of "
                          f"solver steps dt={dt}")


def fdr_check(rho0: ScalarField, velocity: VelocityField, kappa: float, t: float,
              dt: float, n: int, ds: float, seed: int, record_every: int = 10,
              launch_box=None, stream: int = 0,
              grad_backend: str = "difference") -> FdrResult:
    """Cumulative dissipation (PDE side) vs variance integral (particle side).

    lhs = kappa * integral of ||grad rho||^2 up to t from the solver;
    rhs = integral of the trajectory-endpoint variance map.  The ratio is
    reported, not asserted: lhs/rhs is 0.5 when the dissipation identity
    carries its usual factor 2, and both conventions appear in practice.
    t must be a whole number of solver steps dt, so that both sides are
    taken at the same time.
    """
    check_checkpoint(t, dt)
    cfg = SolverConfig(kappa=kappa, dt=dt, t_end=t, record_every=record_every)
    series = run(rho0, velocity, cfg, grad_backend=grad_backend)
    lhs = float(series.dissipation[-1])
    _, vmap = feynman_kac(rho0, velocity, t, kappa, n, ds, seed,
                          launch_box=launch_box, stream=stream)
    rhs = variance_integral(vmap)
    stderr = variance_integral_stderr(vmap)
    ratio = lhs / rhs if rhs != 0.0 else float("nan")
    return FdrResult(t=float(t), lhs=lhs, rhs=rhs, ratio=ratio, rhs_stderr=stderr)


def _fmt_exponent(value) -> str:
    if isinstance(value, Fraction):
        return f"{value} = {float(value):.12g}"
    return f"{float(value):.12g}"


def exponent_report_csv(params: AnisotropyParams,
                        fit: ExponentFit | None = None) -> str:
    """One-row CSV companion of exponent_report."""
    theo = float(theoretical_exponent(float(params.p), float(params.q)))
    alt = float(figure1_exponent(float(params.p), float(params.q)))
    slope = float(fit.slope) if fit is not None else float("nan")
    ci = float(fit.ci95) if fit is not None else float("nan")
    r2 = float(fit.loglog_r2) if fit is not None else float("nan")
    header = "p,q,theoretical_exponent,figure_exponent,slope,ci95,loglog_r2"
    row = ",".join(repr(v) for v in
                   (float(params.p), float(params.q), theo, alt, slope, ci, r2))
    return f"{header}\n{row}\n"


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
        f"p = {p}, q = {q} (alpha = {params.alpha}, beta = {params.beta})",
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
