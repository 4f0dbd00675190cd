import pickle
from concurrent.futures import Future
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse, stats
from scipy.special import stdtrit

from anisodiff.analysis import (DecayFit, ExponentFit, _linregress, check_checkpoint,
                                exponent_report, fdr_check, figure1_curve, figure1_exponent,
                                figure2_surface, fit_decay, fit_power_law,
                                sweep_and_fit, theoretical_exponent)
from anisodiff.domain import AnisotropyParams, DomainBox, VelocityField, make_velocity
from anisodiff.errors import (ConfigError, FitWindowError, InstabilityError,
                              InsufficientDecayError)
from anisodiff.fields import fourier_mode
from anisodiff.solver import DecaySeries, SolverConfig, run


class TestTheoreticalExponent:
    @pytest.mark.parametrize("p,q,expect", [
        (2, 3, Fraction(6, 7)),
        (3, 4, Fraction(4, 3)),
        (4, 5, Fraction(20, 11)),
        (1, 1, Fraction(1, 4)),
    ])
    def test_exact_table(self, p, q, expect):
        got = theoretical_exponent(p, q)
        assert isinstance(got, Fraction)
        assert got == expect

    def test_float_inputs_give_float(self):
        got = theoretical_exponent(2.0, 3.0)
        assert isinstance(got, float)
        assert got == pytest.approx(6 / 7, rel=1e-15)

    def test_params_input(self):
        par = AnisotropyParams(p=2, q=3)
        assert theoretical_exponent(par) == Fraction(6, 7)

    @settings(max_examples=50, deadline=None)
    @given(p=st.floats(0.1, 10), q=st.floats(0.1, 10))
    def test_symmetric(self, p, q):
        assert theoretical_exponent(p, q) == theoretical_exponent(q, p)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            theoretical_exponent(0, 3)
        for formula in (theoretical_exponent, figure1_exponent):
            for p, q in ((np.nan, 2), (np.inf, 2), (2, np.nan), (2, np.inf)):
                with pytest.raises(ConfigError, match="p and q"):
                    formula(p, q)


class TestFigure1:
    def test_values_at_unit_kappa(self):
        assert figure1_curve(1.0, "blue") == pytest.approx(2.0, rel=1e-14)
        assert figure1_curve(1.0, "red") == pytest.approx(1.5, rel=1e-14)
        assert figure1_curve(1.0, "green") == pytest.approx(1.2, rel=1e-14)

    def test_blue_at_half(self):
        # 2 * 0.5^(2/5), evaluated independently
        assert figure1_curve(0.5, "blue") == pytest.approx(2.0 * 0.5 ** 0.4,
                                                           rel=1e-14)
        assert figure1_curve(0.5, "blue") == pytest.approx(1.5157165665103982,
                                                           rel=1e-12)

    def test_domain_enforced(self):
        with pytest.raises(ConfigError):
            figure1_curve(0.005, "blue")
        with pytest.raises(ConfigError):
            figure1_curve(1.5, "red")
        with pytest.raises(ConfigError):
            figure1_curve(0.5, "purple")

    def test_curve_exponents_are_p_over_p_plus_q(self):
        # the three curves use p/(p+q) for (2,3), (3,4), (4,5)
        assert figure1_exponent(2, 3) == Fraction(2, 5)
        assert figure1_exponent(3, 4) == Fraction(3, 7)
        assert figure1_exponent(4, 5) == Fraction(4, 9)


class TestFigure2:
    def test_corner_values(self):
        # 1.5 * 0.1^(1/4) and 1.5 * 0.1^(25/12), evaluated independently
        assert figure2_surface(1, 1) == pytest.approx(0.8435119877855236, rel=1e-12)
        assert figure2_surface(5, 5) == pytest.approx(0.012381062779020274, rel=1e-12)

    def test_symmetric(self):
        for p, q in [(1, 4), (2.5, 3.5), (1.1, 4.9)]:
            assert figure2_surface(p, q) == figure2_surface(q, p)

    def test_consistent_with_exponent_by_construction(self):
        for p in np.linspace(1, 5, 7):
            for q in np.linspace(1, 5, 7):
                expect = 1.5 * 0.1 ** theoretical_exponent(float(p), float(q))
                assert figure2_surface(p, q) == expect

    def test_domain_enforced(self):
        with pytest.raises(ConfigError):
            figure2_surface(0.5, 3)
        with pytest.raises(ConfigError):
            figure2_surface(2, 5.5)


def synthetic_series(rate, prefactor, t_end=10.0, n=201):
    t = np.linspace(0.0, t_end, n)
    norms = prefactor * np.exp(-rate * t)
    return DecaySeries(t, norms, np.zeros_like(t))


class TestFitDecay:
    def test_exact_exponential_round_trip(self):
        fit = fit_decay(synthetic_series(0.5, 3.0))
        assert fit.rate == pytest.approx(0.5, abs=1e-9)
        assert fit.prefactor == pytest.approx(3.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)
        assert fit.rate_stderr < 1e-9

    def test_window_bounds(self):
        fit = fit_decay(synthetic_series(1.0, 1.0))
        t_lo, t_hi = fit.window
        # ratio in [0.1, 0.9] for rate 1 means t in [ln(10/9), ln 10]
        assert t_lo >= np.log(10 / 9) - 0.06
        assert t_hi <= np.log(10.0) + 0.06

    def test_constant_series_insufficient_decay(self):
        t = np.linspace(0, 5, 100)
        series = DecaySeries(t, np.ones_like(t), np.zeros_like(t))
        with pytest.raises(InsufficientDecayError):
            fit_decay(series)

    def test_window_too_small(self):
        with pytest.raises(FitWindowError):
            fit_decay(synthetic_series(0.5, 1.0, t_end=10.0, n=12))

    def test_bad_window_config(self):
        with pytest.raises(ConfigError):
            fit_decay(synthetic_series(0.5, 1.0), window=(0.9, 0.1))


class TestFitPowerLaw:
    def test_exact_power_law_round_trip(self):
        kappas = np.array([1e-3, 3e-3, 1e-2, 3e-2, 1e-1])
        rates = 2.0 * kappas ** 0.4
        slope, intercept, ci95, r2 = fit_power_law(kappas, rates)
        assert slope == pytest.approx(0.4, abs=1e-9)
        assert np.exp(intercept) == pytest.approx(2.0, abs=1e-9)
        assert ci95 < 1e-9
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigError):
            fit_power_law([1e-2, 1e-1], [1.0, 2.0])
        with pytest.raises(ConfigError):
            fit_power_law([1e-2, 1e-1, 1.0], [1.0, -2.0, 3.0])
        with pytest.raises(ConfigError, match="rates"):
            fit_power_law([1, 2, 3, 4], [1, np.nan, 3, 4])
        with pytest.raises(ConfigError, match="kappas"):
            fit_power_law([1, 2, np.inf, 4], [1, 2, 3, 4])


FIT_FLOATS = st.floats(-1e3, 1e3, allow_subnormal=False)


@st.composite
def regression_data(draw):
    """n >= 3 points with x not constant: free y, y exactly on a line, or
    constant y."""
    xs = draw(st.lists(FIT_FLOATS, min_size=3, max_size=40).filter(lambda v: len(set(v)) > 1))
    kind = draw(st.sampled_from(["free", "line", "constant"]))
    if kind == "free":
        ys = draw(st.lists(FIT_FLOATS, min_size=len(xs), max_size=len(xs)))
    elif kind == "line":
        a, b = draw(FIT_FLOATS), draw(FIT_FLOATS)
        ys = [a * x + b for x in xs]
    else:
        ys = [draw(FIT_FLOATS)] * len(xs)
    return np.array(xs), np.array(ys)


# exactly collinear (x, y, r): the raw r rounds past +1 and -1
_X_UP, _X_DOWN = np.array([0.3, -2.8, 1.5, 0.2, -1.0]), np.array([-1.1, 1.1, -1.9])
CLIPPED = [(_X_UP, 1.7 * _X_UP - 0.8, 1.0), (_X_DOWN, -0.6 * _X_DOWN - 2.0, -1.0)]


class TestLinregress:
    """_linregress stands in for scipy.stats.linregress, which the package
    no longer imports; it must give the same bits."""

    @settings(max_examples=500, deadline=None)
    @given(data=regression_data())
    @example(data=CLIPPED[0][:2])
    @example(data=CLIPPED[1][:2])
    @example(data=(np.array([0.0, 1.0, 3.0]), np.full(3, 2.0)))
    def test_bit_equal_to_scipy(self, data):
        x, y = data
        with np.errstate(all="ignore"):
            ref = stats.linregress(x, y)
            got = _linregress(x, y)
        expect = (ref.slope, ref.intercept, ref.rvalue, ref.stderr)
        assert all(np.array_equal(np.float64(g), np.float64(e), equal_nan=True)
                   for g, e in zip(got, expect)), (got, expect)

    @pytest.mark.parametrize("x,y,r", CLIPPED, ids=["up", "down"])
    def test_collinear_r_is_clipped(self, x, y, r):
        assert _linregress(x, y)[2] == r

    def test_t_quantile_matches_scipy(self):
        assert [dof for dof in range(1, 201)
                if stdtrit(dof, 0.975) != stats.t.ppf(0.975, dof)] == []


def scale_invariant_sweep(box, kappas):
    """u = 0 sweep where kappa * dt is constant, so the discrete decay is
    the same sequence at every kappa and the fitted slope is exactly 1."""
    rho = fourier_mode(box, 1, 1)
    cfg = SolverConfig(kappa=kappas[0], dt=1e-2, t_end=1.0, record_every=1)
    dts = [4e-4 / k for k in kappas]
    t_ends = [0.07 / k for k in kappas]
    return sweep_and_fit(kappas, rho, VelocityField("zero"), cfg, dts=dts, t_ends=t_ends)


class InlinePool:
    """A stand-in for ProcessPoolExecutor that records its size and runs
    each job in-process as it is submitted."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        fut = Future()
        try:
            fut.set_result(fn(*args))
        except Exception as exc:
            fut.set_exception(exc)
        return fut

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def growing_step_map(box, velocity, cfg):
    """A stand-in for solver._step_map whose step multiplies the field by 1.01."""
    return 1.01 * sparse.identity(box.nx * box.ny), np.ones((box.nx, box.ny // 2 + 1))


class TestSweepAndFit:
    def test_validation(self, box64):
        rho = fourier_mode(box64, 1, 1)
        cfg = SolverConfig(kappa=1e-2, dt=1e-2, t_end=1.0)
        vel = VelocityField("zero")
        with pytest.raises(ConfigError):
            sweep_and_fit([1e-2, 1e-1, 1.0], rho, vel, cfg)  # too few
        with pytest.raises(ConfigError):
            sweep_and_fit([1e-2, 1e-2, 1e-1, 1.0], rho, vel, cfg)  # not increasing
        with pytest.raises(ConfigError):
            sweep_and_fit([1e-2, 2e-2, 3e-2, 5e-2], rho, vel, cfg)  # < 1 decade
        with pytest.raises(ConfigError):
            sweep_and_fit([1e-3, 1e-2, 1e-1, 1.0], rho, vel, cfg, dts=[1e-2])

    def test_pure_diffusion_slope_is_one(self):
        box = DomainBox(1.0, 1.0, 32, 32)
        fit = scale_invariant_sweep(box, [1e-3, 5e-3, 2e-2, 1e-1])
        print(f"\nmini u=0 sweep: slope={fit.slope:.8f} +/- {fit.ci95:.2e}")
        assert abs(fit.slope - 1.0) <= max(fit.ci95, 1e-6)

    def test_deterministic(self):
        box = DomainBox(1.0, 1.0, 32, 32)
        a = scale_invariant_sweep(box, [1e-3, 5e-3, 2e-2, 1e-1])
        b = scale_invariant_sweep(box, [1e-3, 5e-3, 2e-2, 1e-1])
        assert a.slope == b.slope and a.intercept == b.intercept
        assert np.array_equal(a.rates, b.rates)

    def test_parallel_matches_serial(self, monkeypatch):
        # the pool size follows _cpu_count, and no size may change a bit
        from anisodiff import particles

        box = DomainBox(1.0, 1.0, 32, 32)
        fits = []
        for workers in (1, 2, 5):
            monkeypatch.setattr(particles, "_cpu_count", lambda w=workers: w)
            fits.append(scale_invariant_sweep(box, [1e-3, 5e-3, 2e-2, 1e-1]))
        for fit in fits[1:]:
            assert np.array_equal(fit.rates, fits[0].rates)
            assert np.array_equal(fit.rate_stderrs, fits[0].rate_stderrs)
            assert fit.slope == fits[0].slope

    def test_pool_never_larger_than_sweep(self, monkeypatch):
        from anisodiff import analysis, particles

        monkeypatch.setattr(analysis, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(particles, "_cpu_count", lambda: 64)
        monkeypatch.setattr(InlinePool, "sizes", [])
        box = DomainBox(1.0, 1.0, 32, 32)
        fit = scale_invariant_sweep(box, [1e-3, 5e-3, 2e-2, 1e-1])
        assert InlinePool.sizes == [4]
        assert abs(fit.slope - 1.0) <= max(fit.ci95, 1e-6)

    def test_all_failing_aborts_with_causes(self):
        box = DomainBox(1.0, 1.0, 32, 32)
        rho = fourier_mode(box, 1, 1)
        # t_end far too short for any kappa to decay below 90%: the first
        # kappa's failure is the sweep's
        cfg = SolverConfig(kappa=1e-3, dt=1e-3, t_end=0.01, record_every=1)
        with pytest.raises(InsufficientDecayError, match=r"^sweep: kappa=0\.001: fit: "):
            sweep_and_fit([1e-3, 2e-3, 5e-3, 1e-2], rho, VelocityField("zero"), cfg)

    def test_one_failed_kappa_fails_the_sweep(self):
        box = DomainBox(1.0, 1.0, 32, 32)
        rho = fourier_mode(box, 1, 1)
        kappas = [1e-3, 5e-3, 2e-2, 5e-2, 1e-1]
        cfg = SolverConfig(kappa=1e-3, dt=1e-2, t_end=1.0, record_every=1)
        dts = [4e-4 / k for k in kappas]
        # first kappa gets a t_end too short to decay; the other four fit
        t_ends = [0.4] + [0.07 / k for k in kappas[1:]]
        with pytest.raises(InsufficientDecayError, match=r"^sweep: kappa=0\.001: "):
            sweep_and_fit(kappas, rho, VelocityField("zero"), cfg,
                          dts=dts, t_ends=t_ends)

    def test_instability_keeps_its_time(self, monkeypatch):
        from anisodiff import analysis
        from anisodiff import solver as solver_mod

        # the kappa = 2e-2 run grows 1.01x a step; the others run as usual
        step_map = solver_mod._step_map
        monkeypatch.setattr(solver_mod, "_step_map", lambda box, velocity, cfg: (
            growing_step_map if cfg.kappa == 2e-2 else step_map)(box, velocity, cfg))
        monkeypatch.setattr(analysis, "ProcessPoolExecutor", InlinePool)
        box = DomainBox(1.0, 1.0, 32, 32)
        rho = fourier_mode(box, 1, 1)
        cfg = SolverConfig(kappa=1e-3, dt=1e-2, t_end=1.0, record_every=1)
        with pytest.raises(InstabilityError) as direct:
            run(rho, VelocityField("zero"), replace(cfg, kappa=2e-2, dt=0.02, t_end=3.5))
        with pytest.raises(InstabilityError, match=r"^sweep: kappa=0\.02: ") as err:
            sweep_and_fit([1e-3, 5e-3, 2e-2, 1e-1], rho, VelocityField("zero"), cfg,
                          dts=[0.4, 0.08, 0.02, 0.004], t_ends=[70.0, 14.0, 3.5, 0.7])
        assert err.value.time is not None
        assert err.value.time == direct.value.time
        # the sweep's workers hand the error back pickled
        assert pickle.loads(pickle.dumps(err.value)).time == err.value.time

    def test_csv_columns(self):
        box = DomainBox(1.0, 1.0, 32, 32)
        fit = scale_invariant_sweep(box, [1e-3, 5e-3, 2e-2, 1e-1])
        lines = fit.to_csv().strip().splitlines()
        assert lines[0] == "kappa,rate,rate_stderr,fit_r2"
        assert len(lines) == 5


class TestFdrCheck:
    def test_zero_kappa_both_sides_zero(self, box64, params23):
        rho = fourier_mode(box64, 1, 1)
        vel = make_velocity(params23, 0.5, 1e-3)
        cfg = SolverConfig(kappa=0.0, dt=0.01, t_end=0.5, record_every=1)
        res = fdr_check(rho, vel, cfg, times=[0.5], n=100, ds=0.01, seed=3)[0]
        assert res.lhs == 0.0
        assert res.rhs == 0.0
        assert np.isnan(res.ratio)

    def test_checkpoint_off_solver_grid_rejected(self, box64):
        # t = 1.0 is 333.33 steps of 3e-3: the PDE side would stop at 0.999
        # (cfg's own t_end, 0.999, is whole: the checkpoint is what fails)
        rho = fourier_mode(box64, 1, 1)
        cfg = SolverConfig(kappa=0.05, dt=3e-3, t_end=0.999, record_every=10)
        with pytest.raises(ConfigError, match="whole number of solver steps"):
            fdr_check(rho, VelocityField("zero"), cfg, times=[1.0], n=100, ds=0.01, seed=3)

    def test_checkpoint_off_record_stride_rejected(self, box64):
        # 0.25 is 25 steps of 0.01: no sample of a record_every = 10 run
        rho = fourier_mode(box64, 1, 1)
        cfg = SolverConfig(kappa=0.05, dt=0.01, t_end=0.5, record_every=10)
        with pytest.raises(ConfigError, match="particles.times: checkpoint 0.25"):
            fdr_check(rho, VelocityField("zero"), cfg, times=[0.25, 0.5], n=10, ds=0.01,
                      seed=3)

    def test_repeated_checkpoint_rejected(self):
        # two rows at one t would come from two substreams: one lhs, two rhs
        with pytest.raises(ConfigError, match="particles.times: checkpoints must be"):
            check_checkpoint([0.5, 0.25, 0.5], dt=0.01, record_every=1)

    @pytest.mark.parametrize("times", [[1.0, 0.5], [0.5, 0.95]])
    def test_one_run_matches_a_run_per_checkpoint(self, params23, times):
        # 0.95 is off the record stride, allowed as the last checkpoint:
        # the run ends there, and the final step is always recorded
        box = DomainBox(1.0, 1.0, 32, 32)
        rho = fourier_mode(box, 1, 1)
        vel = make_velocity(params23, 0.5, 1e-3)
        cfg = SolverConfig(kappa=0.05, dt=0.01, t_end=max(times), record_every=10)
        results = fdr_check(rho, vel, cfg, times=times, n=4, ds=0.05, seed=3,
                            launch_box=DomainBox(1.0, 1.0, 8, 8))
        assert [r.t for r in results] == sorted(times)
        for res in results:
            series = run(rho, vel, SolverConfig(kappa=0.05, dt=0.01, t_end=res.t,
                                                record_every=10))
            assert res.lhs == float(series.dissipation[-1])

    def test_diffusion_only_ratio_near_half(self, box64):
        # analytic: rhs = ||rho0||^2 - ||rho(t)||^2 = 2 lhs for u = 0
        rho = fourier_mode(box64, 1, 1)
        launch = DomainBox(1.0, 1.0, 16, 16)
        cfg = SolverConfig(kappa=0.05, dt=2e-3, t_end=0.5, record_every=10)
        res = fdr_check(rho, VelocityField("zero"), cfg, times=[0.5], n=1500, ds=5e-3,
                        seed=7, launch_box=launch)[0]
        print(f"\nfdr: lhs={res.lhs:.4f} rhs={res.rhs:.4f} ratio={res.ratio:.4f} "
              f"(rhs stderr {res.rhs_stderr:.4f})")
        assert res.ratio == pytest.approx(0.5, abs=0.05)
        assert res.rhs_stderr > 0


class TestExponentReport:
    def test_lists_both_exponents_and_flags_mismatch(self):
        par = AnisotropyParams(p=2, q=3)
        text = exponent_report(par)
        assert "6/7" in text
        assert "2/5" in text
        assert "MISMATCH" in text

    def test_includes_fit_when_given(self):
        fit = ExponentFit(kappas=np.array([1e-3, 1e-2, 1e-1, 1.0]),
                          rates=np.array([0.01, 0.1, 0.5, 2.0]),
                          rate_stderrs=np.zeros(4), fit_r2s=np.ones(4),
                          slope=0.699, intercept=0.0, ci95=0.012, loglog_r2=0.999)
        text = exponent_report(AnisotropyParams(p=2, q=3), fit)
        assert "0.699" in text
        assert "95% CI" in text

    def test_exponent_fit_invariants(self):
        with pytest.raises(ConfigError):
            ExponentFit(kappas=np.array([1e-2, 1e-1]), rates=np.array([0.1, 0.5]),
                        rate_stderrs=np.zeros(2), fit_r2s=np.ones(2),
                        slope=1.0, intercept=0.0, ci95=0.0, loglog_r2=1.0)
        with pytest.raises(ConfigError):
            DecayFit(rate=1.0, prefactor=1.0, window=(2.0, 1.0),
                     r_squared=1.0, rate_stderr=0.0)

    @pytest.mark.parametrize("p,q", [(2, 3), (3, 4), (4, 5)])
    def test_discrepancy_table(self, p, q):
        text = exponent_report(AnisotropyParams(p=p, q=q))
        theo = theoretical_exponent(p, q)
        alt = figure1_exponent(p, q)
        assert str(theo) in text
        assert str(alt) in text
        assert theo != alt

    def test_csv_companion(self):
        from anisodiff.analysis import exponent_report_csv
        text = exponent_report_csv(AnisotropyParams(p=2, q=3))
        lines = text.strip().splitlines()
        assert lines[0] == ("p,q,theoretical_exponent,figure_exponent,"
                            "slope,ci95,loglog_r2")
        vals = lines[1].split(",")
        assert vals[:2] == ["2.0", "3.0"]  # integer p, q still print as floats
        assert float(vals[2]) == pytest.approx(6 / 7, rel=1e-12)
        assert float(vals[3]) == pytest.approx(2 / 5, rel=1e-12)
        assert vals[4] == "nan"
