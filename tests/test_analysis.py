from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisodiff.analysis import (DecayFit, ExponentFit, exponent_report,
                                fdr_check, figure1_curve, figure1_exponent,
                                figure2_surface, fit_decay, fit_power_law,
                                sweep_and_fit, theoretical_exponent)
from anisodiff.domain import AnisotropyParams, DomainBox, VelocityField, make_velocity
from anisodiff.errors import (ConfigError, FitWindowError,
                              InsufficientDecayError, SweepError)
from anisodiff.fields import fourier_mode
from anisodiff.solver import DecaySeries, SolverConfig


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


def scale_invariant_sweep(box, kappas, **kw):
    """u = 0 sweep where kappa * dt is constant, so the discrete decay is
    the same sequence at every kappa and the fitted slope is exactly 1."""
    rho = fourier_mode(box, 1, 1)
    cfg = SolverConfig(kappa=kappas[0], dt=1e-2, t_end=1.0, record_every=1)
    dts = [4e-4 / k for k in kappas]
    t_ends = [0.07 / k for k in kappas]
    return sweep_and_fit(kappas, rho, VelocityField.zero(), cfg,
                         params=AnisotropyParams(p=2, q=3),
                         dts=dts, t_ends=t_ends, **kw)


class TestSweepAndFit:
    def test_validation(self, box64):
        rho = fourier_mode(box64, 1, 1)
        cfg = SolverConfig(kappa=1e-2, dt=1e-2, t_end=1.0)
        vel = VelocityField.zero()
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
        assert fit.theoretical == pytest.approx(6 / 7)

    def test_deterministic(self):
        box = DomainBox(1.0, 1.0, 32, 32)
        a = scale_invariant_sweep(box, [1e-3, 5e-3, 2e-2, 1e-1])
        b = scale_invariant_sweep(box, [1e-3, 5e-3, 2e-2, 1e-1])
        assert a.slope == b.slope and a.intercept == b.intercept
        assert np.array_equal(a.rates, b.rates)

    def test_parallel_matches_serial(self):
        box = DomainBox(1.0, 1.0, 32, 32)
        a = scale_invariant_sweep(box, [1e-3, 5e-3, 2e-2, 1e-1])
        b = scale_invariant_sweep(box, [1e-3, 5e-3, 2e-2, 1e-1], n_jobs=2)
        assert np.array_equal(a.rates, b.rates)
        assert a.slope == b.slope

    def test_all_failing_aborts_with_causes(self):
        box = DomainBox(1.0, 1.0, 32, 32)
        rho = fourier_mode(box, 1, 1)
        # t_end far too short for any kappa to decay below 90%
        cfg = SolverConfig(kappa=1e-3, dt=1e-3, t_end=0.01, record_every=1)
        with pytest.raises(SweepError) as err:
            sweep_and_fit([1e-3, 2e-3, 5e-3, 1e-2], rho, VelocityField.zero(),
                          cfg, params=AnisotropyParams(p=2, q=3))
        assert len(err.value.failures) == 4

    def test_minority_failures_tolerated(self):
        box = DomainBox(1.0, 1.0, 32, 32)
        rho = fourier_mode(box, 1, 1)
        kappas = [1e-3, 5e-3, 2e-2, 5e-2, 1e-1]
        cfg = SolverConfig(kappa=1e-3, dt=1e-2, t_end=1.0, record_every=1)
        dts = [4e-4 / k for k in kappas]
        # first kappa gets a t_end too short to decay; the other four fit
        t_ends = [0.4] + [0.07 / k for k in kappas[1:]]
        fit = sweep_and_fit(kappas, rho, VelocityField.zero(), cfg,
                            params=AnisotropyParams(p=2, q=3),
                            dts=dts, t_ends=t_ends)
        assert fit.kappas.size == 4
        assert fit.kappas[0] == pytest.approx(5e-3)
        assert abs(fit.slope - 1.0) < 1e-5

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
        res = fdr_check(rho, vel, kappa=0.0, t=0.5, dt=0.01, n=100, ds=0.01,
                        seed=3, record_every=1)
        assert res.lhs == 0.0
        assert res.rhs == 0.0
        assert np.isnan(res.ratio)

    def test_checkpoint_off_solver_grid_rejected(self, box64):
        # t = 1.0 is 333.33 steps of 3e-3: the PDE side would stop at 0.999
        rho = fourier_mode(box64, 1, 1)
        with pytest.raises(ConfigError, match="whole number of solver steps"):
            fdr_check(rho, VelocityField.zero(), kappa=0.05, t=1.0, dt=3e-3,
                      n=100, ds=0.01, seed=3)

    def test_diffusion_only_ratio_near_half(self, box64):
        # analytic: rhs = ||rho0||^2 - ||rho(t)||^2 = 2 lhs for u = 0
        rho = fourier_mode(box64, 1, 1)
        launch = DomainBox(1.0, 1.0, 16, 16)
        res = fdr_check(rho, VelocityField.zero(), kappa=0.05, t=0.5, dt=2e-3,
                        n=1500, ds=5e-3, seed=7, launch_box=launch)
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
                          slope=0.699, intercept=0.0, ci95=0.012, loglog_r2=0.999,
                          theoretical=6 / 7)
        text = exponent_report(AnisotropyParams(p=2, q=3), fit)
        assert "0.699" in text
        assert "95% CI" in text

    def test_exponent_fit_invariants(self):
        with pytest.raises(ConfigError):
            ExponentFit(kappas=np.array([1e-2, 1e-1]), rates=np.array([0.1, 0.5]),
                        rate_stderrs=np.zeros(2), fit_r2s=np.ones(2),
                        slope=1.0, intercept=0.0, ci95=0.0, loglog_r2=1.0,
                        theoretical=None)
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
        assert float(vals[2]) == pytest.approx(6 / 7, rel=1e-12)
        assert float(vals[3]) == pytest.approx(2 / 5, rel=1e-12)
        assert vals[4] == "nan"
