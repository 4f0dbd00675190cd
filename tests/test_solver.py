import numpy as np
import pytest

from anisodiff.domain import (AnisotropyParams, DomainBox, VelocityField,
                              make_velocity)
from anisodiff.errors import ConfigError, InstabilityError
from anisodiff.fields import (ScalarField, fourier_mode, l2_norm_sq,
                              mean_zero_project, random_fourier_sum, sample_many)
from anisodiff import solver as solver_mod
from anisodiff.solver import (DecaySeries, SolverConfig, check_cfl, run, step)

MODE_EIGENVALUE = 2.0 * np.pi ** 2  # |k|^2 of sin(pi x) sin(pi y) on [-1,1)^2


class TestConfigValidation:
    def test_positive_fields(self):
        with pytest.raises(ConfigError):
            SolverConfig(kappa=-1, dt=1e-3, t_end=1.0)
        with pytest.raises(ConfigError):
            SolverConfig(kappa=0.1, dt=0.0, t_end=1.0)
        with pytest.raises(ConfigError):
            SolverConfig(kappa=0.1, dt=1e-3, t_end=-2.0)

    def test_unknown_scheme(self):
        with pytest.raises(ConfigError):
            SolverConfig(kappa=0.1, dt=1e-3, t_end=1.0, scheme="magic")

    def test_record_every_bounds(self):
        with pytest.raises(ConfigError):
            SolverConfig(kappa=0.1, dt=1e-3, t_end=1.0, record_every=0)
        with pytest.raises(ConfigError):
            SolverConfig(kappa=0.1, dt=0.5, t_end=1.0, record_every=3)

    def test_cfl_enforced_for_upwind(self, box64, params23):
        vel = make_velocity(params23, 1.0, 1e-3)
        # dt far beyond 0.9 * min(h^2 / 4 kappa, h / max|u|)
        cfg = SolverConfig(kappa=0.05, dt=0.05, t_end=1.0, scheme="upwind")
        with pytest.raises(ConfigError):
            check_cfl(cfg, vel, box64)
        rho = fourier_mode(box64)
        with pytest.raises(ConfigError):
            run(rho, vel, cfg)

    def test_cfl_no_bound_for_semi_lagrangian(self, box64, params23):
        vel = make_velocity(params23, 1.0, 1e-3)
        cfg = SolverConfig(kappa=0.05, dt=0.5, t_end=1.0, record_every=1)
        check_cfl(cfg, vel, box64)  # no error


class TestDiffusionStep:
    def test_zero_field_stays_zero(self, box64):
        cfg = SolverConfig(kappa=0.1, dt=1e-2, t_end=1.0)
        zero = mean_zero_project(ScalarField(box64, np.zeros((64, 64))))
        out = step(zero, VelocityField.zero(), cfg)
        assert np.all(out.values == 0.0)

    @pytest.mark.parametrize("kappa,dt", [(0.5, 0.1), (0.01, 1e-3)])
    def test_cn_factor_close_to_heat_kernel(self, box64, kappa, dt):
        # one mode: CN multiplies by (1 - a/2)/(1 + a/2), a = kappa |k|^2 dt,
        # which matches exp(-a) to O(a^3)
        rho = fourier_mode(box64, 1, 1)
        cfg = SolverConfig(kappa=kappa, dt=dt, t_end=1.0)
        out = step(rho, VelocityField.zero(), cfg)
        a = kappa * MODE_EIGENVALUE * dt
        measured = out.values[10, 20] / rho.values[10, 20]
        cn = (1 - a / 2) / (1 + a / 2)
        assert measured == pytest.approx(cn, abs=1e-12)
        assert abs(measured - np.exp(-a)) <= a ** 3

    def test_cn_third_order_step_error(self, box64):
        # small a = kappa |k|^2 dt so the O(a^3) term dominates the defect
        rho = fourier_mode(box64, 1, 1)
        kappa = 0.05
        errs = []
        for dt in (0.2, 0.1, 0.05):
            cfg = SolverConfig(kappa=kappa, dt=dt, t_end=1.0, record_every=1)
            out = step(rho, VelocityField.zero(), cfg)
            a = kappa * MODE_EIGENVALUE * dt
            errs.append(abs(out.values[5, 7] / rho.values[5, 7] - np.exp(-a)))
        assert errs[0] / errs[1] == pytest.approx(8.0, rel=0.25)
        assert errs[1] / errs[2] == pytest.approx(8.0, rel=0.25)

    def test_requires_mean_zero(self, box64):
        cfg = SolverConfig(kappa=0.1, dt=1e-2, t_end=1.0)
        raw = ScalarField(box64, np.ones((64, 64)))
        with pytest.raises(ConfigError):
            step(raw, VelocityField.zero(), cfg)


class TestSemiLagrangianAdvection:
    def test_rigid_translation_integer_cells(self, box64):
        # kappa = 0, constant u, displacement exactly (2, 1) cells: the
        # backward characteristic lands on grid nodes, so the step is a roll
        rho = random_fourier_sum(box64, 3, seed=2)
        dt = 0.1
        cx = 2 * box64.hx / dt
        cy = 1 * box64.hy / dt
        cfg = SolverConfig(kappa=0.0, dt=dt, t_end=1.0)
        out = step(rho, VelocityField.of_constant(cx, cy), cfg)
        assert np.allclose(out.values, np.roll(rho.values, (2, 1), axis=(0, 1)),
                           atol=1e-12)
        assert l2_norm_sq(out) == pytest.approx(l2_norm_sq(rho), rel=1e-12)

    def test_generic_translation_small_loss(self, box64):
        rho = fourier_mode(box64, 1, 1)
        cfg = SolverConfig(kappa=0.0, dt=0.1, t_end=1.0)
        out = step(rho, VelocityField.of_constant(0.37 * box64.hx / 0.1, 0.0), cfg)
        ratio = l2_norm_sq(out) / l2_norm_sq(rho)
        assert 0.995 <= ratio <= 1.0 + 1e-12

    def test_advection_alone_preserves_norm(self, params23):
        # stream-function stirring without diffusion: semi-Lagrangian
        # dissipation stays under 2% per unit time at default resolution
        box = DomainBox(1.0, 1.0, 128, 128)
        rho = fourier_mode(box, 1, 1)
        vel = make_velocity(params23, 0.5, 1e-3)
        cfg = SolverConfig(kappa=0.0, dt=0.1, t_end=1.0, record_every=1)
        series = run(rho, vel, cfg)
        loss = 1.0 - series.norms_sq[-1] / series.norms_sq[0]
        print(f"\nadvection-only norm loss over t=1: {loss * 100:.2f}%")
        assert loss < 0.02


class TestSemiLagrangianStep:
    """solver.step follows the documented midpoint rule bit for bit."""

    @staticmethod
    def reference_step(f, vel, kappa, dt):
        box = f.box
        xg, yg = box.grid()
        ux, uy = vel.velocity(xg, yg)
        xm = box.wrap_x(xg - 0.5 * dt * ux)
        ym = box.wrap_y(yg - 0.5 * dt * uy)
        uxm, uym = vel.velocity(xm, ym)
        vals = sample_many(f, box.wrap_x(xg - dt * uxm), box.wrap_y(yg - dt * uym))
        kx = 2.0 * np.pi * np.fft.fftfreq(box.nx, d=box.hx)
        ky = 2.0 * np.pi * np.fft.rfftfreq(box.ny, d=box.hy)
        a = 0.5 * kappa * dt * (kx[:, None] ** 2 + ky[None, :] ** 2)
        vh = np.fft.rfft2(vals)
        vh *= (1.0 - a) / (1.0 + a)
        return mean_zero_project(ScalarField(box, np.fft.irfft2(vh, s=vals.shape)))

    @pytest.mark.parametrize("box", [DomainBox(1.0, 1.0, 64, 64),
                                     DomainBox(0.7, 0.7, 24, 24)],
                             ids=["64sq", "nondyadic24"])
    def test_stream_step_matches_midpoint_rule(self, box, params23):
        rho = random_fourier_sum(box, 3, seed=4)
        vel = make_velocity(params23, 1.0, 1e-3)
        cfg = SolverConfig(kappa=0.01, dt=0.05, t_end=1.0)
        out = step(rho, vel, cfg)
        ref = self.reference_step(rho, vel, cfg.kappa, cfg.dt)
        assert np.array_equal(out.values, ref.values)


class TestRun:
    def test_heat_decay_against_analytic(self, box128):
        rho = fourier_mode(box128, 1, 1)
        cfg = SolverConfig(kappa=0.01, dt=1e-3, t_end=1.0, record_every=10)
        series = run(rho, VelocityField.zero(), cfg)
        expect = np.exp(-2 * 0.01 * MODE_EIGENVALUE * series.times)
        assert np.max(np.abs(series.norms_sq / series.norms_sq[0] - expect)) < 1e-2

    def test_series_starts_at_initial_norm(self, box64):
        rho = fourier_mode(box64, 1, 1)
        cfg = SolverConfig(kappa=0.05, dt=1e-2, t_end=0.5, record_every=5)
        series = run(rho, VelocityField.zero(), cfg)
        assert series.times[0] == 0.0
        assert series.norms_sq[0] == pytest.approx(l2_norm_sq(rho), rel=1e-14)
        assert series.dissipation[0] == 0.0

    def test_final_step_recorded(self, box64):
        rho = fourier_mode(box64, 1, 1)
        cfg = SolverConfig(kappa=0.05, dt=1e-2, t_end=0.25, record_every=7)
        series = run(rho, VelocityField.zero(), cfg)
        assert series.times[-1] == pytest.approx(0.25)
        # interior samples spaced record_every * dt
        assert np.allclose(np.diff(series.times[:-1]), 0.07)

    def test_norms_non_increasing(self, box64, params23):
        rho = random_fourier_sum(box64, 3, seed=3)
        vel = make_velocity(params23, 0.5, 1e-3)
        cfg = SolverConfig(kappa=0.02, dt=0.02, t_end=1.0, record_every=1)
        series = run(rho, vel, cfg)
        assert np.all(np.diff(series.norms_sq) <= 1e-12 * series.norms_sq[0])

    def test_mean_preserved_along_run(self, box64, params23):
        vel = make_velocity(params23, 1.0, 1e-3)
        cfg = SolverConfig(kappa=0.01, dt=0.02, t_end=1.0)
        f = random_fourier_sum(box64, 2, seed=5)
        for _ in range(20):
            f = step(f, vel, cfg)
            assert abs(np.mean(f.values)) <= 1e-10 * np.max(np.abs(f.values))
        series = run(random_fourier_sum(box64, 2, seed=5), vel, cfg)
        final = series.final_state
        assert abs(np.mean(final.values)) <= 1e-10 * np.max(np.abs(final.values))

    def test_requires_mean_zero_input(self, box64):
        cfg = SolverConfig(kappa=0.1, dt=1e-2, t_end=0.1)
        with pytest.raises(ConfigError):
            run(ScalarField(box64, np.ones((64, 64))), VelocityField.zero(), cfg)


class TestEnergyIdentity:
    """(||rho0||^2 - ||rho(t)||^2) / 2 = kappa * integral ||grad rho||^2 ds."""

    def _identity_error(self, series):
        lhs = 0.5 * (series.norms_sq[0] - series.norms_sq[-1])
        rhs = series.dissipation[-1]
        return abs(lhs / rhs - 1.0)

    def test_pure_diffusion(self, box128):
        rho = fourier_mode(box128, 1, 1)
        cfg = SolverConfig(kappa=0.01, dt=1e-3, t_end=1.0, record_every=10)
        err = self._identity_error(run(rho, VelocityField.zero(), cfg))
        print(f"\nenergy identity (u=0) rel error: {err:.2e}")
        assert err < 1e-2

    def test_stream_function_field(self, box128, params23):
        rho = fourier_mode(box128, 1, 1)
        vel = make_velocity(params23, 0.1, 1e-3)
        cfg = SolverConfig(kappa=0.05, dt=1e-3, t_end=1.0, record_every=10)
        err = self._identity_error(run(rho, vel, cfg))
        print(f"\nenergy identity (stream field) rel error: {err:.2e}")
        assert err < 1e-2


class TestRefinement:
    def test_halving_h_and_dt_cuts_error(self):
        # against the exact heat solution; expect >= 3x (second order)
        kappa, t_end = 0.05, 0.2
        errs = []
        for n, dt in ((32, 2e-3), (64, 1e-3)):
            box = DomainBox(1.0, 1.0, n, n)
            rho = fourier_mode(box, 1, 1)
            cfg = SolverConfig(kappa=kappa, dt=dt, t_end=t_end, record_every=10)
            series = run(rho, VelocityField.zero(), cfg)
            exact = np.exp(-2 * kappa * MODE_EIGENVALUE * t_end) * series.norms_sq[0]
            errs.append(abs(series.norms_sq[-1] - exact))
        print(f"\nrefinement errors: {errs[0]:.3e} -> {errs[1]:.3e} "
              f"(ratio {errs[0] / errs[1]:.2f})")
        assert errs[0] / errs[1] >= 3.0


class TestUpwindBackend:
    def test_heat_decay(self, box64):
        rho = fourier_mode(box64, 1, 1)
        cfg = SolverConfig(kappa=0.01, dt=0.02, t_end=1.0, scheme="upwind",
                           record_every=5)
        series = run(rho, VelocityField.zero(), cfg)
        rate = np.log(series.norms_sq[0] / series.norms_sq[-1]) / series.times[-1]
        assert rate == pytest.approx(2 * 0.01 * MODE_EIGENVALUE, rel=2e-2)

    def test_cross_check_against_semi_lagrangian(self, box64, params23):
        # upwind adds numerical diffusion ~ |u| h / 2, so expect agreement
        # only at the tens-of-percent level on the decay factor
        rho = fourier_mode(box64, 1, 1)
        vel = make_velocity(params23, 0.3, 1e-3)
        t_end = 0.3
        up = run(rho, vel, SolverConfig(kappa=0.05, dt=4e-3, t_end=t_end,
                                        scheme="upwind", record_every=5))
        sl = run(rho, vel, SolverConfig(kappa=0.05, dt=4e-3, t_end=t_end,
                                        record_every=5))
        assert up.norms_sq[-1] == pytest.approx(sl.norms_sq[-1], rel=0.25)
        assert up.norms_sq[-1] < sl.norms_sq[-1]  # extra dissipation


class TestInstability:
    def test_one_step_breaker(self, box64):
        # deliberately violate the CFL precondition by calling step directly
        rho = fourier_mode(box64, 4, 4)
        cfg = SolverConfig(kappa=10.0, dt=0.01, t_end=1.0, scheme="upwind")
        with pytest.raises(InstabilityError):
            f = rho
            for _ in range(50):
                f = step(f, VelocityField.zero(), cfg)

    def test_run_reports_time_of_failure(self):
        # both CFL bounds individually respected, but their sum is unstable:
        # the circuit breaker must catch the compound blow-up mid-run
        box = DomainBox(1.0, 1.0, 32, 32)
        kappa = 0.05
        h = box.hx
        c = 4 * kappa / h  # makes the two bounds equal
        dt = 0.9 * h * h / (4 * kappa)
        cfg = SolverConfig(kappa=kappa, dt=dt, t_end=200 * dt, scheme="upwind",
                           record_every=1)
        vel = VelocityField.of_constant(c, c)
        check_cfl(cfg, vel, box)  # sanity: passes the stated precondition
        rho = fourier_mode(box, 4, 4)
        with pytest.raises(InstabilityError) as err:
            run(rho, vel, cfg)
        assert err.value.time is not None and err.value.time > 0


class GrowingStepper:
    """Multiplies the field by 1.01 per step: below the one-step breaker."""

    def step_values(self, f):
        return 1.01 * f.values


class TestEnergyGrowth:
    """A rising energy series is a numerical failure, not a config error."""

    def test_run_raises_instability(self, box64, monkeypatch):
        monkeypatch.setattr(solver_mod, "_make_stepper", lambda *a: GrowingStepper())
        cfg = SolverConfig(kappa=0.01, dt=0.01, t_end=0.5, record_every=5)
        with pytest.raises(InstabilityError) as err:
            run(fourier_mode(box64, 1, 1), VelocityField.zero(), cfg)
        assert err.value.time == pytest.approx(0.05)


class TestDecaySeries:
    def test_monotonicity_validated(self):
        with pytest.raises(ConfigError):
            DecaySeries(np.array([0.0, 1.0, 2.0]),
                        np.array([1.0, 0.5, 0.7]),
                        np.array([0.0, 0.1, 0.2]))

    def test_negative_energy_rejected(self):
        with pytest.raises(ConfigError):
            DecaySeries(np.array([0.0, 1.0]), np.array([1.0, -0.1]),
                        np.array([0.0, 0.1]))

    def test_times_strictly_increasing(self):
        with pytest.raises(ConfigError):
            DecaySeries(np.array([0.0, 1.0, 1.0]), np.array([1.0, 0.5, 0.4]),
                        np.array([0.0, 0.1, 0.2]))

    def test_csv_format(self, box64):
        rho = fourier_mode(box64, 1, 1)
        cfg = SolverConfig(kappa=0.05, dt=1e-2, t_end=0.2, record_every=5)
        text = run(rho, VelocityField.zero(), cfg).to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "t,norm_sq,dissipation"
        assert lines[1].startswith("0.0,")
        assert len(lines) == 1 + 5  # t=0 plus 4 records
