import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisodiff.domain import (AnisotropyParams, DomainBox, VelocityField,
                              _wrap_in_place, divergence_residual, make_velocity,
                              profile)
from anisodiff.config import load_config
from anisodiff.errors import ConfigError
from conftest import ConstantFlow


class TestScalingFunctions:
    """profile(s, m, eps) = (s^2 + eps^2)^(m/2): f with m = p, g with m = q."""

    def test_integer_exponent(self):
        assert profile(2.0, 2, 0.0) == 4.0
        assert profile(-2.0, 3, 0.0) == 8.0

    def test_zero_at_origin(self):
        assert profile(0.0, 3, 0.0) == 0.0
        assert profile(0.5, 1, 0.0) == 0.5

    def test_regularized_values(self):
        # (1 + 1)^(m/2) evaluated directly
        assert profile(1.0, 2, 1.0) == pytest.approx(2.0)
        assert profile(1.0, 4, 1.0) == pytest.approx(4.0)

    @settings(max_examples=50, deadline=None)
    @given(x=st.floats(-10, 10), m=st.floats(0.5, 5), eps=st.floats(0, 1))
    def test_even_symmetry(self, x, m, eps):
        assert profile(x, m, eps) == profile(-x, m, eps)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ConfigError):
            profile(1.0, 2, -0.1)

    def test_epsilon_continuity(self):
        # pointwise convergence to |x|^m away from the origin
        x = 0.7
        exact = abs(x) ** 1.5
        errors = [abs(profile(x, 1.5, eps) - exact)
                  for eps in (1e-1, 1e-2, 1e-3, 1e-4)]
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] < 1e-7

    def test_vectorized(self):
        x = np.array([-2.0, 0.0, 3.0])
        assert np.allclose(profile(x, 2, 0.0), [4.0, 0.0, 9.0])


class TestParamValidation:
    @pytest.mark.parametrize("kw", [dict(p=0), dict(p=-1), dict(q=0),
                                    dict(p=float("inf")), dict(q=float("nan"))])
    def test_positive_required(self, kw):
        base = dict(p=1.0, q=1.0)
        base.update(kw)
        with pytest.raises(ConfigError):
            AnisotropyParams(**base)

    @pytest.mark.parametrize("nx,ny", [(7, 8), (8, 9), (6, 6), (0, 8)])
    def test_grid_must_be_even_and_large_enough(self, nx, ny):
        with pytest.raises(ConfigError):
            DomainBox(1.0, 1.0, nx, ny)

    def test_box_widths_positive(self):
        with pytest.raises(ConfigError):
            DomainBox(0.0, 1.0, 8, 8)

    def test_wrap(self):
        box = DomainBox(1.0, 1.0, 8, 8)
        assert box.wrap_x(1.0) == -1.0
        assert box.wrap_x(-1.0) == -1.0
        assert box.wrap_x(2.5) == pytest.approx(0.5)
        assert box.wrap_y(-1.25) == pytest.approx(0.75)


def mod_wrap(s, half):
    """The wrap reference: numpy's floored remainder."""
    return np.mod(np.asarray(s) + half, 2.0 * half) - half


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestWrapBits:
    """wrap_x and wrap_y give the bits of mod_wrap, on the fold and off it."""

    @pytest.mark.parametrize("half", [1.0, 0.7])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_mod_within_five_periods(self, half, data):
        reach = data.draw(st.sampled_from([3.0, 10.0])) * half
        s = np.array(data.draw(st.lists(st.floats(-reach, reach), min_size=1,
                                        max_size=50)))
        box = DomainBox(half, half, 8, 8)
        assert_same_bits(box.wrap_x(s), mod_wrap(s, half))
        assert_same_bits(box.wrap_y(s), mod_wrap(s, half))

    @pytest.mark.parametrize("half", [1.0, 0.7, 1.0 / 3.0, 2.5, 1e-3])
    def test_edge_values(self, half):
        box = DomainBox(half, 2.0 * half, 8, 8)
        with np.errstate(invalid="ignore"):     # np.mod of inf
            for s in wrap_edge_cases(half):
                assert_same_bits(box.wrap_x(s), mod_wrap(s, box.half_width_x))
                assert_same_bits(box.wrap_y(s), mod_wrap(s, box.half_width_y))

    @pytest.mark.parametrize("half", [1.0, 0.7, 1.0 / 3.0, 2.5, 1e-3])
    def test_in_place_fold_matches_wrap(self, half):
        # the core the particle step folds its own arrays with: same bits as
        # wrap_x, in the array it was given
        box = DomainBox(half, half, 8, 8)
        with np.errstate(invalid="ignore"):
            for s in wrap_edge_cases(half):
                owned = np.array(s, dtype=float)
                got = _wrap_in_place(owned, half)
                assert got is owned
                assert_same_bits(got, box.wrap_x(s))
                assert_same_bits(got, mod_wrap(s, half))

    @pytest.mark.parametrize("half", [1.0, 0.7, 1.0 / 3.0, 2.5, 1e-3])
    def test_in_place_fold_keeps_float32(self, half):
        # a float32 array is folded in float32: numpy's float32 remainder,
        # with half and the period rounded to float32, bit for bit
        with np.errstate(invalid="ignore", over="ignore"):
            for s in wrap_edge_cases(half):
                s32 = np.array(s, dtype=np.float32)
                for t in (s32, np.nextafter(s32, np.float32(np.inf)),
                          np.nextafter(s32, np.float32(-np.inf))):
                    t = np.array(t, dtype=np.float32)     # nextafter of 0-d gives a scalar
                    want = mod_wrap(t, half)
                    got = _wrap_in_place(t.copy(), half)
                    assert_same_bits(got, want)
                    assert got.dtype == np.float32


def wrap_edge_cases(half):
    """Inputs on both paths of the fold: within one period of the box, and
    NaN, inf, 0-d and empty inputs, which take numpy's remainder."""
    edges = []
    for v in (half, -half, 3.0 * half, -3.0 * half):
        edges += [v, np.nextafter(v, np.inf), np.nextafter(v, -np.inf)]
    edges = np.array(edges + [0.0, -0.0, 1e-300, -1e-300])
    # [half, -half]: t = period is the only point the fold's subtraction moves
    return [edges, edges.reshape(4, 4), np.array([half, -half]), np.append(edges, np.nan),
            np.append(edges, np.inf), np.append(edges, -np.inf),
            np.array([]), np.array(-0.0), np.array(half), half, -half, 0.25]


def slope(s, m, eps):
    """d/ds profile(s, m, eps) = m * s * profile(s, m - 2, eps), unfused, pinned
    to 0 on the axis when eps = 0 and m < 2."""
    s = np.asarray(s, dtype=float)
    if eps == 0.0 and m < 2.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(s == 0.0, 0.0, m * s * profile(s, m - 2, eps))
    return m * s * profile(s, m - 2, eps)


# exponents m whose half m/2 and m/2 - 1 reach every path of _pow_half:
# 1, 3/2 and the ** operator, which takes half 0 (slope's profile(s, 0, eps)
# at m = 2) and gives 1.0 for every base
EXPONENTS = [1, 2, 3, 4, 5, 2.5]


class TestFusedVelocityBits:
    """VelocityField.velocity gives the bits of the unfused formulas
    a f(x) g'(y) and -a f'(x) g(y), each factor evaluated on its own."""

    @staticmethod
    def points():
        rng = np.random.default_rng(8)
        s = np.concatenate([rng.uniform(-1.0, 1.0, 40), [0.0, -0.0, 1e-3, -1.0, 0.5]])
        xg, yg = np.meshgrid(s, s[::-1], indexing="ij")   # includes both axes
        return [(xg, yg), (s[:, None], s[None, ::-1]), (np.array(0.0), np.array(0.7)),
                (0.3, -0.4), (np.arange(-2, 3)[:, None], np.arange(3)[None, ::-1])]

    @pytest.mark.parametrize("eps", [0.0, 1e-2])
    @pytest.mark.parametrize("q", EXPONENTS)
    @pytest.mark.parametrize("p", EXPONENTS)
    def test_stream(self, p, q, eps):
        a = 0.7
        vel = VelocityField("stream", AnisotropyParams(p=p, q=q), a, eps)
        for x, y in self.points():
            ux, uy = vel.velocity(x, y)
            assert_same_bits(ux, a * profile(x, p, eps) * slope(y, q, eps))
            assert_same_bits(uy, -a * slope(x, p, eps) * profile(y, q, eps))

    @pytest.mark.parametrize("eps", [0.0, 1e-2])
    @pytest.mark.parametrize("q", EXPONENTS)
    def test_shear(self, q, eps):
        a = 0.7
        vel = VelocityField("shear", AnisotropyParams(p=2, q=q), a, eps)
        for x, y in self.points():
            ux, uy = vel.velocity(x, y)
            assert_same_bits(ux, a * profile(y, q, eps))
            assert_same_bits(uy, np.zeros_like(np.asarray(y, dtype=float)))

    @pytest.mark.parametrize("eps", [0.0, 1e-2])
    def test_sqrt_and_square_exponents(self, eps):
        # the reference above goes through profile itself, so pin halves 1/2
        # and 2 to numpy's own sqrt and square here
        for point in self.points():
            for s in point:
                s = np.asarray(s, dtype=float)
                b = s * s + eps * eps
                assert_same_bits(profile(s, 1, eps), np.sqrt(b))
                assert_same_bits(profile(s, 4, eps), b * b)


class TestFloat32Velocity:
    """The particles' float32 steps: float32 coordinates give float32
    components, within float32 rounding of the float64 evaluation."""

    @pytest.mark.parametrize("eps", [0.0, 1e-2])
    @pytest.mark.parametrize("family, p, q", [("stream", 2, 3), ("stream", 1.5, 1),
                                              ("stream", 5, 2.5), ("shear", 2, 3),
                                              ("shear", 2, 1)])
    def test_float32_in_float32_out(self, family, p, q, eps):
        vel = VelocityField(family, AnisotropyParams(p=p, q=q), 0.7, eps)
        for x, y in TestFusedVelocityBits.points()[:2]:
            x32, y32 = x.astype(np.float32), y.astype(np.float32)
            got = vel.velocity(x32, y32)
            want = vel.velocity(x32.astype(float), y32.astype(float))
            for g, w in zip(got, want):
                assert g.dtype == np.float32 and g.shape == w.shape
                assert np.max(np.abs(g - w)) <= 1e-6 * max(np.max(np.abs(w)), 1.0)

    def test_zero_field_gives_float32_zeros(self):
        x = np.linspace(-1.0, 1.0, 5, dtype=np.float32)
        for u in VelocityField("zero").velocity(x, x[::-1]):
            assert_same_bits(u, np.zeros(5, dtype=np.float32))


class TestMakeVelocity:
    def test_zero_at_origin(self):
        vel = make_velocity(AnisotropyParams(p=2, q=3), 1.0, 0.0)
        ux, uy = vel.velocity(0.0, 0.0)
        assert ux == 0.0 and uy == 0.0

    def test_hand_value(self):
        # d/dy (|x|^2 |y|^3) at (1, 1) = 1 * 3 = 3; d/dx gives u_y = -2
        vel = make_velocity(AnisotropyParams(p=2, q=3), 1.0, 0.0)
        ux, uy = vel.velocity(1.0, 1.0)
        assert float(ux) == pytest.approx(3.0, abs=1e-14)
        assert float(uy) == pytest.approx(-2.0, abs=1e-14)

    def test_zero_amplitude_gives_zero_field(self):
        # a pure-diffusion run: no regularization is needed without a flow
        assert make_velocity(AnisotropyParams(p=2, q=3), 0.0, 1e-3).is_zero
        assert make_velocity(AnisotropyParams(p=0.5, q=3), 0.0, 0.0).is_zero

    def test_small_exponent_needs_regularization(self):
        with pytest.raises(ConfigError):
            make_velocity(AnisotropyParams(p=0.5, q=2), 1.0, 0.0)
        make_velocity(AnisotropyParams(p=0.5, q=2), 1.0, 1e-3)

    def test_regularized_field_finite_everywhere(self):
        vel = make_velocity(AnisotropyParams(p=0.5, q=0.75), 1.0, 1e-3)
        box = DomainBox(1.0, 1.0, 32, 32)
        ux, uy = vel.velocity(*box.grid())
        assert np.all(np.isfinite(ux)) and np.all(np.isfinite(uy))

    def test_stream_function_consistency(self):
        # u = (psi_y, -psi_x) checked against central differences of
        # psi = A * f(x) * g(y), with f and g the p and q profiles
        amp, p, q, eps = 0.7, 3, 2, 1e-2
        vel = make_velocity(AnisotropyParams(p=p, q=q), amp, eps)

        def psi(x, y):
            return amp * profile(x, p, eps) * profile(y, q, eps)

        x, y = 0.4, -0.6
        d = 1e-6
        psi_y = (psi(x, y + d) - psi(x, y - d)) / (2 * d)
        psi_x = (psi(x + d, y) - psi(x - d, y)) / (2 * d)
        ux, uy = vel.velocity(x, y)
        assert float(ux) == pytest.approx(psi_y, rel=1e-6)
        assert float(uy) == pytest.approx(-psi_x, rel=1e-6)


def stream_by_constructor(p, amplitude, epsilon):
    return VelocityField("stream", AnisotropyParams(p=p, q=3), amplitude, epsilon)


def stream_by_make_velocity(p, amplitude, epsilon):
    return make_velocity(AnisotropyParams(p=p, q=3), amplitude, epsilon)


def stream_by_config(p, amplitude, epsilon):
    return load_config(overrides=[f"domain.p={p}", f"domain.amplitude={amplitude}",
                                  f"domain.epsilon={epsilon}"]).velocity


@pytest.mark.parametrize("build", [stream_by_constructor, stream_by_make_velocity,
                                   stream_by_config])
def test_epsilon_rule_however_a_stream_flow_is_built(build):
    # p < 1 at epsilon = 0 makes u_y unbounded at the axis, unless there is no flow
    with pytest.raises(ConfigError, match="domain.epsilon: must be > 0 when p < 1"):
        build(0.5, 1.0, 0.0)
    assert build(0.5, 0.0, 0.0).is_zero
    assert not build(0.5, 1.0, 1e-3).is_zero


class TestDivergenceResidual:
    def test_constant_field_exact_zero(self):
        box = DomainBox(1.0, 1.0, 32, 32)
        vel = ConstantFlow(1.3, -0.4)
        assert divergence_residual(vel, box) == 0.0

    def test_shear_field_zero(self):
        par = AnisotropyParams(p=2, q=3)
        box = DomainBox(1.0, 1.0, 32, 32)
        # u_x depends only on y, so the x-difference vanishes identically
        assert divergence_residual(VelocityField("shear", par, 1.0), box) <= 1e-12

    def test_stream_field_second_order(self):
        vel = make_velocity(AnisotropyParams(p=2, q=3), 1.0, 1e-3)
        residuals = [divergence_residual(vel, DomainBox(1.0, 1.0, n, n))
                     for n in (64, 128, 256)]
        assert residuals[0] / residuals[1] == pytest.approx(4.0, rel=0.15)
        assert residuals[1] / residuals[2] == pytest.approx(4.0, rel=0.15)

    def test_stream_field_taylor_bound(self):
        # residual ~ (h^2/6)|f''' g' - f' g'''| <= 10 h^2 B with B the max
        # second-derivative magnitude of the velocity components on the box
        vel = make_velocity(AnisotropyParams(p=3, q=4), 1.0, 1e-3)
        box = DomainBox(1.0, 1.0, 64, 64)
        xg, yg = box.grid()
        d = 1e-4
        uxp, _ = vel.velocity(xg + d, yg)
        uxm, _ = vel.velocity(xg - d, yg)
        ux0, uy0 = vel.velocity(xg, yg)
        _, uyp = vel.velocity(xg, yg + d)
        _, uym = vel.velocity(xg, yg - d)
        b = max(np.max(np.abs(uxp - 2 * ux0 + uxm)) / d ** 2,
                np.max(np.abs(uyp - 2 * uy0 + uym)) / d ** 2)
        assert divergence_residual(vel, box) <= 10.0 * box.hx ** 2 * b


def test_max_speed(params23):
    vel = make_velocity(params23, 1.0, 0.0)
    box = DomainBox(1.0, 1.0, 64, 64)
    speed = vel.max_speed(box)
    # |u_x| = p q-profile product peaks near the box corner: f(x) g'(y) -> 3
    assert 2.0 < speed < 3.0


def test_immutability(params23):
    vel = make_velocity(params23, 1.0, 1e-3)
    with pytest.raises(AttributeError):
        vel.amplitude = 2.0
    box = DomainBox(1.0, 1.0, 16, 16)
    with pytest.raises(AttributeError):
        box.nx = 32
