import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisodiff.domain import DomainBox
from anisodiff.errors import ConfigError
from anisodiff.fields import (MEAN_ZERO_TOL, ScalarField, fourier_mode, fourier_sum,
                              grad_norm_sq, l2_norm_sq, mean_zero_project,
                              random_fourier_sum, sample_many, to_csv)


def spectral_gradient(f):
    """Exact derivatives of the trigonometric interpolant, the reference the
    centered-difference stencil is checked against.  The Nyquist mode is
    zeroed, as usual for odd derivatives of real data."""
    box = f.box
    kx = 2.0 * np.pi * np.fft.fftfreq(box.nx, d=box.hx)
    ky = 2.0 * np.pi * np.fft.rfftfreq(box.ny, d=box.hy)
    kx[box.nx // 2] = 0.0
    ky[-1] = 0.0
    fh = np.fft.rfft2(f.values)
    dx = np.fft.irfft2(1j * kx[:, None] * fh, s=f.values.shape)
    dy = np.fft.irfft2(1j * ky[None, :] * fh, s=f.values.shape)
    return dx, dy


def roll_gradient(f):
    """Centered differences with periodic wraparound from np.roll copies,
    the formula grad_norm_sq must reproduce bit for bit."""
    v = f.values
    dx = (np.roll(v, -1, axis=0) - np.roll(v, 1, axis=0)) / (2.0 * f.box.hx)
    dy = (np.roll(v, -1, axis=1) - np.roll(v, 1, axis=1)) / (2.0 * f.box.hy)
    return dx, dy


def spectral_grad_norm_sq(f):
    dx, dy = spectral_gradient(f)
    return float(np.sum(dx * dx + dy * dy) * f.box.hx * f.box.hy)


class TestL2Norm:
    def test_zero_field(self, box64):
        assert l2_norm_sq(ScalarField(box64, np.zeros((64, 64)))) == 0.0

    def test_sine_mode_unit_norm(self, box128):
        # integral of sin^2(pi x) sin^2(pi y) over [-1,1)^2 is exactly 1;
        # midpoint quadrature is exact for this trigonometric polynomial
        rho = fourier_mode(box128, 1, 1)
        assert l2_norm_sq(rho) == pytest.approx(1.0, abs=1e-12)

    def test_homogeneity(self, box64):
        rho = fourier_mode(box64, 2, 1)
        doubled = ScalarField(box64, 2.0 * rho.values)
        assert l2_norm_sq(doubled) == pytest.approx(4.0 * l2_norm_sq(rho), rel=1e-14)

    def test_translation_invariance(self, box64):
        rho = random_fourier_sum(box64, max_mode=3, seed=4)
        shifted = ScalarField(box64, np.roll(rho.values, (5, -11), axis=(0, 1)))
        assert l2_norm_sq(shifted) == pytest.approx(l2_norm_sq(rho), rel=1e-12)


class TestGradNorm:
    def test_constant_field(self, box64):
        f = ScalarField(box64, np.full((64, 64), 2.7))
        assert grad_norm_sq(f) == 0.0
        assert spectral_grad_norm_sq(f) == pytest.approx(0.0, abs=1e-22)

    def test_sine_mode_eigenvalue(self, box128):
        # |k|^2 = 2 pi^2 for the (1,1) mode on the side-2 box
        rho = fourier_mode(box128, 1, 1)
        assert spectral_grad_norm_sq(rho) == pytest.approx(
            2.0 * np.pi ** 2 * l2_norm_sq(rho), rel=1e-12)

    def test_difference_converges_to_spectral(self):
        errs = []
        for n in (32, 64, 128):
            box = DomainBox(1.0, 1.0, n, n)
            rho = fourier_mode(box, 1, 2)
            errs.append(abs(grad_norm_sq(rho) - spectral_grad_norm_sq(rho)))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.15)

    @pytest.mark.parametrize("mx,my", [(1, 1), (2, 3), (4, 4), (1, 4)])
    def test_eigenvalue_ratio_modes(self, box128, mx, my):
        rho = fourier_mode(box128, mx, my)
        k2 = np.pi ** 2 * (mx ** 2 + my ** 2)
        ratio = spectral_grad_norm_sq(rho) / l2_norm_sq(rho)
        assert ratio == pytest.approx(k2, rel=1e-2)
        # the difference stencil carries an O((kh)^2) factor
        ratio_d = grad_norm_sq(rho) / l2_norm_sq(rho)
        assert ratio_d == pytest.approx(k2, rel=2e-2)

    def test_positive_unless_zero(self, box64):
        rho = mean_zero_project(random_fourier_sum(box64, 2, seed=9))
        assert grad_norm_sq(rho) > 0.0

    @pytest.mark.parametrize("box", [
        DomainBox(1.0, 1.0, 8, 8), DomainBox(0.7, 1.3, 24, 16), DomainBox(1.5, 1.0, 16, 32),
        DomainBox(1.0, 1.0, 128, 128)], ids=["8sq", "24x16", "16x32", "128sq"])
    def test_same_bits_as_roll_formula(self, box):
        # same differences, divisions, squares, sum and scaling as np.roll's
        rng = np.random.default_rng(box.nx * box.ny)
        for scale in (1.0, 1e-7, 3e5):
            f = ScalarField(box, scale * rng.standard_normal((box.nx, box.ny)))
            dx, dy = roll_gradient(f)
            assert grad_norm_sq(f) == float(np.sum(dx * dx + dy * dy) * box.hx * box.hy)


class TestMeanZeroProject:
    def test_constant_becomes_zero(self, box64):
        f = ScalarField(box64, np.full((64, 64), 3.3))
        assert np.all(mean_zero_project(f).values == 0.0)

    def test_idempotent(self, box64):
        f = mean_zero_project(random_fourier_sum(box64, 3, seed=1))
        g = mean_zero_project(f)
        assert np.allclose(g.values, f.values, atol=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(c=st.floats(-100, 100))
    def test_shift_invariance(self, c):
        box = DomainBox(1.0, 1.0, 16, 16)
        rng = np.random.default_rng(7)
        vals = rng.standard_normal((16, 16))
        a = mean_zero_project(ScalarField(box, vals))
        b = mean_zero_project(ScalarField(box, vals + c))
        assert np.allclose(a.values, b.values, atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(offset=st.floats(-1e6, 1e6), seed=st.integers(0, 2 ** 32 - 1))
    def test_mean_within_tolerance_after_large_offset(self, offset, seed):
        box = DomainBox(0.7, 1.0, 24, 16)
        vals = np.random.default_rng(seed).standard_normal((24, 16)) + offset
        out = mean_zero_project(ScalarField(box, vals)).values
        assert abs(np.mean(out)) <= MEAN_ZERO_TOL * np.max(np.abs(out))

    def test_output_flagged_and_tight(self, box64):
        out = mean_zero_project(ScalarField(box64, np.random.default_rng(0)
                                            .standard_normal((64, 64)) + 5.0))
        assert abs(np.mean(out.values)) <= 1e-14 * np.max(np.abs(out.values))


def gather_sample(f, x, y):
    """Bilinear sampling as four gathers summed left to right: the
    reference sample_many must match bit for bit."""
    box = f.box
    sx = (np.asarray(x, dtype=float) - (-box.half_width_x + 0.5 * box.hx)) / box.hx
    sy = (np.asarray(y, dtype=float) - (-box.half_width_y + 0.5 * box.hy)) / box.hy
    i0 = np.floor(sx).astype(np.int64)
    j0 = np.floor(sy).astype(np.int64)
    wx, wy = sx - i0, sy - j0
    i0, j0 = i0 % box.nx, j0 % box.ny
    i1, j1 = (i0 + 1) % box.nx, (j0 + 1) % box.ny
    v = f.values
    return ((1.0 - wx) * (1.0 - wy) * v[i0, j0] + wx * (1.0 - wy) * v[i1, j0]
            + (1.0 - wx) * wy * v[i0, j1] + wx * wy * v[i1, j1])


class TestSample:
    def test_grid_node_exact(self, box64):
        rho = random_fourier_sum(box64, 2, seed=3)
        xs = box64.x_centers()
        ys = box64.y_centers()
        assert sample_many(rho, xs[10], ys[20]) == pytest.approx(rho.values[10, 20],
                                                                 abs=1e-14)

    def test_constant_everywhere(self, box64):
        f = ScalarField(box64, np.full((64, 64), 1.5))
        for x, y in [(0.0, 0.0), (0.3331, -0.77), (-0.999, 0.999)]:
            assert sample_many(f, x, y) == pytest.approx(1.5, abs=1e-14)

    def test_midpoint_is_average_of_two_nodes(self, box64):
        rho = random_fourier_sum(box64, 2, seed=5)
        xs = box64.x_centers()
        ys = box64.y_centers()
        mid_x = 0.5 * (xs[3] + xs[4])
        expect = 0.5 * (rho.values[3, 8] + rho.values[4, 8])
        assert sample_many(rho, mid_x, ys[8]) == pytest.approx(expect, abs=1e-14)

    def test_periodic_wraparound(self, box64):
        rho = random_fourier_sum(box64, 2, seed=6)
        xs = box64.x_centers()
        # one full period away lands on the same node
        assert sample_many(rho, xs[0] + 2.0, 0.1) == pytest.approx(
            sample_many(rho, xs[0], 0.1), abs=1e-13)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           pts=st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
                        min_size=1, max_size=20))
    def test_within_field_range(self, seed, pts):
        # bilinear weights are convex: a sample never leaves [min, max]
        box = DomainBox(0.7, 1.0, 24, 16)
        f = ScalarField(box, np.random.default_rng(seed).standard_normal((24, 16)))
        x, y = np.array(pts).T
        v = sample_many(f, x * 2 * box.half_width_x, y * 2 * box.half_width_y)
        slack = 4 * np.spacing(np.max(np.abs(f.values)))
        assert np.all(v >= f.values.min() - slack)
        assert np.all(v <= f.values.max() + slack)

    @pytest.mark.parametrize("box", [DomainBox(1.0, 1.0, 64, 64), DomainBox(0.7, 1.0, 24, 16)],
                             ids=["64sq", "rect24x16"])
    def test_matches_gather_reference(self, box):
        f = ScalarField(box, np.random.default_rng(2).standard_normal((box.nx, box.ny)))
        x, y = np.random.default_rng(3).uniform(-3.0, 3.0, size=(2, 50, 100))
        assert np.array_equal(sample_many(f, x, y), gather_sample(f, x, y))

    def test_vectorized_matches_scalar(self, box64):
        rho = random_fourier_sum(box64, 2, seed=8)
        pts = np.random.default_rng(1).uniform(-1, 1, size=(2, 40))
        vec = sample_many(rho, pts[0], pts[1])
        for i in range(40):
            assert vec[i] == pytest.approx(sample_many(rho, pts[0][i], pts[1][i]))


class TestConstructionAndCsv:
    def test_shape_mismatch_rejected(self, box64):
        with pytest.raises(ConfigError):
            ScalarField(box64, np.zeros((64, 32)))

    def test_csv_round_trip(self):
        # header, grid line nx,ny,Lx,Ly, then every value in row-major order
        box = DomainBox(1.5, 1.0, 16, 32)
        rho = random_fourier_sum(box, 2, seed=11)
        lines = to_csv(rho).splitlines()
        assert lines[:2] == ["nx,ny,Lx,Ly", "16,32,1.5,1.0"]
        back = np.array([float(v) for v in lines[2:]]).reshape(16, 32)
        assert np.array_equal(back, rho.values)


def test_gradients_agree_on_smooth_field(box128):
    rho = fourier_mode(box128, 2, 2)
    sx, sy = spectral_gradient(rho)
    dx, dy = roll_gradient(rho)
    # centered differences approximate within O(h^2) pointwise
    scale = np.max(np.abs(sx))
    assert np.max(np.abs(sx - dx)) < 5e-3 * scale
    assert np.max(np.abs(sy - dy)) < 5e-3 * scale


class TestFourierSum:
    def test_single_term_matches_mode(self, box64):
        a = fourier_sum(box64, [(1, 1, "ss", 1.0)])
        b = fourier_mode(box64, 1, 1)
        assert np.allclose(a.values, b.values, atol=1e-14)

    def test_mixed_terms_mean_zero(self, box64):
        f = fourier_sum(box64, [(1, 2, "sc", 0.5), (2, 1, "cc", -1.0),
                                (3, 3, "cs", 0.25)])
        assert abs(np.mean(f.values)) <= MEAN_ZERO_TOL * np.max(np.abs(f.values))
        assert l2_norm_sq(f) > 0

    def test_bad_terms_rejected(self, box64):
        with pytest.raises(ConfigError):
            fourier_sum(box64, [(0, 1, "ss", 1.0)])
        with pytest.raises(ConfigError):
            fourier_sum(box64, [(1, 1, "sz", 1.0)])


def test_random_fourier_sum_seeded(box64):
    a = random_fourier_sum(box64, 3, seed=42)
    b = random_fourier_sum(box64, 3, seed=42)
    c = random_fourier_sum(box64, 3, seed=43)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert abs(np.mean(a.values)) <= MEAN_ZERO_TOL * np.max(np.abs(a.values))


@pytest.mark.parametrize("box", [DomainBox(0.7, 0.7, 24, 24), DomainBox(1.5, 1.0, 16, 32)],
                         ids=["24_L0.7", "16x32"])
def test_random_fourier_sum_matches_per_pair_loop(box):
    max_mode, seed, amplitude = 3, 9, 0.8
    rng = np.random.default_rng(seed)
    xg, yg = box.grid()
    ax = np.pi * xg / box.half_width_x
    ay = np.pi * yg / box.half_width_y
    vals = np.zeros_like(xg)
    for mx in range(1, max_mode + 1):
        for my in range(1, max_mode + 1):
            c = rng.standard_normal(4) / (mx * my)
            vals += c[0] * np.sin(mx * ax) * np.sin(my * ay)
            vals += c[1] * np.sin(mx * ax) * np.cos(my * ay)
            vals += c[2] * np.cos(mx * ax) * np.sin(my * ay)
            vals += c[3] * np.cos(mx * ax) * np.cos(my * ay)
    vals *= amplitude / np.max(np.abs(vals))
    expect = mean_zero_project(ScalarField(box, vals))
    got = random_fourier_sum(box, max_mode, seed, amplitude=amplitude)
    assert np.array_equal(got.values, expect.values)


@pytest.mark.parametrize("box", [DomainBox(0.7, 0.7, 24, 24), DomainBox(1.5, 1.0, 16, 32)],
                         ids=["24_L0.7", "16x32"])
def test_fourier_mode_matches_grid_formula(box):
    xg, yg = box.grid()
    vals = 0.8 * np.sin(np.pi * 3 * xg / box.half_width_x) \
        * np.sin(np.pi * 2 * yg / box.half_width_y)
    expect = mean_zero_project(ScalarField(box, vals))
    assert np.array_equal(fourier_mode(box, 3, 2, 0.8).values, expect.values)
