import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import special

import divspec as ds
from divspec import specfun


def bessel_first_integral(n, x):
    """Trapezoid quadrature of the integral representation of J_n.

    The integrand is 2*pi-periodic and analytic, so the periodic trapezoid
    rule converges geometrically; the grid is refined until the value is
    stable to 1e-13.
    """
    prev = None
    m = 64
    while m <= 65536:
        alpha = -math.pi + 2.0 * math.pi * np.arange(m) / m
        integrand = np.exp(1j * alpha * n) * np.exp(1j * x * np.cos(alpha))
        value = np.sum(integrand) * (2.0 * math.pi / m)
        value = (value / (2.0 * math.pi * 1j**n)).real
        if prev is not None and abs(value - prev) < 1e-13:
            return value
        prev = value
        m *= 2
    raise AssertionError("oracle did not stabilise")


def bessel_tail(N, r, power):
    """``sum_{|n|>N} |J_n(2*pi*r)|**power`` over the orders ``N+1..N+200`` and their negatives."""
    n = np.arange(N + 1, N + 201)
    return 2.0 * float(np.sum(np.abs(special.jv(n, 2.0 * math.pi * r)) ** power))


def modified_bessel_quadrature(n, kappa):
    """Quadrature of I_n(kappa) = (1/pi) * int_0^pi exp(kappa cos t) cos(nt) dt."""
    m = 20001
    t = np.linspace(0.0, math.pi, m)
    f = np.exp(kappa * np.cos(t)) * np.cos(n * t)
    # composite trapezoid rule, written out for numpy < 2.0 (no np.trapezoid)
    return float((t[1] - t[0]) * (np.sum(f) - 0.5 * (f[0] + f[-1])) / math.pi)


def besselj_40_digits(n, z):
    with mpmath.workdps(40):
        return mpmath.besselj(n, mpmath.mpf(z))


class TestBesselJ:
    """``specfun._bessel_j``, the ``J_n`` of a circle's and disk's diagonal ``G``
    and of their transforms off centre, against independent oracles."""

    def test_at_zero(self):
        assert specfun._bessel_j(7, 0.0) == [1.0] + [0.0] * 7
        assert specfun._bessel_j(0, 0.0) == [1.0]

    def test_against_first_integral(self):
        for n, x in [(0, 2 * math.pi), (1, 1.0), (3, 5.0), (9, 6.28), (14, 12.0)]:
            oracle = bessel_first_integral(n, x)
            assert specfun._bessel_j(n, x)[n] == pytest.approx(oracle, abs=1e-12)

    # radius 1e-12 and 1e-9 take the series; 1e-7 rescales 4 times on its way
    # down from order 52, 0.02 (the start of fig4 and fig5) and Disk(230) at
    # N = 1975, the largest circle diagonal of the tests, once each
    @pytest.mark.parametrize(
        "radius, N, step",
        [(1e-12, None, 1), (1e-9, None, 1), (1e-7, None, 1), (0.02, None, 1), (1.0, None, 1),
         (3.0, None, 1), (20.0, None, 3), (230.0, 1975, 53)],
    )
    def test_against_40_digits(self, radius, N, step):
        # absolute error at every sampled order; relative error beyond z, where
        # J_n falls monotonically to the deep tail (J_1976(1445) is about 4e-132)
        N = specfun.series_order(radius, N)[0]
        z = 2.0 * math.pi * radius
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            J = specfun._bessel_j(N + 1, z)
        assert len(J) == N + 2
        for n in sorted({*range(0, N + 2, step), N, N + 1}):
            exact = besselj_40_digits(n, z)
            assert abs(J[n] - exact) <= 2.5e-16, n
            if n > z and exact != 0:
                assert abs(J[n] - exact) <= 1e-13 * abs(exact), n

    def test_identities_across_radii(self):
        # the rescaled recurrence stays finite, and the orders to N_D + 40 hold
        # J_0 + 2*sum J_2k = 1 and J_0**2 + 2*sum J_n**2 = 1 to round-off
        for radius in np.geomspace(1e-9, 300.0, 40):
            J = specfun._bessel_j(specfun.truncation_order(radius) + 40, 2.0 * math.pi * radius)
            assert all(type(v) is float and math.isfinite(v) for v in J)
            assert abs(J[0] + 2.0 * math.fsum(J[2::2]) - 1.0) <= 1e-14
            assert abs(J[0] ** 2 + 2.0 * math.fsum(v * v for v in J[1:]) - 1.0) <= 1e-15


class TestBesselIRatio:
    """``I_n(kappa)/I_0(kappa)``, the centred Fourier coefficients of ``VonMisesPas``."""

    @staticmethod
    def ratio(n, kappa):
        return ds.VonMisesPas(kappa=kappa).fourier(n).real

    def test_order_zero_is_one(self):
        for kappa in [0.0, 0.5, 3.0, 50.0, 800.0]:
            assert ds.VonMisesPas(kappa=kappa)._centered_fourier(np.array([0]))[0] == 1.0
            assert self.ratio(0, kappa) == 1.0

    def test_zero_kappa(self):
        assert self.ratio(1, 0.0) == 0.0
        assert self.ratio(-4, 0.0) == 0.0

    def test_against_quadrature(self):
        oracle = modified_bessel_quadrature(1, 2.0) / modified_bessel_quadrature(0, 2.0)
        assert self.ratio(1, 2.0) == pytest.approx(oracle, abs=1e-10)

    def test_range_and_monotonicity(self):
        for kappa in [0.3, 2.0, 10.0, 800.0]:
            ratios = [self.ratio(n, kappa) for n in range(0, 12)]
            assert all(0.0 <= r <= 1.0 for r in ratios)
            assert all(a > b for a, b in zip(ratios, ratios[1:]))
            assert self.ratio(-3, kappa) == self.ratio(3, kappa)

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError, match="kappa >= 0"):
            ds.VonMisesPas(kappa=-0.1)

    def test_kappa_ceiling(self):
        # the recurrence runs about sqrt(80*kappa) steps; above 1e6 kappa is refused at once
        assert ds.VonMisesPas(kappa=1e6).rho_max() == pytest.approx(math.sqrt(2e6 * math.pi), rel=1e-6)
        for kappa in [math.nextafter(1e6, math.inf), 1e300]:
            with pytest.raises(ValueError, match="kappa <= 1000000"):
                ds.VonMisesPas(kappa=kappa)

    @pytest.mark.parametrize("kappa", [0.0, 5e-324, 1e-310])
    def test_zero_and_subnormal_kappa(self, kappa):
        # 2k/kappa is infinite at a subnormal kappa: every s_k, k >= 1, is zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = specfun._bessel_i_ratios(10, kappa)
            model = ds.VonMisesPas(kappa=kappa)
            assert s[0] == 1.0 and not any(s[1:])
            assert model.rho_max() == 1.0 and model.value(0.3) == 1.0 / (2.0 * math.pi)
            assert model.fourier(np.arange(-5, 6)).tolist() == [0.0] * 5 + [1.0] + [0.0] * 5

    # kappa 4 at k <= 1133 (N = 566) reaches the underflow below which the
    # recurrence does not start; 1e6 is the ceiling, where the rounding of
    # about 9,000 steps adds up to 3.5e-15 in s_k and 3.3e-15 in rho_max
    @pytest.mark.parametrize(
        "kappa, k_max, step, tol",
        [(1e-8, 40, 1, 4e-16), (0.5, 300, 1, 4e-16), (4.0, 1133, 1, 4e-16), (700.0, 1200, 7, 4e-16),
         (1e6, 4094, 89, 4e-15)],
    )
    def test_against_40_digits(self, kappa, k_max, step, tol):
        s = specfun._bessel_i_ratios(k_max, kappa)
        s += [0.0] * (k_max + 1 - len(s))  # the orders past the list round to zero
        with mpmath.workdps(40):
            kap = mpmath.mpf(kappa)
            i0 = mpmath.besseli(0, kap)
            for k in sorted({*range(0, k_max + 1, step), k_max}):
                exact = mpmath.besseli(k, kap) / i0
                assert abs(s[k] - exact) <= tol, k
                if exact > 1e-290:
                    assert abs(s[k] - exact) <= 1e-12 * exact, k
            # rho_max = exp(kappa)/I_0(kappa) = 1 + 2*sum s_k, the generating function at angle 0
            exact_rho = 1 / (i0 * mpmath.exp(-kap))
            assert abs(ds.VonMisesPas(kappa=kappa).rho_max() - exact_rho) <= tol * exact_rho


class TestTruncationOrder:
    def test_reference_values(self):
        assert specfun.truncation_order(1.0) == 9
        assert specfun.truncation_order(0.0) == 0
        assert specfun.truncation_order(2.0) == 18  # ceil(17.079...)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            specfun.truncation_order(-0.5)


class TestSeriesOrder:
    def test_default_margin(self):
        assert specfun.series_order(1.0) == (9 + specfun.DEFAULT_ORDER_MARGIN, 9)

    def test_explicit_order_kept(self):
        assert specfun.series_order(1.0, 9) == (9, 9)
        assert specfun.series_order(0.0, 0) == (0, 0)

    def test_below_critical_order_refused(self):
        with pytest.raises(ValueError, match="N=8 below the critical order N_D=9"):
            specfun.series_order(1.0, 8)


def _segment_operator(N):
    # the centred Segment(2) has enclosing radius 1
    return ds.build_truncated_operator(ds.Segment(2.0), ds.IsotropicPas(), N)


#: Every truncated series of the package, each evaluated at radius 1.
SERIES_AT_UNIT_RADIUS = {
    "build_truncated_operator": _segment_operator,
    "rho_n_kernel": lambda N: ds.rho_n_kernel(ds.IsotropicPas(), (1.0, 0.0), N),
    "discrete_correlation": lambda N: ds.discrete_correlation(
        [(0.0, 0.0), (1.0, 0.0)], ds.IsotropicPas(), N
    ),
    "time_acf": lambda N: ds.time_acf(ds.IsotropicPas(), ds.DopplerSpec(1.0), 1.0, N),
    "bessel_abs_tail_bound": lambda N: specfun.bessel_abs_tail_bound(N, 1.0),
    "bessel_sq_tail_bound": lambda N: specfun.bessel_sq_tail_bound(N, 1.0),
}


@pytest.mark.parametrize("name", sorted(SERIES_AT_UNIT_RADIUS))
def test_one_critical_order_policy(name):
    series = SERIES_AT_UNIT_RADIUS[name]
    n_d = specfun.truncation_order(1.0)
    series(n_d)
    with pytest.raises(ValueError) as expected:
        specfun.series_order(1.0, n_d - 1)
    with pytest.raises(ValueError, match="critical order") as refused:
        series(n_d - 1)
    assert str(refused.value) == str(expected.value)


class TestTailBounds:
    def test_values_at_critical_order(self):
        n_d = specfun.truncation_order(1.0)
        assert specfun.bessel_abs_tail_bound(n_d, 1.0) == pytest.approx(0.2, rel=1e-15)
        assert specfun.bessel_sq_tail_bound(n_d, 1.0) == pytest.approx(0.01, rel=1e-15)

    def test_exponential_decay(self):
        n_d = specfun.truncation_order(1.0)
        assert specfun.bessel_abs_tail_bound(n_d + 10, 1.0) == pytest.approx(
            0.2 * math.exp(-10), rel=1e-14
        )
        assert specfun.bessel_sq_tail_bound(n_d + 5, 1.0) == pytest.approx(
            0.01 * math.exp(-10), rel=1e-14
        )

    def test_below_critical_order_rejected(self):
        n_d = specfun.truncation_order(1.5)
        with pytest.raises(ValueError):
            specfun.bessel_abs_tail_bound(n_d - 1, 1.5)
        with pytest.raises(ValueError):
            specfun.bessel_sq_tail_bound(n_d - 1, 1.5)

    def test_zero_radius(self):
        assert specfun.bessel_abs_tail_bound(0, 0.0) == pytest.approx(0.2)
        assert bessel_tail(0, 0.0, 1) == 0.0

    # 0.02 starts fig4 and fig5, 3 is divbench's Disk(3) and 40 its Segment(40)
    @pytest.mark.parametrize("r1", [0.02, 0.5, 1.0, 2.0, 3.0, 20.0, 40.0])
    def test_empirical_tails_within_bounds(self, r1):
        n_d = specfun.truncation_order(r1)
        for N in range(n_d, n_d + 11, 2):
            for r in np.linspace(0.0, r1, 7):
                assert bessel_tail(N, r, 1) <= specfun.bessel_abs_tail_bound(N, r1)
                assert bessel_tail(N, r, 2) <= specfun.bessel_sq_tail_bound(N, r1)

    def test_squared_sum_identity(self):
        # sum over all orders of J_n(x)^2 equals one; the truncated sum
        # falls short by at most the certified tail bound
        for x in np.linspace(0.0, 4 * math.pi, 9):
            r = x / (2 * math.pi)
            n_max = specfun.truncation_order(r) + 8
            total = float(np.sum(special.jv(np.arange(-n_max, n_max + 1), x) ** 2))
            assert total <= 1.0 + 1e-14
            assert 1.0 - total <= specfun.bessel_sq_tail_bound(n_max, r) + 1e-14


def _gauss_mean(f, q):
    s, w = np.polynomial.legendre.leggauss(q)
    return (w / 2.0) @ f(s)


class TestGaussBounds:
    """Each bound holds for every plane wave ``exp(j*w.x)``, ``|w| <= 4*pi``, on its piece.

    The 1e-14 allowance is round-off: numpy's ``leggauss`` nodes and weights
    alone move a 40-point mean by up to 7e-15.
    """

    @pytest.mark.parametrize("length", [0.3, 1.0, 4.0])
    @pytest.mark.parametrize("q", [2, 5, 10, 20, 31])
    def test_line_bound_holds(self, length, q):
        # along the line the wave is exp(j*omega*s), |omega| <= 2*pi*length, with mean sin(omega)/omega
        for omega in np.linspace(-2.0 * math.pi * length, 2.0 * math.pi * length, 41):
            exact = np.sinc(omega / math.pi)
            error = abs(exact - _gauss_mean(lambda s: np.exp(1j * omega * s), q))
            assert error <= specfun.line_gauss_bound(q, length) + 1e-14

    @pytest.mark.parametrize("radius, span", [(0.25, math.pi / 2), (0.5, 2.0), (2.0, math.pi), (1.0, 6.0)])
    @pytest.mark.parametrize("q", [2, 5, 10, 20, 40])
    def test_arc_bound_holds(self, radius, span, q):
        # along the arc the wave is exp(j*z*cos(a + span*s/2)), z <= 4*pi*radius
        rng = np.random.default_rng(q)
        for z, a in zip(rng.uniform(0.0, 4.0 * math.pi * radius, 20), rng.uniform(0.0, 2 * math.pi, 20)):
            f = lambda s: np.exp(1j * z * np.cos(a + span * s / 2.0))  # noqa: E731
            error = abs(_gauss_mean(f, 200) - _gauss_mean(f, q))
            assert error <= specfun.arc_gauss_bound(q, radius, span) + 1e-14

    def test_bounds_fall_with_the_order(self):
        line = [specfun.line_gauss_bound(q, 4.0) for q in range(1, 60)]
        arc = [specfun.arc_gauss_bound(q, 2.0, math.pi) for q in range(1, 60)]
        assert all(b <= a for a, b in zip(line, line[1:])) and line[0] == 2.0
        assert all(b <= a for a, b in zip(arc, arc[1:])) and arc[0] == 2.0

    def test_degenerate_pieces(self):
        assert specfun.line_gauss_bound(3, 0.0) == 0.0
        assert specfun.arc_gauss_bound(3, 1e-300, 1e-300) == 0.0  # its length underflows to 0
        # no order within reach resolves an arc wound a million times; the bound stays trivial
        assert specfun.arc_gauss_bound(233016, 1.0, 1e6) == 2.0
        assert specfun.arc_gauss_bound(10, 1e-9, 1e-9) < 1e-80
