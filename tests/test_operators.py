import math
import time
import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

import divspec as ds
from divspec import operators, specfun
from divspec.aperture import _smallest_enclosing_circle
from divspec.operators import (
    build_truncated_operator,
    gram_matrix,
    rho_n_kernel,
)
from divspec.specfun import DEFAULT_ORDER_MARGIN

TWO_PI = 2.0 * math.pi


def basis_matrix(points, N):
    """``V[k, n + N] = exp(j*n*beta_k) * j**n * J_n(2*pi*r_k)``, the plain series definition."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    r = np.hypot(pts[:, 0], pts[:, 1])[:, None]
    beta = np.arctan2(pts[:, 1], pts[:, 0])[:, None]
    n = np.arange(-N, N + 1)
    return np.exp(1j * n * beta) * 1j**n * special.jv(n, TWO_PI * r)


def radial_transform(aperture, u):
    """``J0(z)`` of a circle or ``2*J1(z)/z`` of a disk at ``z = 2*pi*r*|u_q - u_p|``, by ``scipy.special.jv``."""
    z = TWO_PI * aperture.radius * np.hypot(u[None, :, 0] - u[:, None, 0], u[None, :, 1] - u[:, None, 1])
    if isinstance(aperture, ds.Circle):
        return special.jv(0, z)
    safe = np.where(z > 0.0, z, 1.0)
    return np.where(z > 0.0, 2.0 * special.jv(1, safe) / safe, 1.0)


def gram_segment_simpson(length, N, samples=8193):
    """Composite-Simpson brute force of the Gram entries on a segment."""
    x = np.linspace(-length / 2.0, length / 2.0, samples)
    V = basis_matrix(np.stack([x, np.zeros_like(x)], axis=1), N)
    G = np.empty((2 * N + 1, 2 * N + 1), dtype=complex)
    for i in range(2 * N + 1):
        for k in range(i, 2 * N + 1):
            G[i, k] = integrate.simpson(np.conj(V[:, i]) * V[:, k], x=x) / length
            G[k, i] = np.conj(G[i, k])
    return G


def node_sum_gram(aperture, N, order):
    """Gram matrix contracted from a ``build_quadrature`` rule through ``basis_matrix``."""
    rule = ds.build_quadrature(aperture, order)
    V = basis_matrix(rule.nodes, N)
    return V.conj().T @ (rule.weights[:, None] * V)


NODE_SUM_CASES = {
    "segment": ds.Segment(2.0, angle=0.3, center=(0.2, -0.1)),
    "circle": ds.Circle(0.7, center=(0.3, 0.2)),
    "disk": ds.Disk(0.8, center=(-0.2, 0.3)),
    "rectangle-rotated-off-centre": ds.Rectangle(1.5, 0.7, angle=0.4, center=(0.8, -0.3)),
    "lines-angled": ds.ParallelLines(3, 1.2, 0.8, angle=0.6, center=(0.1, 0.2)),
    "curve-line-arc": ds.PiecewiseCurve(
        (ds.LinePiece((-1.0, 0.0), (0.0, 0.0)), ds.ArcPiece((0.0, 0.5), 0.5, -math.pi / 2, math.pi / 2))
    ),
    "array-random": ds.DiscreteArray(
        tuple(map(tuple, np.random.default_rng(7).uniform(-1.0, 1.0, size=(12, 2))))
    ),
}

LINE_ARC_LINE = ds.PiecewiseCurve(
    (
        ds.LinePiece((-4.0, 0.0), (0.0, 0.0)),
        ds.ArcPiece((0.0, 2.0), 2.0, -math.pi / 2, math.pi / 2),
        ds.LinePiece((0.0, 4.0), (-4.0, 4.0)),
    )
)


class TestGram:
    def test_circle_diagonal_closed_form(self):
        r = 1.0
        N = 12
        G = gram_matrix(ds.Circle(r), N)
        expected = np.array([special.jv(n, TWO_PI * r) ** 2 for n in range(-N, N + 1)])
        assert np.max(np.abs(np.diag(G).real - expected)) < 1e-14
        off = G - np.diag(np.diag(G))
        assert np.max(np.abs(off)) < 1e-10

    def test_disk_diagonal_closed_form(self):
        r1 = 0.5
        N = 10
        G = gram_matrix(ds.Disk(r1), N)
        for n in range(-N, N + 1):
            expected, _ = integrate.quad(
                lambda r: (2.0 * r / r1**2) * special.jv(n, TWO_PI * r) ** 2, 0.0, r1
            )
            assert G[n + N, n + N].real == pytest.approx(expected, abs=1e-12)
        off = G - np.diag(np.diag(G))
        assert np.max(np.abs(off)) < 1e-10

    def test_segment_against_simpson(self):
        N = 8
        G = gram_matrix(ds.Segment(1.0), N)
        oracle = gram_segment_simpson(1.0, N)
        assert np.max(np.abs(G - oracle)) < 1e-10

    def test_segment_parity_structure(self):
        # entries with odd order sum vanish on a centred segment
        N = 6
        G = gram_matrix(ds.Segment(1.0), N)
        for m in range(-N, N + 1):
            for n in range(-N, N + 1):
                if (m + n) % 2 != 0:
                    assert abs(G[m + N, n + N]) < 1e-14

    def test_one_piece_curve_matches_segment(self):
        N = 8
        Gs = gram_matrix(ds.Segment(1.0), N)
        Gc = gram_matrix(
            ds.PiecewiseCurve((ds.LinePiece((-0.5, 0.0), (0.5, 0.0)),)), N
        )
        assert np.max(np.abs(Gs - Gc)) < 1e-12

    def test_single_line_matches_segment_exactly(self):
        N = 8
        Gs = gram_matrix(ds.Segment(1.0), N)
        Gl = gram_matrix(ds.ParallelLines(1, 1.0, 0.0), N)
        assert np.array_equal(Gs, Gl)

    def test_hermitian_and_psd(self):
        for aperture in [ds.Segment(1.0), ds.Rectangle(0.8, 0.5), ds.ParallelLines(3, 1.0, 0.8)]:
            G = gram_matrix(aperture, 10)
            assert np.max(np.abs(G - G.conj().T)) == 0.0
            eigs = np.linalg.eigvalsh(G)
            assert eigs[0] > -1e-12

    def test_trace_monotone_in_order(self):
        traces = []
        for N in range(6, 20, 3):
            G = gram_matrix(ds.Disk(0.5), N)
            traces.append(float(np.trace(G).real))
        assert all(b >= a - 1e-14 for a, b in zip(traces, traces[1:]))
        assert traces[-1] <= 1.0 + 1e-12

    @pytest.mark.parametrize("name", sorted(NODE_SUM_CASES))
    def test_matches_node_sum(self, name):
        aperture = NODE_SUM_CASES[name]
        N = ds.truncation_order(ds.enclosing_radius(aperture)) + DEFAULT_ORDER_MARGIN
        reference = node_sum_gram(aperture, N, 6 * (N + 1))
        assert np.max(np.abs(gram_matrix(aperture, N) - reference)) <= 1e-12

    @pytest.mark.parametrize(
        "aperture",
        [
            NODE_SUM_CASES["array-random"],
            ds.DiscreteArray(
                tuple((1.2 * math.cos(b), 1.2 * math.sin(b)) for b in np.arange(16) * TWO_PI / 16)
            ),
            ds.DiscreteArray(tuple((0.3 + 0.5 * k, -0.2) for k in range(20)) + ((0.3, -0.2),)),
            LINE_ARC_LINE,
        ],
        ids=["random-12", "circle-16", "offset-line-with-coincident", "curve-line-arc-line"],
    )
    def test_array_factor_matches_point_mass_transform(self, aperture):
        # the Q x Q point-mass transform and its 2-D DFT, as assembled before the factor;
        # a curve's reference rule has 8(N+1) Gauss nodes per piece, its G a bound-chosen q
        r1 = ds.enclosing_radius(aperture)
        N = ds.truncation_order(r1) + DEFAULT_ORDER_MARGIN
        rule = ds.build_quadrature(aperture, 8 * (N + 1))
        u = operators._angle_grid(operators._angle_grid_size(N, r1))
        phi = operators._point_masses(rule.nodes, rule.weights, u, N)
        reference = operators._gram_from_transform(phi, N)
        assert np.max(np.abs(gram_matrix(aperture, N) - reference)) <= 1e-14

    @pytest.mark.parametrize("radius", [3.0, 10.0])
    def test_isotropic_disk_spectrum_closed_form(self, radius):
        # G is diagonal with G_nn = J_n(z)^2 - J_{n-1}(z) J_{n+1}(z), z = 2 pi R
        op = build_truncated_operator(ds.Disk(radius), ds.IsotropicPas())
        J = special.jv(np.arange(-op.N - 1, op.N + 2), TWO_PI * radius)
        n = np.arange(1, 2 * op.N + 2)
        expected = np.sort(J[n] ** 2 - J[n - 1] * J[n + 1])[::-1]
        lam = ds.solve_spectrum(op).eigenvalues
        assert np.max(np.abs(lam - expected)) <= 1e-14

    @pytest.mark.parametrize(
        "aperture",
        [kind(radius) for kind in (ds.Circle, ds.Disk) for radius in (1e-3, 0.02, 1.0, 3.0, 10.0, 40.0)]
        + [ds.Disk(0.0)],
        ids=lambda a: f"{type(a).__name__.lower()}-{a.radius:g}",
    )
    def test_closed_form_matches_transform(self, aperture):
        # the centred diag(g) against the Q x Q angle-domain transform it replaced,
        # evaluated here with scipy's J0 and J1
        N = ds.truncation_order(aperture.radius) + DEFAULT_ORDER_MARGIN
        u = operators._angle_grid(operators._angle_grid_size(N, ds.enclosing_radius(aperture)))
        reference = operators._gram_from_transform(radial_transform(aperture, u), N)
        assert np.max(np.abs(gram_matrix(aperture, N) - reference)) <= 2e-15

    @pytest.mark.parametrize(
        "aperture",
        [kind(radius, center=(0.3, -0.2)) for kind in (ds.Circle, ds.Disk) for radius in (1e-3, 0.7, 3.0, 20.0)]
        + [ds.Disk(0.0, center=(0.3, -0.2))],
        ids=lambda a: f"{type(a).__name__.lower()}-{a.radius:g}",
    )
    def test_radial_factor_against_40_digits(self, aperture):
        # off centre, the factor is the DFT of the diagonal (Neumann's addition
        # theorem), with no J0 or J1 evaluated at the Q*Q arguments; it depends on
        # d = (q - p) mod Q alone, through z = 4*pi*r*sin(pi*d/Q)
        N = ds.truncation_order(ds.enclosing_radius(aperture)) + DEFAULT_ORDER_MARGIN
        Q = operators._angle_grid_size(N, ds.enclosing_radius(aperture))
        factor = operators._radial_factor(aperture, Q)
        assert np.array_equal(factor, factor[0][(np.arange(Q)[None, :] - np.arange(Q)[:, None]) % Q])
        with mpmath.workdps(40):
            for d in range(0, Q, max(1, Q // 60)):
                z = 4 * mpmath.pi * mpmath.mpf(aperture.radius) * mpmath.sin(mpmath.pi * d / Q)
                if isinstance(aperture, ds.Circle):
                    exact = mpmath.besselj(0, z)
                else:
                    exact = 2 * mpmath.besselj(1, z) / z if z else mpmath.mpf(1)
                assert abs(factor[0, d] - exact) <= 2e-15, d

    @pytest.mark.parametrize(
        "aperture, rows",
        [(ds.Segment(1e5), 20), (ds.Rectangle(1e5, 1.0), 864000)],
        ids=["segment", "rectangle"],
    )
    def test_refused_before_the_angle_grid(self, aperture, rows):
        # Q = 864,000 angles: the grid alone would be 13.8 MB, refused before it is made
        N = ds.truncation_order(5e4) + DEFAULT_ORDER_MARGIN
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=rf"on a Q=864000 angle grid needs a {rows}x864000"):
                gram_matrix(aperture, N)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_oversized_rule_refused_before_assembly(self):
        # default Segment(3000): N = 12820 needs a Q = 25920 angle grid, 10.7 GB
        N = ds.truncation_order(1500.0) + DEFAULT_ORDER_MARGIN
        tracemalloc.start()
        try:
            # refused on its own 648 x Q plane waves, one row past the byte budget
            with pytest.raises(ValueError, match=r"N=12820 on a Q=25920 .* 648x25920 268738560-byte"):
                gram_matrix(ds.Segment(3000.0), N)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10e6


# every curve fixture of the test modules, line-only, arc-only and mixed, with the
# divbench curve (line-arc-line) among them, and that curve's half circle alone
CURVES = {
    "two-lines-L": ds.PiecewiseCurve(
        (ds.LinePiece((0.0, 0.0), (0.7, 0.0)), ds.LinePiece((0.7, 0.0), (0.7, 0.5)))
    ),
    "two-lines-short": ds.PiecewiseCurve(
        (ds.LinePiece((0.0, 0.0), (0.5, 0.0)), ds.LinePiece((0.5, 0.0), (0.5, 0.4)))
    ),
    "two-lines-thin": ds.PiecewiseCurve(
        (ds.LinePiece((0.0, 0.0), (0.75, 0.0)), ds.LinePiece((0.75, 0.0), (0.75, 0.25)))
    ),
    "one-line": ds.PiecewiseCurve((ds.LinePiece((-0.5, 0.0), (0.5, 0.0)),)),
    "one-long-line": ds.PiecewiseCurve((ds.LinePiece((-2.0, 0.0), (2.0, 0.0)),)),
    "arc": ds.PiecewiseCurve((ds.ArcPiece((1.0, 0.0), 0.5, -1.0, 1.0),)),
    "arc-half-circle": ds.PiecewiseCurve((ds.ArcPiece((0.0, 2.0), 2.0, -math.pi / 2, math.pi / 2),)),
    "line-arc": NODE_SUM_CASES["curve-line-arc"],
    "line-quarter-arc": ds.PiecewiseCurve(
        (ds.LinePiece((0.0, 0.0), (0.5, 0.0)), ds.ArcPiece((0.5, 0.25), 0.25, -math.pi / 2, 0.0))
    ),
    "line-quarter-arc-left": ds.PiecewiseCurve(
        (ds.LinePiece((-0.4, 0.0), (0.0, 0.0)), ds.ArcPiece((0.0, 0.25), 0.25, -math.pi / 2, 0.0))
    ),
    "line-arc-open": ds.PiecewiseCurve(
        (ds.LinePiece((0.0, 0.0), (0.7, 0.0)), ds.ArcPiece((0.7, 0.3), 0.3, -math.pi / 2, 1.0))
    ),
    "line-arc-line": LINE_ARC_LINE,
}


def _curve_setup(curve):
    """The centred curve, its default ``N`` and the angle grid of its ``G``."""
    centered, _ = ds.centering_transform(curve)
    r1 = ds.enclosing_radius(centered)
    N = ds.truncation_order(r1) + DEFAULT_ORDER_MARGIN
    return centered, N, operators._angle_grid(operators._angle_grid_size(N, r1))


def _rule_gram(curve, q, u, N):
    return operators._factor_gram(operators._node_factor(ds.build_quadrature(curve, q), u, N))


def _chosen_order(curve, N, monkeypatch):
    """The order ``gram_matrix`` builds its one rule with."""
    orders = []

    def spy(aperture, order):
        orders.append(order)
        return ds.build_quadrature(aperture, order)

    monkeypatch.setattr(operators, "build_quadrature", spy)
    gram_matrix(curve, N)
    monkeypatch.undo()
    assert len(orders) == 1
    return orders[0]


class TestCurveRule:
    @pytest.mark.parametrize("name", sorted(CURVES))
    def test_bound_encloses_error_at_every_order(self, name, monkeypatch):
        # 1e-13 is round-off: two converged rules differ by up to 2.7e-14 in norm on
        # line-arc-line, whose plane-wave phases reach 21 rad; the bounds it meets run
        # from 2 down to 1e-13 and hold with a factor 10 to spare
        curve, N, u = _curve_setup(CURVES[name])
        reference = _rule_gram(curve, 8 * (N + 1), u, N)
        for q in range(2, _chosen_order(curve, N, monkeypatch) + 1):
            error = np.linalg.norm(_rule_gram(curve, q, u, N) - reference, 2)
            assert error <= operators._curve_bound(curve, q) + 1e-13, q

    @pytest.mark.parametrize("name", sorted(CURVES))
    def test_chosen_order_is_smallest_within_tolerance(self, name, monkeypatch):
        curve, N, _ = _curve_setup(CURVES[name])
        q = _chosen_order(curve, N, monkeypatch)
        assert operators._curve_bound(curve, q) <= 2.0**-53 < operators._curve_bound(curve, q - 1)

    def test_large_curve_order(self, monkeypatch):
        # the divbench curve: its half circle of radius 2 sets q (53) for both lines (31)
        curve, N, _ = _curve_setup(LINE_ARC_LINE)
        assert _chosen_order(curve, N, monkeypatch) <= 60

    @pytest.mark.parametrize("name", sorted(CURVES))
    def test_gram_is_the_chosen_rule(self, name, monkeypatch):
        curve, N, u = _curve_setup(CURVES[name])
        q = _chosen_order(curve, N, monkeypatch)
        assert np.array_equal(gram_matrix(curve, N), _rule_gram(curve, q, u, N))

    @pytest.mark.parametrize("name", sorted(CURVES))
    def test_centring_matches_sampled_circle(self, name):
        # line ends alone give the circle of 257 samples on every piece
        curve = CURVES[name]
        t = np.linspace(0.0, 1.0, 257)
        center, _ = _smallest_enclosing_circle(np.concatenate([p.point(t) for p in curve.pieces]))
        assert np.array_equal(ds.centering_transform(curve)[1], center)

    def test_oversized_curve_refused_before_its_rule(self):
        # an arc of radius 1 wound through 1e6 rad needs about 1e7 nodes; 233,016 fit
        curve = ds.PiecewiseCurve((ds.ArcPiece((0.0, 0.0), 1.0, 0.0, 1e6),))
        start = time.perf_counter()
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"N=19 on a Q=72 .* 233017x72 .*-byte limit"):
                build_truncated_operator(curve, ds.IsotropicPas())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10e6
        assert time.perf_counter() - start < 1.0

    def test_zero_length_pieces_carry_no_nodes(self):
        a, b, c = (0.0, 0.0), (1.0, 0.0), (1.0, 0.5)
        curve = ds.PiecewiseCurve((ds.LinePiece(a, b), ds.LinePiece(b, b), ds.LinePiece(b, c)))
        plain = ds.PiecewiseCurve((ds.LinePiece(a, b), ds.LinePiece(b, c)))
        assert np.array_equal(gram_matrix(curve, 12), gram_matrix(plain, 12))
        model = ds.VonMisesPas(kappa=2.0, alpha0=0.3)
        lam = ds.solve_spectrum(build_truncated_operator(curve, model)).eigenvalues
        assert np.array_equal(lam, ds.solve_spectrum(build_truncated_operator(plain, model)).eigenvalues)

    @pytest.mark.parametrize(
        "point",
        [
            ds.PiecewiseCurve((ds.LinePiece((0.3, 0.4), (0.3, 0.4)),) * 2),
            # radius times span underflows: the arc's length is 0.0
            ds.PiecewiseCurve((ds.ArcPiece((0.3, 0.4), 1e-300, 0.0, 1e-300),)),
        ],
        ids=["two-lines", "underflowing-arc"],
    )
    def test_zero_length_curve_is_a_point(self, point):
        # one branch of full power, as for Segment(0) and Disk(0)
        model = ds.UniformPas(delta=1.0, alpha0=0.2)
        op = build_truncated_operator(point, model)
        assert point.length == 0.0 and np.array_equal(op.offset, [0.3, 0.4])
        lam = ds.solve_spectrum(op).eigenvalues
        assert lam[0] == pytest.approx(1.0, abs=1e-12) and np.max(lam[1:]) < 1e-12
        assert ds.nystrom_oracle(point, model).tolist() == [1.0]


# 30 antennas within 0.1 wavelength: more rows than the 2N+1 = 25 orders
_WIDE_ARRAY = np.random.default_rng(30).uniform(-0.1, 0.1, (30, 2))

# line apertures whose Gauss rule has fewer rows than 2N+1: G is F^H F and never formed
# by a build and solve; Segment(476) is the longest R's size guard admits
NARROW_LINES = {
    "segment-0": ds.Segment(0.0),
    "segment-0.05": ds.Segment(0.05),
    "segment-1": ds.Segment(1.0),
    "segment-10": ds.Segment(10.0),
    "segment-40": ds.Segment(40.0),
    "segment-470": ds.Segment(470.0),
    "segment-off-centre": NODE_SUM_CASES["segment"],
    "one-line": ds.ParallelLines(1, 1.0),
}
MANY_LINES = {
    # divbench's lines8, fig8's lines, and short lines far apart, whose rule would be narrow
    "lines8": ds.ParallelLines(8, 8.0, 6.0, angle=math.radians(10.0)),
    "fig8": ds.ParallelLines(4, 1.0, 1.0),
    "spaced-short": ds.ParallelLines(2, 0.1, 5.0),
}


class _Stop(Exception):
    pass


def _order_at(aperture):
    """The default ``N`` of ``aperture`` about the origin."""
    return ds.truncation_order(ds.enclosing_radius(aperture)) + DEFAULT_ORDER_MARGIN


# two antennas lie, centred, on a line through the origin in mirror pairs
FACTOR_ROUTE_PAIR = ds.DiscreteArray(((0.0, 0.0), (0.5, 0.2)))


class TestFactorRoute:
    @pytest.mark.parametrize("name", sorted(NARROW_LINES))
    def test_lines_take_their_rule(self, name, monkeypatch):
        # the rule's order is read before the rule is built, so that Segment(470)
        # (2,024 rows against 2N+1 = 4,035) builds neither its rule nor its F here
        aperture, orders = NARROW_LINES[name], []

        def stop(line, order):
            orders.append(order)
            raise _Stop

        monkeypatch.setattr(operators, "build_quadrature", stop)
        with pytest.raises(_Stop):
            build_truncated_operator(aperture, ds.IsotropicPas())
        rows = 1 if aperture.length == 0.0 else orders[0]
        assert rows < 2 * _order_at(ds.centering_transform(aperture)[0]) + 1

    def test_one_line_is_its_segment(self):
        model = ds.VonMisesPas(kappa=3.0, alpha0=0.4)
        line = build_truncated_operator(ds.ParallelLines(1, 1.0, angle=0.3), model)
        segment = build_truncated_operator(ds.Segment(1.0, angle=0.3), model)
        assert np.array_equal(line.gram_factor, segment.gram_factor)
        spectra = [ds.solve_spectrum(op).eigenvalues for op in (line, segment)]
        assert np.array_equal(*spectra)

    @pytest.mark.parametrize(
        "aperture",
        [
            ds.DiscreteArray(((-0.5, 0.0), (0.0, 0.0), (0.5, 0.0))),
            NODE_SUM_CASES["array-random"],
            ds.Segment(1.0),
            CURVES["line-arc"],
        ],
        ids=["array-line", "array-random", "segment", "curve"],
    )
    def test_route_decided_once(self, aperture, monkeypatch):
        # a build and a gram_matrix each run the exact mirror test, two sorts of an
        # array's antennas, once, and hand its angle to the factor
        calls = []
        decide = operators._line_angle
        monkeypatch.setattr(operators, "_line_angle", lambda ap: calls.append(ap) or decide(ap))
        op = build_truncated_operator(aperture, ds.VonMisesPas(kappa=3.0))
        assert len(calls) == 1
        calls.clear()
        G = gram_matrix(ds.centering_transform(aperture)[0], op.N)
        assert len(calls) == 1
        assert np.max(np.abs(G - op.gram)) <= 1e-15

    @pytest.mark.parametrize("name", sorted(MANY_LINES))
    def test_many_lines_keep_their_transform(self, name, linalg_calls):
        # G from the transform, factored by one real eigh of the lines' G at angle 0
        op = build_truncated_operator(MANY_LINES[name], ds.VonMisesPas(kappa=5.0))
        assert op.gram_factor.shape == (op.size, op.size)
        assert linalg_calls == [("eigh", (op.size, op.size), "float64")]

    @pytest.mark.parametrize("name", sorted(set(NARROW_LINES) - {"segment-470"}))
    def test_factor_gram_within_bound_of_node_sum(self, name):
        # the allowance is TestCurveRule's: 2**-53 bounds the rule, 1e-13 the round-off
        # of G itself, whose plane-wave phases reach 2*pi*20 rad on Segment(40); the
        # centred line's factor is its real half factor, of at most N+1 rows
        aperture, _ = ds.centering_transform(NARROW_LINES[name])
        N = _order_at(aperture)
        P = operators._gram_factor(aperture, N, operators._line_angle(aperture))
        assert P.dtype.name == "float64" and len(P) <= N + 1 and P.shape[1] == N + 1
        reference = node_sum_gram(aperture, N, 6 * (N + 1))
        F = operators._unfold(P, aperture.angle, N)
        error = np.linalg.norm(operators._factor_gram(F) - reference, 2)
        assert error <= 2.0**-53 + 1e-13

    def test_segment_480_refused_before_allocation(self):
        # refused on R of order 2N+1 = 4121, as a complex matrix, before its rule is sized
        tracemalloc.start()
        try:
            message = r"N=2060 needs a 4121x4121 271722256-byte coefficient correlation matrix R"
            with pytest.raises(ValueError, match=message):
                build_truncated_operator(ds.Segment(480.0), ds.IsotropicPas())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    @pytest.mark.parametrize(
        "aperture",
        [ds.Segment(1.0), CURVES["line-arc"]],
        ids=["segment", "curve"],
    )
    @pytest.mark.parametrize(
        "scale, message",
        [
            (1.0 + 1e-9, r"trace .* outside \[0, 1\]"),
            (1.0 - 1e-3, "trace deficit .* exceeds the tail bound"),
        ],
        ids=["trace-above-one", "trace-deficit"],
    )
    def test_broken_factor_refused(self, monkeypatch, aperture, scale, message):
        # G = F^H F is Hermitian and PSD by construction; its trace ||F||_F^2 is checked,
        # on a line's half factor P, ||P||_F^2 = ||F||_F^2
        name = "_line_factor" if isinstance(aperture, ds.Segment) else "_node_factor"
        build = getattr(operators, name)
        monkeypatch.setattr(operators, name, lambda *args: scale * build(*args))
        with pytest.raises(ArithmeticError, match=message):
            build_truncated_operator(aperture, ds.UniformPas(delta=math.pi / 2))

    @pytest.mark.parametrize(
        "aperture, narrow",
        [
            (ds.Segment(1.0), True),
            (ds.Segment(40.0), True),
            (CURVES["two-lines-L"], True),
            (FACTOR_ROUTE_PAIR, True),
            (LINE_ARC_LINE, False),
            (ds.DiscreteArray(tuple(map(tuple, _WIDE_ARRAY.tolist()))), False),
        ],
        ids=["segment-1", "segment-40", "curve-narrow", "array-narrow", "curve-wide", "array-wide"],
    )
    def test_gram_formed_only_where_read(self, monkeypatch, aperture, narrow):
        products = []
        form = operators._factor_gram
        monkeypatch.setattr(operators, "_factor_gram", lambda F: products.append(F.shape) or form(F))
        op = build_truncated_operator(aperture, ds.VonMisesPas(kappa=3.0, alpha0=0.7))
        ds.solve_spectrum(op)
        ds.omega_from_traces(op)
        K = len(op.gram_factor)
        # a narrow factor keeps its nodes' rows, a wide one is its 2N+1-row QR factor
        assert K < op.size if narrow else K == op.size
        turned = replace(op, alpha0=-0.4)
        assert turned.alpha0 == -0.4 and turned.gram_factor is op.gram_factor
        ds.solve_spectrum(turned)
        assert products == []
        # gram forms F^H F on each read, a line's F unfolded from its half factor
        line = op._line_angle is not None
        assert line == (isinstance(aperture, ds.Segment) or aperture is FACTOR_ROUTE_PAIR)
        F = operators._unfold(op.gram_factor, op._line_angle, op.N) if line else op.gram_factor
        assert np.array_equal(op.gram, form(F))
        assert products == [(K, op.size)]

    def test_operator_without_gram_or_factor_refused(self):
        op = build_truncated_operator(ds.Segment(1.0), ds.IsotropicPas())
        with pytest.raises(TypeError, match="gram"):
            replace(op, gram=op.gram)
        fields = {f: getattr(op, f) for f in ("N", "N_D", "r1", "rtilde", "rho_max", "offset")}
        with pytest.raises(TypeError, match="gram_factor"):
            ds.TruncatedOperator(**fields)


RTILDE_MODELS = {
    "isotropic": ds.IsotropicPas(),
    "uniform-90deg": ds.UniformPas(delta=math.pi / 2, alpha0=0.7),
    "uniform-0.01rad": ds.UniformPas(delta=0.01),
    "vonmises-10": ds.VonMisesPas(kappa=10.0, alpha0=-1.1),
    "vonmises-200": ds.VonMisesPas(kappa=200.0),
    "tabulated": ds.TabulatedPas([-2.0, 0.0, 2.0], [1.0, 0.2, 0.8], alpha0=0.3),
}


class TestRtilde:
    @pytest.mark.parametrize("model", [ds.VonMisesPas(kappa=3.0), RTILDE_MODELS["tabulated"]], ids=["real", "complex"])
    @pytest.mark.parametrize(
        "aperture",
        [ds.Disk(1.0), ds.Rectangle(2.0, 1.0, 0.3), CURVES["line-arc"], ds.Segment(1.0)],
        ids=["diagonal", "transform", "node-sum", "line"],
    )
    def test_certified_rtilde_read_only(self, aperture, model):
        # R(0) is the read-only window of s on every route, so the matrix a
        # certificate was given cannot change after it
        op = build_truncated_operator(aperture, model)
        omega = ds.omega_from_traces(op)
        assert not op.rtilde.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            op.rtilde[op.N, op.N + 1] = 3.0
        assert ds.omega_from_traces(op) == omega

    @pytest.mark.parametrize("N", [0, 1, 19, 181, 300])
    @pytest.mark.parametrize("name", sorted(RTILDE_MODELS))
    def test_bit_identical_to_scipy_toeplitz(self, name, N, rtilde_reference):
        # the R(alpha0) that --dump-matrices writes, a window of s_(-2N..2N)
        model = RTILDE_MODELS[name]
        reference = rtilde_reference(model, N)
        R = operators._toeplitz(model.fourier(np.arange(-2 * N, 2 * N + 1)))
        assert R.shape == reference.shape and R.dtype == reference.dtype
        assert R.tobytes() == np.ascontiguousarray(reference).tobytes()

    def test_isotropic_identity(self, rtilde_reference):
        R = rtilde_reference(ds.IsotropicPas(), 7)
        assert np.array_equal(R, np.eye(15, dtype=complex))

    def test_full_circle_uniform_identity(self, rtilde_reference):
        R = rtilde_reference(ds.UniformPas(delta=TWO_PI), 5)
        assert np.max(np.abs(R - np.eye(11))) < 1e-15

    def test_unit_diagonal_and_toeplitz(self, rtilde_reference):
        model = ds.VonMisesPas(kappa=3.0, alpha0=0.7)
        N = 6
        R = rtilde_reference(model, N)
        assert np.all(np.diag(R) == 1.0 + 0.0j)
        for k in range(1, 2 * N + 1):
            band = np.diag(R, k)
            assert np.all(band == band[0])
        assert np.max(np.abs(R - R.conj().T)) == 0.0

    def test_entries_are_fourier_coefficients(self, rtilde_reference):
        model = ds.UniformPas(delta=1.3, alpha0=-0.4)
        N = 4
        R = rtilde_reference(model, N)
        for m in range(-N, N + 1):
            for n in range(-N, N + 1):
                assert R[m + N, n + N] == model.fourier(m - n)

    def test_positive_semidefinite(self, rtilde_reference):
        for model in [
            ds.UniformPas(delta=math.pi / 4, alpha0=1.0),
            ds.VonMisesPas(kappa=8.0),
            ds.TabulatedPas([-2.0, 0.0, 2.0], [1.0, 0.2, 0.8]),
        ]:
            eigs = np.linalg.eigvalsh(rtilde_reference(model, 12))
            assert eigs[0] > -1e-12


def _five_smooth(q):
    for p in (2, 3, 5):
        while q % p == 0:
            q //= p
    return q == 1


class TestKernel:
    @pytest.mark.parametrize(
        "rows, Q, extent",
        [(1, 8, 0.5), (5, 400, 20.0), (128, 1152, 32.0), (300, 64, 1.0), (0, 24, 1.0)],
        ids=["one-row", "segment40-half", "ula128-omega", "many-rows", "no-rows"],
    )
    def test_plane_waves_match_complex_exp(self, rows, Q, extent):
        # cos and sin of the real phase 2*pi*x.u on the first half of an even grid, and
        # their conjugate on the antipodal second half, within 1 ulp of exp(2j*pi*x.u)
        points = np.random.default_rng(rows).uniform(-extent, extent, (rows, 2))
        u = operators._angle_grid(Q)
        E = operators._plane_waves(points, u, 10)
        reference = np.exp(2j * math.pi * (points @ u.T))
        assert E.shape == (rows, Q) and E.dtype == reference.dtype
        np.testing.assert_array_max_ulp(E.real, reference.real, maxulp=1)
        np.testing.assert_array_max_ulp(E.imag, reference.imag, maxulp=1)

    @pytest.mark.parametrize("N", [0, 1, 5, 21, 97, 181, 600])
    @pytest.mark.parametrize("r1", [0.0, 0.3, 1.0, 5.0, 10.0, 40.0])
    def test_angle_grid_even_and_antipodal(self, N, r1):
        # the smallest even 5-smooth Q meeting both bounds, and u_(q+Q/2) = -u_q bit for bit
        bound = max(2 * N + 1, N + 1 + ds.truncation_order(r1) + operators._ALIAS_MARGIN)
        Q = operators._angle_grid_size(N, r1)
        smooth = [q for q in range(bound, 2 * bound + 2) if q % 2 == 0 and _five_smooth(q)]
        assert Q == smooth[0]
        u = operators._angle_grid(Q)
        assert u.shape == (Q, 2) and np.array_equal(u[Q // 2 :], -u[: Q // 2])
        # the angles 2*pi*q/Q to round-off; near 2*pi the rounded angle is itself off by 4e-16
        alpha = TWO_PI * np.arange(Q) / Q
        assert np.max(np.abs(u - np.stack([np.cos(alpha), np.sin(alpha)], axis=1))) <= 2e-15

    @pytest.mark.parametrize("L, Q, odd", [(8, 80, 75), (64, 240, 225)], ids=["uca8", "uca64"])
    def test_angle_grid_of_arrays_that_were_odd(self, L, Q, odd):
        # the lambda/2 UCAs of divbench arrays: d_max = L/(2*pi), once on an odd grid
        d_max = L / TWO_PI
        N, N_D = ds.series_order(d_max)
        assert N + 1 + N_D + operators._ALIAS_MARGIN <= odd < Q
        assert operators._angle_grid_size(N, d_max) == Q

    def test_unit_at_zero(self):
        for model in [ds.IsotropicPas(), ds.UniformPas(delta=1.0, alpha0=0.3)]:
            assert rho_n_kernel(model, (0.0, 0.0), 5) == pytest.approx(1.0, abs=1e-15)

    def test_isotropic_reduces_to_order_zero(self):
        for r in [0.2, 0.7, 1.4]:
            value = rho_n_kernel(ds.IsotropicPas(), (r, 0.0), ds.truncation_order(r) + 5)
            assert value == pytest.approx(special.jv(0, TWO_PI * r), abs=1e-15)

    def test_von_mises_against_direct_quadrature(self):
        model = ds.VonMisesPas(kappa=3.0)
        point = np.array([0.4, 0.3])
        r = float(np.hypot(*point))
        beta = math.atan2(point[1], point[0])
        re, _ = integrate.quad(
            lambda a: model.value(a) * math.cos(TWO_PI * r * math.cos(a - beta)),
            -math.pi,
            math.pi,
            limit=200,
        )
        im, _ = integrate.quad(
            lambda a: model.value(a) * math.sin(TWO_PI * r * math.cos(a - beta)),
            -math.pi,
            math.pi,
            limit=200,
        )
        N = ds.truncation_order(r) + 10
        assert rho_n_kernel(model, point, N) == pytest.approx(re + 1j * im, abs=1e-4)

    def test_magnitude_bound(self):
        model = ds.UniformPas(delta=math.pi / 3, alpha0=0.9)
        rng = np.random.default_rng(5)
        pts = rng.uniform(-0.7, 0.7, size=(50, 2))
        N = ds.truncation_order(float(np.max(np.hypot(pts[:, 0], pts[:, 1])))) + 4
        slack = 0.2 * math.exp(ds.truncation_order(1.0) - N)
        values = rho_n_kernel(model, pts, N)
        assert np.max(np.abs(values)) <= 1.0 + slack

    def test_truncation_precondition(self):
        with pytest.raises(ValueError):
            rho_n_kernel(ds.IsotropicPas(), (2.0, 0.0), 5)

    def test_oversized_grid_refused_before_allocation(self):
        # |x| = 1e6 wavelengths needs N = 8539745 on a Q = 17280000 grid:
        # one row of plane waves alone would be 276 MB
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"N=8539745 on a Q=17280000 angle grid needs a 1x17280000"):
                rho_n_kernel(ds.IsotropicPas(), (1e6, 0.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    @pytest.mark.parametrize(
        "call",
        [
            lambda N: ds.time_acf(ds.VonMisesPas(kappa=3.0), ds.DopplerSpec(nu_max=1.0), 0.5, N=N),
            lambda N: rho_n_kernel(ds.VonMisesPas(kappa=3.0), (0.5, 0.0), N),
            lambda N: ds.discrete_correlation([[0.0, 0.0], [0.5, 0.0]], ds.VonMisesPas(kappa=3.0), N),
            lambda N: gram_matrix(ds.Segment(1.0), N),
        ],
        ids=["time_acf", "rho_n_kernel", "discrete_correlation", "gram_matrix"],
    )
    def test_huge_order_refused_at_once(self, call):
        # the grid size is found among the 5-smooth numbers, not by stepping up to them
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"N=1000000000000 on a Q=2008387814976 angle grid"):
            call(10**12)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("margin", [0, DEFAULT_ORDER_MARGIN])
    @pytest.mark.parametrize("radius", [0.0, 0.3, 20.0])
    @pytest.mark.parametrize(
        "model",
        [
            ds.IsotropicPas(),
            ds.VonMisesPas(kappa=4.0, alpha0=0.7),
            ds.VonMisesPas(kappa=200.0, alpha0=-2.0),
            ds.UniformPas(delta=math.pi / 2, alpha0=1.1),
            ds.UniformPas(delta=1e-3, alpha0=0.4),
            ds.TabulatedPas([-2.0, 0.0, 2.0], [1.0, 0.2, 0.8], alpha0=0.3),
        ],
        ids=["isotropic", "von_mises_4", "von_mises_200", "uniform_90", "uniform_1e-3", "tabulated"],
    )
    def test_angle_grid_matches_bessel_series(self, model, radius, margin):
        rng = np.random.default_rng(11)
        r = radius * np.sqrt(rng.uniform(0.0, 1.0, 40))
        r[0] = radius
        beta = rng.uniform(0.0, TWO_PI, 40)
        pts = np.stack([r * np.cos(beta), r * np.sin(beta)], axis=1)
        N = ds.truncation_order(radius) + margin
        series = basis_matrix(pts, N) @ model.fourier(np.arange(-N, N + 1))
        assert np.max(np.abs(rho_n_kernel(model, pts, N) - series)) <= 1e-13


class TestBuild:
    def test_default_truncation_for_unit_radius(self):
        op = build_truncated_operator(ds.Circle(1.0), ds.IsotropicPas())
        assert (op.N, op.N_D, op.size) == (19, 9, 39)

    def test_point_aperture_rank_one(self):
        op = build_truncated_operator(ds.Segment(0.0), ds.VonMisesPas(kappa=2.0))
        G = op.gram
        assert G[op.N, op.N] == pytest.approx(1.0)
        G_off = G.copy()
        G_off[op.N, op.N] = 0.0
        assert np.max(np.abs(G_off)) == 0.0

    def test_disk_trace_near_one(self):
        op = build_truncated_operator(ds.Disk(1.0), ds.IsotropicPas())
        trace = float(np.trace(op.gram).real)
        # The exact deficit here is ~5e-19, far below one ulp of 1.0, so the
        # computed trace lands on 1 plus a few ulp of round-off; the lower end
        # grants the same 1e-12 that the build's trace check allows above one.
        assert -1e-12 <= 1.0 - trace <= specfun.bessel_sq_tail_bound(op.N, op.r1) + 1e-12

    def test_rejects_low_order(self):
        with pytest.raises(ValueError):
            build_truncated_operator(ds.Circle(1.0), ds.IsotropicPas(), N=5)

    def test_centering_applied(self):
        op = build_truncated_operator(ds.Disk(0.4, center=(3.0, -2.0)), ds.IsotropicPas())
        assert op.r1 == pytest.approx(0.4, abs=1e-12)
        assert op.offset == pytest.approx([3.0, -2.0], abs=1e-12)

    def test_discrete_array_point_mass_measure(self):
        pts = ds.DiscreteArray(((0.25, 0.0), (-0.25, 0.0)))
        op = build_truncated_operator(pts, ds.IsotropicPas())
        # trace is the average of sum_n J_n(2 pi |x|)^2 over the two points
        expected = float(np.sum(special.jv(np.arange(-op.N, op.N + 1), TWO_PI * 0.25) ** 2))
        assert float(np.trace(op.gram).real) == pytest.approx(expected, rel=1e-12)

    def test_rho_max_recorded(self):
        op = build_truncated_operator(ds.Segment(0.5), ds.UniformPas(delta=math.pi / 2))
        assert op.rho_max == pytest.approx(4.0)


def _skew(M):
    M = M.copy()
    M[0, 1] += 1e-6
    return M


def _unit(s):
    """``e_0`` over ``s = s_(-2N..2N)``: one at ``s_0``."""
    return np.arange(len(s)) == len(s) // 2


def _skew_coefficient(s):
    # s_1 no longer the conjugate of s_(-1)
    s = s.copy()
    s[len(s) // 2 + 1] += 1e-6
    return s


class _UnlistedPas(ds.UniformPas):
    """A PAS outside the four shipped models: its ``R`` is not proven PSD."""


# every broken matrix is refused by the build; a built operator's R is certified,
# so the solve and a sweep point test only an R built by hand
_READERS = (ds.solve_spectrum, ds.omega_from_traces)

# a broken G needs an aperture whose G comes from its closed-form transform and
# is tested as a matrix; a segment carries its Gauss factor F and forms no G.
# A broken R is R(0)'s coefficients s, broken where the model returns them, or
# the build's Toeplitz window of them.
_TRANSFORM_STAND_IN = {
    "gram_matrix": ds.Rectangle(1.0, 0.5),
    "fourier": ds.Segment(1.0),
    "_toeplitz": ds.Segment(1.0),
}


def _break(monkeypatch, target, breakage):
    if target == "fourier":
        fourier = ds.PasModel.fourier
        monkeypatch.setattr(ds.PasModel, "fourier", lambda self, n: breakage(fourier(self, n)))
    else:
        build = getattr(operators, target)
        monkeypatch.setattr(operators, target, lambda *args: breakage(build(*args)))


class TestValidation:
    @pytest.mark.parametrize(
        "target, breakage, model, message",
        [
            ("gram_matrix", _skew, ds.UniformPas, "Gram matrix lost Hermitian symmetry"),
            ("fourier", _skew_coefficient, ds.UniformPas, "correlation matrix is not Hermitian"),
            ("fourier", lambda s: s + 1e-9 * _unit(s), ds.UniformPas, "diagonal is not 1"),
            ("gram_matrix", lambda G: G - 1e-6 * np.eye(len(G)), ds.UniformPas, "Gram matrix indefinite"),
            ("fourier", lambda s: 2.0 * s - _unit(s), _UnlistedPas, "correlation matrix indefinite"),
            ("gram_matrix", lambda G: G * (1.0 + 1e-9), ds.UniformPas, r"trace .* outside \[0, 1\]"),
            ("gram_matrix", lambda G: G * (1.0 - 1e-3), ds.UniformPas, "trace deficit .* exceeds the tail bound"),
        ],
        ids=[
            "gram-not-hermitian",
            "rtilde-not-hermitian",
            "rtilde-diagonal",
            "gram-indefinite",
            "rtilde-indefinite",
            "trace-above-one",
            "trace-deficit",
        ],
    )
    def test_broken_matrix_refused(self, monkeypatch, target, breakage, model, message):
        # R's symmetry and diagonal are tested on s for every model; its PSD by
        # one Cholesky factor for a model outside the four whose PSD is proven
        _break(monkeypatch, target, breakage)
        with pytest.raises(ArithmeticError, match=message):
            build_truncated_operator(_TRANSFORM_STAND_IN[target], model(delta=math.pi / 2))

    @pytest.mark.parametrize(
        "breakage",
        [lambda s: s * np.nan, lambda s: np.where(_unit(s), np.nan, s)],
        ids=["every-coefficient", "s0"],
    )
    def test_nan_coefficients_refused(self, monkeypatch, breakage):
        _break(monkeypatch, "fourier", breakage)
        with pytest.raises(ArithmeticError, match="correlation matrix is not Hermitian"):
            build_truncated_operator(ds.Segment(1.0), ds.UniformPas(delta=math.pi / 2))

    @pytest.mark.parametrize("aperture", [ds.Segment(1.0), ds.Disk(1.0)], ids=["segment", "disk"])
    def test_nan_gram_factor_refused(self, monkeypatch, aperture):
        # NaN compares False both ways: the trace test is written so that it fails
        factor = operators._gram_factor

        def with_nan(*args):
            F = factor(*args).copy()
            F.flat[0] = np.nan
            return F

        monkeypatch.setattr(operators, "_gram_factor", with_nan)
        with pytest.raises(ArithmeticError, match=r"Gram trace nan outside \[0, 1\]"):
            build_truncated_operator(aperture, ds.VonMisesPas(kappa=3.0))

    @staticmethod
    def _gram_with_min_eig(G, target):
        # move only the smallest eigenvalue, along a real eigenvector of the real G
        # of the stand-in at angle 0; the trace moves by ~1e-10
        lam, vecs = np.linalg.eigh(G.real)
        v = vecs[:, :1]
        G = G + (target - lam[0]) * (v @ v.conj().T)
        return 0.5 * (G + G.conj().T)

    @staticmethod
    def _rtilde_with_min_eig(R, target):
        # (R - mu*I)/(1 - mu) keeps the unit diagonal and the Toeplitz form
        lam_min = np.linalg.eigvalsh(R)[0]
        mu = (lam_min - target) / (1.0 - target)
        return (R - mu * np.eye(len(R))) / (1.0 - mu)

    @pytest.mark.parametrize(
        "target, label",
        [("gram_matrix", "Gram matrix"), ("_toeplitz", "coefficient correlation matrix")],
        ids=["gram", "rtilde"],
    )
    @pytest.mark.parametrize("lam_min, refused", [(-2e-10, True), (-1e-12, False)])
    def test_psd_threshold(self, monkeypatch, linalg_calls, target, label, lam_min, refused):
        # G is refused by the eigh that factors it, which clamps an admitted negative
        # eigenvalue to zero; R of a model outside the four by the build's Cholesky factor
        shift = self._gram_with_min_eig if target == "gram_matrix" else self._rtilde_with_min_eig
        build, broken = getattr(operators, target), []
        monkeypatch.setattr(
            operators, target, lambda *args: broken.append(shift(build(*args), lam_min)) or broken[-1]
        )
        aperture, model = _TRANSFORM_STAND_IN[target], _UnlistedPas(delta=math.pi / 2)
        message = f"{label} indefinite: min eigenvalue -2.000e-10"
        if refused:
            with pytest.raises(ArithmeticError, match=message):
                build_truncated_operator(aperture, model)
            return
        op = build_truncated_operator(aperture, model)
        if target == "gram_matrix":
            # G's spectrum is the broken one with its negative eigenvalue set to zero
            expected = np.clip(np.linalg.eigvalsh(broken[0].real), 0.0, None)
            assert np.max(np.abs(np.linalg.eigvalsh(op.gram) - expected)) <= 1e-15
        else:
            assert np.linalg.eigvalsh(op.rtilde)[0] == pytest.approx(lam_min, abs=1e-14)
        for read in _READERS:
            linalg_calls.clear()
            read(op)
            assert [c for c in linalg_calls if c[0] == "cholesky"] == []

    @pytest.mark.parametrize("lam_min, refused", [(-2e-10, True), (-1e-12, False)])
    def test_array_rtilde_psd_threshold(self, monkeypatch, linalg_calls, lam_min, refused):
        # a model outside the four has its array's R tested once, by the build's
        # Cholesky factor of order 2N+1, not the L x L solve's; no reader tests it again
        build = operators._toeplitz
        monkeypatch.setattr(
            operators, "_toeplitz", lambda *args: self._rtilde_with_min_eig(build(*args), lam_min)
        )
        aperture, model = ds.DiscreteArray(((0.0, 0.0), (0.5, 0.2))), _UnlistedPas(delta=math.pi / 2)
        message = "coefficient correlation matrix indefinite: min eigenvalue -2.000e-10"
        if refused:
            with pytest.raises(ArithmeticError, match=message):
                build_truncated_operator(aperture, model)
        else:
            op = build_truncated_operator(aperture, model)
            assert np.linalg.eigvalsh(op.rtilde)[0] == pytest.approx(lam_min, abs=1e-14)
        # the eigvalsh calls are the breakage's and the refusal's message
        assert [c for c in linalg_calls if c[0] != "eigvalsh"] == [("cholesky", (27, 27), "float64")]
        if not refused:
            for read in _READERS:
                linalg_calls.clear()
                read(op)
                assert [c[0] for c in linalg_calls] == (["eigvalsh"] if read is ds.solve_spectrum else [])

    @pytest.mark.parametrize("lam_min, refused", [(-2e-10, True), (-1e-12, False)])
    def test_hand_built_rtilde_psd_threshold(self, lam_min, refused):
        # a hand-built R is tested by the Cholesky factor of a solve and of a sweep point
        op = build_truncated_operator(ds.Segment(1.0), ds.UniformPas(delta=math.pi / 2))
        op = replace(op, rtilde=self._rtilde_with_min_eig(op.rtilde, lam_min))
        if refused:
            message = "coefficient correlation matrix indefinite: min eigenvalue -2.000e-10"
            for read in _READERS:
                with pytest.raises(ArithmeticError, match=message):
                    read(op)
        else:
            assert np.all(np.isfinite(ds.solve_spectrum(op).eigenvalues))
            assert np.all(np.isfinite(ds.omega_from_traces(op)))

    def test_hand_built_array_rtilde_refused(self):
        # the L x L route tests R itself: F R F^H alone would not fall below the clamp floor
        op = build_truncated_operator(ds.DiscreteArray(((0.0, 0.0), (0.5, 0.2))), ds.VonMisesPas(kappa=3.0))
        assert len(op.gram_factor) < op.size
        op = replace(op, rtilde=self._rtilde_with_min_eig(op.rtilde, -1e-6))
        with pytest.raises(ArithmeticError, match="coefficient correlation matrix indefinite"):
            ds.solve_spectrum(op)

    def test_certificate_is_set_by_the_build_only(self, linalg_calls):
        # replace() and a direct construction reset it, so their R is tested where it
        # is read; _join of the build's two halves sets it, for a build or a sweep point
        model = ds.VonMisesPas(kappa=3.0, alpha0=0.4)
        op = build_truncated_operator(ds.Segment(1.0), model)
        assert op._psd_certified
        geometry = operators._aperture_half(ds.Segment(1.0), None)
        coefficients = operators._coefficient_half(model, geometry["N"])
        rotated = operators._join(geometry, coefficients, -1.2)
        assert rotated._psd_certified and rotated.alpha0 == -1.2 and op.alpha0 == 0.4
        again = operators._join(geometry, coefficients, 0.4)
        assert again.gram_factor is rotated.gram_factor and again.rtilde is rotated.rtilde
        assert np.array_equal(again.gram_factor, op.gram_factor) and np.array_equal(again.rtilde, op.rtilde)
        fields = {
            name: getattr(op, name)
            for name in ("N", "N_D", "r1", "gram_factor", "rtilde", "rho_max", "offset", "_line_angle")
        }
        with pytest.raises(TypeError):
            ds.TruncatedOperator(**fields, _psd_certified=True)
        for uncertified in (replace(op, alpha0=-1.2), ds.TruncatedOperator(**fields, alpha0=-1.2)):
            assert not uncertified._psd_certified
            linalg_calls.clear()
            assert ds.omega_from_traces(uncertified) == ds.omega_from_traces(rotated)
            assert [c[0] for c in linalg_calls] == ["cholesky"]
        linalg_calls.clear()
        ds.omega_from_traces(rotated)
        assert linalg_calls == []

    def test_unlisted_model_tested_once_in_the_build(self, linalg_calls, turn):
        # a PasModel subclass may override fourier, so its R gets one Cholesky test
        op = build_truncated_operator(ds.Segment(1.0), _UnlistedPas(delta=1.0, alpha0=0.3))
        assert [c for c in linalg_calls if c[0] == "cholesky"] == [("cholesky", (op.size, op.size), "float64")]
        linalg_calls.clear()
        ds.solve_spectrum(op)
        ds.omega_from_traces(turn(op, 1.0))
        assert [c[0] for c in linalg_calls] == ["eigvalsh"]

    def test_one_eigensolve_per_solve(self, linalg_calls):
        # every solve: one K x K eigvalsh of F' R F'^H, real for a disk's 1-D F
        # (K = 2N+1) and for a line's K x (N+1) half factor (K at most its rule's
        # q nodes, here 15, and N+1), complex for every other F, and no test of the
        # certified R
        rows = {
            ds.Rectangle(1.0, 0.5): None,
            ds.ParallelLines(4, 1.0, 1.0, angle=0.3): None,
            ds.Disk(0.8): None,
            ds.DiscreteArray(((0.0, 0.0), (0.5, 0.2))): 2,
            ds.Segment(1.0): 15,
            LINE_ARC_LINE: None,
            ds.DiscreteArray(tuple(map(tuple, _WIDE_ARRAY.tolist()))): None,
        }
        for aperture, K in rows.items():
            op = build_truncated_operator(aperture, ds.VonMisesPas(kappa=3.0))
            line = op._line_angle is not None
            assert line == (K in (2, 15))
            K = K or op.size
            diagonal = isinstance(aperture, ds.Disk)
            if line:
                assert op.gram_factor.shape == (min(K, op.N + 1), op.N + 1)
            else:
                assert op.gram_factor.shape == ((K,) if diagonal else (K, op.size))
            linalg_calls.clear()
            ds.solve_spectrum(op)
            dtype = "float64" if diagonal or line else "complex128"
            assert linalg_calls == [("eigvalsh", (K, K), dtype)]

    @pytest.mark.parametrize(
        "model, dtype",
        [
            (ds.IsotropicPas(alpha0=2.5), "float64"),
            (ds.UniformPas(delta=1.0, alpha0=-1.1), "float64"),
            (ds.VonMisesPas(kappa=8.0, alpha0=0.7), "float64"),
            (ds.TabulatedPas(np.radians([0.0, 40.0, 150.0]), [1.0, 3.0, 0.5], alpha0=2.0), "complex128"),
        ],
        ids=["isotropic", "uniform", "von-mises", "tabulated"],
    )
    def test_rtilde_read_about_the_axis(self, linalg_calls, turn, model, dtype):
        # R(0) is real for the symmetric models at any mean angle, complex for a
        # tabulated one; neither the solve nor a sweep point factors it.  A line's
        # solve is real whatever R(0): it reads R(0)'s coefficients through the fold
        wide = np.random.default_rng(30).uniform(-0.1, 0.1, (30, 2))
        apertures = (
            ds.Rectangle(1.0, 0.5),
            ds.Segment(1.0),
            ds.DiscreteArray(((0.0, 0.0), (0.5, 0.2))),
            ds.DiscreteArray(tuple(map(tuple, wide.tolist()))),
        )
        for aperture in apertures:
            op = build_truncated_operator(aperture, model)
            assert op.rtilde.dtype.name == dtype and op.alpha0 == model.alpha0
            linalg_calls.clear()
            ds.solve_spectrum(op)
            solved = "float64" if op._line_angle is not None else "complex128"
            assert [(name, kind) for name, _, kind in linalg_calls] == [("eigvalsh", solved)]
            linalg_calls.clear()
            ds.omega_from_traces(turn(op, -0.5))
            assert linalg_calls == []


CIRCLES_AND_DISKS = {
    "circle": ds.Circle(1.0),
    "disk-off-centre": ds.Disk(0.8, center=(0.3, -0.2)),
    "disk-3": ds.Disk(3.0),
    "disk-0": ds.Disk(0.0),
}
SYMMETRIC_MODELS = {
    "isotropic": ds.IsotropicPas(alpha0=2.5),
    "uniform": ds.UniformPas(delta=1.0, alpha0=-1.1),
    "von-mises": ds.VonMisesPas(kappa=8.0, alpha0=0.7),
}


class TestDiagonalRoute:
    @pytest.mark.parametrize("model", SYMMETRIC_MODELS.values(), ids=SYMMETRIC_MODELS)
    @pytest.mark.parametrize("aperture", CIRCLES_AND_DISKS.values(), ids=CIRCLES_AND_DISKS)
    def test_solve_forms_no_gram_and_no_root(self, monkeypatch, linalg_calls, turn, aperture, model):
        # no Q x Q transform and no dense G; the solve takes one real eigvalsh,
        # with no eigh(R) for R^(1/2) and no Cholesky test of the certified R
        formed = []
        for name in ("_aperture_transform", "_gram_from_transform", "gram_matrix", "_factor_gram"):
            monkeypatch.setattr(operators, name, lambda *args, _name=name: formed.append(_name))
        op = build_truncated_operator(aperture, model)
        assert op.gram_factor.shape == (op.size,)
        assert op.gram_factor.dtype.name == "float64" and op.rtilde.dtype.name == "float64"
        ds.solve_spectrum(op)
        assert linalg_calls == [("eigvalsh", (op.size, op.size), "float64")]
        linalg_calls.clear()
        ds.omega_from_traces(turn(op, -0.4))
        assert linalg_calls == []
        assert formed == []

    def test_gram_formed_from_the_diagonal_where_read(self):
        # the 1-D factor is sqrt(g): gram forms diag(g) on each read
        op = build_truncated_operator(ds.Disk(1.5), ds.VonMisesPas(kappa=3.0, alpha0=0.7))
        g = operators._circle_diagonal(ds.Disk(1.5), op.N)
        assert np.array_equal(op.gram_factor, np.sqrt(g))
        assert np.max(np.abs(op.gram - np.diag(g))) <= 1e-16

    @pytest.mark.parametrize("kind", [ds.Circle, ds.Disk])
    def test_refused_on_rtilde_size_before_allocation(self, kind):
        # R of order 2N+1 = 4121 is 272 MB as a complex matrix, whatever the PAS;
        # 230 wavelengths (2N+1 = 3951, 250 MB) are admitted
        N = ds.series_order(230.0)[0]
        assert operators._circle_diagonal(kind(230.0), N).shape == (2 * N + 1,)
        tracemalloc.start()
        try:
            for model in SYMMETRIC_MODELS.values():
                message = r"N=2060 needs a 4121x4121 271722256-byte coefficient correlation matrix R"
                with pytest.raises(ValueError, match=message):
                    build_truncated_operator(kind(240.0), model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_build_holds_rtilde_and_no_scratch(self):
        # R(0) is windowed from its real coefficients, never formed complex first, and
        # tested on those coefficients, with no R-sized scratch: the traced peak is about one R
        model = ds.VonMisesPas(kappa=3.0)
        build_truncated_operator(ds.Disk(1.0), model)
        tracemalloc.start()
        try:
            op = build_truncated_operator(ds.Disk(20.0), model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert op.rtilde.dtype.name == "float64" and op.size == 363
        assert peak < 1.5 * op.rtilde.nbytes

    def test_operators_compare_by_identity(self, monkeypatch):
        # == reads no matrix: equal builds are distinct operators, and no G is formed
        formed = []
        form = operators._factor_gram
        monkeypatch.setattr(operators, "_factor_gram", lambda F: formed.append(F.shape) or form(F))
        model = ds.VonMisesPas(kappa=3.0)
        for aperture in (ds.Segment(1.0), ds.Disk(0.8), ds.Rectangle(1.0, 0.5)):
            a, b = (build_truncated_operator(aperture, model) for _ in range(2))
            assert a == a and not a == b and a != b
        assert formed == []


FACTOR_KINDS = {
    "segment": ds.Segment(2.0, angle=0.4),
    "segment-off-centre": NODE_SUM_CASES["segment"],
    "one-line": ds.ParallelLines(1, 1.0, angle=0.3),
    "circle": ds.Circle(0.8, center=(0.3, 0.2)),
    "disk": ds.Disk(3.0),
    "rectangle": ds.Rectangle(1.0, 0.5),
    "rectangle-rotated": ds.Rectangle(0.7, 0.3, angle=0.2),
    "rectangle-rotated-off-centre": NODE_SUM_CASES["rectangle-rotated-off-centre"],
    "lines-angled": NODE_SUM_CASES["lines-angled"],
    "lines8": MANY_LINES["lines8"],
    "curve-narrow": CURVES["two-lines-L"],
    "curve-wide": LINE_ARC_LINE,
    "array": ds.DiscreteArray(((0.0, 0.0), (0.5, 0.1), (-0.2, 0.4))),
    "array-wide": ds.DiscreteArray(tuple(map(tuple, _WIDE_ARRAY.tolist()))),
}
FACTOR_MODELS = dict(
    SYMMETRIC_MODELS,
    tabulated=ds.TabulatedPas(np.radians([0.0, 40.0, 150.0]), [1.0, 3.0, 0.5], alpha0=2.0),
)


class TestGramFactor:
    @pytest.mark.parametrize("model", FACTOR_MODELS.values(), ids=FACTOR_MODELS)
    @pytest.mark.parametrize("aperture", FACTOR_KINDS.values(), ids=FACTOR_KINDS)
    def test_factor_has_at_most_2n_plus_1_rows_and_matches_gram(self, aperture, model):
        # a line's real half factor has N+1 columns, every other factor 2N+1
        op = build_truncated_operator(aperture, model)
        F = op.gram_factor
        line = op._line_angle is not None
        assert F.shape[-1] == (op.N + 1 if line else op.size) and len(F) <= F.shape[-1]
        assert line == (aperture in (FACTOR_KINDS[k] for k in ("segment", "segment-off-centre", "one-line")))
        centered, _ = ds.centering_transform(aperture)
        assert np.max(np.abs(op.gram - gram_matrix(centered, op.N))) <= 1e-14

    @pytest.mark.parametrize("name", ["curve-wide", "array-wide"])
    def test_wide_node_sum_is_its_qr_factor(self, name, linalg_calls):
        # more nodes than 2N+1 orders: the build's one factorisation is a QR of F
        op = build_truncated_operator(FACTOR_KINDS[name], ds.VonMisesPas(kappa=3.0))
        (call,) = linalg_calls
        assert call[0] == "qr" and call[1][0] > op.size and call[1][1] == op.size
        assert op.gram_factor.shape == (op.size, op.size)

    @pytest.mark.parametrize(
        "name", ["rectangle-rotated", "rectangle-rotated-off-centre", "lines-angled", "lines8"]
    )
    def test_rotated_gram_is_a_phased_real_gram(self, name):
        # G = P H P^H with P = diag(exp(-j*n*angle)) and H, G at angle 0, real
        centered, _ = ds.centering_transform(FACTOR_KINDS[name])
        N = _order_at(centered)
        H = gram_matrix(replace(centered, angle=0.0), N)
        assert np.max(np.abs(H.imag)) <= 1e-16
        p = np.exp(-1j * centered.angle * np.arange(-N, N + 1))
        G = gram_matrix(centered, N)
        assert np.max(np.abs(G - p[:, None] * H.real * p.conj())) <= 1e-15


ROTATED_MODELS = {
    "isotropic": lambda alpha: ds.IsotropicPas(alpha0=alpha),
    "uniform": lambda alpha: ds.UniformPas(delta=math.pi / 2, alpha0=alpha),
    "von-mises": lambda alpha: ds.VonMisesPas(kappa=10.0, alpha0=alpha),
    "tabulated": lambda alpha: ds.TabulatedPas(
        np.radians([0.0, 40.0, 150.0, 260.0]), [1.0, 3.0, 0.5, 2.0], alpha0=alpha
    ),
}
ROTATIONS = [0.3, 1.2, -2.0, math.pi]


class TestRotation:
    @pytest.mark.parametrize("name", sorted(ROTATED_MODELS))
    def test_rtilde_rotates_by_diagonal_similarity(self, name, rtilde_reference):
        model_at = ROTATED_MODELS[name]
        N = 12
        R0 = rtilde_reference(model_at(0.0), N)
        for alpha in ROTATIONS:
            model = model_at(alpha)
            # (D R0 D^H)_mn = exp(-j*m*a) R0_mn exp(j*n*a) with the model's own
            # (wrapped) angle a, its phase rounded once as exp(-j*(m-n)*a)
            n = np.arange(-N, N + 1)
            expected = R0 * np.exp(-1j * model.alpha0 * (n[:, None] - n[None, :]))
            assert np.max(np.abs(rtilde_reference(model, N) - expected)) <= 1e-15

    @pytest.mark.parametrize("name", sorted(ROTATED_MODELS))
    @pytest.mark.parametrize(
        "aperture, N",
        [
            (ds.Segment(2.0, angle=0.4), None),
            (ds.ParallelLines(count=3, length=0.8, span=0.6), None),
            (ds.Rectangle(0.7, 0.3, angle=0.2), 25),
            (ds.DiscreteArray(((0.0, 0.0), (0.5, 0.1), (-0.2, 0.4))), None),
        ],
        ids=["segment", "lines", "rectangle-n-override", "array"],
    )
    def test_rotated_operator_matches_direct_build(self, name, aperture, N):
        # a mean angle changes only the operator's alpha0: G, R and R^(1/2) are shared
        model_at = ROTATED_MODELS[name]
        base = build_truncated_operator(aperture, model_at(0.0), N)
        for alpha in ROTATIONS:
            model = model_at(alpha)
            rotated = ds.solve_spectrum(replace(base, alpha0=model.alpha0))
            direct = ds.solve_spectrum(build_truncated_operator(aperture, model, N))
            assert rotated.N == direct.N and rotated.rho_max == direct.rho_max
            assert np.array_equal(rotated.eigenvalues, direct.eigenvalues)
            assert rotated.omega == direct.omega
            assert rotated.eig_error_bound == direct.eig_error_bound
