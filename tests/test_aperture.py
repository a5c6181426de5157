import math

import numpy as np
import pytest

from divspec import IsotropicPas, discrete_correlation
from divspec.aperture import (
    ArcPiece,
    Circle,
    DiscreteArray,
    Disk,
    LinePiece,
    ParallelLines,
    PiecewiseCurve,
    QuadratureRule,
    Rectangle,
    Segment,
    UnsupportedApertureError,
    _gauss01,
    _smallest_enclosing_circle,
    _translate,
    build_quadrature,
    centering_transform,
    enclosing_radius,
)

CONTINUOUS = [
    Segment(1.0, angle=0.3, center=(0.2, -0.1)),
    Circle(0.8, center=(1.0, 0.5)),
    Disk(0.6),
    Rectangle(1.2, 0.4, angle=-0.7, center=(0.1, 0.1)),
    PiecewiseCurve(
        (
            LinePiece((0.0, 0.0), (0.5, 0.0)),
            ArcPiece(center=(0.5, 0.25), radius=0.25, angle_start=-math.pi / 2, angle_stop=0.0),
        )
    ),
    ParallelLines(3, 0.9, 0.6, angle=0.2),
]


class TestQuadratureRule:
    @pytest.mark.parametrize("aperture", CONTINUOUS)
    @pytest.mark.parametrize("order", [3, 8, 33])
    def test_weights_positive_and_normalised(self, aperture, order):
        rule = build_quadrature(aperture, order)
        assert np.all(rule.weights > 0.0)
        assert float(np.sum(rule.weights)) == pytest.approx(1.0, abs=1e-13)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            QuadratureRule(np.zeros((2, 2)), np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            QuadratureRule(np.zeros((2, 2)), np.array([1.2, -0.2]))

    def test_order_validation(self):
        with pytest.raises(ValueError):
            build_quadrature(Segment(1.0), 0)

    def test_discrete_array_point_masses(self):
        pts = ((0.0, 0.0), (1.0, 0.0), (0.5, -2.0))
        for order in (1, 4, 33):
            rule = build_quadrature(DiscreteArray(pts), order)
            assert np.array_equal(rule.nodes, np.asarray(pts))
            assert np.all(rule.weights == 1.0 / 3.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(UnsupportedApertureError):
            build_quadrature(object(), 4)

    def test_gauss_rule_built_once_and_read_only(self):
        # every rule of one order shares one leggauss rule, which no caller may change
        t, w = _gauss01(17)
        assert _gauss01(17)[0] is t
        xi, wl = np.polynomial.legendre.leggauss(17)
        assert np.array_equal(t, (xi + 1.0) / 2.0) and np.array_equal(w, wl / 2.0)
        for array in (t, w):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0


class TestNodePlacement:
    @pytest.mark.parametrize("q", [1, 2, 17, 188])
    @pytest.mark.parametrize("angle", [0.0, 0.5, -2.0])
    def test_segment_rule_mirrored_exactly(self, q, angle):
        # node k is -1 times node q-1-k with the same weight, each upper node is
        # _gauss01's, and an odd rule's middle node is the centre
        t, w = _gauss01(q)
        for aperture in (Segment(3.0, angle=angle), ParallelLines(1, 3.0, angle=angle)):
            rule = build_quadrature(aperture, q)
            assert np.array_equal(rule.nodes, -rule.nodes[::-1])
            assert np.array_equal(rule.weights, rule.weights[::-1])
            assert np.array_equal(rule.weights[q // 2 :], w[q // 2 :])
            d = np.array([math.cos(angle), math.sin(angle)])
            assert np.array_equal(rule.nodes[q - q // 2 :], (t[q - q // 2 :] - 0.5)[:, None] * 3.0 * d)
            if q % 2:
                assert np.all(rule.nodes[q // 2] == 0.0)

    def test_segment_nodes_on_line(self):
        seg = Segment(2.0, angle=0.5, center=(1.0, -1.0))
        rule = build_quadrature(seg, 16)
        d = np.array([math.cos(0.5), math.sin(0.5)])
        rel = rule.nodes - np.array([1.0, -1.0])
        assert np.max(np.abs(rel @ np.array([-d[1], d[0]]))) < 1e-14
        assert np.max(np.abs(rel @ d)) < 1.0  # inside the half-length

    def test_circle_nodes_on_circle(self):
        rule = build_quadrature(Circle(0.7, center=(0.3, 0.2)), 24)
        radii = np.hypot(rule.nodes[:, 0] - 0.3, rule.nodes[:, 1] - 0.2)
        assert np.max(np.abs(radii - 0.7)) < 1e-14
        assert np.all(rule.weights == 1.0 / 24)

    def test_disk_nodes_inside(self):
        rule = build_quadrature(Disk(0.5), 12)
        assert np.max(np.hypot(rule.nodes[:, 0], rule.nodes[:, 1])) <= 0.5

    def test_disk_integrates_radial_monomials(self):
        # density 2r/r1^2 gives int r^(2m) dmu = r1^(2m)/(m+1)
        r1 = 0.8
        rule = build_quadrature(Disk(r1), 20)
        r = np.hypot(rule.nodes[:, 0], rule.nodes[:, 1])
        for m in range(0, 5):
            got = float(np.sum(rule.weights * r ** (2 * m)))
            assert got == pytest.approx(r1 ** (2 * m) / (m + 1), rel=1e-12)

    def test_disk_angular_orthogonality(self):
        rule = build_quadrature(Disk(0.5), 10)
        beta = np.arctan2(rule.nodes[:, 1], rule.nodes[:, 0])
        for k in range(1, 15):
            assert abs(np.sum(rule.weights * np.exp(1j * k * beta))) < 1e-13

    def test_rectangle_integrates_monomials(self):
        w, h = 1.4, 0.6
        rule = build_quadrature(Rectangle(w, h), 12)
        x, y = rule.nodes[:, 0], rule.nodes[:, 1]
        assert float(np.sum(rule.weights * x * x)) == pytest.approx(w * w / 12, rel=1e-12)
        assert float(np.sum(rule.weights * y * y)) == pytest.approx(h * h / 12, rel=1e-12)
        assert float(np.sum(rule.weights * x * y)) == pytest.approx(0.0, abs=1e-14)

    def test_parallel_lines_single_line_equals_segment(self):
        seg_rule = build_quadrature(Segment(1.3, angle=0.4, center=(0.1, 0.2)), 11)
        line_rule = build_quadrature(
            ParallelLines(1, 1.3, 0.0, angle=0.4, center=(0.1, 0.2)), 11
        )
        assert np.array_equal(seg_rule.nodes, line_rule.nodes)
        assert np.array_equal(seg_rule.weights, line_rule.weights)

    def test_parallel_lines_weight_split(self):
        rule = build_quadrature(ParallelLines(4, 1.0, 1.0), 8)
        assert len(rule) == 32
        # each line carries exactly a quarter of the mass
        assert float(np.sum(rule.weights[:8])) == pytest.approx(0.25, abs=1e-14)

    def test_degenerate_point(self):
        for aperture in [Segment(0.0, center=(0.3, 0.4)), Disk(0.0, center=(0.3, 0.4))]:
            rule = build_quadrature(aperture, 9)
            assert len(rule) == 1
            assert tuple(rule.nodes[0]) == (0.3, 0.4)
            assert rule.weights[0] == 1.0

    def test_zero_length_curve_pieces(self):
        a, b = (0.3, 0.4), (1.3, 0.4)
        point = PiecewiseCurve((LinePiece(a, a), LinePiece(a, a)))
        rule = build_quadrature(point, 9)
        assert len(rule) == 1 and tuple(rule.nodes[0]) == a and rule.weights[0] == 1.0
        gapped = build_quadrature(PiecewiseCurve((LinePiece(a, b), LinePiece(b, b))), 9)
        plain = build_quadrature(PiecewiseCurve((LinePiece(a, b),)), 9)
        assert np.array_equal(gapped.nodes, plain.nodes)
        assert np.array_equal(gapped.weights, plain.weights)

    def test_curve_measure_proportional_to_length(self):
        curve = PiecewiseCurve(
            (LinePiece((0.0, 0.0), (0.75, 0.0)), LinePiece((0.75, 0.0), (0.75, 0.25)))
        )
        rule = build_quadrature(curve, 6)
        assert float(np.sum(rule.weights[:6])) == pytest.approx(0.75, abs=1e-14)


class TestEnclosingRadius:
    def test_reference_values(self):
        assert enclosing_radius(Circle(1.0)) == 1.0
        assert enclosing_radius(Rectangle(1.0, 1.0)) == pytest.approx(math.sqrt(2) / 2)
        assert enclosing_radius(ParallelLines(4, 1.0, 1.0)) == pytest.approx(math.sqrt(2) / 2)

    def test_uncentered_aperture(self):
        assert enclosing_radius(Segment(1.0, center=(0.5, 0.0))) == pytest.approx(1.0)
        assert enclosing_radius(Disk(0.5, center=(1.0, 0.0))) == pytest.approx(1.5)

    def test_arc_extreme_point(self):
        # the far side of the arc lies beyond both endpoints
        arc = ArcPiece(center=(1.0, 0.0), radius=0.5, angle_start=-1.0, angle_stop=1.0)
        assert enclosing_radius(PiecewiseCurve((arc,))) == pytest.approx(1.5)

    def test_discrete(self):
        pts = DiscreteArray(((0.0, 0.0), (2.0, 0.0), (0.0, 1.0)))
        assert enclosing_radius(pts) == pytest.approx(2.0)


class TestCentering:
    def test_segment_example(self):
        seg = Segment(1.0, center=(0.5, 0.0))
        centered, offset = centering_transform(seg)
        assert offset == pytest.approx([0.5, 0.0], abs=1e-12)
        assert centered.center == pytest.approx((0.0, 0.0), abs=1e-12)
        assert enclosing_radius(centered) == pytest.approx(0.5, abs=1e-12)

    def test_centered_disk_fixed_point(self):
        centered, offset = centering_transform(Disk(0.7))
        assert offset == pytest.approx([0.0, 0.0], abs=1e-12)
        assert centered == Disk(0.7)

    @pytest.mark.parametrize(
        "aperture",
        [
            Segment(1.3, angle=0.7, center=(0.3, -1.1)),
            Circle(0.8, center=(1.0, 0.5)),
            Disk(0.6, center=(-0.2, 0.3)),
            Rectangle(1.2, 0.4, angle=-0.7, center=(0.1, 0.1)),
            Rectangle(1.5, 0.7, angle=0.4, center=(0.8, -0.3)),
            ParallelLines(3, 0.9, 0.6, angle=0.2, center=(0.7, -0.4)),
        ],
        ids=["segment", "circle", "disk", "rectangle", "rectangle-2", "lines"],
    )
    def test_symmetric_kinds_move_by_exactly_their_centre(self, aperture):
        # each is symmetric about its centre, which is its enclosing circle's
        centered, offset = centering_transform(aperture)
        assert tuple(offset) == aperture.center and centered.center == (0.0, 0.0)

    def test_discrete_midpoint(self):
        arr = DiscreteArray(((0.0, 0.0), (2.0, 0.0)))
        centered, offset = centering_transform(arr)
        assert offset == pytest.approx([1.0, 0.0], abs=1e-12)
        assert np.allclose(centered.as_array(), [[-1.0, 0.0], [1.0, 0.0]], atol=1e-12)

    @pytest.mark.parametrize("aperture", CONTINUOUS)
    def test_centering_never_grows_radius(self, aperture):
        shifted = _translate(aperture, (0.9, -1.7))
        centered, _ = centering_transform(shifted)
        assert enclosing_radius(centered) <= enclosing_radius(shifted) + 1e-12

    def test_translate_round_trip(self):
        for aperture in CONTINUOUS:
            moved = _translate(_translate(aperture, (0.3, -0.4)), (-0.3, 0.4))
            rule_a = build_quadrature(aperture, 7)
            rule_b = build_quadrature(moved, 7)
            assert rule_a.nodes == pytest.approx(rule_b.nodes, abs=1e-15)


class TestSmallestEnclosingCircle:
    def test_two_points(self):
        center, radius = _smallest_enclosing_circle([(0.0, 0.0), (2.0, 0.0)])
        assert center == pytest.approx([1.0, 0.0])
        assert radius == pytest.approx(1.0)

    def test_square(self):
        pts = [(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)]
        center, radius = _smallest_enclosing_circle(pts)
        assert center == pytest.approx([0.0, 0.0], abs=1e-12)
        assert radius == pytest.approx(math.sqrt(2.0))

    def test_interior_points_ignored(self):
        pts = [(1.0, 0.0), (-1.0, 0.0), (0.0, 0.3), (0.2, -0.1)]
        center, radius = _smallest_enclosing_circle(pts)
        assert center == pytest.approx([0.0, 0.0], abs=1e-12)
        assert radius == pytest.approx(1.0)

    def test_contains_all_points_random_sets(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            pts = rng.normal(size=(17, 2))
            center, radius = _smallest_enclosing_circle(pts)
            dist = np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1])
            assert np.max(dist) <= radius * (1 + 1e-10)
            # minimality: no strictly smaller circle around the mean works
            assert radius <= np.max(np.hypot(*(pts - pts.mean(axis=0)).T)) + 1e-10

    def test_deterministic(self):
        pts = np.random.default_rng(3).normal(size=(40, 2))
        a = _smallest_enclosing_circle(pts)
        b = _smallest_enclosing_circle(pts)
        assert np.array_equal(a[0], b[0]) and a[1] == b[1]


#: Every numeric field of every aperture kind and curve piece, and the
#: positions of ``discrete_correlation``, each made from one bad value.
NON_FINITE_FIELDS = {
    "Segment-length": lambda v: Segment(v),
    "Segment-angle": lambda v: Segment(1.0, angle=v),
    "Segment-center": lambda v: Segment(1.0, center=(0.0, v)),
    "Circle-radius": lambda v: Circle(v),
    "Circle-center": lambda v: Circle(1.0, center=(v, 0.0)),
    "Disk-radius": lambda v: Disk(v),
    "Disk-center": lambda v: Disk(1.0, center=(v, 0.0)),
    "Rectangle-width": lambda v: Rectangle(v, 1.0),
    "Rectangle-height": lambda v: Rectangle(1.0, v),
    "Rectangle-angle": lambda v: Rectangle(1.0, 1.0, angle=v),
    "Rectangle-center": lambda v: Rectangle(1.0, 1.0, center=(v, 0.0)),
    "LinePiece-start": lambda v: LinePiece((v, 0.0), (1.0, 0.0)),
    "LinePiece-end": lambda v: LinePiece((0.0, 0.0), (1.0, v)),
    "ArcPiece-center": lambda v: ArcPiece((v, 0.0), 1.0, 0.0, 1.0),
    "ArcPiece-radius": lambda v: ArcPiece((0.0, 0.0), v, 0.0, 1.0),
    "ArcPiece-angle_start": lambda v: ArcPiece((0.0, 0.0), 1.0, v, 1.0),
    "ArcPiece-angle_stop": lambda v: ArcPiece((0.0, 0.0), 1.0, 0.0, v),
    "ParallelLines-count": lambda v: ParallelLines(v, 1.0, 1.0),
    "ParallelLines-length": lambda v: ParallelLines(2, v, 1.0),
    "ParallelLines-span": lambda v: ParallelLines(2, 1.0, v),
    "ParallelLines-angle": lambda v: ParallelLines(2, 1.0, 1.0, angle=v),
    "ParallelLines-center": lambda v: ParallelLines(2, 1.0, 1.0, center=(0.0, v)),
    "DiscreteArray-points": lambda v: DiscreteArray(((0.0, 0.0), (v, 1.0))),
    "discrete_correlation-positions": lambda v: discrete_correlation(
        [[0.0, 0.0], [v, 1.0]], IsotropicPas()
    ),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("case", sorted(NON_FINITE_FIELDS))
def test_refuses_non_finite_field(case, value):
    # NaN passes every sign check, and the build then fails far from the input
    owner, field = case.split("-")
    with pytest.raises(ValueError, match=f"^{owner} requires finite {field}$"):
        NON_FINITE_FIELDS[case](value)


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Segment(-1.0)
        with pytest.raises(ValueError):
            Circle(0.0)
        with pytest.raises(ValueError):
            Rectangle(1.0, 0.0)
        with pytest.raises(ValueError):
            ParallelLines(0, 1.0, 1.0)
        with pytest.raises(ValueError):
            DiscreteArray(())

    def test_curve_requires_continuity(self):
        with pytest.raises(ValueError):
            PiecewiseCurve(
                (LinePiece((0.0, 0.0), (1.0, 0.0)), LinePiece((2.0, 0.0), (3.0, 0.0)))
            )
