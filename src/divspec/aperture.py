"""Planar apertures carrying a unit-mass measure, plus quadrature rules.

An aperture is the curve, region, or point set over which the fading field
is observed.  Each kind carries the normalised measure ``mu(A) = 1``; the
quadrature rules produced here realise ``int_A . dmu`` with positive
weights summing to one.

Curve kinds use the normalised arc length as parameter, two-dimensional
kinds the area measure, parallel lines the average of the per-line
measures, and discrete arrays a uniform point mass per antenna.
:func:`build_quadrature` is the single node layout of every kind: the
kernel-discretisation oracle takes its nodes from it, and so does the
Gram assembly of curves and arrays.

Lengths are wavelengths, angles radians.  All types are immutable.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, replace

import numpy as np

from .pas import _check_finite

__all__ = [
    "UnsupportedApertureError",
    "Segment",
    "Circle",
    "Disk",
    "Rectangle",
    "LinePiece",
    "ArcPiece",
    "PiecewiseCurve",
    "ParallelLines",
    "DiscreteArray",
    "build_quadrature",
    "enclosing_radius",
    "centering_transform",
]


class UnsupportedApertureError(ValueError):
    """Raised when an operation does not apply to the given aperture kind."""


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights realising the unit-mass aperture measure."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.ascontiguousarray(np.asarray(self.nodes, dtype=float))
        weights = np.ascontiguousarray(np.asarray(self.weights, dtype=float))
        if nodes.ndim != 2 or nodes.shape[1] != 2 or nodes.shape[0] != weights.shape[0]:
            raise ValueError("QuadratureRule requires (K, 2) nodes and (K,) weights")
        if np.any(weights <= 0.0):
            raise ValueError("QuadratureRule weights must be positive")
        if abs(float(np.sum(weights)) - 1.0) > 1e-12:
            raise ValueError("QuadratureRule weights must sum to 1")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return self.nodes.shape[0]


@functools.lru_cache(maxsize=64)
def _gauss01(q: int):
    """Gauss-Legendre nodes/weights mapped to [0, 1] with unit weight sum, kept for 64 orders.

    The arrays are shared by every caller, so they are read-only.
    """
    xi, w = np.polynomial.legendre.leggauss(q)
    t, w = (xi + 1.0) / 2.0, w / 2.0
    t.flags.writeable = w.flags.writeable = False
    return t, w


def _direction(angle: float) -> np.ndarray:
    return np.array([math.cos(angle), math.sin(angle)])


def _segment_nodes(center: np.ndarray, length: float, angle: float, q: int):
    """Shared node layout for straight-line geometry (keeps one code path).

    The ``q``-point Gauss rule on ``[-1/2, 1/2]`` keeps the upper half of
    ``_gauss01``'s rule, where ``t - 1/2`` is exact, and mirrors it: node
    ``k`` is exactly ``-1`` times node ``q-1-k``, with the same weight, and
    an odd rule's middle node is 0.
    """
    t, w = _gauss01(q)
    h = q // 2
    upper = t[q - h :] - 0.5
    s = np.concatenate([-upper[::-1], np.zeros(q % 2), upper])
    w = np.concatenate([w[q - h :][::-1], w[h : q - h], w[q - h :]])
    d = _direction(angle)
    return center[None, :] + s[:, None] * length * d[None, :], w


# ---------------------------------------------------------------------------
# Aperture kinds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Segment:
    """Straight line of given length; zero length degrades to a point."""

    length: float
    angle: float = 0.0
    center: tuple = (0.0, 0.0)

    def __post_init__(self):
        _finite_fields(self)
        if self.length < 0.0:
            raise ValueError("Segment length must be >= 0")


@dataclass(frozen=True)
class Circle:
    """Circle line (not the enclosed area) of given radius."""

    radius: float
    center: tuple = (0.0, 0.0)

    def __post_init__(self):
        _finite_fields(self)
        if self.radius <= 0.0:
            raise ValueError("Circle radius must be > 0")


@dataclass(frozen=True)
class Disk:
    """Filled disk; zero radius degrades to a point."""

    radius: float
    center: tuple = (0.0, 0.0)

    def __post_init__(self):
        _finite_fields(self)
        if self.radius < 0.0:
            raise ValueError("Disk radius must be >= 0")


@dataclass(frozen=True)
class Rectangle:
    """Filled, possibly rotated rectangle."""

    width: float
    height: float
    angle: float = 0.0
    center: tuple = (0.0, 0.0)

    def __post_init__(self):
        _finite_fields(self)
        if self.width <= 0.0 or self.height <= 0.0:
            raise ValueError("Rectangle sides must be > 0")

    def corners(self) -> np.ndarray:
        c = math.cos(self.angle)
        s = math.sin(self.angle)
        rot = np.array([[c, -s], [s, c]])
        half = np.array(
            [
                [self.width / 2, self.height / 2],
                [-self.width / 2, self.height / 2],
                [-self.width / 2, -self.height / 2],
                [self.width / 2, -self.height / 2],
            ]
        )
        return np.asarray(self.center)[None, :] + half @ rot.T


@dataclass(frozen=True)
class LinePiece:
    """Straight curve piece from ``start`` to ``end``."""

    start: tuple
    end: tuple

    def __post_init__(self):
        _finite_fields(self)

    @property
    def length(self) -> float:
        return float(np.hypot(*(np.asarray(self.end) - np.asarray(self.start))))

    def point(self, t):
        a = np.asarray(self.start)
        b = np.asarray(self.end)
        t = np.asarray(t, dtype=float)
        return a[None, :] + t[:, None] * (b - a)[None, :]

    def max_origin_distance(self) -> float:
        # |x(t)| is convex along a line, so the maximum sits at an endpoint
        return max(float(np.hypot(*self.start)), float(np.hypot(*self.end)))


@dataclass(frozen=True)
class ArcPiece:
    """Circular arc, traversed from ``angle_start`` to ``angle_stop``."""

    center: tuple
    radius: float
    angle_start: float
    angle_stop: float

    def __post_init__(self):
        _finite_fields(self)
        if self.radius <= 0.0:
            raise ValueError("ArcPiece radius must be > 0")
        if self.angle_stop == self.angle_start:
            raise ValueError("ArcPiece must span a non-empty angle")

    @property
    def length(self) -> float:
        return self.radius * abs(self.angle_stop - self.angle_start)

    def point(self, t):
        t = np.asarray(t, dtype=float)
        theta = self.angle_start + t * (self.angle_stop - self.angle_start)
        c = np.asarray(self.center)
        return c[None, :] + self.radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)

    def max_origin_distance(self) -> float:
        cx, cy = self.center
        candidates = [float(np.hypot(*self.point([t])[0])) for t in (0.0, 1.0)]
        norm_c = math.hypot(cx, cy)
        if norm_c > 0.0:
            # farthest point of the full circle lies along the center ray
            phi = math.atan2(cy, cx)
            lo, hi = sorted((self.angle_start, self.angle_stop))
            k_lo = math.ceil((lo - phi) / (2 * math.pi))
            if phi + 2 * math.pi * k_lo <= hi:
                candidates.append(norm_c + self.radius)
        else:
            candidates.append(self.radius)
        return max(candidates)


@dataclass(frozen=True)
class PiecewiseCurve:
    """Chain of smooth pieces, continuous at the joints."""

    pieces: tuple

    def __post_init__(self):
        pieces = tuple(self.pieces)
        if not pieces:
            raise ValueError("PiecewiseCurve requires at least one piece")
        for before, after in zip(pieces, pieces[1:]):
            gap = after.point([0.0])[0] - before.point([1.0])[0]
            if float(np.hypot(*gap)) > 1e-9:
                raise ValueError("PiecewiseCurve pieces must join continuously")
        object.__setattr__(self, "pieces", pieces)

    @property
    def length(self) -> float:
        return sum(p.length for p in self.pieces)


@dataclass(frozen=True)
class ParallelLines:
    """``count`` equal-length parallel lines spread over a transverse span.

    The measure weights every line equally; with a single line this is a
    :class:`Segment` in all respects.
    """

    count: int
    length: float
    span: float = 0.0
    angle: float = 0.0
    center: tuple = (0.0, 0.0)

    def __post_init__(self):
        _finite_fields(self)
        if int(self.count) < 1 or int(self.count) != self.count:
            raise ValueError("ParallelLines count must be a positive integer")
        if self.length <= 0.0:
            raise ValueError("ParallelLines length must be > 0")
        if self.span < 0.0:
            raise ValueError("ParallelLines span must be >= 0")
        object.__setattr__(self, "count", int(self.count))

    def line_centers(self) -> np.ndarray:
        if self.count == 1:
            offsets = np.array([0.0])
        else:
            offsets = np.linspace(-self.span / 2.0, self.span / 2.0, self.count)
        normal = _direction(self.angle + math.pi / 2.0)
        return np.asarray(self.center)[None, :] + offsets[:, None] * normal[None, :]


@dataclass(frozen=True)
class DiscreteArray:
    """Finite set of antenna positions."""

    points: tuple

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
            raise ValueError("DiscreteArray requires a non-empty (L, 2) point list")
        _check_finite("DiscreteArray", points=pts)
        object.__setattr__(self, "points", tuple(map(tuple, pts.tolist())))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=float)


def _as_point(value) -> tuple:
    arr = np.asarray(value, dtype=float)
    if arr.shape != (2,):
        raise ValueError("a point must have exactly two coordinates")
    return (float(arr[0]), float(arr[1]))


#: The fields of an aperture or curve piece that hold a point.
_POINT_FIELDS = ("center", "start", "end")


def _finite_fields(aperture) -> None:
    """Store each point field as a float pair, then refuse a NaN or infinite field."""
    for name in _POINT_FIELDS:
        if hasattr(aperture, name):
            object.__setattr__(aperture, name, _as_point(getattr(aperture, name)))
    _check_finite(type(aperture).__name__, **vars(aperture))


def _moved(shape, offset: np.ndarray):
    """``shape`` with each of its point fields moved by ``offset``."""
    names = [name for name in _POINT_FIELDS if hasattr(shape, name)]
    return replace(shape, **{n: tuple(np.asarray(getattr(shape, n)) + offset) for n in names})


def _point_rule(center) -> QuadratureRule:
    return QuadratureRule(np.asarray([center], dtype=float), np.array([1.0]))


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


def build_quadrature(aperture, order: int) -> QuadratureRule:
    """Quadrature rule realising the aperture measure.

    ``order`` is the number of nodes per dimension per smooth piece; the
    circle receives ``order`` angular nodes, the disk an ``order`` radial
    by ``2*order + 1`` angular grid, a zero-length curve piece none.  A discrete
    array is a point mass ``1/L`` per antenna, and a zero-length curve a point.
    A segment's and a line's rule is mirrored about its centre exactly
    (see ``_segment_nodes``).
    """
    order = int(order)
    if order < 1:
        raise ValueError("quadrature order must be >= 1")

    if isinstance(aperture, Segment):
        if aperture.length == 0.0:
            return _point_rule(aperture.center)
        nodes, w = _segment_nodes(
            np.asarray(aperture.center), aperture.length, aperture.angle, order
        )
        return QuadratureRule(nodes, w)

    if isinstance(aperture, Circle):
        beta = 2.0 * math.pi * np.arange(order) / order
        nodes = np.asarray(aperture.center)[None, :] + aperture.radius * np.stack(
            [np.cos(beta), np.sin(beta)], axis=1
        )
        return QuadratureRule(nodes, np.full(order, 1.0 / order))

    if isinstance(aperture, Disk):
        if aperture.radius == 0.0:
            return _point_rule(aperture.center)
        t, wr = _gauss01(order)
        radii = aperture.radius * t
        # radial density 2r/r1^2 turns the Gauss weights into t*wr*2
        w_radial = 2.0 * t * wr
        q_beta = 2 * order + 1
        beta = 2.0 * math.pi * np.arange(q_beta) / q_beta
        ring = np.stack([np.cos(beta), np.sin(beta)], axis=1)
        nodes = (radii[:, None, None] * ring[None, :, :]).reshape(-1, 2)
        nodes += np.asarray(aperture.center)[None, :]
        weights = np.repeat(w_radial / q_beta, q_beta)
        return QuadratureRule(nodes, weights)

    if isinstance(aperture, Rectangle):
        t, w = _gauss01(order)
        u = (t - 0.5) * aperture.width
        v = (t - 0.5) * aperture.height
        U, V = np.meshgrid(u, v, indexing="ij")
        c = math.cos(aperture.angle)
        s = math.sin(aperture.angle)
        X = c * U - s * V + aperture.center[0]
        Y = s * U + c * V + aperture.center[1]
        nodes = np.stack([X.ravel(), Y.ravel()], axis=1)
        weights = np.outer(w, w).ravel()
        return QuadratureRule(nodes, weights)

    if isinstance(aperture, PiecewiseCurve):
        total = aperture.length
        if total == 0.0:
            return _point_rule(aperture.pieces[0].point([0.0])[0])
        t, w = _gauss01(order)
        pieces = [p for p in aperture.pieces if p.length > 0.0]
        nodes = np.concatenate([p.point(t) for p in pieces])
        weights = np.concatenate([w * (p.length / total) for p in pieces])
        return QuadratureRule(nodes, weights)

    if isinstance(aperture, ParallelLines):
        parts = [
            _segment_nodes(c, aperture.length, aperture.angle, order)
            for c in aperture.line_centers()
        ]
        nodes = np.concatenate([p[0] for p in parts])
        weights = np.concatenate([p[1] / aperture.count for p in parts])
        return QuadratureRule(nodes, weights)

    if isinstance(aperture, DiscreteArray):
        pts = aperture.as_array()
        return QuadratureRule(pts, np.full(len(pts), 1.0 / len(pts)))

    raise UnsupportedApertureError(f"unknown aperture kind: {type(aperture).__name__}")


# ---------------------------------------------------------------------------
# Enclosing radius and centering
# ---------------------------------------------------------------------------


def enclosing_radius(aperture) -> float:
    """Radius of the smallest origin-centred disk containing the aperture.

    Segments, rectangles, parallel lines and arrays lie in the convex hull
    of their extent points, so their radius is the largest of those
    points' norms.
    """
    if isinstance(aperture, (Circle, Disk)):
        return float(np.hypot(*aperture.center)) + aperture.radius
    if isinstance(aperture, PiecewiseCurve):
        return max(p.max_origin_distance() for p in aperture.pieces)
    pts = _extent_points(aperture)
    return float(np.max(np.hypot(pts[:, 0], pts[:, 1])))


def _extent_points(aperture) -> np.ndarray:
    """Points whose enclosing circle centres the aperture: a curve's line ends, 257 per arc."""
    if isinstance(aperture, Segment):
        if aperture.length == 0.0:
            return np.asarray([aperture.center])
        half = 0.5 * aperture.length * _direction(aperture.angle)
        c = np.asarray(aperture.center)
        return np.asarray([c + half, c - half])
    if isinstance(aperture, (Circle, Disk)):
        c = np.asarray(aperture.center)
        r = aperture.radius
        return c[None, :] + r * np.asarray([[1, 0], [-1, 0], [0, 1], [0, -1]], dtype=float)
    if isinstance(aperture, Rectangle):
        return aperture.corners()
    if isinstance(aperture, PiecewiseCurve):
        ts = [np.linspace(0.0, 1.0, 257 if isinstance(p, ArcPiece) else 2) for p in aperture.pieces]
        return np.concatenate([p.point(t) for p, t in zip(aperture.pieces, ts)])
    if isinstance(aperture, ParallelLines):
        half = 0.5 * aperture.length * _direction(aperture.angle)
        centers = aperture.line_centers()
        return np.concatenate([centers + half[None, :], centers - half[None, :]])
    if isinstance(aperture, DiscreteArray):
        return aperture.as_array()
    raise UnsupportedApertureError(f"unknown aperture kind: {type(aperture).__name__}")


def _translate(aperture, offset):
    """Return the aperture moved rigidly by ``offset``."""
    offset = np.asarray(offset, dtype=float)
    if isinstance(aperture, (Segment, Circle, Disk, Rectangle, ParallelLines)):
        return _moved(aperture, offset)
    if isinstance(aperture, PiecewiseCurve):
        return PiecewiseCurve(tuple(_moved(piece, offset) for piece in aperture.pieces))
    if isinstance(aperture, DiscreteArray):
        return DiscreteArray(tuple(map(tuple, (aperture.as_array() + offset[None, :]).tolist())))
    raise UnsupportedApertureError(f"unknown aperture kind: {type(aperture).__name__}")


def centering_transform(aperture):
    """Translate the aperture so its smallest enclosing circle is centred.

    Returns the centred aperture together with the offset that was removed
    (the original circle centre).  Centring minimises the enclosing radius
    and therefore the truncation order; the correlation kernel depends only
    on coordinate differences, so spectra are unaffected.  A segment, a
    circle, a disk, a rectangle and a set of parallel lines are symmetric
    about their centre, which is therefore their enclosing circle's: each
    moves by exactly its centre, which leaves it at the origin.
    """
    if isinstance(aperture, (Segment, Circle, Disk, Rectangle, ParallelLines)):
        center = np.asarray(aperture.center)
    else:
        center, _ = _smallest_enclosing_circle(_extent_points(aperture))
    return _translate(aperture, -center), center


# ---------------------------------------------------------------------------
# Smallest enclosing circle (Welzl's move-to-front algorithm)
# ---------------------------------------------------------------------------

_SEC_EPS = 1.0 + 1e-12


def _smallest_enclosing_circle(points):
    """Exact smallest enclosing circle of a finite point set.

    Returns ``(center, radius)``.  Expected linear time; the input order is
    shuffled with a fixed seed so results are deterministic.
    """
    pts = [tuple(map(float, p)) for p in np.asarray(points, dtype=float).reshape(-1, 2)]
    if not pts:
        raise ValueError("smallest_enclosing_circle requires at least one point")
    rng = random.Random(0x5EC)
    rng.shuffle(pts)
    circle = None
    for i, p in enumerate(pts):
        if circle is None or not _in_circle(circle, p):
            circle = _circle_one_point(pts[: i + 1], p)
    return np.asarray(circle[0]), circle[1]


def _circle_one_point(pts, p):
    circle = (p, 0.0)
    for i, q in enumerate(pts):
        if not _in_circle(circle, q):
            if circle[1] == 0.0:
                circle = _circle_diameter(p, q)
            else:
                circle = _circle_two_points(pts[: i + 1], p, q)
    return circle


def _circle_two_points(pts, p, q):
    circ = _circle_diameter(p, q)
    left = None
    right = None
    for r in pts:
        if _in_circle(circ, r):
            continue
        cross = _cross(p, q, r)
        c = _circumcircle(p, q, r)
        if c is None:
            continue
        if cross > 0.0 and (left is None or _cross(p, q, c[0]) > _cross(p, q, left[0])):
            left = c
        elif cross < 0.0 and (right is None or _cross(p, q, c[0]) < _cross(p, q, right[0])):
            right = c
    if left is None and right is None:
        return circ
    if left is None:
        return right
    if right is None:
        return left
    return left if left[1] <= right[1] else right


def _circle_diameter(a, b):
    cx = (a[0] + b[0]) / 2.0
    cy = (a[1] + b[1]) / 2.0
    r = max(math.hypot(cx - a[0], cy - a[1]), math.hypot(cx - b[0], cy - b[1]))
    return ((cx, cy), r)


def _circumcircle(a, b, c):
    ox = (min(a[0], b[0], c[0]) + max(a[0], b[0], c[0])) / 2.0
    oy = (min(a[1], b[1], c[1]) + max(a[1], b[1], c[1])) / 2.0
    ax, ay = a[0] - ox, a[1] - oy
    bx, by = b[0] - ox, b[1] - oy
    cx, cy = c[0] - ox, c[1] - oy
    d = (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by)) * 2.0
    if d == 0.0:
        return None
    x = ox + (
        (ax * ax + ay * ay) * (by - cy)
        + (bx * bx + by * by) * (cy - ay)
        + (cx * cx + cy * cy) * (ay - by)
    ) / d
    y = oy + (
        (ax * ax + ay * ay) * (cx - bx)
        + (bx * bx + by * by) * (ax - cx)
        + (cx * cx + cy * cy) * (bx - ax)
    ) / d
    r = max(
        math.hypot(x - a[0], y - a[1]),
        math.hypot(x - b[0], y - b[1]),
        math.hypot(x - c[0], y - c[1]),
    )
    return ((x, y), r)


def _in_circle(circle, p) -> bool:
    (cx, cy), r = circle
    return math.hypot(p[0] - cx, p[1] - cy) <= r * _SEC_EPS


def _cross(p, q, r) -> float:
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
