"""Reference values for the divbench output checks, computed apart from divspec.

Nothing here imports divspec.  The spatial correlation kernel is evaluated
straight from its definition,

    rho(d) = int S(alpha) exp(j*2*pi*d.u(alpha)) d(alpha),  u = (cos, sin),

by angular quadrature of the PAS density (periodic trapezoid for the
isotropic and von Mises densities, Gauss-Legendre over the opening of a
uniform one).  From the kernel:

* the exact trace of every unit-mass aperture operator is 1, so the
  diversity measure is ``1 / HS`` with ``HS = int int |rho(x-y)|^2 dmu dmu``;
  HS is reduced to 1-D (segments, parallel lines) or 2-D (circle, disk,
  rectangle, piecewise curve) autocorrelation integrals;
* curves get Nystrom spectra (kernel on a Gauss or trapezoid node set,
  scaled by the square roots of the weights);
* the isotropic disk has the closed form
  ``lam_n = J_n(z)^2 - J_{n-1}(z) J_{n+1}(z)``, ``z = 2*pi*R``;
* an antenna array's spectrum is ``eigvalsh(R_ref) / L``.

Every reference is computed twice, the second time with all node counts
doubled; the second value is used and the difference is reported as its
error (``*_err``).

Run ``python3 divbench/reference.py`` to regenerate ``refs.json``, the
cache of references for the fixed inputs of the ``figs`` and ``large``
workloads.  Array references depend on the seed and are computed by
``run.py`` after the timed process has exited.
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np
from scipy import special

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

TWO_PI = 2.0 * math.pi
REFS_PATH = os.path.join(HERE, "refs.json")

# kernel evaluations are done in blocks of at most this many d.u products
_BLOCK = 2_000_000


# ---------------------------------------------------------------------------
# PAS densities and the kernel
# ---------------------------------------------------------------------------


def angular_rule(pas: dict, m: int):
    """Angles and weights of an m-node rule for ``int S(alpha) f(alpha)``."""
    kind = pas["kind"]
    alpha0 = math.radians(float(pas.get("alpha0_deg", 0.0)))
    if kind == "isotropic":
        alpha = TWO_PI * np.arange(m) / m
        return alpha, np.full(m, 1.0 / m)
    if kind == "uniform":
        delta = math.radians(float(pas["delta_deg"]))
        x, w = np.polynomial.legendre.leggauss(m)
        return alpha0 + 0.5 * delta * x, 0.5 * w
    if kind == "von_mises":
        kappa = float(pas["kappa"])
        alpha = TWO_PI * np.arange(m) / m
        w = np.exp(kappa * (np.cos(alpha) - 1.0))
        return alpha + alpha0, w / w.sum()
    raise ValueError(f"no reference density for pas kind {kind!r}")


def angular_nodes(pas: dict, d_max: float, level: int) -> int:
    """Node count resolving ``exp(j*2*pi*d.u)`` for ``|d| <= d_max``."""
    kappa = float(pas.get("kappa", 0.0))
    m = math.ceil(1.4 * TWO_PI * d_max + kappa + 48)
    return level * (m + m % 2)


def kernel(d, pas: dict, m: int) -> np.ndarray:
    """``rho(d)`` at displacements ``d`` of shape (K, 2)."""
    d = np.asarray(d, dtype=float).reshape(-1, 2)
    alpha, w = angular_rule(pas, m)
    u = TWO_PI * np.stack([np.cos(alpha), np.sin(alpha)])
    out = np.empty(len(d), dtype=complex)
    step = max(1, _BLOCK // m)
    for lo in range(0, len(d), step):
        phase = d[lo : lo + step] @ u
        out[lo : lo + step] = np.cos(phase) @ w + 1j * (np.sin(phase) @ w)
    return out


def _hermitian_kernel_matrix(nodes, pas: dict, m: int) -> np.ndarray:
    n = len(nodes)
    iu, ku = np.triu_indices(n, k=1)
    K = np.eye(n, dtype=complex)
    vals = kernel(nodes[iu] - nodes[ku], pas, m)
    K[iu, ku] = vals
    K[ku, iu] = np.conj(vals)
    return K


def _diameter(nodes) -> float:
    lo = nodes.min(axis=0)
    hi = nodes.max(axis=0)
    return float(np.hypot(*(hi - lo)))


# ---------------------------------------------------------------------------
# Geometry: node sets in the config schema of the divspec CLI
# ---------------------------------------------------------------------------


def _gauss01(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _curve_pieces(ap: dict):
    """(point(t), length) pairs of a piecewise curve config."""
    pieces = []
    for piece in ap["pieces"]:
        if piece["type"] == "line":
            a = np.asarray(piece["start"], dtype=float)
            b = np.asarray(piece["end"], dtype=float)
            pieces.append((lambda t, a=a, b=b: a + t[:, None] * (b - a), float(np.hypot(*(b - a)))))
        else:
            c = np.asarray(piece["center"], dtype=float)
            r = float(piece["radius"])
            t0 = math.radians(piece["start_deg"])
            t1 = math.radians(piece["stop_deg"])

            def point(t, c=c, r=r, t0=t0, t1=t1):
                th = t0 + t * (t1 - t0)
                return c + r * np.stack([np.cos(th), np.sin(th)], axis=1)

            pieces.append((point, r * abs(t1 - t0)))
    return pieces


def curve_nodes(ap: dict, level: int):
    """Nystrom nodes and weights (unit mass) of a curve aperture."""
    kind = ap["kind"]
    if kind == "circle":
        r = float(ap["radius"])
        n = level * (math.ceil(1.4 * 2.0 * TWO_PI * r) + 32)
        beta = TWO_PI * np.arange(n) / n
        return r * np.stack([np.cos(beta), np.sin(beta)], axis=1), np.full(n, 1.0 / n)
    if kind == "segment":
        length = float(ap["length"])
        th = math.radians(ap.get("angle_deg", 0.0))
        n = level * (math.ceil(1.2 * math.pi * length) + 48)
        t, w = _gauss01(n)
        e = np.array([math.cos(th), math.sin(th)])
        return (t - 0.5)[:, None] * length * e, w
    if kind == "parallel_lines":
        count = int(ap["count"])
        length = float(ap["length"])
        th = math.radians(ap.get("angle_deg", 0.0))
        e = np.array([math.cos(th), math.sin(th)])
        nrm = np.array([-math.sin(th), math.cos(th)])
        n = level * (math.ceil(1.2 * math.pi * length) + 48)
        t, w = _gauss01(n)
        offsets = np.linspace(-0.5, 0.5, count) * float(ap["span"]) if count > 1 else [0.0]
        nodes = np.concatenate([o * nrm + (t - 0.5)[:, None] * length * e for o in offsets])
        return nodes, np.tile(w / count, count)
    if kind == "piecewise_curve":
        pieces = _curve_pieces(ap)
        total = sum(p[1] for p in pieces)
        nodes, weights = [], []
        for point, length in pieces:
            t, w = _gauss01(level * (math.ceil(1.2 * math.pi * length) + 48))
            nodes.append(point(t))
            weights.append(w * length / total)
        return np.concatenate(nodes), np.concatenate(weights)
    raise ValueError(f"no Nystrom nodes for aperture kind {kind!r}")


# ---------------------------------------------------------------------------
# References at one resolution level
# ---------------------------------------------------------------------------


def nystrom(ap: dict, pas: dict, level: int):
    """Descending Nystrom eigenvalues of a curve aperture."""
    nodes, w = curve_nodes(ap, level)
    K = _hermitian_kernel_matrix(nodes, pas, angular_nodes(pas, _diameter(nodes), level))
    sw = np.sqrt(w)
    return np.linalg.eigvalsh(sw[:, None] * K * sw[None, :])[::-1]


def hs_segment(length: float, angle_deg: float, pas: dict, level: int) -> float:
    """``HS = 2 int_0^l |rho(t e)|^2 (1 - t/l) / l dt`` (segment autocorrelation)."""
    th = math.radians(angle_deg)
    t, w = _gauss01(level * (math.ceil(TWO_PI * length) + 32))
    t *= length
    d = t[:, None] * np.array([math.cos(th), math.sin(th)])
    rho = kernel(d, pas, angular_nodes(pas, length, level))
    return float(np.sum(2.0 * w * (1.0 - t / length) * np.abs(rho) ** 2))


def hs_parallel_lines(ap: dict, pas: dict, level: int) -> float:
    """Average over line pairs of the segment autocorrelation integral."""
    count = int(ap["count"])
    length = float(ap["length"])
    span = float(ap["span"])
    th = math.radians(ap.get("angle_deg", 0.0))
    e = np.array([math.cos(th), math.sin(th)])
    nrm = np.array([-math.sin(th), math.cos(th)])
    offsets = np.linspace(-0.5, 0.5, count) * span if count > 1 else np.zeros(1)
    t, w = _gauss01(level * (math.ceil(TWO_PI * length) + 32))
    t *= length
    tri = w * (1.0 - t / length)
    m = angular_nodes(pas, length + span, level)
    total = 0.0
    for oi in offsets:
        for ok in offsets:
            for sign in (1.0, -1.0):
                d = (oi - ok) * nrm + sign * t[:, None] * e
                total += float(np.sum(tri * np.abs(kernel(d, pas, m)) ** 2))
    return total / count**2


def hs_circle(radius: float, pas: dict, level: int) -> float:
    """Mean of ``|rho(x - y)|^2`` over a periodic trapezoid grid on the circle."""
    nodes, _ = curve_nodes({"kind": "circle", "radius": radius}, level)
    d = (nodes[:, None, :] - nodes[None, :, :]).reshape(-1, 2)
    rho = kernel(d, pas, angular_nodes(pas, 2.0 * radius, level))
    return float(np.mean(np.abs(rho) ** 2))


def hs_disk(radius: float, pas: dict, level: int) -> float:
    """Disk autocorrelation integral in polar coordinates, ``s = 2R cos(theta)``.

    The lens area of two radius-R disks at distance s is
    ``2R^2 (theta - sin(theta) cos(theta))``; with the Jacobian this gives
    ``HS = 8/pi^2 int_0^{pi/2} sc (theta - sc) <|rho(s u)|^2>_phi 2pi dtheta``
    with ``sc = sin(theta) cos(theta)``, an analytic integrand.
    """
    n_theta = level * (math.ceil(TWO_PI * 2.0 * radius) + 32)
    n_phi = level * (math.ceil(1.4 * 2.0 * TWO_PI * 2.0 * radius) + 32)
    x, w = np.polynomial.legendre.leggauss(n_theta)
    theta = 0.25 * math.pi * (x + 1.0)
    w_theta = 0.25 * math.pi * w
    phi = TWO_PI * np.arange(n_phi) / n_phi
    s = 2.0 * radius * np.cos(theta)
    d = (s[:, None, None] * np.stack([np.cos(phi), np.sin(phi)], axis=1)[None]).reshape(-1, 2)
    rho2 = np.abs(kernel(d, pas, angular_nodes(pas, 2.0 * radius, level))) ** 2
    inner = TWO_PI * rho2.reshape(n_theta, n_phi).mean(axis=1)
    sc = np.sin(theta) * np.cos(theta)
    return float(8.0 / math.pi**2 * np.sum(w_theta * sc * (theta - sc) * inner))


def hs_rectangle(ap: dict, pas: dict, level: int) -> float:
    """Rectangle autocorrelation ``(1-|a|/W)(1-|b|/H)/(WH)`` over its frame."""
    W = float(ap["width"])
    H = float(ap["height"])
    th = math.radians(ap.get("angle_deg", 0.0))
    e1 = np.array([math.cos(th), math.sin(th)])
    e2 = np.array([-math.sin(th), math.cos(th)])
    a, wa = _gauss01(level * (math.ceil(TWO_PI * W) + 32))
    b, wb = _gauss01(level * (math.ceil(TWO_PI * H) + 32))
    wa = wa * (1.0 - a)
    wb = wb * (1.0 - b)
    m = angular_nodes(pas, math.hypot(W, H), level)
    total = 0.0
    # |rho(-d)| = |rho(d)|: quadrants (+,+)/(-,-) and (+,-)/(-,+) pair up
    for sign in (1.0, -1.0):
        d = (a * W)[:, None, None] * e1 + sign * (b * H)[None, :, None] * e2
        rho2 = np.abs(kernel(d.reshape(-1, 2), pas, m)) ** 2
        total += 2.0 * float(np.sum(np.outer(wa, wb).ravel() * rho2))
    return total


def disk_isotropic_eigs(radius: float, level: int) -> np.ndarray:
    """Closed-form isotropic disk spectrum, orders |n| <= level*(e*pi*R + 40)."""
    n_max = level * (math.ceil(math.e * math.pi * radius) + 40)
    n = np.arange(-n_max, n_max + 1)
    z = TWO_PI * radius
    lam = special.jv(n, z) ** 2 - special.jv(n - 1, z) * special.jv(n + 1, z)
    return np.sort(lam)[::-1]


def hs_reference(ap: dict, pas: dict, level: int) -> float:
    kind = ap["kind"]
    if kind == "segment":
        return hs_segment(float(ap["length"]), ap.get("angle_deg", 0.0), pas, level)
    if kind == "circle":
        return hs_circle(float(ap["radius"]), pas, level)
    if kind == "disk":
        return hs_disk(float(ap["radius"]), pas, level)
    if kind == "rectangle":
        return hs_rectangle(ap, pas, level)
    if kind == "parallel_lines":
        return hs_parallel_lines(ap, pas, level)
    if kind == "piecewise_curve":
        return float(np.sum(nystrom(ap, pas, level) ** 2))
    raise ValueError(f"no HS reference for aperture kind {kind!r}")


# ---------------------------------------------------------------------------
# Converged references (value at level 2, error = change from level 1)
# ---------------------------------------------------------------------------


def _pair(fn):
    lo = fn(1)
    hi = fn(2)
    return hi, lo


def _prefix_diff(a: np.ndarray, b: np.ndarray) -> float:
    k = min(len(a), len(b))
    return float(np.max(np.abs(a[:k] - b[:k])))


def spectrum_reference(cfg: dict) -> dict:
    """omega, HS and (where available) eigenvalue references of one scenario."""
    ap, pas = cfg["aperture"], cfg["pas"]
    hs, hs_lo = _pair(lambda lv: hs_reference(ap, pas, lv))
    ref = {"hs_ref": hs, "hs_err": abs(hs - hs_lo)}
    eigs = None
    if ap["kind"] in ("circle", "segment", "parallel_lines", "piecewise_curve"):
        eigs, eigs_lo = _pair(lambda lv: nystrom(ap, pas, lv))
    elif ap["kind"] == "disk" and pas["kind"] == "isotropic":
        eigs, eigs_lo = _pair(lambda lv: disk_isotropic_eigs(float(ap["radius"]), lv))
    if eigs is not None:
        ref["eigs_ref"] = [float(v) for v in eigs]
        ref["eigs_err"] = _prefix_diff(eigs, eigs_lo)
        # the eigenvalue route checks the HS route: both must agree
        ref["hs_cross"] = abs(float(np.sum(eigs**2)) - hs)
    ref["omega_ref"] = 1.0 / hs
    ref["omega_err"] = ref["hs_err"] / hs**2
    return ref


def sweep_points(cfg: dict):
    """(param, config) per row of a sweep, in the row order the CLI writes."""
    sw = cfg["sweep"]
    out = []
    for v in workloads.sweep_values(sw):
        point = json.loads(json.dumps(cfg))
        ap = point["aperture"]
        if sw["kind"] == "radius":
            ap["radius"] = float(v)
        elif sw["kind"] == "length":
            ap["width" if ap["kind"] == "rectangle" else "length"] = float(v)
        elif sw["kind"] == "direction":
            point["pas"]["alpha0_deg"] = float(v)
        out.append((float(v), point))
    return sw["kind"], out


def antenna_positions(ap: dict, L: int) -> np.ndarray:
    """Uniform antenna placement of the CLI's antennas sweep on a base curve."""
    if ap["kind"] == "circle":
        beta = TWO_PI * np.arange(L) / L
        return float(ap["radius"]) * np.stack([np.cos(beta), np.sin(beta)], axis=1)
    if L == 1:
        return np.zeros((1, 2))
    th = math.radians(ap.get("angle_deg", 0.0))
    t = np.linspace(-0.5, 0.5, L) * float(ap["length"])
    return t[:, None] * np.array([math.cos(th), math.sin(th)])


def array_reference(points, pas: dict) -> dict:
    """``R_ref`` by angular quadrature; spectrum ``eigvalsh(R_ref)/L``."""
    pts = np.asarray(points, dtype=float)
    L = len(pts)
    d_max = _diameter(pts)

    def level(lv):
        return _hermitian_kernel_matrix(pts, pas, angular_nodes(pas, d_max, lv))

    R, R_lo = _pair(level)
    eigs = np.linalg.eigvalsh(R)[::-1] / L
    eigs_lo = np.linalg.eigvalsh(R_lo)[::-1] / L
    s2 = float(np.sum(np.abs(R) ** 2))
    omega = L * L / s2
    return {
        "omega_ref": omega,
        "omega_err": abs(omega - L * L / float(np.sum(np.abs(R_lo) ** 2))),
        "hs_ref": s2 / (L * L),
        "hs_err": abs(s2 - float(np.sum(np.abs(R_lo) ** 2))) / (L * L),
        "eigs_ref": eigs.tolist(),
        "eigs_err": _prefix_diff(eigs, eigs_lo),
    }


def sweep_reference(cfg: dict) -> list:
    """omega reference per sweep row."""
    kind, points = sweep_points(cfg)
    rows = []
    for value, point in points:
        if kind == "antennas":
            ref = array_reference(antenna_positions(point["aperture"], int(value)), point["pas"])
        else:
            ref = spectrum_reference({"aperture": point["aperture"], "pas": point["pas"]})
        rows.append({"param": value, "omega_ref": ref["omega_ref"], "omega_err": ref["omega_err"]})
    return rows


def load_refs() -> dict:
    with open(REFS_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    """Regenerate refs.json for the fixed inputs of ``figs`` and ``large``."""
    refs = {}
    for op_id, command, path in workloads.FIXED_INPUTS:
        cfg = workloads.load_config(path)
        ref = spectrum_reference(cfg) if command == "spectrum" else {"rows": sweep_reference(cfg)}
        if ref.get("hs_cross", 0.0) > 1e-10:
            raise SystemExit(f"{op_id}: eigenvalue and HS references disagree by {ref['hs_cross']:.2e}")
        refs[op_id] = {"config": cfg, **ref}
        worst = max((r["omega_err"] for r in ref["rows"]), default=0.0) if "rows" in ref else ref["omega_err"]
        print(f"{op_id}: omega_err {worst:.2e} {ref.get('eigs_err', '')} {ref.get('hs_cross', '')}", flush=True)
    with open(REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
