"""Inputs of the three divbench workloads.

* ``figs``: the nine shipped paper scenarios through the CLI entry point.
* ``large``: five single solves whose Gram assembly dominates, configs in
  ``divbench/configs``.
* ``arrays``: seeded antenna arrays, each evaluated by ``discrete_correlation``
  plus ``discrete_diversity`` and by the ``spectrum`` route of a
  ``DiscreteArray``.

An operation is one solved point: one spectrum, one sweep row, or one
array evaluation.  This module imports neither divspec nor the reference
code, so the worker and the reference generator share the input
definitions without sharing any computation.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("figs", "large", "arrays")

#: (operation group id, CLI command, config path relative to the repo root)
FIGS = tuple(
    (f"fig{k}", "spectrum" if k in (2, 3) else "sweep", f"scenarios/fig{k}.cfg")
    for k in range(2, 11)
)
LARGE = tuple(
    (name, "spectrum", f"divbench/configs/{name}.cfg")
    for name in ("segment40", "disk3", "rectangle", "lines8", "curve")
)
FIXED_INPUTS = FIGS + LARGE

#: The warm-up solve of every worker and of the set-up probe: fig2's
#: scenario, one circle of radius one under a 90 degree uniform PAS.
WARMUP = {
    "aperture": {"kind": "circle", "radius": 1.0},
    "pas": {"kind": "uniform", "delta_deg": 90.0, "alpha0_deg": 0.0},
}

# Array sets.  Sizes and extents are fixed so that every seed costs the
# same work.  Uniform arrays have lambda/2 spacing and a fixed orientation:
# divspec evaluates Bessel functions once per distinct displacement radius,
# and a seeded rotation would change, through rounding, how many of their
# equal distances stay equal.  A random-in-disk array puts two antennas at
# the ends of a diameter (seeded direction), so its enclosing radius and
# largest pairwise distance are exactly R and 2R; the seed also draws its
# other antennas and every PAS mean angle.
ARRAY_SIZES = (8, 16, 32, 64, 128)
RANDOM_DISKS = ((12, 1.1), (24, 1.7), (48, 2.6), (96, 3.7))
ARRAY_PAS = (
    {"kind": "isotropic"},
    {"kind": "uniform", "delta_deg": 90.0},
    {"kind": "von_mises", "kappa": 4.0},
    {"kind": "uniform", "delta_deg": 40.0},
)


def config_path(rel: str) -> str:
    return os.path.join(ROOT, rel)


def load_config(rel: str) -> dict:
    with open(config_path(rel), "r", encoding="utf-8") as fh:
        return json.load(fh)


def sweep_values(sweep: dict) -> list:
    """Parameter of each sweep row, in the order the CLI writes the rows."""
    values = np.linspace(float(sweep["start"]), float(sweep["stop"]), int(sweep["steps"]))
    if sweep["kind"] == "antennas":
        values = np.unique(np.rint(values).astype(int))
    return [float(v) for v in values]


def points_per_pass(workload: str) -> int:
    """Solved points in one pass: spectra, sweep rows and array evaluations."""
    if workload == "arrays":
        return 2 * (2 * len(ARRAY_SIZES) + len(RANDOM_DISKS))
    total = 0
    for _, command, rel in FIGS if workload == "figs" else LARGE:
        total += 1 if command == "spectrum" else len(sweep_values(load_config(rel)["sweep"]))
    return total


def _check_order_margin(radius: float) -> None:
    # ceil(e*pi*r) decides the truncation order; keep it away from a jump
    # so that rounding in the seeded geometry cannot change the work done
    x = math.e * math.pi * radius
    if abs(x - round(x)) < 1e-6:
        raise ValueError(f"array extent {radius} sits on a truncation-order jump")


def array_inputs(seed: int) -> list:
    """Seeded arrays: dicts with ``name``, ``points`` (L, 2) and ``pas``."""
    rng = np.random.default_rng(seed)
    arrays = []
    for L in ARRAY_SIZES:
        radius = L * 0.5 / (2.0 * math.pi)
        beta = 2.0 * math.pi * np.arange(L) / L
        arrays.append(("uca", L, radius, radius * np.stack([np.cos(beta), np.sin(beta)], axis=1)))
    for L in ARRAY_SIZES:
        t = (np.arange(L) - 0.5 * (L - 1)) * 0.5
        arrays.append(("ula", L, 0.25 * (L - 1), np.stack([t, np.zeros(L)], axis=1)))
    for L, radius in RANDOM_DISKS:
        th = rng.uniform(0.0, 2.0 * math.pi)
        rim = radius * np.array([[math.cos(th), math.sin(th)], [-math.cos(th), -math.sin(th)]])
        r = radius * np.sqrt(rng.uniform(0.0, 1.0, L - 2))
        b = rng.uniform(0.0, 2.0 * math.pi, L - 2)
        inner = np.stack([r * np.cos(b), r * np.sin(b)], axis=1)
        arrays.append(("disk", L, radius, np.concatenate([rim, inner])))
    out = []
    for i, (kind, L, radius, points) in enumerate(arrays):
        _check_order_margin(radius)
        _check_order_margin(2.0 * radius)
        pas = dict(ARRAY_PAS[i % len(ARRAY_PAS)])
        if pas["kind"] != "isotropic":
            pas["alpha0_deg"] = float(rng.uniform(0.0, 360.0))
        out.append({"name": f"{kind}{L}", "points": points, "pas": pas})
    return out
