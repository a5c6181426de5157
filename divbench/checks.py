"""Output checks of the divbench workloads, and their self-test.

Every operation's output is parsed into a plain record and checked against
properties that hold for any correct solve and against the references of
:mod:`reference`.  Each check has a name; an operation fails when one of
its checks fails.  ``certificate`` is the one known fault: the
``omega_corrected`` interval of continuous sweep rows does not contain the
converged omega (ROADMAP item 3).  Its failures are counted as failed
operations; a failure of any other check makes the run incorrect.

Tolerances:

* ``ROUND = 1e-12``: round-off slack for the trace (divspec's own operator
  validation grants the same above one) and, relative, for recomputing
  omega from the printed rows, which carry 17 significant digits.
* The trace enclosure.  With ``a(x)`` the basis values at ``x`` split into
  the kept orders ``a_N`` and the tail ``a_t``, the exact kernel gives
  ``a^H R a = rho(0) = 1``, so the truncated trace is
  ``int a_N^H R a_N dmu = 1 - 2 Re int a_N^H R a_t dmu - int a_t^H R a_t dmu``.
  With ``|a_N| <= 1``, ``|R| <= rho_max`` and ``|a_t|^2 <= tau``, the
  Bessel square tail bound for the printed ``N`` and ``r1``, the trace
  lies in ``[1 - 2 rho_max sqrt(tau) - rho_max tau, 1 + 2 rho_max sqrt(tau)]``.
  An isotropic PAS (``rho_max = 1``) has ``R = I`` and no cross term, so
  there the enclosure is ``[1 - tau, 1]``.  A non-isotropic trace does
  exceed one: the piecewise curve of ``large`` sums to ``1 + 2.1e-12``.
* ``OMEGA_RTOL = 1e-7``: omega against its reference.  The printed
  certificates are about 1e5 times looser than the observed error and
  would let an accuracy loss of several digits pass.  The observed error
  is the program's own truncation at ``N = N_D + 10``; it is largest for
  small apertures under a uniform PAS, whose Fourier coefficients decay
  only as 1/n: 1.1e-9 relative for the 8-antenna linear array (arrays seed
  154, worst of seeds 100-159), 2e-10 on the paper figures.  1e-7 leaves a
  ninety-fold margin and still fails a solver that loses three digits.
* eigenvalues and ``sum(lam^2)`` are held to the printed
  ``eig_error_bound`` and ``hs_error_bound``.

Every tolerance also adds ten times the reference's own doubling error.
"""

from __future__ import annotations

import math

import numpy as np

ROUND = 1e-12
OMEGA_RTOL = 1e-7
KNOWN_FAULTS = frozenset({"certificate"})


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def parse_spectrum_csv(text: str) -> dict:
    meta = {}
    lam = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = float(value)
        elif line and line[0].isdigit():
            lam.append(float(line.split(",")[1]))
    return {
        "eigenvalues": np.asarray(lam),
        "N": int(meta["N"]),
        "r1": meta["r1"],
        "rho_max": meta["rho_max"],
        "omega": meta["omega"],
        "eig_error_bound": meta["eig_error_bound"],
        "hs_error_bound": meta["hs_error_bound"],
    }


def parse_sweep_csv(text: str) -> list:
    rows = []
    for line in text.splitlines():
        if line.startswith("#") or line.startswith("param"):
            continue
        fields = line.split(",")
        rows.append(
            {
                "param": float(fields[0]),
                "omega": float(fields[1]) if fields[1] else math.nan,
                "omega_corrected": float(fields[2]) if fields[2] else math.nan,
                "error_bound": float(fields[3]) if fields[3] else math.nan,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def omega_tolerance(omega: float, ref: dict) -> float:
    return OMEGA_RTOL * abs(omega) + 10.0 * ref["omega_err"]


def trace_enclosure(out: dict) -> tuple:
    """Interval that holds the exact truncated trace (see module docstring)."""
    # certified bound on the Bessel square tail for |n| > N over radius r1
    tau = 0.01 * math.exp(2 * (math.ceil(math.e * math.pi * out["r1"]) - out["N"]))
    rho = out["rho_max"]
    if rho <= 1.0 + ROUND:
        return 1.0 - tau - ROUND, 1.0 + ROUND
    cross = 2.0 * rho * math.sqrt(tau)
    return 1.0 - cross - rho * tau - ROUND, 1.0 + cross + ROUND


def check_spectrum(out: dict, ref: dict) -> dict:
    lam = np.asarray(out["eigenvalues"], dtype=float)
    s1 = float(np.sum(lam))
    s2 = float(np.sum(lam * lam))
    omega = out["omega"]
    lo, hi = trace_enclosure(out)
    res = {
        "nonnegative": bool(np.all(lam >= 0.0)),
        "descending": bool(np.all(np.diff(lam) <= 0.0)),
        "trace_upper": s1 <= hi,
        "trace_lower": s1 >= lo,
        "omega_consistent": s2 > 0.0 and abs(omega - s1 * s1 / s2) <= ROUND * omega,
        "omega_reference": abs(omega - ref["omega_ref"]) <= omega_tolerance(omega, ref),
        "hs_reference": abs(s2 - ref["hs_ref"]) <= out["hs_error_bound"] + 10.0 * ref["hs_err"],
    }
    if "eigs_ref" in ref:
        want = np.asarray(ref["eigs_ref"], dtype=float)
        k = max(len(lam), len(want))
        diff = np.pad(lam, (0, k - len(lam))) - np.pad(want, (0, k - len(want)))
        res["eig_reference"] = float(np.max(np.abs(diff))) <= (
            out["eig_error_bound"] + 10.0 * ref["eigs_err"]
        )
    return res


def check_sweep_row(row: dict, ref: dict) -> dict:
    omega = row["omega"]
    if math.isnan(omega):
        return {"solved": False}
    return {
        "solved": True,
        "param": abs(row["param"] - ref["param"]) <= ROUND * max(1.0, abs(ref["param"])),
        "omega_reference": abs(omega - ref["omega_ref"]) <= omega_tolerance(omega, ref),
        "certificate": abs(ref["omega_ref"] - row["omega_corrected"])
        <= row["error_bound"] + 10.0 * ref["omega_err"],
    }


def check_array_omega(out: dict, ref: dict) -> dict:
    omega = out["omega"]
    return {
        "omega_range": 1.0 - ROUND <= omega <= out["L"] * (1.0 + ROUND),
        "omega_reference": abs(omega - ref["omega_ref"]) <= omega_tolerance(omega, ref),
    }


CHECKERS = {
    "spectrum": check_spectrum,
    "sweep_row": check_sweep_row,
    "array_omega": check_array_omega,
}


def run_check(kind: str, out: dict, ref: dict) -> dict:
    return CHECKERS[kind](out, ref)


# ---------------------------------------------------------------------------
# Self-test: a perturbed copy of a passing output must fail the check
# ---------------------------------------------------------------------------


def _scaled(out: dict, factor: float) -> dict:
    return {**out, "eigenvalues": np.asarray(out["eigenvalues"]) * factor}


def _bump_first(out: dict, delta: float) -> dict:
    lam = np.array(out["eigenvalues"], dtype=float)
    lam[0] += delta
    return {**out, "eigenvalues": lam}


def _swap_ends(out: dict) -> dict:
    lam = np.array(out["eigenvalues"], dtype=float)
    lam[[0, -1]] = lam[[-1, 0]]
    return {**out, "eigenvalues": lam}


def _negative_last(out: dict) -> dict:
    lam = np.array(out["eigenvalues"], dtype=float)
    lam[-1] = -1e-300
    return {**out, "eigenvalues": lam}


def _move(out: dict, key: str, delta: float) -> dict:
    return {**out, key: out[key] + delta}


PERTURBATIONS = {
    "spectrum": {
        "nonnegative": lambda o, r: _negative_last(o),
        "descending": lambda o, r: _swap_ends(o),
        "trace_upper": lambda o, r: _scaled(
            o, (trace_enclosure(o)[1] + 1e-6) / np.sum(o["eigenvalues"])
        ),
        "trace_lower": lambda o, r: _scaled(
            o, (trace_enclosure(o)[0] - 1e-6) / np.sum(o["eigenvalues"])
        ),
        "omega_consistent": lambda o, r: _move(o, "omega", 1e-9 * o["omega"]),
        "omega_reference": lambda o, r: _move(o, "omega", 2.0 * omega_tolerance(o["omega"], r)),
        "hs_reference": lambda o, r: _bump_first(
            o, 2.0 * (o["hs_error_bound"] + 10.0 * r["hs_err"]) / o["eigenvalues"][0]
        ),
        "eig_reference": lambda o, r: _bump_first(
            o, 2.0 * (o["eig_error_bound"] + 10.0 * r.get("eigs_err", 0.0))
        ),
    },
    "sweep_row": {
        "solved": lambda o, r: {**o, "omega": math.nan},
        "param": lambda o, r: _move(o, "param", 1e-9 * max(1.0, abs(o["param"]))),
        "omega_reference": lambda o, r: _move(o, "omega", 2.0 * omega_tolerance(o["omega"], r)),
        "certificate": lambda o, r: {
            **o,
            "omega_corrected": r["omega_ref"] + 2.0 * (o["error_bound"] + 10.0 * r["omega_err"]),
        },
    },
    "array_omega": {
        "omega_range": lambda o, r: {**o, "omega": o["L"] + 1.0},
        "omega_reference": lambda o, r: _move(o, "omega", 2.0 * omega_tolerance(o["omega"], r)),
    },
}


def self_test(samples: list) -> list:
    """Perturb one passing sample per (kind, check); return checks that missed.

    ``samples`` holds ``(kind, output, reference)`` triples whose checks
    passed.  Each perturbation targets one check; the returned list names
    every check the perturbed copy still passed, so it is empty when the
    checks are live.
    """
    missed = []
    covered = set()
    for kind, out, ref in samples:
        for name, perturb in PERTURBATIONS[kind].items():
            if (kind, name) in covered or not run_check(kind, out, ref).get(name, False):
                continue
            covered.add((kind, name))
            if run_check(kind, perturb(out, ref), ref).get(name, True):
                missed.append(f"{kind}.{name}")
    return missed
