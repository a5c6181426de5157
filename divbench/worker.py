"""Closed-loop workload process of divbench: one process, one caller.

Started by ``run.py`` with the BLAS and OpenMP pools at one thread and
``src`` on ``PYTHONPATH``.  It runs one warm-up solve, then whole passes
over the workload's operations, each operation starting after the
previous one returned, until ``--seconds`` have elapsed.  Each operation
is timed alone; reading its CSV back is outside the timing.  With
``--trace 1`` the layer spans of :mod:`tracing` are installed after the
warm-up, and one untimed memory pass follows the timed ones.  The result
(pass times, every output, peak RSS, layer metrics) goes to ``--out`` as
JSON.

``--probe`` instead times nothing and exits after the warm-up: ``run.py``
measures such fresh processes as the set-up time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def _import_divspec():
    import divspec
    import divspec.cli

    src = os.path.join(workloads.ROOT, "src")
    if not os.path.abspath(divspec.__file__).startswith(src + os.sep):
        raise SystemExit(f"divspec imported from {divspec.__file__}, not from {src}")
    return divspec


def warmup(ds) -> None:
    aperture = ds.cli.make_aperture(workloads.WARMUP["aperture"])
    model = ds.cli.make_pas(workloads.WARMUP["pas"])
    ds.solve_spectrum(ds.build_truncated_operator(aperture, model))


def _cli_ops(ds, inputs, outdir):
    """One operation group per CLI call; its output is the CSV text."""
    ops = []
    for op_id, command, rel in inputs:
        out_path = os.path.join(outdir, f"{op_id}.csv")
        argv = [command, "--config", workloads.config_path(rel), "--out", out_path]

        def run(argv=argv):
            return ds.cli.main(argv)

        def collect(code, out_path=out_path):
            if code != 0:
                return {"exit": code, "text": ""}
            with open(out_path, "r", encoding="utf-8") as fh:
                return {"exit": code, "text": fh.read()}

        ops.append((op_id, run, collect))
    return ops


def _array_ops(ds, seed):
    ops = []
    for arr in workloads.array_inputs(seed):
        model = ds.cli.make_pas(arr["pas"])
        pts = arr["points"]
        discrete = ds.DiscreteArray(tuple(map(tuple, pts.tolist())))

        def omega(pts=pts, model=model):
            return ds.discrete_diversity(ds.discrete_correlation(pts, model))

        def solve(discrete=discrete, model=model):
            return ds.solve_spectrum(ds.build_truncated_operator(discrete, model))

        def spectrum_record(s):
            return {
                "eigenvalues": s.eigenvalues.tolist(),
                "N": s.N,
                "r1": s.r1,
                "rho_max": s.rho_max,
                "omega": s.omega,
                "eig_error_bound": s.eig_error_bound,
                "hs_error_bound": s.hs_error_bound,
            }

        ops.append((f"{arr['name']}.omega", omega, lambda w, L=len(pts): {"omega": w, "L": L}))
        ops.append((f"{arr['name']}.spectrum", solve, spectrum_record))
    return ops


def operations(ds, workload: str, seed: int, outdir: str):
    """``(op_id, run, collect)`` triples: ``run`` is timed, ``collect`` is not."""
    if workload == "figs":
        return _cli_ops(ds, workloads.FIGS, outdir)
    if workload == "large":
        return _cli_ops(ds, workloads.LARGE, outdir)
    return _array_ops(ds, seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    ds = _import_divspec()
    warmup(ds)
    if args.probe:
        return 0

    outdir = os.path.splitext(args.out)[0]
    os.makedirs(outdir, exist_ok=True)
    ops = operations(ds, args.workload, args.seed, outdir)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    pass_s = []
    outputs = []
    start = time.perf_counter()
    while not pass_s or time.perf_counter() - start < args.seconds:
        elapsed = 0.0
        records = []
        for op_id, run, collect in ops:
            t0 = time.perf_counter()
            raw = run()
            elapsed += time.perf_counter() - t0
            records.append(collect(raw))
        pass_s.append(elapsed)
        outputs.append(records)
    if tracer is not None:
        tracer.measure_memory = True
        for _, run, _ in ops:
            run()

    result = {
        "op_ids": [op[0] for op in ops],
        "pass_s": pass_s,
        "outputs": outputs,
        "points_per_pass": workloads.points_per_pass(args.workload),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        import tracing

        result["layers"] = tracing.layer_metrics(tracer, len(pass_s), result["points_per_pass"])
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
