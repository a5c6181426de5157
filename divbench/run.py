"""divbench: run one divspec workload, check every output, print the metrics.

    python3 divbench/run.py --workload {figs,large,arrays} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root.  The workload runs in a fresh worker process
(``worker.py``) with the BLAS and OpenMP pools at one thread and ``src``
on ``PYTHONPATH``; it is a closed loop of one caller over whole passes for
``S`` seconds.  After it exits, this process loads or computes the
independent references (``reference.py``), checks every output of every
pass (``checks.py``) and perturbs passing outputs to show each check can
fail.  With ``--trace 0`` it also times five fresh set-up processes.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of ``tracing.py`` with ``--trace 1``.
Diagnostics go to standard error.  Any error exits non-zero without a
result line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(workloads.ROOT, ".divbench_out")

#: fresh processes timed per run for setup_s; their median is reported
SETUP_PROBES = 5

#: metric names and units, defined once in BENCHMARK.json
BENCHMARK = os.path.join(workloads.ROOT, "BENCHMARK.json")


def child_env() -> dict:
    env = dict(os.environ)
    # one BLAS/OpenMP thread: with two, OpenBLAS wake-ups on small matrices
    # dominate (fig2 56 ms against 4 ms) and measure the scheduler
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = os.path.join(workloads.ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list, env: dict, timeout: float) -> None:
    """Run a child to completion; kill it after ``timeout`` seconds.

    ``subprocess.run(timeout=...)`` polls with sleeps of up to 50 ms, which
    would quantise the set-up time; a blocking wait plus a kill timer does not.
    """
    proc = subprocess.Popen([sys.executable, *args], env=env)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
    if code != 0:
        raise subprocess.CalledProcessError(code, args)


def measure_setup(env: dict) -> float:
    """Median wall time of fresh processes that import divspec and warm up."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        run_child([WORKER, "--probe"], env, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_worker(args, env: dict) -> dict:
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, f"{args.workload}-{os.getpid()}.json")
    try:
        run_child(
            [
                WORKER,
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--out", out,
            ],
            env,
            timeout=args.seconds + 150,
        )
        with open(out, "r", encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        shutil.rmtree(os.path.splitext(out)[0], ignore_errors=True)
        if os.path.exists(out):
            os.remove(out)


class Tally:
    """Failed points, unexpected check failures and self-test samples."""

    def __init__(self):
        self.failed = 0
        self.unexpected = {}
        self.samples = []
        self.max_omega_dev = 0.0

    def record(self, label: str, kind: str, out: dict, ref: dict, first_pass: bool):
        res = checks.run_check(kind, out, ref)
        bad = [name for name, ok in res.items() if not ok]
        if bad:
            self.failed += 1
        for name in bad:
            if name not in checks.KNOWN_FAULTS:
                self.unexpected.setdefault(f"{label}: {name}", 0)
                self.unexpected[f"{label}: {name}"] += 1
        if "omega" in out and out["omega"] == out["omega"]:
            dev = abs(out["omega"] - ref["omega_ref"]) / ref["omega_ref"]
            self.max_omega_dev = max(self.max_omega_dev, dev)
        if first_pass:
            self.samples.append((kind, out, ref))

    def broken(self, label: str, points: int, why: str):
        self.failed += points
        self.unexpected[f"{label}: {why}"] = self.unexpected.get(f"{label}: {why}", 0) + 1


def check_cli_outputs(result: dict, tally: Tally) -> None:
    refs = reference.load_refs()
    inputs = {op_id: (command, rel) for op_id, command, rel in workloads.FIXED_INPUTS}
    for k, records in enumerate(result["outputs"]):
        for op_id, rec in zip(result["op_ids"], records):
            command, rel = inputs[op_id]
            ref = refs[op_id]
            if k == 0 and ref["config"] != workloads.load_config(rel):
                raise SystemExit(f"divbench: refs.json is stale for {rel}; run divbench/reference.py")
            if command == "spectrum":
                if rec["exit"] != 0:
                    tally.broken(op_id, 1, f"exit {rec['exit']}")
                    continue
                tally.record(op_id, "spectrum", checks.parse_spectrum_csv(rec["text"]), ref, k == 0)
                continue
            rows = checks.parse_sweep_csv(rec["text"]) if rec["exit"] == 0 else []
            if len(rows) != len(ref["rows"]):
                tally.broken(op_id, len(ref["rows"]), f"exit {rec['exit']}, {len(rows)} rows")
                continue
            for i, (row, row_ref) in enumerate(zip(rows, ref["rows"])):
                tally.record(f"{op_id}[{i}]", "sweep_row", row, row_ref, k == 0)


def check_array_outputs(result: dict, seed: int, tally: Tally) -> None:
    refs = {}
    for arr in workloads.array_inputs(seed):
        refs[arr["name"]] = reference.array_reference(arr["points"], arr["pas"])
    for k, records in enumerate(result["outputs"]):
        for op_id, rec in zip(result["op_ids"], records):
            name, _, what = op_id.partition(".")
            kind = "array_omega" if what == "omega" else "spectrum"
            tally.record(op_id, kind, rec, refs[name], k == 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(workloads.ROOT, "src", "divspec")):
        print("divbench: src/divspec not found; run from a divspec checkout", file=sys.stderr)
        return 2
    env = child_env()
    setup_s = None if args.trace else measure_setup(env)
    result = run_worker(args, env)

    tally = Tally()
    if args.workload == "arrays":
        check_array_outputs(result, args.seed, tally)
    else:
        check_cli_outputs(result, tally)
    missed = checks.self_test(tally.samples)

    passes = len(result["pass_s"])
    attempted = passes * result["points_per_pass"]
    pass_s = statistics.median(result["pass_s"])
    for label, count in sorted(tally.unexpected.items()):
        print(f"divbench: check failed: {label} (x{count})", file=sys.stderr)
    for name in missed:
        print(f"divbench: self-test: perturbed output still passes {name}", file=sys.stderr)
    print(
        f"divbench: {args.workload} seed {args.seed} trace {args.trace}: {passes} passes, "
        f"pass_s median {pass_s:.4f} (min {min(result['pass_s']):.4f}, "
        f"max {max(result['pass_s']):.4f}), failed {tally.failed}/{attempted}, "
        f"max omega deviation {tally.max_omega_dev:.2e}",
        file=sys.stderr,
    )

    with open(BENCHMARK, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.trace:
        # a span that a later divspec no longer has reports zero
        values = result["layers"]
        listed = spec["per_layer"]
    else:
        values = {
            "pass_s": pass_s,
            "points_per_s": attempted / sum(result["pass_s"]),
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": setup_s,
        }
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in listed}
    print(
        json.dumps(
            {
                "correct": not tally.unexpected and not missed,
                "attempted": attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
