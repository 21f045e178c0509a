"""biocompass benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload ablate_loco --seed 0 --seconds 15 --trace 0

Run it from the root of a source checkout; it imports the library from
``src/``. Input files are written into a temporary directory under
``perfbench/.work`` and removed at the end. Every set-up and measurement
runs in a fresh child process (``child.py``), one at a time, with one BLAS /
OpenMP thread, so load stays within two cores.

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json:
set-up time is the median of four fresh processes from spawn to dataset in
memory and fold plan built; the other metrics come from the last of them,
which runs the five reference units (fixed model seeds) and then units with
model seeds drawn from ``--seed`` until the next one would end after
``--seconds``.

``wall_s`` and ``train_steps_per_s`` are taken at the host's full speed: each
part of a unit (each ``train_model`` call, or each ``fit_logreg`` call of the
baselines) is timed between two short speed probes (``speed.py``) that do
the same kind of work, and its seconds are divided by how many times their
full-speed time the probes took, on average. A small shared host switches between
speeds up to 1.7x apart every few seconds, so plain medians of whole units
swing by up to a third from run to run; the scaled times move by a few
percent. The measured unit times are printed before the result line.

``--trace 1`` reports the per-layer metrics: one untraced measurement, then
one traced unit in another process, with spans written to
``perfbench/traces/<workload>-seed<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print the same metrics, and a few more, for people. ``--smoke`` runs toy
sizes in seconds (see test_smoke.py).
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# one BLAS / OpenMP thread here and in every child, set before numpy loads
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import speed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_RUNS = 4
DEADLINE_S = 170.0


class ChildFailed(RuntimeError):
    pass


def spawn(args, mode: str, workdir: str, deadline: float, **extra) -> dict:
    """Run child.py once, to completion, and return its JSON result."""
    fd, out = tempfile.mkstemp(suffix=".json", dir=workdir)
    os.close(fd)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode,
           "--workdir", workdir, "--out", out]
    if args.smoke:
        cmd.append("--smoke")
    for key, value in extra.items():
        cmd += [f"--{key.replace('_', '-')}", str(value)]
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        # the child's chatter goes to stderr: stdout ends with our result
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} process ran past the time limit")
    if proc.returncode != 0 or os.path.getsize(out) == 0:
        raise ChildFailed(f"{mode} process exited with {proc.returncode}")
    with open(out) as f:
        return json.load(f)


def end_to_end(args, workdir: str, deadline: float) -> tuple[dict, dict]:
    setups = [spawn(args, "setup", workdir, deadline)["setup_s"]
              for _ in range(SETUP_RUNS - 1)]
    run = spawn(args, "measure", workdir, deadline)
    setups.append(run["setup_s"])
    if run["quality"] is None:
        raise ChildFailed("the units that give ROC-AUC did not complete: "
                          + "; ".join(run["failures"]))
    wall_s, train_rate = speed.at_full_speed(run["unit_wall_s"],
                                             run["unit_parts"])
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall_s,
        "train_steps_per_s": train_rate,
        "peak_rss_mb": run["peak_rss_mb"],
        "roc_auc": run["quality"]["roc_auc"],
    }
    extra = {"gating_gain": run["quality"].get("gating_gain"),
             "error_rate": run["failed"] / run["attempted"],
             "setup_s samples": setups,
             "measured unit wall_s": run["unit_wall_s"]}
    return metrics, {**run, "extra": extra}


def per_layer(args, workdir: str, deadline: float) -> tuple[dict, dict]:
    untraced = spawn(args, "measure", workdir, deadline)
    if not untraced["unit_wall_s"]:
        raise ChildFailed("no untraced unit completed")
    traces = os.path.join(HERE, "traces")
    os.makedirs(traces, exist_ok=True)
    trace_file = os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl")
    run = spawn(args, "trace", workdir, deadline,
                untraced_wall_s=speed.at_full_speed(
                    untraced["unit_wall_s"], untraced["unit_parts"])[0],
                trace_file=trace_file)
    if "layers" not in run:
        raise ChildFailed("traced unit did not complete")
    return run["layers"], {
        **run, "extra": {"trace file": trace_file},
        "attempted": untraced["attempted"] + run["attempted"],
        "failed": untraced["failed"] + run["failed"],
        "failures": untraced["failures"] + run["failures"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="toy input sizes, for the smoke test")
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isdir(os.path.join(SRC, "biocompass")):
        print(f"error: no library source at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    try:
        workloads.prepare(args.workload,
                          workloads.sizes(args.smoke)[args.workload], workdir)
        measure = per_layer if args.trace else end_to_end
        values, run = measure(args, workdir, deadline)
    except (ChildFailed, speed.UnitsDiffer) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in wanted if values.get(m["name"]) is None]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    report(args, run, wanted, values)
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


def report(args, run: dict, wanted: list, values: dict) -> None:
    """Human-readable lines before the result line."""
    import tracer

    host = run["host"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace}"
          f"{' smoke' if args.smoke else ''}: {len(run['unit_wall_s'])} "
          f"unit(s), {run['attempted']} attempted, {run['failed']} failed")
    print(f"# host: {host['nproc']} cpu(s), {host['cpu']}, python "
          f"{host['python']}, numpy {host['numpy']}, {host['blas']}")
    for m in wanted:
        exact = " (exact count)" if m["name"] in tracer.EXACT_COUNTS else ""
        print(f"{m['name']:48s} {values[m['name']]:>14.6g} {m['unit']}{exact}")
    extra = run["extra"]
    if "error_rate" in extra:
        if extra["gating_gain"] is not None:
            print(f"{'gating_gain':48s} {extra['gating_gain']:>14.6g} auc")
        print(f"{'error_rate':48s} {extra['error_rate']:>14.6g} ratio "
              f"({run['failed']}/{run['attempted']})")
    for key, value in extra.items():
        if key not in ("gating_gain", "error_rate"):
            print(f"# {key}: {value}")
    for failure in run["failures"]:
        print(f"# FAILED {failure}")


if __name__ == "__main__":
    sys.exit(main())
