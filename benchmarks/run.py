"""Run one orthoplex benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload bend-walk --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports the package from ``src``.  The
seed picks the workload's inputs.  After one warm-up job, jobs repeat until
``--seconds`` have passed, all in this one single-threaded process.  Job
times are reported in calibration units (``workloads.Clock``), which
cancel the drift of the host's speed; the seconds are in the detail line.
Set-up (interpreter start, import, loading and validating a start seed) is
timed in seconds, in separate child processes, one after another, before
the jobs.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it carries the per-layer metrics of
a traced job, plus the tracing overhead.  The line before it records the
environment, the seeded inputs and every metric, ``failed_ratio`` included.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_RUNS = 9
SETUP_TIMEOUT_S = 60


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# glibc's _SC_LEVEL2_CACHE_SIZE and _SC_LEVEL3_CACHE_SIZE, which the os
# module does not name
SC_LEVEL2_CACHE_SIZE, SC_LEVEL3_CACHE_SIZE = 191, 194


def environment(seed: int) -> dict:
    import numpy

    def cache(code):
        try:
            return os.sysconf(code) or None
        except (ValueError, OSError):
            return None
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "l2_bytes": cache(SC_LEVEL2_CACHE_SIZE),
            "l3_bytes": cache(SC_LEVEL3_CACHE_SIZE),
            "seed": seed}


def time_setup(path: str, expected: dict, ledger, digest) -> float:
    """Wall time of a fresh ``orthoplex obstruct --seed FILE``: interpreter
    start, import, and loading plus validating the seed file."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    argv = [sys.executable, "-m", "orthoplex.cli", "obstruct", "--seed", path]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                          timeout=SETUP_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    ledger.check(proc.returncode == 0 and digest(proc.stdout) == expected,
                 f"set-up obstruct --seed {path}: exit {proc.returncode}")
    return elapsed


def end_to_end(workload, ledger, seconds: float, wl) -> dict:
    setup = []
    for i in range(SETUP_RUNS):
        path, name = workload.setup_seeds[i % len(workload.setup_seeds)]
        want = workload.outputs[f"obstruct --seed builtin:{name}"]
        setup.append(time_setup(path, want, ledger, wl.digest))
    t_end = time.perf_counter() + seconds
    clock = wl.Clock()
    workload.job(ledger, clock)  # warm-up: lazy set-up and caches fill
    # read after one job: a CLI user runs the workload once per process
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    jobs, last = [], 0.0
    while not jobs or time.perf_counter() + last <= t_end:  # another fits
        t0 = time.perf_counter()
        jobs.append(workload.job(ledger, clock))
        last = time.perf_counter() - t0
    return {
        "wall_cal": statistics.median(j.wall.cal for j in jobs),
        "setup_s": statistics.median(setup),
        # rates over all jobs: the walk inside a job can be short
        "states_per_cal": (sum(j.states for j in jobs)
                           / sum(j.walk.cal for j in jobs)),
        "checks_per_cal": (sum(j.checks for j in jobs)
                           / sum(j.wall.cal for j in jobs)),
        "peak_rss_mb": peak_rss_mb,
        # the same in seconds, which drift with the host's speed
        "wall_s": statistics.median(j.wall.s for j in jobs),
        "states_per_s": (sum(j.states for j in jobs)
                         / sum(j.walk.s for j in jobs)),
        "checks_per_s": (sum(j.checks for j in jobs)
                         / sum(j.wall.s for j in jobs)),
        "job_wall_s": [j.wall.s for j in jobs],
        "job_wall_cal": [j.wall.cal for j in jobs],
        "setup_runs_s": setup,
    }


def per_layer(workload, ledger, seconds: float, wl, tracer_mod,
              spans_path: Path) -> dict:
    """Untraced and traced jobs in turn while another pair fits in
    ``seconds``, then one job measuring walk allocations.  Counts must
    repeat exactly from one traced job to the next; self times are medians,
    in seconds."""
    clock = wl.Clock(sample=False)  # timer samples would land in spans
    untraced, traced = [], []
    t_end = time.perf_counter() + seconds
    while not traced or (time.perf_counter() + untraced[-1]
                         + traced[-1][1].wall.s <= t_end):
        untraced.append(workload.job(ledger, clock).wall.s)
        tracer = tracer_mod.Tracer()
        with tracer.installed([wl]), tracer.span("bench.job"):
            traced.append((tracer, workload.job(ledger, clock)))
    totals = [t.layer_totals() for t, _ in traced]
    out = dict(totals[0])
    for key in out:
        if key.endswith(".self_s"):
            out[key] = statistics.median(t[key] for t in totals)
        else:
            ledger.check(all(t[key] == out[key] for t in totals),
                         f"traced count {key} differs between jobs")
    with tracer_mod.generate_peak_alloc([wl]) as peaks:
        workload.job(ledger, clock)
    out["packing.generate.peak_alloc_mb"] = max(peaks, default=0.0)
    out["cli.output_bytes"] = traced[0][1].output_bytes
    out["trace.overhead_s"] = (statistics.median(j.wall.s for _, j in traced)
                               - statistics.median(untraced))
    traced[0][0].write_spans(spans_path)
    return out


# metric -> workloads on which the traced job must record work for it;
# a wrapper that missed a binding would otherwise report a silent zero
WALKS = ("bend-walk", "geom-export")
ALL = WALKS + ("exact-verify",)
MUST_COUNT = {
    "cli.run.calls": ALL,
    "cli.output_bytes": ALL,
    "config.from_json_dict.calls": WALKS,
    "config.check_gramian.calls": ALL,
    "config.check_dgm.calls": ALL,
    "ring.parse_qsqrt2.calls": WALKS,
    "ring.qsqrt2_add.calls": ALL,
    "ring.qsqrt2_cmp.calls": ALL,
    "ring.qsqrt2_mul.calls": ALL,
    "ring.mat_mul.calls": ALL,
    "ring.mat_eliminate.calls": ("exact-verify",),
    "inversive.coord5_arith.calls": ("geom-export",),
    "inversive.serialize.calls": ("geom-export",),
    "inversive.sphere_from_coords.calls": ("geom-export",),
    "groups.element.calls": ("exact-verify",),
    "groups.apply.calls": ("exact-verify",),
    "groups.verify_relations.calls": ("exact-verify",),
    "packing.generate.calls": WALKS,
    "packing.generate.states": WALKS,
    "packing.generate.bends": WALKS,
    "packing.generate.peak_alloc_mb": WALKS,
    "packing.export_scene.calls": ("geom-export",),
    "packing.export_scene.bytes": ("geom-export",),
    "packing.missing_admissible.calls": ("bend-walk",),
    "packing.orbit_bend_vectors.calls": ("exact-verify",),
    "packing.orbit_bend_vectors.vectors": ("exact-verify",),
    "arithmetic.is_isotropic_at.calls": ("exact-verify",),
    "arithmetic.local_classes.calls": ("exact-verify",),
    "arithmetic.qform_from_bend_vector.calls": ("exact-verify",),
    "arithmetic.enumerate_mod8.calls": ("exact-verify",),
    "arithmetic.epsilon_of.calls": WALKS,
}
# exact-verify must never reach the orbit engine
MUST_BE_ZERO = {"packing.generate.calls": ("exact-verify",)}


def wiring_errors(name: str, layers: dict) -> list:
    errs = [f"{m} is 0 on {name}" for m, wls in MUST_COUNT.items()
            if name in wls and not layers.get(m)]
    errs += [f"{m} is {layers.get(m)} on {name}, want 0"
             for m, wls in MUST_BE_ZERO.items() if name in wls and layers.get(m)]
    return errs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "orthoplex" / "__init__.py").is_file():
        print(f"error: no orthoplex sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracer as tracer_mod
    import workloads as wl

    spec = load_spec()
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="inputs-", dir=OUT))
    try:
        workload = wl.WORKLOADS[args.workload](args.seed, workdir, reference)
        ledger = wl.Ledger()
        if args.trace:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            values = per_layer(workload, ledger, args.seconds, wl, tracer_mod,
                               spans)
            wiring = wiring_errors(args.workload, values)
            if wiring:
                print("error: traced run missed a layer: " + "; ".join(wiring),
                      file=sys.stderr)
                return 1
            wanted = spec["per_layer"]
        else:
            values = end_to_end(workload, ledger, args.seconds, wl)
            wanted = spec["end_to_end"]
        values["failed_ratio"] = ledger.failed / max(ledger.attempted, 1)
        detail = {"workload": args.workload, "env": environment(args.seed),
                  "inputs": workload.describe(), "values": values,
                  "attempted": ledger.attempted, "failed": ledger.failed,
                  "errors": ledger.errors[:10]}
        for err in ledger.errors[:10]:
            print(f"failed: {err}", file=sys.stderr)
        print(json.dumps(detail, sort_keys=True))
        result = {"correct": ledger.failed == 0,
                  "attempted": ledger.attempted, "failed": ledger.failed,
                  "metrics": {m["name"]: {"value": values[m["name"]],
                                          "unit": m["unit"]} for m in wanted}}
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
