"""What the benchmark in ``benchmarks/`` needs from the program.

The benchmark patches and wraps the program from outside, so a change that
renames a function, stops calling it through its module attribute, or
routes one walk through another can break a benchmark run while every
other test passes.  These tests import the benchmark's tracer and workload
modules, change nothing in them, and check the rules they rely on.
"""

import json
import random
import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from orthoplex import arithmetic, cli, config, inversive, packing  # noqa: E402
from orthoplex.config import F1  # noqa: E402
from orthoplex.ring import QSqrt2  # noqa: E402


def test_tracer_binds_every_target():
    # installed() raises when a target has no binding left to patch
    with tracer.Tracer().installed([workloads]):
        pass


def test_walk_states_sees_a_cli_walk_from_a_seed_file(tmp_path):
    _, start = workloads.start_config(random.Random(0), "F1", 68, geom=False)
    path = workloads.write_seed(start, tmp_path / "start.json")
    with workloads.walk_states() as states:
        code, out = workloads.run_cli(["bends", "--seed", path, "--cap", "68"])
    assert code == 0 and sum(states) > 0
    assert (code, out) == workloads.run_cli(
        ["bends", "--seed", "builtin:F1", "--cap", "68"])


def test_traced_bend_walk_reaches_the_obstruction():
    t = tracer.Tracer()
    with t.installed([workloads]):
        code, _ = workloads.run_cli(["bends", "--seed", "builtin:F1",
                                     "--cap", "20"])
    totals = t.layer_totals()
    assert code == 0
    assert totals["packing.generate.calls"] == 1
    assert totals["arithmetic.epsilon_of.calls"] >= 1


def test_traced_orbit_bend_vectors_never_calls_generate():
    t = tracer.Tracer()
    with t.installed([workloads]):
        vectors = packing.orbit_bend_vectors(F1, 20)
    totals = t.layer_totals()
    assert totals["packing.orbit_bend_vectors.vectors"] == len(vectors) > 0
    assert totals["packing.generate.calls"] == 0


def test_names_the_benchmark_reads_stay_bound():
    # benchmarks/test_benchmark.py checks these bindings; Tier-1 does not run it
    assert cli.check_gramian is config.check_gramian
    assert packing.epsilon_of is arithmetic.epsilon_of
    assert packing.sphere_from_coords is inversive.sphere_from_coords
    assert QSqrt2(packing.DEFAULT_BOX) > 0  # workloads.start_fit's box
    t = tracer.Tracer()
    with t.installed([workloads]):
        code, _ = workloads.run_cli(["obstruct", "--seed", "builtin:F1"])
    assert code == 0
    assert t.layer_totals()["arithmetic.epsilon_of.calls"] == 1


def traced_job_wiring_errors(workload_class, tmp_path):
    """Wiring errors of one traced job of a workload built from seed 0.  A
    layer the program stops reaching makes a traced benchmark run exit 1."""
    reference = json.loads((BENCHMARKS / "reference.json").read_text())
    workload = workload_class(0, tmp_path, reference)
    ledger = workloads.Ledger()
    t = tracer.Tracer()
    with t.installed([workloads]):
        workload.job(ledger, workloads.Clock(sample=False))
    assert ledger.failed == 0, ledger.errors
    # per_layer, not the tracer, fills these two
    filled_later = ("cli.output_bytes", "packing.generate.peak_alloc_mb")
    return [e for e in run.wiring_errors(workload_class.name, t.layer_totals())
            if not e.startswith(filled_later)]


def test_traced_geom_export_records_every_predicted_layer(tmp_path):
    assert traced_job_wiring_errors(workloads.GeomExport, tmp_path) == []


def test_traced_bend_walk_records_every_predicted_layer(tmp_path):
    assert traced_job_wiring_errors(workloads.BendWalk, tmp_path) == []


def test_traced_exact_verify_records_every_predicted_layer(tmp_path):
    assert traced_job_wiring_errors(workloads.ExactVerify, tmp_path) == []
