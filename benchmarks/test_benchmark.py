"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python3 -m pytest benchmarks -q

The repository's test suite does not collect this directory.  Running a
job of each workload takes about 20 s.
"""

import copy
import json
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402
from orthoplex import cli, inversive, packing  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


def _tampered(key):
    ref = copy.deepcopy(REFERENCE)
    ref["outputs"][key]["sha256"] = "0" * 64
    return ref


@pytest.mark.parametrize("name, key", [
    ("bend-walk", "bends --seed builtin:F1 --cap 1000"),
    ("geom-export", "export --seed builtin:F0 --cap 2 --format json"),
    ("exact-verify", "mod8 --json"),
])
def test_wrong_reference_counts_as_failure(tmp_path, name, key):
    workload = wl.WORKLOADS[name](3, tmp_path, _tampered(key))
    ledger = wl.Ledger()
    workload.job(ledger, wl.Clock())
    assert ledger.failed == 1
    assert 0 < ledger.failed / ledger.attempted < 1
    assert key.split(" --seed")[0].split(" ")[0] in ledger.errors[0]


def test_wrong_exit_code_counts_as_failure(tmp_path):
    ledger = wl.Ledger()
    ledger.cli(["bends", "--seed", str(tmp_path / "missing.json"),
                "--cap", "5"], lambda out: True)
    assert (ledger.attempted, ledger.failed) == (1, 1)


def test_clock_samples_while_a_step_runs_and_divides_by_the_median(
        monkeypatch):
    taken = []

    def calibrate():
        taken.append(1)
        return 0.004
    monkeypatch.setattr(wl, "calibrate", calibrate)
    handler = signal.getsignal(signal.SIGALRM)
    clock = wl.Clock()
    with clock.step() as outer:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
        with clock.step() as inner:
            pass
    assert len(taken) >= 5  # timer samples plus one as each step ends
    assert outer.cal == pytest.approx(outer.s / 0.004)
    assert inner.cal == pytest.approx(inner.s / 0.004)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler


def test_starts_are_seeded(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = wl.WORKLOADS["geom-export"](7, tmp_path / "a", REFERENCE)
    b = wl.WORKLOADS["geom-export"](7, tmp_path / "b", REFERENCE)
    assert a.describe() == b.describe()
    assert [Path(s[4]).read_bytes() for s in a.starts] == \
           [Path(s[4]).read_bytes() for s in b.starts]


def test_unfit_start_is_redrawn():
    # from this start the capped geometric walk visits a single state
    word = ("S1678", "S5238", "S1638", "S1678")
    assert wl.start_fit(word, "F1", 20, geom=True) is None
    assert wl.start_fit(("S1634",), "F1", 20, geom=True) is not None


def test_tracer_patches_every_binding_and_restores_them():
    originals = (cli.run, cli.check_gramian, packing.sphere_from_coords,
                 packing.epsilon_of, inversive.Coord5.__add__)
    t = tracer.Tracer()
    with t.installed([wl]):
        assert cli.check_gramian is not originals[1]
        assert cli.check_gramian is sys.modules["orthoplex.config"].check_gramian
        assert packing.sphere_from_coords is inversive.sphere_from_coords
        assert packing.sphere_from_coords is not originals[2]
        assert packing.epsilon_of is not originals[3]
        wl.run_cli(["obstruct", "--seed", "builtin:F1"])
    assert (cli.run, cli.check_gramian, packing.sphere_from_coords,
            packing.epsilon_of, inversive.Coord5.__add__) == originals
    totals = t.layer_totals()
    assert totals["cli.run.calls"] == 1
    assert totals["arithmetic.epsilon_of.calls"] == 1


def test_self_time_subtracts_child_spans():
    t = tracer.Tracer()
    t.spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("b", 5.0, 6.0, 0)]
    totals = t.layer_totals()
    assert totals["a.self_s"] == pytest.approx(6.0)
    assert totals["b.self_s"] == pytest.approx(4.0)
    assert totals["b.calls"] == 2


def test_missing_layer_is_reported():
    zeros = {m: 0 for m in run.MUST_COUNT}
    assert len(run.wiring_errors("exact-verify", zeros)) == sum(
        "exact-verify" in w for w in run.MUST_COUNT.values())
    ok = {m: 1 for m in run.MUST_COUNT}
    assert run.wiring_errors("bend-walk", ok) == []
    assert run.wiring_errors("exact-verify", ok) == [
        "packing.generate.calls is 1 on exact-verify, want 0"]


def test_benchmark_json_names_every_metric():
    spec = run.load_spec()
    layer_names = {m["name"] for m in spec["per_layer"]}
    must = set(run.MUST_COUNT) - layer_names
    # counts the gate needs but the spec reports as self time only
    assert all(m.endswith(".calls") and m[:-6] + ".self_s" in layer_names
               for m in must)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
