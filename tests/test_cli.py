import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from importlib import resources

import jsonschema
import pytest

from orthoplex import cli, packing
from orthoplex.config import F0, F1, FMatrix
from orthoplex.groups import APOLLONIAN, apply, element
from orthoplex.inversive import mobius_rescale, mobius_translate
from orthoplex.ring import SQRT2

from conftest import EXPECTED_BENDS_P1


@pytest.fixture(scope="module")
def schema():
    ref = resources.files("orthoplex") / "schemas" / "report.schema.json"
    return json.loads(ref.read_text())


@pytest.fixture(scope="module")
def fmatrix_schema():
    ref = resources.files("orthoplex") / "schemas" / "fmatrix.schema.json"
    return json.loads(ref.read_text())


def run_cli(argv, capsys):
    code = cli.run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(argv, capsys, schema):
    code, out, err = run_cli(argv + ["--json"], capsys)
    doc = json.loads(out)
    jsonschema.validate(doc, schema)
    return code, doc


def test_bends_human_output_matches_expected(capsys):
    code, out, _ = run_cli(["bends", "--seed", "builtin:F1", "--cap", "68"],
                           capsys)
    assert code == 0
    assert out.strip() == " ".join(str(b) for b in EXPECTED_BENDS_P1)


def test_bends_json_valid(capsys, schema):
    code, doc = run_json(["bends", "--seed", "builtin:F1", "--cap", "68"],
                         capsys, schema)
    assert code == 0
    assert tuple(doc["bends"]) == EXPECTED_BENDS_P1
    assert doc["frontier_exhausted"] is True


def test_gen_json_valid(capsys, schema):
    code, doc = run_json(["gen", "--seed", "builtin:F1", "--cap", "40"],
                         capsys, schema)
    assert code == 0
    assert doc["report"]["classification"] == "bounded"
    assert doc["report"]["epsilon"] == -1


def test_gen_geom_json_valid(capsys, schema):
    code, doc = run_json(
        ["gen", "--seed", "builtin:F1", "--cap", "8", "--mode", "geom"],
        capsys, schema)
    assert code == 0
    assert doc["report"]["mode"] == "geom"
    assert doc["report"]["sphere_count"] > 0


def test_scan_json_valid(capsys, schema):
    code, doc = run_json(
        ["scan", "--seed", "builtin:F7d", "--cap", "250", "--from", "200",
         "--to", "249"],
        capsys, schema)
    assert code == 0
    assert doc["missing_admissible"] == []
    assert doc["forbidden_residue"] == 3


def test_obstruct_json_valid(capsys, schema):
    code, doc = run_json(["obstruct", "--seed", "builtin:F1"], capsys, schema)
    assert code == 0
    assert doc["epsilon"] == -1 and doc["forbidden_residue"] == 1


def test_mod8_json_valid(capsys, schema):
    code, doc = run_json(["mod8"], capsys, schema)
    assert code == 0
    assert doc["solutions_mod8"] == 3584
    assert doc["after_full_ordering"] == 24


def test_qform_json_valid(capsys, schema):
    code, doc = run_json(["qform", "--seed", "builtin:F1"], capsys, schema)
    assert code == 0
    assert (doc["A"], doc["B"], doc["C"], doc["D"]) == (4, 0, -4, 5)
    assert doc["quaternary_discriminant"] == 256
    assert all(entry["isotropic"] for entry in doc["isotropy"])
    assert doc["isotropy"][-1]["p"] == 97


def test_qform_ordering_flag(capsys, schema):
    code, doc = run_json(["qform", "--seed", "builtin:F1", "--ordering", "4"],
                         capsys, schema)
    assert code == 0
    assert doc["bend_vector"][0] == -1  # sphere 4 of F1 has bend -1
    assert doc["shift_b"] == -1


def test_verify_all_builtin(capsys, schema):
    code, doc = run_json(["verify", "--all-builtin"], capsys, schema)
    assert code == 0
    assert doc["all_ok"] is True
    names = {c["name"] for c in doc["checks"]}
    assert "gramian[builtin:F0]" in names
    assert any(n.startswith("rederive[") for n in names)


def test_verify_reports_failing_seed(tmp_path, capsys, schema):
    # a structurally valid file that fails the identities: FAIL lines, exit 1
    doc = F1.to_json_dict()
    doc["rows"][4][0] = "9"
    bad = tmp_path / "broken.json"
    bad.write_text(json.dumps(doc))
    code, out = run_json(["verify", "--seed", str(bad)], capsys, schema)
    assert code == 1
    assert out["all_ok"] is False
    failing = [c for c in out["checks"] if not c["ok"]]
    assert failing and all(str(bad) in c["name"] for c in failing)


def test_gen_human_output_is_summary(capsys):
    code, out, _ = run_cli(["gen", "--seed", "builtin:F1", "--cap", "30"],
                           capsys)
    assert code == 0
    assert out.startswith("seed builtin:F1 cap 30 mode bend")
    assert "classification bounded" in out


def test_groups_verify(capsys, schema):
    code, doc = run_json(["groups", "verify"], capsys, schema)
    assert code == 0
    assert doc["all_ok"] is True
    assert len(doc["relations"]) == 58


def test_groups_show(capsys, schema):
    code, doc = run_json(["groups", "show", "Apollonian"], capsys, schema)
    assert code == 0
    assert len(doc["generators"]) == 16


def test_groups_show_unknown_table(capsys):
    code, _, err = run_cli(["groups", "show", "Nope"], capsys)
    assert code == 2 and "unknown generator table" in err


def test_unknown_seed_is_validation_error(capsys):
    code, _, err = run_cli(["bends", "--seed", "builtin:F9", "--cap", "5"],
                           capsys)
    assert code == 2
    assert "unknown seed" in err


def assert_one_error_line(err):
    assert err.startswith("error: ") and err.count("\n") == 1


def test_malformed_seed_file(tmp_path, capsys):
    # every subcommand that takes a seed, on every kind of bad seed: one
    # error line and exit 2, except where the seed is valid for the command
    def f1_rescaled(t):
        return json.dumps(F1.apply_mobius(mobius_rescale(t)).to_json_dict())

    zero_den = F1.to_json_dict()
    zero_den["rows"][0][0] = "1/0"
    seeds = {
        "bad_json": ("{not json", "not valid JSON"),
        "deep_nesting": ("[" * 10 ** 5 + "]" * 10 ** 5, "not valid JSON"),
        "json_list": ("[1, 2]", "not a valid FMatrix"),
        "int_entries": (json.dumps({"rows": [[1, 2, 3, 4, 5]] * 5}),
                        "not a valid FMatrix"),
        "zero_denominator": (json.dumps(zero_den), "zero denominator"),
        "missing": (None, "unknown seed"),
        "identity_failure": (json.dumps({"rows": [["1"] * 5] * 5}),
                             "Gramian"),
        # F1 dilated by 2 passes the identities but has half-integral bends
        "half_integral": (f1_rescaled(2), "integral"),
        "irrational": (f1_rescaled(SQRT2), None),
        # F1 shrunk by 2: integral bends 4 4 6 -2 6, not primitive
        "doubled": (f1_rescaled(Fraction(1, 2)), "primitive"),
    }
    commands = {
        "bends": ["bends", "--cap", "20"],
        "scan": ["scan", "--cap", "20"],
        "gen": ["gen", "--cap", "20"],
        "gen_geom": ["gen", "--cap", "8", "--mode", "geom"],
        "export": ["export", "--cap", "8"],
        "obstruct": ["obstruct"],
        "qform": ["qform"],
        "verify": ["verify"],
    }
    not_invalid = {("verify", "identity_failure"): 1,
                   ("qform", "doubled"): 0,
                   ("verify", "half_integral"): 0,
                   ("verify", "irrational"): 0,
                   ("verify", "doubled"): 0}
    for seed, (text, message) in seeds.items():
        path = tmp_path / f"{seed}.json"
        if text is not None:
            path.write_text(text)
        for command, argv in commands.items():
            code, _, err = run_cli(argv + ["--seed", str(path)], capsys)
            want = not_invalid.get((command, seed), 2)
            assert code == want, (command, seed, err)
            if want == 2:
                assert_one_error_line(err)
                assert message is None or message in err, (command, seed)
            else:
                assert err == "", (command, seed)

    # F1 under 37 generators: b_mu passes 2**59, past the int64 headroom
    deep = apply(element("Apollonian", (list(APOLLONIAN) * 3)[:37]), F1)
    cap = min(int(b) for b in deep.bend_vector().bends8())
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(deep.to_json_dict()))
    code, _, err = run_cli(["bends", "--seed", str(path), "--cap", str(cap),
                            "--budget", "5"], capsys)
    assert code == 2 and "int64 headroom" in err
    assert_one_error_line(err)


def write_seed(f, path):
    path.write_text(json.dumps(f.to_json_dict()))
    return str(path)


def test_image_start_walks_its_packing(tmp_path, capsys, schema):
    # F1 under S1678 S5238 S1638 S1678, bend vector (142, 582, 563, 719,
    # 363): no move from it passes cap 20, so a walk that did not first
    # descend to F1 would see this one state alone
    image = apply(element("Apollonian", ("S1678", "S5238", "S1638", "S1678")),
                  F1)
    path = write_seed(image, tmp_path / "image.json")
    for argv in (["scan", "--cap", "20"], ["scan", "--cap", "20", "--json"],
                 ["bends", "--cap", "20"]):
        code, out, err = run_cli(argv + ["--seed", path], capsys)
        assert code == 0 and err == "", argv
        assert out.replace(path, "builtin:F1") == run_cli(
            argv + ["--seed", "builtin:F1"], capsys)[1], argv
    code, doc = run_json(["gen", "--seed", path, "--cap", "20"], capsys,
                         schema)
    assert code == 0
    report = doc["report"]
    assert report["states"] == 24 and report["classification"] == "bounded"


def test_reversed_seed_is_invalid(tmp_path, capsys):
    # F1 with every row negated passes the identities, but every step of
    # its descent raises the bends it holds, until they pass the headroom
    reversed_f1 = FMatrix(tuple(row.scale(-1) for row in F1.rows))
    path = write_seed(reversed_f1, tmp_path / "reversed.json")
    code, out, err = run_cli(["bends", "--seed", path, "--cap", "10"], capsys)
    assert code == 2 and out == "" and "int64 headroom" in err
    assert_one_error_line(err)


def test_parabolic_start_descends_within_the_step_limit(tmp_path, capsys,
                                                        monkeypatch):
    # F1 under (S1234 S5634)^2000: bends near 8 * 2000**2, 4,000 moves
    # above F1
    image = apply(element("Apollonian", ("S1234", "S5634") * 2000), F1)
    path = write_seed(image, tmp_path / "parabolic.json")
    argv = ["bends", "--seed", path, "--cap", "100"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and err == ""
    assert out == run_cli(["bends", "--seed", "builtin:F1", "--cap", "100"],
                          capsys)[1]
    monkeypatch.setattr(packing, "_DESCENT_STEPS", 4000)
    assert run_cli(argv, capsys)[0] == 0
    monkeypatch.setattr(packing, "_DESCENT_STEPS", 3999)
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == "" and "3999 moves above the root" in err
    assert_one_error_line(err)


def test_geometric_int64_headroom_guard(tmp_path, capsys):
    # F1 moved by 2**27: coordinates near 2**54, past the geometric walk's
    # headroom, while the bends, and so the bend walk, stay F1's
    far = F1.apply_mobius(mobius_translate(2 ** 27, 0, 0))
    path = tmp_path / "far.json"
    path.write_text(json.dumps(far.to_json_dict()))
    for argv in (["export", "--cap", "8"],
                 ["gen", "--cap", "8", "--mode", "geom"]):
        code, out, err = run_cli(argv + ["--seed", str(path)], capsys)
        assert code == 2 and out == "" and "int64 headroom" in err, argv
        assert_one_error_line(err)
    code, out, err = run_cli(["bends", "--seed", str(path), "--cap", "20"],
                             capsys)
    assert code == 0 and err == ""
    assert out.split() == [str(b) for b in EXPECTED_BENDS_P1 if b <= 20]


def test_seed_file_round_trip(tmp_path, capsys, schema, fmatrix_schema):
    seed = tmp_path / "f1.json"
    doc = F1.to_json_dict()
    jsonschema.validate(doc, fmatrix_schema)
    seed.write_text(json.dumps(doc))
    code, out = run_json(["bends", "--seed", str(seed), "--cap", "68"],
                         capsys, schema)
    assert code == 0
    assert tuple(out["bends"]) == EXPECTED_BENDS_P1


def test_cap_below_seed_is_validation_error(capsys):
    cases = (
        (["bends", "--seed", "builtin:F7d", "--cap", "-8"],
         "below every seed bend"),
        (["scan", "--seed", "builtin:F1", "--cap", "20", "--from", "30",
          "--to", "10"], "start exceeds its end"),
        (["scan", "--seed", "builtin:F1", "--cap", "20", "--to", "21"],
         "exceeds the report cap"),
        (["scan", "--seed", "builtin:F1", "--cap", "30", "--from",
          "-100000000000000000000"], "is below the smallest bend -1"),
        (["scan", "--seed", "builtin:F1", "--cap", "30", "--from", "-2",
          "--json"], "is below the smallest bend -1"),
        (["qform", "--seed", "builtin:F1", "--pmax", "-3"],
         "--pmax must be at least 2"),
        (["qform", "--seed", "builtin:F1", "--pmax", "0"],
         "--pmax must be at least 2"),
        (["qform", "--seed", "builtin:F1", "--pmax", "1", "--json"],
         "--pmax must be at least 2"),
        (["qform", "--seed", "builtin:F1", "--ordering", "0"],
         "sphere index must be in 1..8"),
        (["qform", "--seed", "builtin:F1", "--ordering", "9"],
         "sphere index must be in 1..8"),
        (["verify"], "nothing to verify"),
    )
    for argv, message in cases:
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == "" and message in err, argv
        assert_one_error_line(err)


def test_qform_pmax_has_an_upper_bound(monkeypatch, capsys):
    class SieveBuilt(Exception):
        pass

    def sieve(n):
        raise SieveBuilt(n)

    # the bound is checked before the sieve: 10^12 would exhaust memory
    monkeypatch.setattr(cli.arithmetic, "primes_below", sieve)
    for pmax in ("100001", str(10 ** 12)):
        for extra in ([], ["--json"]):
            code, out, err = run_cli(["qform", "--seed", "builtin:F1",
                                      "--pmax", pmax] + extra, capsys)
            assert code == 2 and out == "", pmax
            assert f"--pmax must be at most 100000, got {pmax}" in err
            assert_one_error_line(err)
    with pytest.raises(SieveBuilt):
        cli.run(["qform", "--seed", "builtin:F1", "--pmax", "100000"])


def test_scan_out_of_budget_prints_nothing(capsys):
    code, out, err = run_cli(["scan", "--seed", "builtin:F1", "--cap", "20",
                              "--budget", "5"], capsys)
    assert code == 3 and out == ""
    assert err == ("budget exhausted before the frontier emptied; "
                   "scan would under-report\n")


def test_budget_exhaustion_exit_code(capsys):
    code, _, _ = run_cli(
        ["bends", "--seed", "builtin:F1", "--cap", "68", "--budget", "3"],
        capsys)
    assert code == 3
    # whole levels only: the start fits in a budget of 1, its children not
    code, out, _ = run_cli(["gen", "--seed", "builtin:F1", "--cap", "5",
                            "--mode", "geom", "--budget", "1", "--json"],
                           capsys)
    assert code == 3 and json.loads(out)["report"]["states"] == 1
    for budget in ("0", "-1"):
        code, out, err = run_cli(["bends", "--seed", "builtin:F1", "--cap",
                                  "68", "--budget", budget], capsys)
        assert code == 2 and out == "" and "budget must be at least 1" in err
        assert_one_error_line(err)


def test_budget_env_override(monkeypatch, capsys):
    monkeypatch.setenv("ORTHOPLEX_BUDGET", "3")
    code, _, _ = run_cli(["bends", "--seed", "builtin:F1", "--cap", "68"],
                         capsys)
    assert code == 3
    monkeypatch.setenv("ORTHOPLEX_BUDGET", "abc")
    code, out, err = run_cli(["bends", "--seed", "builtin:F1", "--cap", "68"],
                             capsys)
    assert code == 2 and out == "" and "ORTHOPLEX_BUDGET" in err
    assert_one_error_line(err)
    monkeypatch.delenv("ORTHOPLEX_BUDGET")


def test_gen_out_file(tmp_path, capsys, schema):
    out = tmp_path / "report.json"
    code, _, _ = run_cli(
        ["gen", "--seed", "builtin:F1", "--cap", "30", "--out", str(out)],
        capsys)
    assert code == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, schema)
    for argv in (["gen", "--out", str(tmp_path / "no" / "x.json")],
                 ["export", "--out", str(tmp_path / "no" / "x.csv")]):
        code, out, err = run_cli(argv + ["--seed", "builtin:F1", "--cap", "8"],
                                 capsys)
        assert code == 2 and out == "" and "cannot write" in err
        assert_one_error_line(err)


def test_export_csv_stdout(capsys, schema):
    code = cli.run(["export", "--seed", "builtin:F1", "--cap", "8",
                    "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("kind,a,b,xhat,yhat,zhat,bend,cx,cy,cz,r,h")


def test_export_json_validates_scene(tmp_path, schema):
    out = tmp_path / "scene.json"
    code = cli.run(["export", "--seed", "builtin:F1", "--cap", "8",
                    "--format", "json", "--out", str(out)])
    assert code == 0
    jsonschema.validate(json.loads(out.read_text()), schema)


# sha256 of qform's stdout beyond the F1 rows of benchmarks/reference.json,
# frozen from the trial-division version of the isotropy table
QFORM_DIGESTS = {
    ("F0", False): "d1bcdfc95c0287433b3dff7980afa77e69979a07650ca97401788ac86834e48d",
    ("F0", True): "9b14af0cbd0949a3a87b66561981e4a1656211653ad64840f3095ef8f6dc008f",
    ("F7d", False): "401b5bad43f85848b3118d4d15a3d3f394b1c0d590086e070ec85d3a0ec1b807",
    ("F7d", True): "bfb6eae15d73de881a98d79b77292eba64e336678b4dcf40a9a058c4cd118cc7",
}


def test_qform_bytes_are_frozen(capsys):
    for (seed, as_json), digest in QFORM_DIGESTS.items():
        argv = ["qform", "--seed", f"builtin:{seed}", "--pmax", "200"]
        code, out, err = run_cli(argv + ["--json"] * as_json, capsys)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


# sha256 of gen's stdout, frozen before gen went through the shared emitter
GEN_DIGESTS = {
    ("F1", "30", "bend", False): "ed24dade1b05cde832df73ace2b3a8bcd1f1e52009f5363b05acdfcbec784916",
    ("F1", "30", "bend", True): "e7fe645bdcdf3e2ffe0098c596984f6efc83a4ed357bc64dcc7e5b12ab04bd8c",
    ("F0", "6", "geom", False): "298ade0940b497e4b62ce423c2dd03815cc2e2ac6e84369e0e285d4291a40735",
    ("F0", "6", "geom", True): "f8700aa5e048a0d785af6a24832996645dd97caec5848e631d277d0c82454bb7",
}


def test_gen_bytes_are_frozen(tmp_path, capsys):
    def sha(data):
        return hashlib.sha256(data).hexdigest()

    texts = {}
    for (seed, cap, mode, as_json), digest in GEN_DIGESTS.items():
        argv = ["gen", "--seed", f"builtin:{seed}", "--cap", cap, "--mode", mode]
        code, out, err = run_cli(argv + ["--json"] * as_json, capsys)
        assert code == 0 and err == ""
        assert sha(out.encode()) == digest, argv
        texts[seed, as_json] = out
    # --out holds the --json bytes; text output gains one "wrote" line
    path = tmp_path / "report.json"
    for as_json in (False, True):
        code, out, err = run_cli(["gen", "--seed", "builtin:F1", "--cap", "30",
                                  "--out", str(path)] + ["--json"] * as_json,
                                 capsys)
        assert code == 0 and err == ""
        assert path.read_text() == texts["F1", True]
        assert out == (texts["F1", True] if as_json
                       else texts["F1", False] + f"wrote {path}\n")
        path.unlink()


def test_bare_seed_name_is_a_path(tmp_path, monkeypatch, capsys):
    # only builtin:NAME names a builtin: a bare F1 is the file ./F1, here F0
    monkeypatch.chdir(tmp_path)
    (tmp_path / "F1").write_text(json.dumps(F0.to_json_dict()))
    code, out, _ = run_cli(["obstruct", "--seed", "F1"], capsys)
    assert code == 0 and out.startswith("epsilon +1;")
    code, out, _ = run_cli(["bends", "--seed", "F1", "--cap", "6"], capsys)
    assert code == 0 and out.split() == ["0", "1", "2", "4", "5", "6"]
    code, out, _ = run_cli(["obstruct", "--seed", "builtin:F1"], capsys)
    assert code == 0 and out.startswith("epsilon -1;")
    for spec in ("F7d", "builtin:F2"):
        code, out, err = run_cli(["obstruct", "--seed", spec], capsys)
        assert code == 2 and out == "" and "unknown seed" in err, spec
        assert_one_error_line(err)


def test_byte_identical_reruns(capsys):
    argv = ["scan", "--seed", "builtin:F1", "--cap", "100", "--from", "2",
            "--json"]
    code1, out1, _ = run_cli(argv, capsys)
    code2, out2, _ = run_cli(argv, capsys)
    assert (code1, out1) == (code2, out2)


def test_commands_that_never_walk_leave_numpy_unloaded(tmp_path):
    # only the walks need numpy, whose import takes about 150 ms of a cold
    # obstruct, the command that times a seed file's set-up
    seed = tmp_path / "f1.json"
    seed.write_text(json.dumps(F1.to_json_dict()))
    script = ("import sys\n"
              "from orthoplex import cli\n"
              "codes = [cli.run(argv.split()) for argv in sys.argv[1:]]\n"
              "print(codes, 'numpy' in sys.modules)")
    argvs = [f"obstruct --seed {seed}", "obstruct --seed builtin:F7d --json",
             "qform --seed builtin:F1", "mod8", "verify --all-builtin",
             "groups verify"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script, *argvs], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 0] False"
