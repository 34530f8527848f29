"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``: -v gives the
pass/fail line per criterion, -s shows the summary prints.  Every
tolerance here is exact (set equality / integer identity); nothing is
deferred to calibration.
"""

import random
import time

from orthoplex import arithmetic as ar
from orthoplex import groups, packing
from orthoplex.config import F0, F1, F7D, check_dgm, check_gramian
from orthoplex.ring import Mat

from conftest import (
    EXPECTED_BENDS_P0, EXPECTED_BENDS_P1, EXPECTED_BENDS_P7D, EXPECTED_BLOCK_P7D,
    EXPECTED_MOD8_REPRESENTATIVES, random_apollonian_word,
)
from test_arithmetic import BAR_GENERATORS, HAT_LITERALS

_REPORTS = []


def _run(seed, cap, mode="bend", budget=10 ** 7):
    rep = packing.generate(packing.PackingSpec(seed=seed, bend_cap=cap,
                                               mode=mode, budget=budget))
    _REPORTS.append(rep)
    return rep


def _passed(n, msg):
    print(f"[criterion {n}] PASS - {msg}")


def _cli_bends(seed: str, cap: int, capsys) -> tuple:
    from orthoplex import cli
    code = cli.run(["bends", "--seed", seed, "--cap", str(cap)])
    out = capsys.readouterr().out
    assert code == 0
    return tuple(int(tok) for tok in out.split())


def test_criterion_1_bend_set_regression(capsys):
    assert _cli_bends("builtin:F0", 68, capsys) == EXPECTED_BENDS_P0
    assert _cli_bends("builtin:F1", 68, capsys) == EXPECTED_BENDS_P1
    assert _cli_bends("builtin:F7d", 69, capsys) == EXPECTED_BENDS_P7D
    full = _cli_bends("builtin:F7d", 250, capsys)
    block = tuple(b for b in full if 200 <= b <= 249)
    assert block == EXPECTED_BLOCK_P7D
    for seed, cap in ((F0, 68), (F1, 68), (F7D, 69), (F7D, 250)):
        _run(seed, cap)  # register reports for the obstruction criterion
    _passed(1, "reference bend sets reproduced exactly via the CLI "
               "(F0@68, F1@68, F7d@69, F7d 200..249)")


def test_criterion_2_mod8_filtration():
    rep = ar.enumerate_mod8()
    assert rep.solutions_mod8 == 3584
    assert rep.after_even_removal == 1536
    assert rep.after_pair_ordering == 240
    assert rep.after_full_ordering == 24
    assert rep.representatives == EXPECTED_MOD8_REPRESENTATIVES
    assert rep.mod4_classes == ((0, 0, 1, 1, 2, 2, 1, 1),
                                (0, 0, 3, 3, 2, 2, 3, 3))
    # the collapse to 8-tuples is exactly 2-to-1 (mu and mu+4 give the
    # same tuple), so the brute-force oracle count is authoritative
    assert rep.tuples8 == 1792
    _passed(2, "filtration 3584 -> 1792 (oracle) -> 1536 -> 240 -> 24 -> 2, "
               "lists verbatim")


def test_criterion_3_identity_suites():
    seeds = (F0, F1, F7D)
    for f in seeds:
        assert check_gramian(f) and check_dgm(f)
    r = random.Random(424242)
    for f in seeds:
        for _ in range(1000):
            image = groups.apply(random_apollonian_word(r), f)
            assert check_gramian(image)
            assert check_dgm(image)
    counted = 0
    for table in ("Platonic", "Apollonian", "Stabilizer1", "DualApollonian"):
        for lab in groups.generators(table):
            ok, det = groups.verify_orthogonality(groups.element(table, (lab,)))
            assert ok and det in (1, -1)
            counted += 1
    assert counted == 4 + 16 + 8 + 8
    plat = groups.verify_platonic_relations()
    apol = groups.verify_apollonian_relations()
    assert len(plat) == 10 and all(ok for _, ok in plat)
    assert len(apol) == 48 and all(ok for _, ok in apol)
    _passed(3, "Gramian/DGM on builtins + 3000 random orbit matrices; "
               "36 generators orthogonal; 10+48 relations hold")


def test_criterion_4_spin_pipeline():
    for lab, pair in BAR_GENERATORS.items():
        via_j = ar.conjugate_by_J(groups.element("Stabilizer1Oriented", (lab,)))
        assert via_j == HAT_LITERALS[lab]
        assert ar.spin(pair) == HAT_LITERALS[lab]
    r = random.Random(515151)
    from test_arithmetic import _random_unimodular
    for _ in range(1000):
        m1, m2 = _random_unimodular(r), _random_unimodular(r)
        prod = Mat.from_rows(ar.spin(m1)) * Mat.from_rows(ar.spin(m2))
        assert Mat.from_rows(ar.spin(m1 * m2)) == prod
    from test_arithmetic import test_small_matrix_words
    test_small_matrix_words()
    _passed(4, "J-conjugates = reference tables = spin images (7/7); "
               "homomorphism x1000; all small-matrix words verified")


def test_criterion_5_quadratic_form_suite():
    primes = [p for p in range(2, 100) if all(p % d for d in range(2, p))]
    total = 0
    for seed in (F0, F1, F7D):
        for bv in packing.orbit_bend_vectors(seed, 20):
            b = int(bv[0])
            q = ar.qform_from_bend_vector(bv)
            assert q.B ** 2 + q.C ** 2 - q.A * q.D == -b * b
            assert ar.discriminant(q) == (2 * b) ** 4
            assert ar.is_positive_definite(q) == (b != 0)
            for p in primes:
                good, wit = ar.is_isotropic_at(q, p)
                assert good
                assert q.value(wit) % p == 0 and any(x % p for x in wit)
            assert ar.local_classes(q) == {(b + int(bv[1])) % 4}
            total += 1
    assert total > 0
    _passed(5, f"discriminant chain, definiteness, isotropy p<100, and "
               f"local classes verified on {total} orbit bend vectors")


def test_criterion_6_local_global_scan():
    t0 = time.time()
    rep1 = _run(F1, 500)
    assert rep1.frontier_exhausted
    assert packing.missing_admissible(rep1, 500, start=2) == []
    rep7 = _run(F7D, 500)
    assert rep7.frontier_exhausted
    assert packing.missing_admissible(rep7, 500, start=200) == []
    elapsed = time.time() - t0
    assert elapsed < 600
    _passed(6, f"no admissible gaps: F1 on [2,500], F7d on [200,500] "
               f"at cap 500 ({elapsed:.1f}s, frontier exhausted)")


def test_criterion_7_mode_agreement():
    for seed, name in ((F1, "F1"), (F7D, "F7d")):
        bend_mode = _run(seed, 30)
        geom_mode = _run(seed, 30, mode="geom")
        assert bend_mode.bends == geom_mode.bends, name
    _passed(7, "geometric and bend-only enumeration agree at cap 30")


def test_criterion_8_obstruction_soundness():
    assert _REPORTS, "criterion 8 runs after the orbit criteria"
    checked = 0
    for rep in _REPORTS:
        forbidden = rep.obstruction().forbidden_residue
        assert all(b % 4 != forbidden for b in rep.bends)
        checked += len(rep.bends)
    _passed(8, f"zero obstruction violations across {len(_REPORTS)} orbit "
               f"runs ({checked} bend values)")
