import itertools
from collections import Counter
from fractions import Fraction

import pytest

from orthoplex.config import (
    F0, F1, F7D, G_SIGMA_F, FMatrix, check_dgm, check_gramian)
from orthoplex.groups import (
    APOLLONIAN, DUAL_APOLLONIAN, PLATONIC, STABILIZER1_ORIENTED,
    STABILIZER1_FACTORS, GroupElement, apply, element, generators,
    ordering_element, rederive_apollonian, verify_apollonian_relations,
    verify_orthogonality, verify_platonic_relations, _imul,
)
from orthoplex.inversive import Coord5
from orthoplex.ring import SQRT2

from conftest import F1_D36, SEEDS, coord5, random_apollonian_word


def test_table_sizes():
    assert len(generators("Platonic")) == 4
    assert len(generators("PlatonicOriented")) == 3
    assert len(generators("Apollonian")) == 16
    assert len(generators("ApollonianOriented")) == 15
    assert len(generators("Stabilizer1")) == 8
    assert len(generators("Stabilizer1Oriented")) == 7
    assert len(generators("DualApollonian")) == 8


def test_unknown_table_rejected():
    with pytest.raises(KeyError):
        generators("Octahedral")


def test_literal_spot_checks():
    assert generators("Apollonian")["S1234"] == (
        (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0),
        (0, 0, 0, 1, 0), (1, 1, 1, 1, -1))
    assert generators("Platonic")["R4"][3] == (0, 0, 0, -1, 2)
    assert generators("DualApollonian")["S5"][0] == (-5, 0, 0, 0, 12)


def test_every_generator_orthogonal_with_unit_det():
    for table in ("Platonic", "Apollonian", "Stabilizer1", "DualApollonian"):
        for lab in generators(table):
            ok, det = verify_orthogonality(element(table, (lab,)))
            assert ok and det == -1, (table, lab)


def test_oriented_generators_have_det_plus_one():
    for table in ("PlatonicOriented", "ApollonianOriented",
                  "Stabilizer1Oriented"):
        for lab in generators(table):
            ok, det = verify_orthogonality(element(table, (lab,)))
            assert ok and det == 1, (table, lab)


def test_product_of_two_inversions():
    g = element("Apollonian", ("S1234", "S5234"))
    ok, det = verify_orthogonality(g)
    assert ok and det == 1


def test_platonic_relations_report():
    rep = verify_platonic_relations()
    assert len(rep) == 10
    assert all(ok for _, ok in rep)


def test_platonic_negative_control():
    r1r2 = _imul(PLATONIC["R1"], PLATONIC["R2"])
    assert _imul(r1r2, r1r2) != _imul(PLATONIC["R1"], PLATONIC["R1"])  # order 3


def test_apollonian_relations_report():
    rep = verify_apollonian_relations()
    assert len(rep) == 48
    assert all(ok for _, ok in rep)


def test_apollonian_negative_control():
    m = _imul(APOLLONIAN["S1234"], APOLLONIAN["S5678"])
    sq = _imul(m, m)
    assert sq != _imul(APOLLONIAN["S1234"], APOLLONIAN["S1234"])


def test_apply_produces_adjacent_configuration():
    g = element("Apollonian", ("S1234",))
    image = apply(g, F0)
    assert image.rows[4] == coord5(5, 1, SQRT2, SQRT2, 0)
    assert image.rows[:4] == F0.rows[:4]
    assert apply(g, image) == F0
    assert check_gramian(image) and check_dgm(image)


def test_dual_orbit_reaches_other_builtins():
    assert apply(element("DualApollonian", ("S4",)), F0) == F1
    assert apply(element("DualApollonian", ("S4", "S2", "S3")), F0) == F7D


def test_adjacent_configuration_table():
    # the configuration sharing the first four spheres with the standard one
    from orthoplex.config import v_from_f
    image = apply(element("Apollonian", ("S1234",)), F0)
    rows = v_from_f(image).rows
    want = (
        (2, 0, 0, 0, 1),
        (2, 0, 0, 0, -1),
        (1, 1, SQRT2, 0, 0),
        (1, 1, 0, SQRT2, 0),
        (8, 2, SQRT2 * 2, SQRT2 * 2, -1),
        (8, 2, SQRT2 * 2, SQRT2 * 2, 1),
        (9, 1, SQRT2, SQRT2 * 2, 0),
        (9, 1, SQRT2 * 2, SQRT2, 0),
    )
    assert rows == tuple(coord5(*w) for w in want)


def test_stabilizer_oriented_literals():
    assert generators("Stabilizer1Oriented")["S678"][4] == (6, -4, -4, -4, 19)
    s238 = generators("Stabilizer1Oriented")["S238"]
    assert s238[:3] == ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0))
    assert s238[3] == (2, 2, 2, -1, 0)
    assert s238[4] == (2, 2, 2, 0, -1)


def test_stabilizer_oriented_products_match_literals():
    for lab, m in STABILIZER1_ORIENTED.items():
        want = _imul(APOLLONIAN["S1234"], APOLLONIAN[STABILIZER1_FACTORS[lab]])
        assert m == want, lab


def test_stabilizer_fixes_first_row(rng):
    labels = list(STABILIZER1_ORIENTED)
    for f in (F1, F7D):
        for _ in range(40):
            word = tuple(rng.choice(labels) for _ in range(rng.randint(1, 8)))
            g = element("Stabilizer1Oriented", word)
            assert apply(g, f).rows[0] == f.rows[0]


def test_provenance_enforced():
    # the matrix is the fold of the word: no constructor takes one
    good = element("Apollonian", ("S1234", "S5678"))
    assert good.matrix == _imul(APOLLONIAN["S1234"], APOLLONIAN["S5678"])
    with pytest.raises(TypeError):
        GroupElement("Apollonian", ("S1234",), APOLLONIAN["S5678"])


def test_direct_construction_still_refolds():
    # element(), direct construction and __mul__ all fold the word
    word = ("S1234", "S5234", "S1634")
    g = element("Apollonian", word)
    assert g.matrix == _imul(_imul(APOLLONIAN["S1234"], APOLLONIAN["S5234"]),
                             APOLLONIAN["S1634"])
    assert g == GroupElement("Apollonian", list(word))
    assert (element("Apollonian", word[:1]) * element("Apollonian", word[1:])
            == g)


def test_elements_of_two_tables_do_not_multiply():
    with pytest.raises(ValueError, match="different tables"):
        element("Apollonian", ("S1234",)) * element("Platonic", ("R1",))


def reference_apply(g: GroupElement, f: FMatrix) -> FMatrix:
    """The left action as an integer combination of Coord5 rows, as apply()
    computed it before it became the exact product g F."""
    rows = []
    for i in range(5):
        acc = None
        for j in range(5):
            c = g.matrix[i][j]
            if c == 0:
                continue
            term = f.rows[j] if c == 1 else f.rows[j].scale(c)
            acc = term if acc is None else acc + term
        rows.append(acc if acc is not None else Coord5.of(0, 0, 0, 0, 0))
    return FMatrix(tuple(rows))


@pytest.mark.parametrize("name", sorted(SEEDS) + ["F1_D36"])
def test_apply_matches_row_combination(rng, name):
    f = SEEDS.get(name, F1_D36)
    for _ in range(40):
        g = random_apollonian_word(rng, max_len=12)
        assert apply(g, f) == reference_apply(g, f), g.word


def test_element_multiplication_concatenates_words():
    a = element("Apollonian", ("S1234",))
    b = element("Apollonian", ("S5234",))
    ab = a * b
    assert ab.word == ("S1234", "S5234")
    assert ab.matrix == _imul(a.matrix, b.matrix)


def triple_sum_imul(a, b):
    """The integer product as a triple-index sum: _imul's loop before it
    went by columns, kept as its oracle."""
    n, m, p = len(a), len(b), len(b[0])
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(m)) for j in range(p))
        for i in range(n))


def test_imul_matches_triple_sum(rng):
    for _ in range(200):
        n, m, p = (rng.randint(1, 7) for _ in range(3))
        a = tuple(tuple(rng.randint(-50, 50) for _ in range(m))
                  for _ in range(n))
        b = tuple(tuple(rng.randint(-50, 50) for _ in range(p))
                  for _ in range(m))
        assert _imul(a, b) == triple_sum_imul(a, b)
    big = ((10 ** 30, -1), (3, 10 ** 20))
    assert _imul(big, big) == triple_sum_imul(big, big)


def test_random_words_stay_admissible(rng):
    for _ in range(100):
        g = random_apollonian_word(rng, max_len=12)
        image = apply(g, F0)
        assert check_dgm(image)


def test_rederivation_checksum():
    derived = rederive_apollonian()
    assert set(derived) == set(APOLLONIAN)
    for lab, m in derived.items():
        assert m == APOLLONIAN[lab], lab


def test_dual_generators_are_involutions():
    for lab, m in DUAL_APOLLONIAN.items():
        assert _imul(m, m) == element("DualApollonian", ()).matrix, lab


def test_ordering_elements_bring_each_sphere_first():
    from orthoplex.config import v_from_f
    for f in (F0, F1, F7D):
        rows = v_from_f(f).rows
        for k in range(1, 9):
            image = apply(ordering_element(k), f)
            assert image.rows[0] == rows[k - 1], k
            assert check_gramian(image)


def test_ordering_element_rejects_out_of_range():
    with pytest.raises(ValueError):
        ordering_element(0)
    with pytest.raises(ValueError):
        ordering_element(9)


def test_antipodal_row_determines_the_configuration():
    # Exact certificate, on ints from the generator tables, that the 16
    # Apollonian generators are the reflections in the facets of a Coxeter
    # polytope of hyperbolic 4-space (Vinberg, Russian Math. Surveys 40,
    # 1985) with e5 strictly inside, and that the Platonic group fixes e5
    # and permutes them.  So only the Platonic words of the group they
    # generate fix the row e5: two configurations gF and g'F of an
    # invertible F with the same antipodal row are one configuration with
    # its rows reordered, and the geometric walk keys its states on mu.
    G = G_SIGMA_F.to_int_rows()
    e5 = (0, 0, 0, 0, 1)
    ident = tuple(tuple(int(i == j) for j in range(5)) for i in range(5))

    def form(x, y):
        return sum(x[i] * G[i][j] * y[j] for i in range(5) for j in range(5))

    # rows under g -> row * g keep the form G, of signature (4, 1): e5 is
    # timelike and the Schur complement of G[4][4] is 2 I
    for s in itertools.chain(APOLLONIAN.values(), PLATONIC.values()):
        assert _imul(_imul(s, G), tuple(zip(*s))) == tuple(map(tuple, G))
    assert form(e5, e5) == -1
    assert [[G[i][j] - G[i][4] * G[4][j] // G[4][4] for j in range(4)]
            for i in range(4)] == [[2 * (i == j) for j in range(4)]
                                   for i in range(4)]
    # each generator is a reflection: I - S has rank 1, and its nonzero
    # row, oriented towards e5, is the mirror's normal
    normals = {}
    for lab, s in APOLLONIAN.items():
        rows = [[ident[i][j] - s[i][j] for j in range(5)] for i in range(5)]
        n = next(r for r in rows if any(r))
        assert all(r[i] * n[j] == r[j] * n[i] for r in rows
                   for i in range(5) for j in range(5)), lab
        side = form(e5, n)
        assert side != 0, lab
        normals[lab] = n if side > 0 else [-x for x in n]
    # Vinberg's condition on every pair: a right angle or disjoint mirrors
    ratios = Counter()
    for a, b in itertools.combinations(normals.values(), 2):
        p = form(a, b)
        assert p <= 0
        assert p == 0 or p * p >= form(a, a) * form(b, b)
        ratios[Fraction(p * p, form(a, a) * form(b, b))] += 1
    assert ratios == {0: 32, 1: 48, 4: 32, 9: 8}
    # every mirror is a facet: e5 + e5 S lies in hyperbolic space, on
    # mirror S and strictly inside the 15 other half-spaces
    for lab, s in APOLLONIAN.items():
        point = [e5[j] + s[4][j] for j in range(5)]
        assert form(point, point) < 0, lab
        assert form(point, normals[lab]) == 0, lab
        assert all(form(point, n) > 0 for other, n in normals.items()
                   if other != lab), lab
    # the Platonic generators fix e5 and, by conjugation, permute the 16
    # (each is an involution, so P S P^-1 = P S P)
    tables = set(APOLLONIAN.values())
    for lab, p in PLATONIC.items():
        assert p[4] == e5 and _imul(p, p) == ident, lab
        assert {_imul(_imul(p, s), p) for s in tables} == tables, lab
