import itertools
import json
import math
import random
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoplex import packing
from orthoplex.arithmetic import GaussianInt, bend_from_xi, gaussian_xgcd
from orthoplex.config import F0, F1, F7D, BendVector, descartes_form
from orthoplex.groups import APOLLONIAN, apply, element
from orthoplex.inversive import classify_pair
from orthoplex.packing import (
    DEFAULT_BOX, CapBelowSeedError, PackingReport, PackingSpec,
    WalkInputError, _canonical, _channels, _children, export_scene, generate,
    missing_admissible, orbit_bend_vectors, resolve_budget,
)
from orthoplex.ring import QSqrt2

from conftest import (
    EXPECTED_BENDS_P0, EXPECTED_BENDS_P1, EXPECTED_BENDS_P7D, EXPECTED_BLOCK_P7D,
    F1_D36, SEEDS, random_apollonian_word,
)


_CACHE = {}


def run(seed, cap, mode="bend", budget=None):
    key = (id(seed), cap, mode, budget)
    if key not in _CACHE:
        spec = PackingSpec(seed=seed, bend_cap=cap, mode=mode,
                           budget=budget or 10 ** 7)
        _CACHE[key] = generate(spec)
    return _CACHE[key]


def test_expected_bends_p0():
    assert run(F0, 68).bends == EXPECTED_BENDS_P0


def test_expected_bends_p1():
    assert run(F1, 68).bends == EXPECTED_BENDS_P1


def test_expected_bends_p7d():
    assert run(F7D, 69).bends == EXPECTED_BENDS_P7D


def test_expected_block_p7d():
    rep = run(F7D, 250)
    block = tuple(b for b in rep.bends if 200 <= b <= 249)
    assert block == EXPECTED_BLOCK_P7D


def test_missing_admissible_examples():
    rep1 = run(F1, 68)
    assert missing_admissible(rep1, 68, start=2) == []
    rep0 = run(F0, 68)
    assert missing_admissible(rep0, 68, start=0) == []
    rep7 = run(F7D, 69)
    missing = missing_admissible(rep7, 69)
    assert missing  # asymptotic principle only: small admissibles absent
    assert {1, 2, 4}.issubset(set(missing))


def test_missing_admissible_refuses_unexhausted():
    rep = run(F1, 68, budget=3)
    assert not rep.frontier_exhausted
    with pytest.raises(ValueError):
        missing_admissible(rep, 68)


def test_missing_admissible_rejects_bound_above_cap():
    rep = run(F1, 30)
    with pytest.raises(ValueError):
        missing_admissible(rep, 31)


def test_missing_admissible_rejects_start_below_min_bend():
    rep = run(F1, 30)
    assert missing_admissible(rep, 30, start=-1) == [0]
    with pytest.raises(ValueError, match="below the smallest bend -1"):
        missing_admissible(rep, 30, start=-2)


def test_classification():
    assert run(F1, 30).classification == "bounded"
    assert run(F0, 30).classification == "planar"
    assert run(F7D, 69).classification == "bounded"
    assert run(F1, 30, mode="geom").classification == "bounded"
    assert run(F0, 8, mode="geom").classification == "planar"


def test_cap_below_seed_rejected():
    with pytest.raises(CapBelowSeedError):
        run(F1, -2)
    with pytest.raises(CapBelowSeedError):
        run(F7D, -8)


def test_budget_marks_unexhausted():
    rep = run(F1, 68, budget=5)
    assert not rep.frontier_exhausted
    assert rep.states <= 5


def test_mode_agreement_cap_30():
    for seed in (F1, F7D):
        bend_mode = run(seed, 30)
        geom_mode = run(seed, 30, mode="geom")
        assert bend_mode.bends == geom_mode.bends


def test_monotone_closure():
    small = set(run(F1, 20).bends)
    large = set(run(F1, 40).bends)
    assert small <= large
    assert set(run(F7D, 69).bends) <= set(run(F7D, 250).bends)


def test_obstruction_holds_on_reports():
    for seed, cap in ((F0, 68), (F1, 68), (F7D, 69)):
        rep = run(seed, cap)
        forbidden = rep.obstruction().forbidden_residue
        assert all(b % 4 != forbidden for b in rep.bends)


def test_geometric_pairs_never_intersect():
    rep = run(F1, 20, mode="geom")
    spheres = rep.spheres
    r = random.Random(17)
    n = len(spheres)
    for _ in range(10_000):
        i, j = r.randrange(n), r.randrange(n)
        if i == j:
            continue
        rel = classify_pair(spheres[i], spheres[j])
        assert rel.kind != "intersecting", (i, j)


def test_stabilizer_bends_appear_in_orbit():
    # bends produced by the congruence parametrization land in the BFS set
    bv = F1.bend_vector()
    r = random.Random(23)
    produced = []
    while len(produced) < 25:
        alpha = GaussianInt(r.randint(-3, 3), r.randint(-3, 3))
        beta = GaussianInt(2 * r.randint(-1, 1), 2 * r.randint(-1, 1))
        if (alpha.re + alpha.im) % 2 != 1:
            continue
        g, _, _ = gaussian_xgcd(alpha, beta)
        if not g.is_unit():
            continue
        produced.append(bend_from_xi(bv, alpha, beta))
    cap = max(produced) + 1
    rep = run(F1, cap)
    assert set(produced) <= set(rep.bends)


def reference_walk(bends, cap, budget):
    """The capped bend walk in pure Python on unbounded ints, level by
    level: every move, deduped against every state seen, from the bend
    vector ``bends``.  The oracle for the numpy engine.  Returns the levels
    taken, each a set of states, and whether the frontier emptied.  The
    walk takes whole levels while its state count stays within the
    budget."""
    b = tuple(bends)
    lo = tuple(sorted(min(b[k], 2 * b[4] - b[k]) for k in range(4)))
    start = lo + (b[4],)
    visited = {start}
    levels = [{start}]
    while True:
        nxt = set()
        for state in levels[-1]:
            los, mu = state[:4], state[4]
            his = tuple(2 * mu - x for x in los)
            for mask in itertools.product((0, 1), repeat=4):
                kept = tuple(his[k] if mask[k] else los[k] for k in range(4))
                mu2 = sum(kept) - mu
                new = tuple(2 * mu2 - c for c in kept)
                if min(new) > cap:
                    continue
                child = tuple(sorted(min(c, n) for c, n in zip(kept, new))) + (mu2,)
                if child not in visited:
                    visited.add(child)
                    nxt.add(child)
        if not nxt:
            return levels, True
        if len(visited) > budget:
            return levels, False
        levels.append(nxt)


def engine_levels(bends, cap, budget):
    """The levels of the numpy bend walk from the bend vector ``bends``,
    each a sorted list of states, and whether its frontier emptied."""
    levels, _, exhausted = packing._walk(
        [[b] for b in bends], cap, budget,
        lambda s: sorted(map(tuple, s[:, :, 0].T.tolist())))
    return levels, exhausted


def assert_matches_reference(seed, cap, budget, root=None):
    """The bend walk from ``seed`` against the reference walk from ``root``,
    the builtin of ``seed``'s packing, or from ``seed`` itself: the same
    states, level by level, bends, multiplicities and exhaustion."""
    levels, exhausted = reference_walk(
        (root or seed).bend_vector(), cap, budget)
    visited = set().union(*levels)
    assert engine_levels(seed.bend_vector(), cap, budget) == (
        [sorted(level) for level in levels], exhausted)
    mult = Counter()
    for s in visited:
        mult.update(v for v in s[:4] + tuple(2 * s[4] - x for x in s[:4])
                    if v <= cap)
    rep = generate(PackingSpec(seed=seed, bend_cap=cap, budget=budget))
    assert rep.states == len(visited)
    assert rep.bends == tuple(sorted(mult))
    assert rep.bend_multiplicity == dict(mult)
    assert rep.frontier_exhausted == exhausted
    if exhausted:
        assert orbit_bend_vectors(seed, cap, budget) == [
            BendVector(s) for s in sorted(visited)]
    else:
        with pytest.raises(RuntimeError):
            orbit_bend_vectors(seed, cap, budget)
    return rep


@pytest.mark.parametrize("name", sorted(SEEDS))
def test_integer_engine_matches_reference_on_builtins(name):
    for cap in (20, 68, 250):
        for budget in (10 ** 7, 5):
            assert_matches_reference(SEEDS[name], cap, budget)


# Canonical roots (four spheres, one of each pair, then mu): every root with
# least bend 0 to -4, found by a search of b2 <= b3 <= b4 < 40(n + 1), and
# one with least bend -12
CATALOGUE_ROOTS = (
    (0, 0, 1, 1, 1), (-1, 2, 2, 3, 3), (-2, 3, 6, 7, 7), (-2, 4, 5, 5, 5),
    (-3, 4, 12, 13, 13), (-3, 5, 8, 8, 9), (-4, 5, 20, 21, 21),
    (-4, 6, 13, 13, 13), (-4, 7, 10, 11, 11), (-4, 8, 9, 9, 11),
    (-12, 16, 49, 49, 51),
)


def descends(state):
    los, mu = state[:4], state[4]
    return any(sum(kept) - mu < mu
               for kept in itertools.product(*[(x, 2 * mu - x) for x in los]))


@pytest.mark.parametrize("root", CATALOGUE_ROOTS)
def test_climb_matches_reference_on_catalogue_roots(root):
    # from a root the walk that climbs and dedupes each level against
    # itself alone takes the levels of the walk that takes every move and
    # remembers every state: each state lies one level above its parents
    assert not descends(root) and descartes_form(root) == 0
    assert math.gcd(*root) == 1
    for cap in (50, 150):
        for budget in (10 ** 7, 7, 300):
            levels, exhausted = reference_walk(root, cap, budget)
            assert engine_levels(root, cap, budget) == (
                [sorted(level) for level in levels], exhausted)


def test_integer_engine_matches_reference_on_images():
    # starts deeper in each packing: the walk descends to the builtin, the
    # root, and so takes the builtin's levels, below the start's own bends
    r = random.Random(2024)
    went_below = 0
    for name in sorted(SEEDS):
        for _ in range(3):
            image = apply(random_apollonian_word(r, 4), SEEDS[name])
            own_min = min(int(b) for b in image.bend_vector().bends8())
            for budget in (10 ** 7, 5):
                rep = assert_matches_reference(
                    image, max(own_min, 68), budget, root=SEEDS[name])
                went_below += rep.bends[0] < own_min
    assert went_below


@pytest.mark.parametrize("letters", [8, 10, 12, 20])
def test_wide_span_starts_match_reference(letters):
    # the generators in table order: the start's values span 12,684 or more,
    # past the packed key range; the walk descends to F1 and takes F1's
    # levels at every cap from the start's least bend to its largest
    image = apply(element("Apollonian", list(APOLLONIAN)[:letters]), F1)
    bends = image.bend_vector().bends8()
    for cap in (min(bends), min(bends) + 500, max(bends)):
        for budget in (5, 200, 50):
            assert_matches_reference(image, cap, budget, root=F1)


def test_random_images_walk_like_their_builtin():
    # start independence: images under words of up to 12 letters report
    # what their builtin reports, at caps from their least bend up
    r = random.Random(16)
    for name in sorted(SEEDS):
        for _ in range(4):
            image = apply(random_apollonian_word(r, 12), SEEDS[name])
            own_min = min(int(b) for b in image.bend_vector().bends8())
            for cap in (own_min, own_min + 100):
                for budget in (5, 200):
                    spec = PackingSpec(seed=image, bend_cap=cap,
                                       budget=budget)
                    assert generate(spec) == run(SEEDS[name], cap,
                                                 budget=budget)


def test_level_falls_back_to_bytes(monkeypatch):
    # a base of 64 packs builtin F1's root, (-1, 2, 2, 3, 3), and its first
    # level, whose values lie in [-1, 15]; the second level reaches 87 and
    # is deduped on bytes, as is each later one.  A budget of 62 ends the
    # walk on the second level.
    monkeypatch.setattr(packing, "_KEY_BASE", 64)
    packed = []
    distinct, fresh = packing._distinct, packing._fresh

    def spy_distinct(batches, low):
        packed.append(True)
        return distinct(batches, low)

    def spy_fresh(batches, seen, width):
        packed[-1] = False
        return fresh(batches, seen, width)

    monkeypatch.setattr(packing, "_distinct", spy_distinct)
    monkeypatch.setattr(packing, "_fresh", spy_fresh)
    for budget in (10 ** 7, 62, 600):
        assert_matches_reference(F1, 250, budget)
    assert packed[:3] == [True, False, False]


def slots(states):
    """C = 1 states, given as 5-tuples, slot-major: shape (5, m, 1)."""
    return np.array(states, dtype=np.int64).T[:, :, None]


_VALUES = st.integers(-40, 40)
_STATE = st.tuples(*[_VALUES] * 5)


@given(st.sampled_from([16, 64, 6208]), _VALUES,
       st.lists(st.lists(_STATE, min_size=1, max_size=6), max_size=4))
@settings(max_examples=300, deadline=None)
def test_level_dedupes_like_a_set(base, low, level):
    # batches of arbitrary states against a set of tuples: values below low
    # and spans past the base send the level to bytes
    with mock.patch.object(packing, "_KEY_BASE", base):
        got = packing._distinct(iter(slots(b) for b in level), low)
    got = got[:, :, 0].T.tolist()
    assert len(got) == len(set(map(tuple, got)))
    assert set(map(tuple, got)) == {s for b in level for s in b}


@given(st.integers(-2 ** 40, 2 ** 40),
       st.lists(st.tuples(*[st.integers(0, packing._KEY_BASE - 1)] * 5),
                min_size=1, max_size=30))
@settings(max_examples=200, deadline=None)
def test_packed_keys_round_trip(low, digits):
    # pack then unpack is the identity on states within [low, low + B), and
    # keys are distinct and ordered exactly as their states are
    states = slots(digits) + low
    keys = packing._pack(states, low)
    assert np.array_equal(packing._unpack(keys, low), states)
    pairs = itertools.combinations(zip(digits, keys.tolist()), 2)
    for (s, k), (t, j) in pairs:
        assert (s < t) == (k < j) and (s == t) == (k == j)


_ENTRY = st.integers(-3, 3) | st.integers(-2 ** 62, 2 ** 62)


@given(st.lists(st.tuples(*[_ENTRY] * 4), min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_sorting_network_sorts_rows(rows):
    # ties come from the small entries, negatives from both
    rows = np.array(rows, dtype=np.int64)
    out = np.empty((4, len(rows)), dtype=np.int64)
    packing._sort4(list(rows.T.copy()), out)
    assert np.array_equal(out.T, np.sort(rows, axis=1))


@given(st.integers(-2 ** 58, 2 ** 58),
       st.lists(st.tuples(*[st.integers(0, packing._KEY_BASE - 1)] * 5),
                min_size=1, max_size=30))
@settings(max_examples=200, deadline=None)
def test_slot_keys_are_the_digit_sums(low, digits):
    # Horner's rule on the slot columns gives the digits (value - low) in
    # base B exactly, also where a value times B would pass int64
    base = packing._KEY_BASE
    assert packing._pack(slots(digits) + low, low).tolist() == [
        sum(d * base ** (4 - j) for j, d in enumerate(s)) for s in digits]


def test_cap_past_int64_walks_like_a_huge_cap():
    # a cap past int64 is compared, never converted: the walk must not
    # raise OverflowError (the CLI's exit 1)
    for seed, mode in ((F1, "bend"), (F0, "bend"), (F7D, "bend"),
                       (F1, "geom")):
        budget = 1000 if mode == "bend" else 200
        huge, past = (generate(PackingSpec(seed=seed, bend_cap=cap, mode=mode,
                                           budget=budget)).to_json_dict()
                      for cap in (2 ** 62, 10 ** 20))
        assert past.pop("bend_cap") == 10 ** 20
        assert huge.pop("bend_cap") == 2 ** 62
        assert past == huge and not past["frontier_exhausted"]


def test_int64_headroom_guard():
    # the generators in table order, cycled: 37 letters take F1's b_mu past
    # 2**59, inside int64 but past the engine's headroom
    word = (list(APOLLONIAN) * 3)[:37]
    image = apply(element("Apollonian", word), F1)
    bends = [int(b) for b in image.bend_vector().bends8()]
    assert max(abs(int(b)) for b in image.bend_vector()) < 2 ** 63
    cap = min(bends)
    with pytest.raises(WalkInputError, match="int64 headroom"):
        generate(PackingSpec(seed=image, bend_cap=cap, budget=5))
    with pytest.raises(WalkInputError, match="int64 headroom"):
        orbit_bend_vectors(image, cap, budget=5)


def in_box(v):
    if not v.b:
        return True
    bound = QSqrt2(DEFAULT_BOX) * abs(v.b)
    return all(abs(c) <= bound for c in (v.xhat, v.yhat, v.zhat))


def reference_geom_walk(seed, cap, budget):
    """The geometric walk in exact ``Coord5`` arithmetic, level by level:
    the oracle for the integer kernel.  A state is keyed on its unordered
    disjoint pairs and mu.  Returns the number of states taken, the
    spheres of those states at most the cap, and whether the frontier
    emptied.  The walk takes whole levels while its state count stays
    within the budget."""
    def key(rows, his, mu):
        return frozenset(map(frozenset, zip(rows, his))), mu

    rows = seed.rows[:4]
    mu = seed.antipodal_row
    his = [mu.scale(2) - r for r in rows]
    visited = {key(rows, his, mu)}
    spheres = set(rows) | set(his)
    frontier = [(rows, his, mu)]
    taken, exhausted = 1, True
    while frontier:
        nxt = []
        for rows, his, mu in frontier:
            for mask in itertools.product((0, 1), repeat=4):
                kept = [his[k] if mask[k] else rows[k] for k in range(4)]
                # the cap test needs only the bends, so it goes first
                b2 = kept[0].b + kept[1].b + kept[2].b + kept[3].b - mu.b
                if all(b2 * 2 - c.b > cap for c in kept):
                    continue
                mu2 = kept[0] + kept[1] + kept[2] + kept[3] - mu
                new = [mu2.scale(2) - c for c in kept]
                if not any(map(in_box, new)):
                    continue
                child = key(kept, new, mu2)
                if child not in visited:
                    visited.add(child)
                    nxt.append((kept, new, mu2))
        if taken + len(nxt) > budget:
            exhausted = False
            break
        taken += len(nxt)
        for kept, new, _ in nxt:
            spheres.update(kept + new)
        frontier = nxt
    return taken, {v for v in spheres if v.b <= cap}, exhausted


def reference_classification(mult):
    negatives = [b for b in mult if b < 0]
    zeros = mult.get(0, 0)
    if len(negatives) == 1 and zeros == 0:
        return "bounded"
    if not negatives and zeros in (1, 2):
        return "planar" if zeros == 2 else "half_space"
    return "full_space"


# F1 moved by (1/2, 1/3, 0): entries with denominator 36


def geom_oracle_cases():
    cases = [(F0, 2), (F1, 8), (F1, 12), (F7D, 40), (F1_D36, 12)]
    r = random.Random(2026)
    for name, cap in (("F0", 2), ("F1", 8), ("F7d", 40)):
        for _ in range(3):
            image = apply(random_apollonian_word(r, 4), SEEDS[name])
            own_min = min(int(b) for b in image.bend_vector().bends8())
            cases.append((image, max(own_min, cap)))
    return cases


def test_geometric_walk_matches_reference():
    for seed, cap in geom_oracle_cases():
        for budget in (10 ** 7, 5):
            states, spheres, exhausted = reference_geom_walk(seed, cap, budget)
            mult = Counter(int(v.b.rat) for v in spheres)
            rep = generate(PackingSpec(seed=seed, bend_cap=cap, mode="geom",
                                       budget=budget))
            assert rep.states == states <= budget
            assert rep.spheres == tuple(sorted(spheres, key=lambda v: (
                v.b.rat, v.a.rat, v.a.irr, v.xhat.rat, v.xhat.irr,
                v.yhat.rat, v.yhat.irr, v.zhat.rat, v.zhat.irr)))
            assert rep.bend_multiplicity == dict(mult)
            assert rep.classification == reference_classification(mult)
            assert rep.frontier_exhausted == exhausted


@pytest.mark.parametrize("name", sorted(SEEDS) + ["F1_D36"])
def test_kernel_moves_are_the_apollonian_generators(name):
    # with nothing pruned, the 16 children of a start are the canonical
    # forms of its 16 images under the verified generator tables
    seed = SEEDS.get(name, F1_D36)
    d = math.lcm(*(x.denominator for v in seed.rows for c in v
                   for x in (c.rat, c.irr)))
    cap = 2 ** 40

    def start(f, geom):
        rows = np.array([_channels(v.scale(d)) for v in f.rows] if geom
                        else [[int(b)] for b in f.bend_vector()])
        return _canonical([rows[k:k + 1] for k in range(4)], rows[4:])

    def rows(states):
        return sorted(map(tuple, states.swapaxes(0, 1).reshape(
            states.shape[1], -1).tolist()))

    for geom in (False, True):
        children = np.concatenate(list(_children(start(seed, geom), cap)),
                                  axis=1)
        images = np.concatenate([
            start(apply(element("Apollonian", (g,)), seed), geom)
            for g in APOLLONIAN], axis=1)
        assert children.shape[1] == len(APOLLONIAN) == 16
        assert rows(children) == rows(images)


def test_orbit_bend_vectors_all_satisfy_cone():
    from orthoplex.config import descartes_form
    from orthoplex.ring import QSqrt2
    for seed in (F0, F1, F7D):
        vecs = orbit_bend_vectors(seed, 20)
        assert vecs
        for bv in vecs:
            assert descartes_form(bv) == QSqrt2(0)


def test_orbit_bend_vectors_hold_ints():
    vecs = orbit_bend_vectors(F7D, 60)
    assert vecs and all(type(b) is int for bv in vecs for b in bv)


def test_export_v0_configuration_alone():
    spheres = []
    seen = set()
    for row in F0.sphere_rows():
        if row.serialize() not in seen:
            seen.add(row.serialize())
            spheres.append(row)
    rep = PackingReport(mode="geom", bend_cap=2, bends=(0, 1, 2),
                        bend_multiplicity={0: 2, 1: 4, 2: 2},
                        classification="planar", epsilon=1,
                        frontier_exhausted=True, states=1,
                        spheres=tuple(spheres))
    blob = export_scene(rep, "csv").decode()
    lines = blob.strip().split("\n")
    assert len(lines) == 9  # header + 8 records
    assert sum(1 for ln in lines[1:] if ln.startswith("plane")) == 2


def test_export_empty_report_is_header_only():
    rep = PackingReport(mode="geom", bend_cap=1, bends=(),
                        bend_multiplicity={}, classification="full_space",
                        epsilon=1, frontier_exhausted=True, states=1,
                        spheres=())
    blob = export_scene(rep, "csv").decode()
    assert blob == ("kind,a,b,xhat,yhat,zhat,bend,cx,cy,cz,r,h\n")


def test_export_record_count_matches_dedupe():
    rep = run(F1, 8, mode="geom")
    blob = export_scene(rep, "csv").decode()
    assert len(blob.strip().split("\n")) == 1 + len(rep.spheres)


def test_export_json_shape_and_determinism():
    rep = run(F1, 8, mode="geom")
    blob1 = export_scene(rep, "json")
    fresh = generate(PackingSpec(seed=F1, bend_cap=8, mode="geom"))
    blob2 = export_scene(fresh, "json")
    assert blob1 == blob2
    doc = json.loads(blob1)
    assert doc["schema_version"] == 1
    kinds = {s["kind"] for s in doc["spheres"]}
    assert kinds == {"sphere"}
    negative = [s for s in doc["spheres"] if s["bend"] < 0]
    assert len(negative) == 1


def test_export_rejects_bend_mode():
    with pytest.raises(ValueError):
        export_scene(run(F1, 10), "csv")
    with pytest.raises(ValueError):
        export_scene(run(F1, 10, mode="geom"), "xml")


def test_reports_are_deterministic():
    a = generate(PackingSpec(seed=F1, bend_cap=40)).to_json_dict()
    b = generate(PackingSpec(seed=F1, bend_cap=40)).to_json_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_resolve_budget_env(monkeypatch):
    monkeypatch.delenv("ORTHOPLEX_BUDGET", raising=False)
    assert resolve_budget() == 10 ** 7
    assert resolve_budget(123) == 123
    monkeypatch.setenv("ORTHOPLEX_BUDGET", "456")
    assert resolve_budget() == 456
    assert resolve_budget(123) == 123
    monkeypatch.setenv("ORTHOPLEX_BUDGET", "abc")
    with pytest.raises(WalkInputError, match="ORTHOPLEX_BUDGET"):
        resolve_budget()
    assert resolve_budget(123) == 123


def test_non_integral_seed_rejected():
    from orthoplex.config import FMatrix
    from orthoplex.ring import QSqrt2
    from fractions import Fraction
    scaled = FMatrix(tuple(r.scale(Fraction(1, 3)) for r in F1.rows))
    with pytest.raises(ValueError):
        run(scaled, 30)


def test_spec_rejects_unknown_mode():
    with pytest.raises(ValueError, match="mode must be"):
        PackingSpec(seed=F1, bend_cap=10, mode="x")


def test_classify_names_each_class():
    assert packing._classify(0, {-1}) == "bounded"
    assert packing._classify(2, set()) == "planar"
    assert packing._classify(1, set()) == "half_space"
    assert packing._classify(0, {-1, -2}) == "full_space"


def test_readme_quick_start_runs_verbatim(capsys):
    # the package's lazy attributes, through the README's own code block:
    # each print's output is the comment on its line
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library quick start")[1]
    code = block.split("```python\n")[1].split("```")[0]
    exec(code, {})
    want = [line.split("# ")[-1] for line in code.splitlines()
            if line.startswith("print(")]
    assert capsys.readouterr().out.splitlines() == want == [
        "bounded", "(-1, 2, 3, 4, 6, 7)", "[]"]


def test_unknown_package_attribute_raises():
    import orthoplex
    assert orthoplex.generate is generate
    with pytest.raises(AttributeError, match="nope"):
        orthoplex.nope
