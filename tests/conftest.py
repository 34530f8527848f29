"""Shared fixtures and frozen expected values.

The EXPECTED_* tables are frozen reference values for the three seed
packings; tests compare orbit output against them with exact set
equality.
"""

import random
from fractions import Fraction

import pytest

from orthoplex import config
from orthoplex.groups import APOLLONIAN, element
from orthoplex.inversive import Coord5
from orthoplex.ring import QSqrt2

from mobius import apply_mobius, mobius_translate

# all n = 0,1,2 (mod 4) from 0 through 68
EXPECTED_BENDS_P0 = tuple(sorted(
    {0, 1, 2, 4, 5, 6, 8, 9, 10, 12, 13, 14, 16, 17, 18, 20, 21, 22, 24,
     25, 26, 28, 29, 30, 32, 33, 34, 36, 37, 38, 40, 41, 42, 44, 45, 46,
     48, 49, 50, 52, 53, 54, 56, 57, 58, 60, 61, 62, 64, 65, 66, 68}))

# -1 plus all n = 0,2,3 (mod 4) from 2 through 68
EXPECTED_BENDS_P1 = tuple(sorted(
    {-1, 2, 3, 4, 6, 7, 8, 10, 11, 12, 14, 15, 16, 18, 19, 20, 22, 23, 24,
     26, 27, 28, 30, 31, 32, 34, 35, 36, 38, 39, 40, 42, 43, 44, 46, 47,
     48, 50, 51, 52, 54, 55, 56, 58, 59, 60, 62, 63, 64, 66, 67, 68}))

EXPECTED_BENDS_P7D = tuple(sorted(
    {-7, 12, 17, 20, 22, 24, 25, 29, 30, 33, 34, 37, 38, 40, 41, 44, 46,
     48, 49, 50, 52, 53, 54, 56, 58, 60, 61, 62, 64, 65, 66, 68, 69}))

# the 200..249 block: every n = 0,1,2 (mod 4) in that range
EXPECTED_BLOCK_P7D = tuple(n for n in range(200, 250) if n % 4 != 3)

# the 24 ordered residue tuples mod 8
EXPECTED_MOD8_REPRESENTATIVES = (
    (0, 0, 1, 1, 2, 2, 1, 1), (0, 0, 1, 1, 6, 6, 5, 5),
    (0, 0, 1, 5, 2, 2, 1, 5), (0, 0, 3, 3, 2, 2, 7, 7),
    (0, 0, 3, 3, 6, 6, 3, 3), (0, 0, 3, 7, 6, 6, 3, 7),
    (0, 0, 5, 5, 2, 2, 5, 5), (0, 0, 7, 7, 6, 6, 7, 7),
    (0, 1, 1, 2, 6, 5, 5, 4), (0, 1, 1, 4, 2, 1, 1, 6),
    (0, 1, 4, 5, 2, 1, 6, 5), (0, 2, 3, 3, 6, 4, 3, 3),
    (0, 2, 3, 7, 6, 4, 3, 7), (0, 2, 7, 7, 6, 4, 7, 7),
    (0, 3, 3, 4, 2, 7, 7, 6), (0, 4, 5, 5, 2, 6, 5, 5),
    (1, 1, 2, 2, 5, 5, 4, 4), (1, 1, 4, 4, 1, 1, 6, 6),
    (1, 4, 4, 5, 1, 6, 6, 5), (2, 2, 3, 3, 4, 4, 3, 3),
    (2, 2, 3, 7, 4, 4, 3, 7), (2, 2, 7, 7, 4, 4, 7, 7),
    (3, 3, 4, 4, 7, 7, 6, 6), (4, 4, 5, 5, 6, 6, 5, 5),
)

SEEDS = {"F0": config.F0, "F1": config.F1, "F7d": config.F7D}

# a seed whose F-matrix has denominators up to 36
F1_D36 = apply_mobius(
    config.F1, mobius_translate(Fraction(1, 2), Fraction(1, 3), 0))


@pytest.fixture
def rng():
    return random.Random(0x0f2a)


def random_qsqrt2(r: random.Random, span: int = 20) -> QSqrt2:
    return QSqrt2(
        Fraction(r.randint(-span, span), r.randint(1, 6)),
        Fraction(r.randint(-span, span), r.randint(1, 6)),
    )


def random_apollonian_word(r: random.Random, max_len: int = 12):
    labels = list(APOLLONIAN)
    n = r.randint(1, max_len)
    word = []
    prev = None
    for _ in range(n):
        lab = r.choice([x for x in labels if x != prev])
        word.append(lab)
        prev = lab
    return element("Apollonian", word)


def coord5(*vals) -> Coord5:
    return Coord5.of(*vals)
