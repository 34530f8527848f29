"""Exact-arithmetic orthoplicial Apollonian sphere packings."""

from .config import BUILTIN_SEEDS, F0, F1, F7D, FMatrix, VMatrix
from .inversive import Coord5, HonestSphere, PlanarSphere
from .ring import Mat, QSqrt2

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_SEEDS", "F0", "F1", "F7D", "FMatrix", "VMatrix",
    "Coord5", "HonestSphere", "PlanarSphere",
    "PackingReport", "PackingSpec", "generate",
    "Mat", "QSqrt2",
]


def __getattr__(name: str):
    # the walks load on first use: only they need numpy (PEP 562)
    if name in ("PackingReport", "PackingSpec", "generate"):
        from . import packing
        return getattr(packing, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
