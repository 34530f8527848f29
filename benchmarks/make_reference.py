"""Write ``reference.json``: the outputs every seeded start must reproduce.

    python3 benchmarks/make_reference.py

Each output is taken from the builtin start of its packing and stored as a
sha256 digest with its length in bytes.  Rerun only when the program's
output is meant to change; the diff of this file then shows which outputs
did.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402
from orthoplex import packing  # noqa: E402


def builtin_commands():
    for cmd, name, args in wl.BEND_WALK + wl.GEOM_EXPORT:
        yield (cmd, "--seed", f"builtin:{name}") + args
    yield ("verify", "--all-builtin", "--json")
    yield ("mod8", "--json")
    for k in range(1, 9):
        yield ("qform", "--seed", "builtin:F1", "--ordering", str(k),
               "--pmax", wl.QFORM_PMAX, "--json")
    for name in wl.BUILTIN:
        yield ("obstruct", "--seed", f"builtin:{name}")


def main() -> int:
    outputs = {}
    for argv in builtin_commands():
        code, out = wl.run_cli(argv)
        if code != 0:
            print(f"error: {' '.join(argv)} exited {code}", file=sys.stderr)
            return 1
        outputs[wl.reference_key(argv)] = wl.digest(out)
    vectors = packing.orbit_bend_vectors(wl.BUILTIN[wl.ORBIT_SEED], wl.ORBIT_CAP)
    doc = {"outputs": outputs, "orbit_bend_vectors": len(vectors)}
    (HERE / "reference.json").write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
