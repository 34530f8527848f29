"""Command-line front end.

Every run with identical inputs produces byte-identical output: all
collections are emitted sorted, and machine output goes through one JSON
encoder with sorted keys.

Exit codes: 0 success, 1 a verification suite reported a failure,
2 invalid input, 3 node budget exhausted before the frontier emptied.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import arithmetic, groups
from .config import BUILTIN_SEEDS, FMatrix, check_dgm, check_gramian

SCHEMA_VERSION = 1

# qform keeps a table of (p+1)/2 square roots per prime below --pmax: 10^5
# already takes over a minute and about 400 MB, and larger bounds run out
# of memory
PMAX_LIMIT = 10 ** 5


class CliError(Exception):
    """Invalid input: one ``error:`` line on stderr and exit 2."""


def _load_seed(spec: str, check: bool = True) -> FMatrix:
    """A builtin seed, named ``builtin:NAME``, or else the path of an
    FMatrix JSON file.  A seed that fails the Gramian/Descartes identities
    is invalid input unless ``check`` is off, as it is for ``verify``,
    which reports on the identities itself."""
    name = spec.removeprefix("builtin:")
    if name != spec and name in BUILTIN_SEEDS:
        return BUILTIN_SEEDS[name]
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError:
        raise CliError(
            f"unknown seed {spec!r}: use builtin:{'|'.join(sorted(BUILTIN_SEEDS))} "
            "or a readable FMatrix JSON file")
    except (ValueError, RecursionError) as e:  # also not UTF-8, or too deep
        raise CliError(f"seed file {spec!r} is not valid JSON: {e}")
    try:
        f = FMatrix.from_json_dict(data)
    except ValueError as e:
        raise CliError(f"seed file {spec!r} is not a valid FMatrix: {e}")
    if check and not (check_gramian(f) and check_dgm(f)):
        raise CliError(f"seed file {spec!r} fails the Gramian/Descartes "
                       "identities; not an admissible configuration")
    return f


def _json_text(doc: dict) -> str:
    """The one JSON encoder: sorted keys, two-space indent, final newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _write_out(path: str, blob: bytes):
    try:
        with open(path, "wb") as fh:
            fh.write(blob)
    except OSError as e:
        raise CliError(f"cannot write {path!r}: {e.strerror}")


def _emit(doc: dict, lines: List[str], args):
    if getattr(args, "json", False):
        sys.stdout.write(_json_text(doc))
    else:
        for line in lines:
            sys.stdout.write(line + "\n")


def _run_packing(args, mode: str):
    """The report of a walk; the walk commands alone import ``packing``,
    and with it numpy."""
    from . import packing
    seed = _load_seed(args.seed)
    budget = packing.resolve_budget(getattr(args, "budget", None))
    return packing.generate(packing.PackingSpec(
        seed=seed, bend_cap=args.cap, mode=mode, budget=budget))


def cmd_gen(args) -> int:
    report = _run_packing(args, args.mode)
    doc = {"schema_version": SCHEMA_VERSION, "command": "gen",
           "seed": args.seed, "report": report.to_json_dict()}
    lines = [
        f"seed {args.seed} cap {args.cap} mode {report.mode}",
        f"states {report.states} exhausted {report.frontier_exhausted}",
        f"classification {report.classification} epsilon {report.epsilon:+d}",
        f"bends [{report.min_bend}, {args.cap}]: {len(report.bends)} values",
    ]
    if args.out:
        _write_out(args.out, _json_text(doc).encode())
        lines.append(f"wrote {args.out}")
    _emit(doc, lines, args)
    return 0 if report.frontier_exhausted else 3


def cmd_bends(args) -> int:
    report = _run_packing(args, "bend")
    doc = {"schema_version": SCHEMA_VERSION, "command": "bends",
           "seed": args.seed, "cap": args.cap,
           "frontier_exhausted": report.frontier_exhausted,
           "bends": list(report.bends)}
    _emit(doc, [" ".join(str(b) for b in report.bends)], args)
    return 0 if report.frontier_exhausted else 3


def cmd_scan(args) -> int:
    from . import packing
    report = _run_packing(args, "bend")
    if not report.frontier_exhausted:
        print("budget exhausted before the frontier emptied; "
              "scan would under-report", file=sys.stderr)
        return 3
    up_to = args.to if args.to is not None else args.cap
    start = args.start
    try:
        missing = packing.missing_admissible(report, up_to, start)
    except ValueError as e:
        raise CliError(str(e))
    lo = start if start is not None else report.min_bend
    doc = {"schema_version": SCHEMA_VERSION, "command": "scan",
           "seed": args.seed, "cap": args.cap,
           "scan_range": [lo, up_to],
           "epsilon": report.epsilon,
           "forbidden_residue": report.obstruction().forbidden_residue,
           "missing_admissible": missing}
    lines = [
        f"scan [{lo}, {up_to}] of {args.seed} at cap {args.cap}: "
        f"forbidden residue {report.obstruction().forbidden_residue} (mod 4)",
        ("no admissible integers missing" if not missing else
         "missing admissible: " + " ".join(map(str, missing))),
    ]
    _emit(doc, lines, args)
    return 0


def cmd_obstruct(args) -> int:
    _, obs = arithmetic.seed_obstruction(_load_seed(args.seed))
    doc = {"schema_version": SCHEMA_VERSION, "command": "obstruct",
           "seed": args.seed, "epsilon": obs.epsilon,
           "forbidden_residue": obs.forbidden_residue}
    _emit(doc, [f"epsilon {obs.epsilon:+d}; bends never hit "
                f"{obs.forbidden_residue} (mod 4)"], args)
    return 0


def cmd_mod8(args) -> int:
    rep = arithmetic.enumerate_mod8()
    doc = {"schema_version": SCHEMA_VERSION, "command": "mod8",
           "solutions_mod8": rep.solutions_mod8,
           "tuples8": rep.tuples8,
           "after_even_removal": rep.after_even_removal,
           "after_pair_ordering": rep.after_pair_ordering,
           "after_full_ordering": rep.after_full_ordering,
           "representatives": [list(t) for t in rep.representatives],
           "mod4_classes": [list(t) for t in rep.mod4_classes]}
    lines = [
        f"cone solutions mod 8:        {rep.solutions_mod8}",
        f"distinct bend 8-tuples:      {rep.tuples8}",
        f"after removing even tuples:  {rep.after_even_removal}",
        f"after pair ordering:         {rep.after_pair_ordering}",
        f"after full ordering:         {rep.after_full_ordering}",
        "representatives:",
    ]
    lines += ["  " + " ".join(map(str, t)) for t in rep.representatives]
    lines.append("mod-4 classes:")
    lines += ["  " + " ".join(map(str, t)) for t in rep.mod4_classes]
    _emit(doc, lines, args)
    return 0


def cmd_qform(args) -> int:
    if args.pmax < 2:
        raise CliError(f"--pmax must be at least 2, got {args.pmax}")
    if args.pmax > PMAX_LIMIT:
        raise CliError(f"--pmax must be at most {PMAX_LIMIT}, got {args.pmax}")
    seed = _load_seed(args.seed)
    f = seed
    if args.ordering != 1:
        try:
            f = groups.apply(groups.ordering_element(args.ordering), seed)
        except ValueError as e:
            raise CliError(str(e))
    try:
        bv = f.bend_vector()
        q = arithmetic.qform_from_bend_vector(bv)
    except ValueError as e:
        raise CliError(str(e))
    # a quaternary form has a nonzero root mod every prime
    iso = [{"p": p, "isotropic": True,
            "witness": list(arithmetic.is_isotropic_at(q, p)[1])}
           for p in arithmetic.primes_below(args.pmax)]
    classes = sorted(arithmetic.local_classes(q))
    doc = {"schema_version": SCHEMA_VERSION, "command": "qform",
           "seed": args.seed, "ordering": args.ordering,
           "bend_vector": list(bv),
           "A": q.A, "B": q.B, "C": q.C, "D": q.D, "shift_b": q.shift_b,
           "hermitian_discriminant": q.B ** 2 + q.C ** 2 - q.A * q.D,
           "quaternary_discriminant": arithmetic.discriminant(q),
           "positive_definite": arithmetic.is_positive_definite(q),
           "local_classes": classes,
           "isotropy": iso}
    lines = [
        f"bend vector {tuple(bv)} (sphere {args.ordering} first)",
        f"(A, B, C, D) = ({q.A}, {q.B}, {q.C}, {q.D}), shift b = {q.shift_b}",
        f"B^2+C^2-AD = {doc['hermitian_discriminant']}",
        f"discriminant = {doc['quaternary_discriminant']}",
        f"positive definite: {doc['positive_definite']}",
        f"values mod 4 on the congruence lattice: {classes}",
        "isotropy below p = " + str(args.pmax) + ":",
    ]
    lines += [f"  p={e['p']}: isotropic witness {tuple(e['witness'])}"
              for e in iso]
    _emit(doc, lines, args)
    return 0


def _verification_checks(seed_specs: List[str]) -> List[dict]:
    checks = []
    for spec in seed_specs:
        f = _load_seed(spec, check=False)
        checks.append({"name": f"gramian[{spec}]", "ok": check_gramian(f)})
        checks.append({"name": f"descartes[{spec}]", "ok": check_dgm(f)})
    for name, rel in (("platonic", groups.verify_platonic_relations()),
                      ("apollonian", groups.verify_apollonian_relations())):
        for label, ok in rel:
            checks.append({"name": f"{name}-relation[{label}]", "ok": ok})
    for table in ("Platonic", "Apollonian", "Stabilizer1", "DualApollonian"):
        for label in groups.generators(table):
            g = groups.element(table, (label,))
            ok, det = groups.verify_orthogonality(g)
            checks.append({"name": f"orthogonal[{table}.{label}]",
                           "ok": ok and det in (1, -1)})
    rederived = groups.rederive_apollonian()
    for label, m in rederived.items():
        checks.append({"name": f"rederive[{label}]",
                       "ok": m == groups.APOLLONIAN[label]})
    for label, m in groups.STABILIZER1_ORIENTED.items():
        want = groups._imul(groups.APOLLONIAN["S1234"],
                            groups.APOLLONIAN[groups.STABILIZER1_FACTORS[label]])
        checks.append({"name": f"stabilizer-product[{label}]", "ok": m == want})
    return checks


def cmd_verify(args) -> int:
    seeds = []
    if args.all_builtin:
        seeds = [f"builtin:{k}" for k in sorted(BUILTIN_SEEDS)]
    if args.seed:
        seeds.append(args.seed)
    if not seeds:
        raise CliError("nothing to verify: pass --all-builtin or --seed FILE")
    checks = _verification_checks(seeds)
    all_ok = all(c["ok"] for c in checks)
    doc = {"schema_version": SCHEMA_VERSION, "command": "verify",
           "checks": checks, "all_ok": all_ok}
    lines = [f"{'PASS' if c['ok'] else 'FAIL'} {c['name']}" for c in checks]
    lines.append(f"{'all checks passed' if all_ok else 'FAILURES present'} "
                 f"({len(checks)} checks)")
    _emit(doc, lines, args)
    return 0 if all_ok else 1


def cmd_groups(args) -> int:
    if args.group_action == "verify":
        rel = (groups.verify_platonic_relations()
               + groups.verify_apollonian_relations())
        all_ok = all(ok for _, ok in rel)
        doc = {"schema_version": SCHEMA_VERSION, "command": "groups-verify",
               "relations": [{"name": n, "ok": ok} for n, ok in rel],
               "all_ok": all_ok}
        lines = [f"{'PASS' if ok else 'FAIL'} {name}" for name, ok in rel]
        lines.append(f"{len(rel)} relations, all_ok={all_ok}")
        _emit(doc, lines, args)
        return 0 if all_ok else 1
    table = args.table
    try:
        tab = groups.generators(table)
    except KeyError as e:
        raise CliError(str(e.args[0]))
    doc = {"schema_version": SCHEMA_VERSION, "command": "groups-show",
           "table": table,
           "generators": [{"label": lab, "matrix": [list(r) for r in m]}
                          for lab, m in tab.items()]}
    lines = []
    for lab, m in tab.items():
        lines.append(lab)
        lines += ["  " + " ".join(f"{x:4d}" for x in row) for row in m]
    _emit(doc, lines, args)
    return 0


def cmd_export(args) -> int:
    from . import packing
    report = _run_packing(args, "geom")
    try:
        blob = packing.export_scene(report, args.format)
    except ValueError as e:
        raise CliError(str(e))
    if args.out:
        _write_out(args.out, blob)
    else:
        sys.stdout.buffer.write(blob)
    return 0 if report.frontier_exhausted else 3


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="orthoplex",
        description="Exact construction and verification of orthoplicial "
                    "Apollonian sphere packings.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_seed(p, cap=True):
        p.add_argument("--seed", required=True,
                       help="builtin:F0|F1|F7d or an FMatrix JSON file")
        if cap:
            p.add_argument("--cap", type=int, required=True,
                           help="largest bend to enumerate")
            p.add_argument("--budget", type=int, default=None, metavar="N",
                           help="walk at most N states, in whole BFS levels "
                                "(default 10^7, or env ORTHOPLEX_BUDGET)")

    p = sub.add_parser("gen", help="enumerate a packing orbit")
    add_seed(p)
    p.add_argument("--mode", choices=("bend", "geom"), default="bend")
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("bends", help="print the bend set up to the cap")
    add_seed(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_bends)

    p = sub.add_parser("scan", help="admissible-but-missing bends")
    add_seed(p)
    p.add_argument("--from", dest="start", type=int, default=None,
                   help="scan lower bound (default: smallest bend)")
    p.add_argument("--to", dest="to", type=int, default=None,
                   help="scan upper bound (default: the cap)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("obstruct", help="mod-4 local obstruction of a seed")
    add_seed(p, cap=False)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_obstruct)

    p = sub.add_parser("mod8", help="residue filtration behind the obstruction")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_mod8)

    p = sub.add_parser("qform", help="quaternary form of a seed bend vector")
    add_seed(p, cap=False)
    p.add_argument("--ordering", type=int, default=1, metavar="K",
                   help="which sphere (1..8) to put first")
    p.add_argument("--pmax", type=int, default=100,
                   help=f"isotropy table bound, 2 to {PMAX_LIMIT} "
                        "(default 100)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_qform)

    p = sub.add_parser("verify", help="run the identity suites")
    p.add_argument("--all-builtin", action="store_true")
    p.add_argument("--seed", default=None,
                   help="also verify this FMatrix JSON file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("groups", help="inspect the matrix groups")
    gsub = p.add_subparsers(dest="group_action", required=True)
    gv = gsub.add_parser("verify", help="check all group relations")
    gv.add_argument("--json", action="store_true")
    gv.set_defaults(fn=cmd_groups)
    gs = gsub.add_parser("show", help="dump a generator table")
    gs.add_argument("table")
    gs.add_argument("--json", action="store_true")
    gs.set_defaults(fn=cmd_groups)

    p = sub.add_parser("export", help="write a geometric scene")
    add_seed(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(fn=cmd_export)

    return ap


def run(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, arithmetic.WalkInputError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
