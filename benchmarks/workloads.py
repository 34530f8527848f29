"""The three benchmark workloads: seeded inputs, one job each, exact checks.

Every workload drives the program through its public API: ``cli.run`` with
the same argument lists a user would type, plus the library functions the
acceptance suite uses.  A job is one pass over a workload's operations; the
runner repeats jobs and reports medians.  Each step of a job is timed in
seconds and in calibration units (see ``Clock``).

Reference outputs come from the builtin starts (``reference.json``, written
by ``make_reference.py``).  Seeded starts lie in the same packing as the
builtin ones, so every seed must reproduce them byte for byte.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import random
import signal
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from orthoplex import arithmetic, cli, config, groups, packing
from orthoplex.ring import QSqrt2

BUILTIN = {"F0": config.F0, "F1": config.F1, "F7d": config.F7D}
LABELS = tuple(groups.APOLLONIAN)
PRIMES_BELOW_100 = tuple(p for p in range(2, 100)
                         if all(p % d for d in range(2, p)))

# (command, builtin packing of the start, arguments; the cap comes first)
BEND_WALK = (
    ("bends", "F1", ("--cap", "1000")),
    ("scan", "F7d", ("--cap", "1000", "--from", "200")),
)
GEOM_EXPORT = (
    ("export", "F1", ("--cap", "20", "--format", "csv")),
    ("export", "F0", ("--cap", "2", "--format", "json")),
)
START_WORD_MAX = 4
IMAGE_WORD_MAX = 12
IMAGES_PER_SEED = 50
ORBIT_SEED, ORBIT_CAP = "F1", 200
QFORM_PMAX = "100"
MOD8_COUNTS = {"solutions_mod8": 3584, "after_even_removal": 1536,
               "after_pair_ordering": 240, "after_full_ordering": 24}


def reference_key(argv: Sequence[str]) -> str:
    return " ".join(argv)


def digest(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


# fixed input of the calibration loop
_CAL_ROWS = np.random.default_rng(0).integers(-10 ** 6, 10 ** 6,
                                              size=(3000, 5))
SAMPLE_PERIOD_S = 0.05


def calibrate() -> float:
    """Seconds of a short fixed piece of work, about 1 ms: a numpy row sort
    and row unique, the walk's dedupe step on a fixed array.  It uses no
    orthoplex code, so a change to the program cannot move it; only the
    host's speed at the moment does.  Of the loops tried (``Fraction`` sums
    with set inserts, numpy, and mixes of both), this one followed the
    drift of every workload's job times best overall; README.md has the
    comparison."""
    t0 = time.perf_counter()
    np.unique(np.sort(_CAL_ROWS, axis=1), axis=0)
    return time.perf_counter() - t0


@dataclass
class Step:
    s: float = 0.0     # wall seconds, sampling excluded
    cal: float = 0.0   # the same time in calibration units


class Clock:
    """Times steps of a job twice: in wall seconds, and in calibration units,
    the seconds divided by the median time of ``calibrate()`` sampled while
    the step ran.

    The host's speed can drift by up to a factor of two over tens of
    seconds when other machines' work shares its cores, and the drift moves
    the step and the samples taken during it alike.  With ``sample``, a
    timer signal runs ``calibrate()`` every ``SAMPLE_PERIOD_S`` inside any
    open step; every step also takes one sample when it ends.  Time spent
    sampling is taken out of every step.  Steps nest."""

    def __init__(self, sample: bool = True):
        self.sample = sample
        self._open: List[List[float]] = []  # the samples of each open step
        self._spent = 0.0                   # seconds spent sampling
        self._busy = False
        self._previous = None

    def _take(self, into: Sequence[List[float]]):
        if self._busy:  # the timer fired during a sample
            return
        self._busy = True
        t0 = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()  # a collection would time the program's heap
        try:
            took = calibrate()
        finally:
            if enabled:
                gc.enable()
        for samples in into:
            samples.append(took)
        self._spent += time.perf_counter() - t0
        self._busy = False

    def _on_alarm(self, signum, frame):
        self._take(self._open)

    @contextlib.contextmanager
    def step(self):
        step, samples = Step(), []
        if self.sample and not self._open:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S,
                             SAMPLE_PERIOD_S)
        self._open.append(samples)
        spent0 = self._spent
        t0 = time.perf_counter()
        try:
            yield step
        finally:
            step.s = time.perf_counter() - t0 - (self._spent - spent0)
            self._open.pop()
            if self.sample and not self._open:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, self._previous)
            self._take([samples])
            step.cal = step.s / statistics.median(samples)


def total(steps: Sequence[Step]) -> Step:
    return Step(sum(x.s for x in steps), sum(x.cal for x in steps))


def random_word(rng: random.Random, max_len: int) -> Tuple[str, ...]:
    """A random Apollonian word of length 1..max_len.  No generator appears
    twice in a row, since each is an involution."""
    word: List[str] = []
    for _ in range(rng.randint(1, max_len)):
        word.append(rng.choice([x for x in LABELS if not word or x != word[-1]]))
    return tuple(word)


def _in_box(v, limit: QSqrt2) -> bool:
    return not v.b or all(abs(c) <= limit * abs(v.b)
                          for c in (v.xhat, v.yhat, v.zhat))


def move_taken(before: config.FMatrix, after: config.FMatrix, cap: int,
               box: Optional[QSqrt2]) -> bool:
    """Whether the walk keeps the move ``before -> after``: of the four
    spheres it creates one has bend <= cap and, in geometric mode, one lies
    in the box."""
    new = set(after.sphere_rows()) - set(before.sphere_rows())
    if len(new) != 4:
        raise ValueError("not a single Apollonian move")
    if min(v.b for v in new) > cap:
        return False
    return box is None or any(_in_box(v, box) for v in new)


def start_fit(word: Sequence[str], name: str, cap: int,
              geom: bool) -> Optional[config.FMatrix]:
    """The image of a builtin seed under ``word`` if it is a fit start.

    A start is fit when every step between the seed and the image is a move
    the walk keeps, in both directions.  The walk from the image then
    reaches the seed and the walk from the seed reaches the image, so both
    visit the same states and must print the same bytes.  Other starts are
    unfit: the CLI refuses a start without a sphere below the cap (exit 2),
    and the capped walk can miss spheres when it cannot get back to the
    seed (see README.md).
    """
    box = QSqrt2(packing.DEFAULT_BOX) if geom else None
    path = [BUILTIN[name]] + [
        groups.apply(groups.element("Apollonian", word[-k:]), BUILTIN[name])
        for k in range(1, len(word) + 1)]
    if min(int(b) for b in path[-1].bend_vector().bends8()) > cap:
        return None
    if all(move_taken(a, b, cap, box) and move_taken(b, a, cap, box)
           for a, b in zip(path, path[1:])):
        return path[-1]
    return None


def start_config(rng: random.Random, name: str, cap: int,
                 geom: bool) -> Tuple[Tuple[str, ...], config.FMatrix]:
    """A random word of length <= 4, redrawn until its start is fit."""
    while True:
        word = random_word(rng, START_WORD_MAX)
        f = start_fit(word, name, cap, geom)
        if f is not None:
            return word, f


def write_seed(f: config.FMatrix, path: Path) -> str:
    path.write_text(json.dumps(f.to_json_dict()), encoding="utf-8")
    return str(path)


def run_cli(argv: Sequence[str]) -> Tuple[int, bytes]:
    """``cli.run`` with stdout captured as bytes.  The stdout is bytes-backed
    because ``export`` writes to ``sys.stdout.buffer``."""
    raw = io.BytesIO()
    out = io.TextIOWrapper(raw, encoding="utf-8", write_through=True)
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(list(argv))
    data = raw.getvalue()
    out.detach()
    return code, data


@contextlib.contextmanager
def walk_states():
    """Collect ``report.states`` of every ``packing.generate`` call.  The CLI
    reaches the walk through the module attribute, so rebinding it there
    sees every walk."""
    inner = packing.generate
    states: List[int] = []

    def generate(spec):
        report = inner(spec)
        states.append(report.states)
        return report

    packing.generate = generate
    try:
        yield states
    finally:
        packing.generate = inner


class Ledger:
    """Operations attempted and failed; a failure is a wrong exit code, an
    exception, or an output that differs from the reference."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.output_bytes = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok

    def cli(self, argv: Sequence[str],
            expect: Callable[[bytes], bool]) -> Optional[bytes]:
        """Run one CLI command as one operation; returns its stdout."""
        try:
            code, out = run_cli(argv)
        except Exception as e:  # any exception is a failed operation
            self.check(False, f"{reference_key(argv)}: raised {e!r}")
            return None
        self.output_bytes += len(out)
        try:
            ok = code == 0 and expect(out)
        except Exception as e:
            self.check(False, f"{reference_key(argv)}: bad output {e!r}")
            return out
        self.check(ok, f"{reference_key(argv)}: exit {code}, output "
                       f"{digest(out)} differs from the reference")
        return out


@dataclass
class JobResult:
    wall: Step           # all steps of the job
    walk: Step           # the steps that run the walk (orbit enumeration)
    states: int          # states those walks visited
    checks: int          # identity checks plus quadratic-form chains
    output_bytes: int    # stdout bytes of every CLI call


class Workload:
    """Inputs made from ``seed`` in ``workdir``; ``job`` runs them once."""

    name = ""

    def __init__(self, seed: int, workdir: Path, reference: dict):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.outputs = reference["outputs"]
        self.reference = reference
        self.setup_seeds: List[Tuple[str, str]] = []  # (file, builtin name)

    def expect(self, builtin_argv: Sequence[str], replace=None):
        want = self.outputs[reference_key(builtin_argv)]

        def check(out: bytes) -> bool:
            if replace:
                out = out.replace(replace[0].encode(), replace[1].encode())
            return digest(out) == want
        return check

    def describe(self) -> dict:
        raise NotImplementedError

    def job(self, ledger: Ledger, clock: Clock) -> JobResult:
        raise NotImplementedError


class WalkWorkload(Workload):
    """Two CLI walks, each from a seeded start in a builtin packing."""

    commands: Tuple = ()
    geom = False

    def __init__(self, seed, workdir, reference):
        super().__init__(seed, workdir, reference)
        self.starts = []
        for i, (cmd, name, args) in enumerate(self.commands):
            word, f = start_config(self.rng, name, int(args[1]), self.geom)
            path = write_seed(f, workdir / f"start{i}-{name}.json")
            self.starts.append((cmd, name, args, word, path))
            self.setup_seeds.append((path, name))
        self.states_seen: Dict[str, int] = {}

    def describe(self) -> dict:
        return {"starts": [{"command": cmd, "packing": name,
                            "word": list(word)}
                           for cmd, name, _, word, _ in self.starts],
                "states": self.states_seen}

    def job(self, ledger: Ledger, clock: Clock) -> JobResult:
        bytes0 = ledger.output_bytes
        by_walk, walks = {}, []
        with clock.step() as wall:
            for cmd, name, args, _, path in self.starts:
                spec = f"builtin:{name}"
                argv = (cmd, "--seed", path) + args
                with walk_states() as states, clock.step() as walk:
                    ledger.cli(argv, self.expect(
                        (cmd, "--seed", spec) + args, replace=(path, spec)))
                by_walk[f"{cmd} {name}"] = sum(states)
                walks.append(walk)
        self.states_seen = by_walk
        return JobResult(wall=wall, walk=total(walks),
                         states=sum(by_walk.values()),
                         checks=2 * len(self.starts),  # the seed-file gate
                         output_bytes=ledger.output_bytes - bytes0)


class BendWalk(WalkWorkload):
    name = "bend-walk"
    commands = BEND_WALK


class GeomExport(WalkWorkload):
    name = "geom-export"
    commands = GEOM_EXPORT
    geom = True


def qform_chain(bv: config.BendVector) -> bool:
    """The criterion-5 invariants of one bend vector."""
    b = int(bv[0])
    q = arithmetic.qform_from_bend_vector(bv)
    if q.B ** 2 + q.C ** 2 - q.A * q.D != -b * b:
        return False
    if arithmetic.discriminant(q) != (2 * b) ** 4:
        return False
    if arithmetic.is_positive_definite(q) != (b != 0):
        return False
    for p in PRIMES_BELOW_100:
        good, wit = arithmetic.is_isotropic_at(q, p)
        if not (good and q.value(wit) % p == 0 and any(x % p for x in wit)):
            return False
    return arithmetic.local_classes(q) == {(b + int(bv[1])) % 4}


def mod8_counts_ok(out: bytes) -> bool:
    doc = json.loads(out)
    return all(doc[k] == v for k, v in MOD8_COUNTS.items())


class ExactVerify(Workload):
    """Identity checks on random orbit images, the verification suites, and
    the quadratic-form chain on every bend vector of one orbit."""

    name = "exact-verify"

    def __init__(self, seed, workdir, reference):
        super().__init__(seed, workdir, reference)
        self.words = [(name, random_word(self.rng, IMAGE_WORD_MAX))
                      for name in BUILTIN for _ in range(IMAGES_PER_SEED)]
        self.ordering = self.rng.randint(1, 8)
        for name in BUILTIN:
            word = next(w for n, w in self.words if n == name)
            f = groups.apply(groups.element("Apollonian", word), BUILTIN[name])
            self.setup_seeds.append(
                (write_seed(f, workdir / f"image-{name}.json"), name))
        self.vectors_seen = 0

    def describe(self) -> dict:
        return {"images": len(self.words), "ordering": self.ordering,
                "orbit_vectors": self.vectors_seen}

    def _verify_suite(self, ledger: Ledger) -> int:
        """Runs ``verify --all-builtin``; returns how many checks it made."""
        argv = ("verify", "--all-builtin", "--json")
        want = self.expect(argv)
        out = ledger.cli(argv, lambda o: want(o) and json.loads(o)["all_ok"])
        try:
            return len(json.loads(out)["checks"])
        except (TypeError, ValueError, KeyError):
            return 0

    def job(self, ledger: Ledger, clock: Clock) -> JobResult:
        bytes0 = ledger.output_bytes
        checks = 0
        with clock.step() as wall:
            for name, word in self.words:
                try:
                    f = groups.apply(groups.element("Apollonian", word),
                                     BUILTIN[name])
                    ok = config.check_gramian(f) and config.check_dgm(f)
                except Exception:
                    ok = False
                ledger.check(
                    ok, f"identities of {name} image {'.'.join(word)}")
                checks += 2
            checks += self._verify_suite(ledger)
            argv = ("mod8", "--json")
            want = self.expect(argv)
            ledger.cli(argv, lambda o: want(o) and mod8_counts_ok(o))
            argv = ("qform", "--seed", "builtin:F1", "--ordering",
                    str(self.ordering), "--pmax", QFORM_PMAX, "--json")
            ledger.cli(argv, self.expect(argv))
            checks += 1

            with clock.step() as walk:
                try:
                    vectors = packing.orbit_bend_vectors(BUILTIN[ORBIT_SEED],
                                                         ORBIT_CAP)
                except Exception as e:
                    vectors, error = [], repr(e)
                else:
                    error = f"{len(vectors)} vectors"
            want = self.reference["orbit_bend_vectors"]
            ledger.check(len(vectors) == want,
                         f"orbit_bend_vectors: {error}, want {want}")
            for bv in vectors:
                try:
                    ok = qform_chain(bv)
                except Exception:
                    ok = False
                ledger.check(ok, f"quadratic-form chain of {tuple(bv)}")
                checks += 1
        self.vectors_seen = len(vectors)
        return JobResult(wall=wall, walk=walk,
                         states=len(vectors), checks=checks,
                         output_bytes=ledger.output_bytes - bytes0)


WORKLOADS = {w.name: w for w in (BendWalk, GeomExport, ExactVerify)}
