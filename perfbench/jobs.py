"""The four workloads: seeded problem files, the CLI jobs run on them, and their answers.

A job is one `linform` command on one problem file. Each workload draws its
problems from the seed: translations, residues, signs, orientation (a file
may be written with v < 0, which the CLI reflects) and the job order vary,
while the sizes that set the cost are fixed per workload, so that two seeds
cost about the same.

Every job carries the answer it must produce. Most answers are known by
construction (a tiling, a planted witness) or computed in oracle.py without
linform. Unsat proofs, unfound complements and purity rejections have no
independent check; those jobs come from fixed pools whose answers
record.py wrote to recorded.json (from commit f58926b), and the workload
seed only changes their orientation and order.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from typing import Callable

from oracle import Oracle, minimal_period

WORKLOADS = ("verify", "count", "search", "reconstruct")

DEFAULT_MAX_GAP = 24  # the CLI's --max-d default
PAIR_FILE = "tests/data/pair.json"  # {0, 1} with B = even numbers, t = 1


@dataclass(frozen=True)
class Problem:
    """A problem file's contents, as written (v < 0 means the CLI reflects it)."""

    u: tuple[int, ...]
    sets: tuple[tuple[int, ...], ...]
    v: int | None = None
    modulus: int | None = None
    residues: tuple[int, ...] = ()
    t: int | None = None

    @property
    def reflected(self) -> bool:
        return self.v is not None and self.v < 0

    def flipped(self) -> Problem:
        return replace(self, u=tuple(-c for c in self.u), v=-self.v)

    def normalized(self) -> Problem:
        return self.flipped() if self.reflected else self

    def gap(self) -> int:
        """Recursion gap (g_max - g_min) // |v| of the image."""
        low = sum(min(c * a for a in s) for c, s in zip(self.u, self.sets))
        high = sum(max(c * a for a in s) for c, s in zip(self.u, self.sets))
        return (high - low) // abs(self.v)

    def member(self, n: int) -> int:
        return int(n % self.modulus in self.residues)

    def doc(self) -> dict:
        document: dict = {"u": list(self.u), "A": [list(s) for s in self.sets]}
        if self.v is not None:
            document["v"] = self.v
        if self.modulus is not None:
            document["B"] = {"modulus": self.modulus, "residues": list(self.residues)}
        if self.t is not None:
            document["t"] = self.t
        return document


PAIR = Problem((1,), ((0, 1),), 1, 2, (0,), 1)


@dataclass
class Expect:
    """Exit code, report fields that must be equal, and an optional check of the whole report."""

    code: int
    fields: dict = field(default_factory=dict)
    verify: Callable[[dict], str | None] | None = None


@dataclass
class Job:
    command: str
    problem: Problem
    args: tuple[str, ...] = ()
    recorded: bool = False  # the answer comes from recorded.json
    input_file: str | None = None  # a repository file holding `problem`
    path: str = ""  # where the problem file was written
    expect: Expect | None = None

    @property
    def argv(self) -> list[str]:
        return [self.command, "--input", self.input_file or self.path, *self.args]

    def arg(self, flag: str) -> str:
        for i, token in enumerate(self.args):
            if token == flag:
                return self.args[i + 1]
            if token.startswith(flag + "="):
                return token[len(flag) + 1 :]
        raise KeyError(flag)

    def key(self) -> str:
        """Orientation-free identity of the job, used to look up recorded answers."""
        return json.dumps([self.command, list(self.args), self.problem.normalized().doc()])


def check(expect: Expect, code, stdout: str) -> str | None:
    """None when the job's exit code and report match the expectation, else what differs."""
    if code != expect.code:
        return f"exit code {code!r}, expected {expect.code}"
    if not expect.fields and expect.verify is None:
        return None
    try:
        report = json.loads(stdout)
    except ValueError:
        return "stdout is not one JSON report"
    for key, value in expect.fields.items():
        got = report.get(key)
        if got != value:
            if isinstance(got, (str, list)) and isinstance(value, (str, list)):
                at = next((i for i, (a, b) in enumerate(zip(got, value)) if a != b), min(len(got), len(value)))
                return f"{key} differs at index {at} (length {len(got)}, expected {len(value)})"
            return f"{key} = {str(got)[:60]}, expected {str(value)[:60]}"
    return expect.verify(report) if expect.verify else None


# --- problem families ---------------------------------------------------


def _orient(rng: random.Random, problem: Problem) -> Problem:
    return problem.flipped() if rng.random() < 0.5 else problem


def _interval(rng: random.Random, k: int) -> tuple[int, ...]:
    c = rng.randint(-k, k)
    return tuple(range(c, c + k))


def _subset(rng: random.Random, size: int, spread: int) -> tuple[int, ...]:
    c = rng.randint(-spread, spread)
    return tuple(sorted(c + x for x in rng.sample(range(spread), size)))


def _seed_arg(problem: Problem, start: int, length: int, flip: int | None = None) -> str:
    """--seed=START:BITS from B's membership; the = keeps argparse from reading -5:... as a flag."""
    bits = [problem.member(start + i) for i in range(length)]
    if flip is not None:
        bits[flip] ^= 1
    return f"--seed={start}:{''.join(map(str, bits))}"


def _probes(rng: random.Random, *commands: str) -> list[Job]:
    """One small job on {0, 1} with B = even numbers per command the workload has no other use for.

    Every layer is then traced on every workload, so a change to a layer
    that a workload barely uses is measured there instead of being zero by
    construction.
    """
    pair = _orient(rng, PAIR)
    args = {
        "check": (),
        "cyclotomy": ("-m", "2", "-t", "1"),
        "extend": (_seed_arg(PAIR, 0, 2), "--from", "-8", "--to", "8"),
        "stabilize": ("-N", "4"),
    }
    return [Job(command, pair, args[command]) for command in commands]


def verify_jobs(rng: random.Random) -> list[Job]:
    """Complement verification on tilings with large periods P = v*m, and refutations."""
    jobs = []

    def add(problem, *extra):
        problem = _orient(rng, problem)
        jobs.append(Job("check", problem))
        jobs.extend(Job(cmd, problem, args) for cmd, args in extra)

    for k in (2, 3, 4, 5, 6, 7, 8, 10, 12, 16, 20, 24, 32, 40, 48, 64, 128, 256, 512, 1024, 2048):
        tiling = Problem((1,), (_interval(rng, k),), 1, k, (rng.randrange(k),), 1)
        add(tiling, ("cyclotomy", ("-m", str(k))), ("modrep", ("-m", str(k))))
    # u = (+-1, a) over two intervals has an interval image of length a*b,
    # tiled by v*B with B one residue mod a*b/v, so P = a*b.
    for a, b, v in (
        (2, 2, 1), (2, 3, 2), (3, 4, 3), (4, 4, 1), (4, 4, 4), (2, 8, 2),
        (3, 5, 5), (4, 8, 2), (8, 8, 4), (8, 16, 2), (16, 16, 1), (16, 32, 4),
    ):  # fmt: skip
        m = a * b // v
        u = (rng.choice((1, -1)), a)
        tiling = Problem(u, (_interval(rng, a), _interval(rng, b)), v, m, (rng.randrange(m),), 1)
        add(tiling, ("cyclotomy", ("-m", str(a * b))), ("modrep", ("-m", str(a * b))))
    # A = c + range(k) and B = {0, k, 3k} - c mod 4k miss 2k mod 4k: the
    # witness lies k + 1 from 0 whatever the shift c.
    for k in (16, 32, 64, 128, 256, 512):
        elements = _interval(rng, k)
        residues = tuple(sorted((j * k - elements[0]) % (4 * k) for j in (0, 1, 3)))
        add(Problem((1,), (elements,), 1, 4 * k, residues, 1), ("cyclotomy", ("-m", str(4 * k))))
    # Two residues mod k: every count is 2, so the scan fails at its first residue.
    for k in (8, 64, 512, 1024, 2048):
        r = rng.randrange(k)
        residues = tuple(sorted((r, (r + 1) % k)))
        add(Problem((1,), (_interval(rng, k),), 1, k, residues, 1), ("modrep", ("-m", str(k))))
    for a, b, v in ((8, 8, 1), (16, 32, 4)):
        m = a * b // v
        r = rng.randrange(m)
        tiling = Problem((1, a), (_interval(rng, a), _interval(rng, b)), v, m, tuple(sorted((r, (r + 1) % m))), 1)
        add(tiling, ("modrep", ("-m", str(m))))
    return jobs + _probes(rng, "extend", "stabilize")


def count_jobs(rng: random.Random) -> list[Job]:
    """Image and representation counts of h = 3..5 forms, dense and sparse."""
    jobs = []

    def add(problem, m, t):
        for cmd, args in (
            ("image", ()),
            ("repfn", ()),
            ("modrep", ("-m", str(m))),
            ("cyclotomy", ("-m", str(m), "-t", str(t))),
        ):
            jobs.append(Job(cmd, problem, args))

    def signs(h):
        return [rng.choice((1, -1)) for _ in range(h)]

    # Dense: u = +-1 over overlapping sets, so many tuples share a value.
    for h, s in (
        (3, 6), (3, 6), (3, 7), (3, 7), (3, 8), (3, 8), (3, 9), (3, 10), (3, 12),
        (4, 6), (4, 8), (4, 10), (5, 6), (5, 8),
    ):  # fmt: skip
        sets = tuple(_subset(rng, s, s + s // 2) for _ in range(h))
        m = rng.randint(5, 16)
        add(Problem(tuple(signs(h)), sets), m, s**h // m)
    # Intervals of length s under u = 1 cover every residue mod s equally often.
    for h, s in ((3, 6), (3, 8), (4, 6), (4, 8), (5, 6)):
        add(Problem((1,) * h, tuple(_interval(rng, s) for _ in range(h))), s, s ** (h - 1))
    # Sparse: u = +-(2s)^i over sets inside one digit range, so every tuple
    # gives a distinct value and the image is as large as the product.
    for h, s in ((3, 6), (3, 7), (3, 8), (3, 9), (3, 10), (3, 12), (4, 6), (4, 8)):
        u = tuple(sign * (2 * s) ** i for i, sign in enumerate(signs(h)))
        sets = tuple(tuple(sorted(rng.sample(range(2 * s), s))) for _ in range(h))
        m = rng.randint(5, 16)
        add(Problem(u, sets), m, s**h // m)
    big = Problem(tuple(signs(5)), tuple(_subset(rng, 12, 18) for _ in range(5)))
    jobs.append(Job("repfn", big))
    return jobs + _probes(rng, "check", "extend", "stabilize")


def search_pool() -> list[Job]:
    """Window solves and stabilizations whose outcomes are in recorded.json."""
    rng = random.Random("search-pool")
    problems = []
    for i in range(40):
        d = rng.randint(8, 16)
        elements = {0, d} | set(rng.sample(range(1, d), rng.randint(1, 4)))
        problems.append(Problem((1,), (tuple(sorted(elements)),), 1, t=1 + i % 2))
    for u, v, sets, t in (
        ((1, 4, 16), 8, ((0, 1, 2, 3),) * 3, 1),
        ((1, 2), 1, ((0, 1), (0, 1)), 1),
        ((1, 3), 3, ((0, 1, 2), (0, 1, 2)), 1),
        ((1, 3), 9, ((0, 1, 2), (0, 1, 2)), 1),
        ((1, 4), 4, ((0, 1, 2, 3), (0, 1)), 1),
        ((1, -1), 1, ((0, 1), (0, 1)), 2),
    ):
        problems.append(Problem(u, sets, v, t=t))
    budget = ("--max-nodes", "2000000")
    return [
        Job(cmd, problem, (*args, *budget), recorded=True)
        for problem in problems
        for cmd, args in (("stabilize", ("-N", "12")), ("solve", ("-N", "20")))
    ]


def search_jobs(rng: random.Random) -> list[Job]:
    """Window search: DFS-bound h = 1 sets, image-bound h >= 2 tilings, classics, a radius ladder."""
    jobs = [replace(job, problem=_orient(rng, job.problem)) for job in search_pool()]
    for elements in ((0, 1), (0, 1, 2), (0, 2)):
        jobs.append(Job("stabilize", _orient(rng, Problem((1,), (elements,), 1, t=1)), ("-N", "6")))
    # From about N = 500 the recursive DFS in solve_window exceeds Python's
    # recursion limit; those jobs fail until the solver stops raising
    # RecursionError, and they stay in the mix so that the fix shows.
    for radius in (25, 50, 100, 150, 200, 300, 400, 600, 700):
        jobs.append(Job("solve", PAIR, ("-N", str(radius)), input_file=PAIR_FILE))
    return jobs + _probes(rng, "cyclotomy", "extend")


# Hand-checked complementing pairs (u, v, A, modulus, residues, t), all with v >= 1 and gap >= 1.
CORPUS = (
    ((1,), 1, ((0, 1),), 2, (0,), 1),
    ((1,), 1, ((0, 1),), 2, (1,), 1),
    ((1,), 1, ((0, 1, 2),), 3, (0,), 1),
    ((1,), 1, ((0, 1, 2),), 3, (1,), 1),
    ((1,), 1, ((0, 2),), 4, (0, 1), 1),
    ((1,), 1, ((0, 2),), 4, (1, 2), 1),
    ((1,), 1, ((0, 1, 2, 3),), 4, (0,), 1),
    ((1,), 1, ((0, 1, 4, 5),), 8, (0, 2), 1),
    ((1,), 1, ((0, 1),), 1, (0,), 2),
    ((-1,), 1, ((0, 1),), 2, (0,), 1),
    ((1,), 2, ((0, 1, 2, 3),), 2, (0,), 1),
    ((2,), 1, ((0, 1),), 4, (0, 1), 1),
    ((1, 1), 1, ((0, 1), (0, 2)), 4, (0,), 1),
    ((1, 2), 1, ((0, 1), (0, 1)), 4, (0,), 1),
    ((1, -1), 1, ((0, 1), (0, 1)), 2, (0,), 2),
)


def purity_pool() -> list[Job]:
    """Period detection on seeds that no complement continues; outcomes are in recorded.json."""
    jobs = []
    for problem, seeds in (
        (Problem((1,), ((0, 1, 2, 5),), 2, t=1), ("0:10", "0:01", "0:11", "-3:0110", "5:1001")),
        (Problem((1,), ((0, 1, 3),), 1, t=1), ("0:100", "0:010", "0:110", "-2:0011")),
        (Problem((1,), ((0, 2, 3),), 1, t=1), ("0:100", "0:101", "1:011")),
        (Problem((1,), ((0, 1),), 1, t=1), ("0:11", "0:00")),
    ):
        jobs.extend(Job("period", problem, (f"--seed={seed}",), recorded=True) for seed in seeds)
    return jobs


# Long extensions on gaps 1, 5 and 9: {0, 1}, {0, 1, 4, 5} and the q = 4 family member.
BIG_EXTENDS = (0, 7, len(CORPUS) + 3)


def reconstruct_jobs(rng: random.Random) -> list[Job]:
    """Window extension and period detection on known complements, plus rejections."""
    tilings = [Problem(u, sets, v, m, r, t) for u, v, sets, m, r, t in CORPUS]
    # {0, 1, 2q, 2q + 1} = {0, 1} + {0, 2q} is complemented by the even
    # residues below 2q mod 4q; its gap is 2q + 1, past the --max-d limit at q = 12.
    for q in range(1, 13):
        tilings.append(Problem((1,), ((0, 1, 2 * q, 2 * q + 1),), 1, 4 * q, tuple(range(0, 2 * q, 2)), 1))
    jobs = []
    for index, tiling in enumerate(tilings):
        gap = tiling.gap()
        problem = _orient(rng, tiling)

        start = rng.randint(-50, 50)
        span = ("--from", str(start - 2000), "--to", str(start + gap + 2000))
        jobs.append(Job("extend", problem, (_seed_arg(tiling, start, gap + 32), *span)))

        start = rng.randint(-50, 50)
        jobs.append(Job("period", problem, (_seed_arg(tiling, start, 4000),)))

        start = rng.randint(-50, 50)
        seed = _seed_arg(tiling, start, gap + 4, flip=rng.randrange(gap + 4))
        span = ("--from", str(start - 300), "--to", str(start + gap + 300))
        jobs.append(Job("extend", problem, (seed, *span)))

        if index in BIG_EXTENDS:
            for radius in (10_000, 30_000, 100_000):
                start = rng.randint(-50, 50)
                span = ("--from", str(start - radius), "--to", str(start + radius))
                jobs.append(Job("extend", problem, (_seed_arg(tiling, start, gap + 32), *span)))
    jobs.extend(replace(job, problem=_orient(rng, job.problem)) for job in purity_pool())
    return jobs + _probes(rng, "cyclotomy", "stabilize")


GENERATORS = {
    "verify": verify_jobs,
    "count": count_jobs,
    "search": search_jobs,
    "reconstruct": reconstruct_jobs,
}


def generate(workload: str, seed: int) -> list[Job]:
    rng = random.Random(f"{workload}:{seed}")
    jobs = GENERATORS[workload](rng)
    rng.shuffle(jobs)
    return jobs


# --- answers ------------------------------------------------------------


def _image_answer(job, oracle, rec):
    p = job.problem
    image = oracle.image(p.u, p.sets)
    g_min, g_max = min(image), max(image)
    fields = {
        "g_min": g_min,
        "g_max": g_max,
        "diameter": g_max - g_min,
        "count_min": image[g_min],
        "count_max": image[g_max],
        "image": sorted(image),
    }
    return Expect(0, fields)


def _repfn_answer(job, oracle, rec):
    image = oracle.image(job.problem.u, job.problem.sets)
    return Expect(0, {"total": sum(image.values()), "support": [[n, c] for n, c in sorted(image.items())]})


def _modrep_answer(job, oracle, rec):
    m = int(job.arg("-m"))
    return Expect(0, {"m": m, "counts": oracle.fold(job.problem.u, job.problem.sets, m)})


def _cyclotomy_answer(job, oracle, rec):
    p = job.problem
    m = int(job.arg("-m"))
    t = int(job.arg("-t")) if "-t" in job.args else p.t
    image = oracle.image(p.u, p.sets)
    shift = max(0, -min(image))
    coefficients = [0] * m
    for value, mult in image.items():
        coefficients[(value + shift) % m] += mult
    holds = all(c == t for c in coefficients)
    return Expect(0 if holds else 1, {"verdict": holds, "m": m, "t": t, "L": shift, "coefficients": coefficients})


def _check_answer(job, oracle, rec):
    p = job.problem
    fields = {"t": p.t, "period_checked": abs(p.v) * p.modulus, "reflected": p.reflected}
    violation = oracle.first_violation(p.u, p.v, p.sets, p.modulus, p.residues, p.t)
    if violation is None:
        return Expect(0, {"verdict": True, **fields})
    n, observed = violation
    return Expect(1, {"verdict": False, **fields, "violations": [{"n": n, "observed": observed, "expected": p.t}]})


def _seed_window(job):
    start, _, bits = job.arg("--seed").rpartition(":")
    return int(start), bits


def _extend_answer(job, oracle, rec):
    p = job.problem.normalized()
    start, bits = _seed_window(job)
    lo, hi = int(job.arg("--from")), int(job.arg("--to"))
    reflected = job.problem.reflected
    if bits == "".join(str(p.member(start + i)) for i in range(len(bits))):
        # A window of a known complement continues as that complement.
        expected = "".join(str(p.member(n)) for n in range(lo, hi + 1))
        return Expect(0, {"verdict": True, "start": lo, "bits": expected, "reflected": reflected})
    outcome, value = oracle.extend(p.u, p.v, p.sets, p.t, start, bits, lo, hi)
    if outcome == "inconsistent":
        return Expect(1, {"verdict": False, "inconsistent_at": value, "reflected": reflected})
    return Expect(0, {"verdict": True, "start": lo, "bits": value, "reflected": reflected})


def _recorded(job, rec) -> Expect:
    code, report = rec[job.key()]
    fields = {k: v for k, v in report.items() if k != "nodes"}
    fields["reflected"] = job.problem.reflected
    return Expect(code, fields)


def _period_answer(job, oracle, rec):
    if job.recorded:
        return _recorded(job, rec)
    p = job.problem.normalized()
    gap = p.gap()
    if gap > DEFAULT_MAX_GAP:
        return Expect(2)
    modulus, residues = minimal_period(p.modulus, p.residues)
    fields = {
        "verdict": True,
        "period": modulus,
        "bound": 2**gap,
        "periodic_set": {"modulus": modulus, "residues": residues},
        "preperiod_checked": True,
        "reflected": job.problem.reflected,
    }
    return Expect(0, fields)


def _solve_answer(job, oracle, rec):
    if job.recorded and rec[job.key()][1]["status"] != "solved":
        return _recorded(job, rec)
    p = job.problem.normalized()
    radius = int(job.arg("-N"))
    image = oracle.image(p.u, p.sets)
    reach = (radius + max(abs(min(image)), abs(max(image)))) // p.v
    fields = {"status": "solved", "N": radius, "candidate_lo": -reach, "candidate_hi": reach}

    def verify(report):
        witness = report.get("witness")
        if not isinstance(witness, list) or witness != sorted(set(witness)):
            return "witness is not a sorted list of distinct integers"
        if witness and not -reach <= witness[0] <= witness[-1] <= reach:
            return "witness leaves the candidate interval"
        n = oracle.window_violation(p.u, p.v, p.sets, witness, radius, p.t)
        return None if n is None else f"witness count at {n} is not {p.t}"

    return Expect(0, {**fields, "reflected": job.problem.reflected}, verify)


def _stabilize_answer(job, oracle, rec):
    if job.recorded and not rec[job.key()][1]["verdict"]:
        return _recorded(job, rec)
    p = job.problem.normalized()

    def verify(report):
        found = report.get("periodic_set", {})
        modulus, residues = found.get("modulus"), found.get("residues")
        if not isinstance(modulus, int) or modulus < 1 or not isinstance(residues, list):
            return "no periodic set"
        if report.get("period") != modulus:
            return "period differs from the set's modulus"
        if minimal_period(modulus, residues) != (modulus, residues):
            return "periodic set is not in lowest terms"
        if oracle.first_violation(p.u, p.v, p.sets, modulus, residues, p.t) is not None:
            return "periodic set is not a complement"
        return None

    return Expect(0, {"verdict": True, "reflected": job.problem.reflected}, verify)


ANSWERS = {
    "image": _image_answer,
    "repfn": _repfn_answer,
    "modrep": _modrep_answer,
    "cyclotomy": _cyclotomy_answer,
    "check": _check_answer,
    "extend": _extend_answer,
    "period": _period_answer,
    "solve": _solve_answer,
    "stabilize": _stabilize_answer,
}


def attach_answers(jobs: list[Job], oracle: Oracle, recorded: dict) -> None:
    for job in jobs:
        job.expect = ANSWERS[job.command](job, oracle, recorded)
