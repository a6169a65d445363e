"""Workloads of the benchmark: inputs drawn from a seed, the timed jobs, and
the correctness checks, which run outside the timed section.

Every workload is a closed loop: one caller runs one job at a time, and the
next job starts only when the previous one has returned.

Every job is short -- tens of milliseconds, a few tenths at most -- and
each distinct job runs many times in a run.  On a 2-vCPU Intel Xeon virtual
machine shared with other tenants, a fixed pure-Python loop of 40 ms ran at
its fastest in nearly every ten-second stretch, while a median over the same
stretch moved by up to a half.  So the fastest repetition of a short job is
the figure that changes in host speed move least, and the shorter the job,
the more often a repetition lands in a quiet moment.  Some runs find no
quiet moment at all: in them every job, even one of 16 ms, ran 12-30%
slower for the whole of a 42 s run.  Jobs of 0.5-0.9 s
(``verify all --m 2 --g 3``, ``crystal graph --mu [3,2,1] --m 3 --g 3``)
spread by 0.28-0.36 of their median across runs of the same code, and
jobs of 4-13 s (``verify all --m 3 --g 2``, ``crystal graph --mu [3,2,1]
--m 4 --g 3``) fitted only a few repetitions in a run.

Why each workload exists, and the layer it should stress:

* ``verify`` -- the verification battery the project is built around, one
  suite per CLI call at m=2 and m=3 and small sizes (``verify all --m 2
  --g 3`` split into calls of 10-100 ms).  It drives every layer the
  small-object way: many small ``enumerate_ssot`` calls, ``ssot_stats`` at
  every vertex, repeated characters that hit ``weyl_character``'s cache,
  and ``dual_pieri_count`` strip scans.  A gain for large inputs that costs
  small ones shows here.  The suites keep roughly the mix of ``verify
  all``: the character and conjecture suites take about half the time.
* ``crystal`` -- ``crystal graph --format adj`` for eight shapes at m=3, g=2;
  m=2, g=3; and m=4, g=1 (15-70 ms each): SSOT enumeration and operator
  closure are both large here and small everywhere else.
* ``insertion`` -- seeded random matrices through the column-insertion round
  trip, and seeded symmetric even-diagonal matrices through
  ``phi_inverse`` then ``phi``.  Almost all ``rsk`` and ``bijections``; it
  bypasses enumeration, operators and characters.
* ``characters`` -- ``char chi --lambda [2] --m 5`` and ``char decompose``
  at m=4 for every pair of one size class (|lambda| + |mu| = 3, both
  nonempty), in an order drawn from the seed.  Almost all ``characters``;
  it bypasses ``rsk``, ``oscillating`` and ``crystal``.  It is not in
  ``BENCHMARK.json``: the time allowed for all runs there fits three
  workloads at the run length that keeps ``wall_s`` steady, and the
  character and conjecture suites of ``verify`` already spend about half
  of that workload's time in ``characters``.  The whole class
  runs, not a seeded sample of it, because the pairs of a class differ in
  cost by up to a factor of five, so that a sample of them moved the run's
  figure by more than a tenth from one seed to the next.  The class with
  |lambda| + |mu| = 4 (ten pairs at 0.1-0.6 s each) fitted too few
  repetitions of each job in a run to be steady.
"""

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

from sympcrystal import cli
from sympcrystal.bijections import phi, phi_inverse
from sympcrystal.characters import weyl_character, weyl_dimension
from sympcrystal.rsk import c_index, rsk_column, rsk_column_inverse
from sympcrystal.tableaux import format_partition, partitions_of

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def graph_argv(mu: str, m: int, g: int) -> list[str]:
    return ["crystal", "graph", "--mu", mu, "--m", str(m), "--g", str(g), "--format", "adj"]


# Sizes per scale.  "full" is what the benchmark measures; "tiny" (m=2) is
# what the smoke test runs.
SCALES = {
    "full": {
        "verify": [
            ["verify", "bijections", "--m", "2", "--g", "2"],
            ["verify", "bijections", "--m", "3", "--g", "1"],
            ["verify", "crystal", "--m", "2", "--g", "1"],
            ["verify", "crystal", "--m", "2", "--g", "2"],
            ["verify", "characters", "--m", "2", "--max-size", "2"],
            ["verify", "characters", "--m", "3", "--max-size", "1"],
            ["verify", "conjecture", "--m", "2", "--max-size", "3"],
            ["verify", "conjecture", "--m", "3", "--max-size", "2"],
        ],
        "crystal": [
            graph_argv(mu, m, g)
            for mu, m, g in [("[2,1]", 3, 2), ("[2,2]", 3, 2), ("[2,1,1]", 3, 2),
                             ("[1,1,1]", 3, 2), ("[3,1]", 2, 3), ("[3,2]", 2, 3),
                             ("[3,3]", 2, 3), ("[1,1,1]", 4, 1)]
        ],
        "chi": ["char", "chi", "--lambda", "[2]", "--m", "5"],
        "decompose_m": 4,
        "decompose_size": 3,
        "matrix_dims": (2, 6),
        "matrix_sums": (4, 16),
        "matrices_per_job": 500,
        "symmetric_dims": (2, 5),
        "symmetric_sums": (4, 16),
        "symmetric_per_job": 50,
        "insertion_jobs": 8,
    },
    "tiny": {
        "verify": [["verify", "all", "--m", "2", "--g", "1"]],
        "crystal": [graph_argv("[1]", 2, 2)],
        "chi": ["char", "chi", "--lambda", "[1]", "--m", "2"],
        "decompose_m": 2,
        "decompose_size": 3,
        "matrix_dims": (2, 3),
        "matrix_sums": (4, 6),
        "matrices_per_job": 20,
        "symmetric_dims": (2, 3),
        "symmetric_sums": (4, 6),
        "symmetric_per_job": 5,
        "insertion_jobs": 2,
    },
}


def digest(rc: int, text: str) -> str:
    return f"{rc}:{hashlib.sha256(text.encode()).hexdigest()}"


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process CLI call; returns the exit code and the stdout text.

    A CLI user pays for an empty ``weyl_character`` cache on every call, so
    each call here starts with one too.
    """
    weyl_character.cache_clear()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def decompose_argv(lam, mu, m: int) -> list[str]:
    return ["char", "decompose", "--lambda", format_partition(lam),
            "--mu", format_partition(mu), "--m", str(m)]


def decompose_pairs(size: int, m: int) -> list[tuple[tuple, tuple]]:
    """All (lambda, mu), both nonempty, with |lambda| + |mu| == size."""
    return [
        (lam, mu)
        for a in range(1, size)
        for lam in partitions_of(a, m)
        for mu in partitions_of(size - a, m)
    ]


def deterministic_argvs(scale: str) -> list[list[str]]:
    """Every CLI job whose stdout is pinned by a digest in expected.json."""
    s = SCALES[scale]
    pairs = decompose_pairs(s["decompose_size"], s["decompose_m"])
    return s["verify"] + s["crystal"] + [s["chi"]] + [
        decompose_argv(lam, mu, s["decompose_m"]) for lam, mu in pairs
    ]


def load_expected() -> dict[str, str]:
    return json.loads(EXPECTED_PATH.read_text())


# ---------------------------------------------------------------------------
# independent oracles for the seeded checks


def schur_dimension(mu, letters: int) -> int:
    """s_mu(1, ..., 1) on ``letters`` variables, by the hook-content formula."""
    conj = [sum(1 for p in mu if p > j) for j in range(mu[0])] if mu else []
    num = den = 1
    for i, row in enumerate(mu):
        for j in range(row):
            num *= letters + j - i
            den *= (row - j - 1) + (conj[j] - i - 1) + 1
    return num // den


def random_matrix(rng: random.Random, dims, sums):
    nrows, ncols = rng.randint(*dims), rng.randint(*dims)
    grid = [[0] * ncols for _ in range(nrows)]
    for _ in range(rng.randint(*sums)):
        grid[rng.randrange(nrows)][rng.randrange(ncols)] += 1
    return tuple(tuple(r) for r in grid)


def random_symmetric(rng: random.Random, dims, sums):
    """Symmetric, even diagonal; each step adds 2 to the entry sum."""
    n = rng.randint(*dims)
    grid = [[0] * n for _ in range(n)]
    for _ in range(rng.randint(sums[0] // 2, sums[1] // 2)):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            grid[i][i] += 2
        else:
            grid[i][j] += 1
            grid[j][i] += 1
    return tuple(tuple(r) for r in grid)


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Outcome:
    attempted: int
    failed: int
    problems: list[str]
    cache_hits: int = 0
    cache_misses: int = 0


class CliWorkload:
    """Fixed CLI commands; each job is one argv list."""

    def __init__(self, jobs: list[list[str]], expected: dict[str, str], m: int):
        self.jobs = jobs
        self.expected = expected
        self.m = m

    def items(self, job) -> int:
        return 1

    def run(self, job):
        rc, text = run_cli(job)
        info = weyl_character.cache_info()
        return rc, text, info.hits, info.misses

    def check(self, job, result) -> Outcome:
        rc, text, hits, misses = result
        key = " ".join(job)
        problems = []
        if self.expected.get(key) != digest(rc, text):
            problems.append(f"digest mismatch: {key}")
        elif job[:2] == ["char", "decompose"] and not self._decompose_ok(job, text):
            problems.append(f"dimension identity fails: {key}")
        return Outcome(1, len(problems), problems, hits, misses)

    def _decompose_ok(self, argv, text: str) -> bool:
        lam = tuple(json.loads(argv[argv.index("--lambda") + 1]))
        mu = tuple(json.loads(argv[argv.index("--mu") + 1]))
        total = 0
        for line in text.splitlines():
            nu, c = line.split("\t")
            total += int(c) * weyl_dimension(tuple(json.loads(nu)), self.m)
        return total == weyl_dimension(lam, self.m) * schur_dimension(mu, 2 * self.m)


class InsertionWorkload:
    """Each job: a batch of round trips through column insertion and phi."""

    def __init__(self, jobs):
        self.jobs = jobs

    def items(self, job) -> int:
        return len(job[0]) + len(job[1])

    def run(self, job):
        general, symmetric = job
        out_general = []
        for mat in general:
            p, q = rsk_column(mat)
            out_general.append(rsk_column_inverse(p, q, len(mat), len(mat[0])))
        out_symmetric = []
        for mat in symmetric:
            t = phi_inverse(mat)
            out_symmetric.append((phi(t), c_index(mat), t.num_cols))
        return out_general, out_symmetric

    def check(self, job, result) -> Outcome:
        problems = []
        for mat, back in zip(job[0], result[0]):
            if back != mat:
                problems.append(f"column insertion round trip: {mat}")
        for mat, (back, c, cols) in zip(job[1], result[1]):
            if back != mat or c != 2 * cols:
                problems.append(f"phi round trip or c_index: {mat}")
        return Outcome(self.items(job), len(problems), problems)


def make_workload(name: str, seed: int, scale: str, expected: dict[str, str]):
    """Inputs for one run, drawn from ``seed``; the same seed gives the same jobs."""
    s = SCALES[scale]
    rng = random.Random(f"{name}:{seed}")
    if name in ("verify", "crystal"):
        return CliWorkload(s[name], expected, 0)
    if name == "characters":
        m = s["decompose_m"]
        jobs = [s["chi"]] + [decompose_argv(lam, mu, m)
                             for lam, mu in decompose_pairs(s["decompose_size"], m)]
        rng.shuffle(jobs)
        return CliWorkload(jobs, expected, m)
    if name == "insertion":
        jobs = [
            (
                [random_matrix(rng, s["matrix_dims"], s["matrix_sums"])
                 for _ in range(s["matrices_per_job"])],
                [random_symmetric(rng, s["symmetric_dims"], s["symmetric_sums"])
                 for _ in range(s["symmetric_per_job"])],
            )
            for _ in range(s["insertion_jobs"])
        ]
        return InsertionWorkload(jobs)
    raise ValueError(f"unknown workload {name!r}")
