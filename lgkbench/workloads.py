"""Workload definitions of the lgk benchmark.

Every job is one argv for ``lgk.cli.main`` run from a working directory.
``horizon`` and ``census`` run on the bundled ``specs/`` unchanged, so their
inputs do not depend on the seed.  ``quotient`` draws random shifts of finite
type with ``random.Random`` only; this module imports no ``lgk`` code, so the
program under test never shapes its own inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"


@dataclass(frozen=True)
class Job:
    id: str
    argv: tuple[str, ...]
    cwd: str
    out: str | None = None  # file the job writes, hashed with its stdout


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "horizon",
            "Cantor-horizon Dyck-3 and Markov-Dyck systems: the build is cheap, so the "
            "system/analysis walkers and large matrices in linalg/invariants do nearly all the work",
        ),
        Workload(
            "census",
            "flowcheck of expanded bracket shifts at depth 3: the subshift class census and "
            "Alphabet rebuilding do nearly all the work, with matrices of at most 8x8",
        ),
        Workload(
            "quotient",
            "random 3-symbol SFTs built at depth 12, saved, reloaded, checked: "
            "past_partition dominates, small matrices take the pure-integer SNF and the "
            "stabilization branch",
        ),
    )
}


def horizon_jobs(root: Path) -> list[Job]:
    # Dyck-3 runs at depth 5, not 6: its 243x81 matrices still take the numpy
    # Smith form, and a pass takes about 3 s instead of 15-20 s, so a run
    # takes the median of many passes instead of one or two.
    cwd = str(root)
    return [
        Job("dyck3-invariants", ("invariants", "--spec", "specs/dyck3.json", "--depth", "5", "--format", "json"), cwd),
        Job("dyck3-verify", ("verify", "--spec", "specs/dyck3.json", "--depth", "5", "--format", "json"), cwd),
        Job("fib-invariants", ("invariants", "--spec", "specs/markovdyck_fib.json", "--depth", "11", "--format", "json"), cwd),
        Job("fib-verify", ("verify", "--spec", "specs/markovdyck_fib.json", "--depth", "12", "--format", "json"), cwd),
    ]


def census_jobs(root: Path) -> list[Job]:
    # Dyck-3 at depth 3 is left out: it ran for over 300 s and was not steady.
    # Dyck-2 expanding a1 is left out too: it runs the same census code as b1
    # at twice the cost, and with it a pass (~20 s) fit only once in a run,
    # which left run-to-run spreads of 0.27-0.30 against 0.09 without it.
    cwd = str(root)
    return [
        Job("fib-a1", ("flowcheck", "--spec", "specs/markovdyck_fib.json", "--depth", "3", "--expand", "a1"), cwd),
        Job("dyck2-b1", ("flowcheck", "--spec", "specs/dyck2.json", "--depth", "3", "--expand", "b1"), cwd),
    ]


# -- quotient: random shifts of finite type --------------------------------

SYMBOLS = ("0", "1", "2")
FORBIDDEN_PER_SPEC = 4
WORD_LENGTHS = (2, 4)
POOL_SEED = 20111105
POOL_SIZE = 400
DRAWN = 40
BUNDLED = ("goldenmean", "even_shift", "full2", "full3")
QUOTIENT_DEPTH = "12"


def random_sft(rng: random.Random) -> str:
    """One spec file's text: 4 distinct forbidden words of length 2-4 over {0,1,2}."""
    words: set[str] = set()
    while len(words) < FORBIDDEN_PER_SPEC:
        length = rng.randint(*WORD_LENGTHS)
        words.add(" ".join(rng.choice(SYMBOLS) for _ in range(length)))
    payload = {"alphabet": list(SYMBOLS), "forbidden": sorted(words), "kind": "sft"}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def pool() -> list[str]:
    """The fixed pool of random specs that ``quotient`` draws from.

    Outputs are checked against goldens recorded per pool spec, which a
    fresh random spec for every seed could not have.
    """
    rng = random.Random(POOL_SEED)
    return [random_sft(rng) for _ in range(POOL_SIZE)]


def pool_name(index: int) -> str:
    return f"p{index:03d}"


def strata(costs: dict[str, float]) -> list[list[str]]:
    """Pool names ranked by recorded cost, cut into ``DRAWN`` equal strata.

    Drawing one spec per stratum keeps the pass cost close across seeds,
    while every pool spec stays equally likely to be drawn.
    """
    ranked = sorted(costs, key=lambda name: (costs[name], name))
    size = len(ranked) // DRAWN
    return [ranked[k * size : (k + 1) * size] for k in range(DRAWN)]


def draw(seed: int, costs: dict[str, float]) -> list[str]:
    rng = random.Random(seed)
    return sorted(rng.choice(stratum) for stratum in strata(costs))


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


def quotient_job_triple(name: str, spec_path: str, cwd: str) -> list[Job]:
    out = f"{name}.system.json"
    return [
        Job(f"{name}/build", ("build", "--spec", spec_path, "--depth", QUOTIENT_DEPTH, "--format", "json", "--out", out), cwd, out),
        Job(f"{name}/invariants", ("invariants", "--system", out), cwd),
        Job(f"{name}/verify", ("verify", "--system", out), cwd),
    ]


def quotient_jobs(root: Path, seed: int, workdir: Path, names: list[str] | None = None) -> list[Job]:
    """Write the drawn specs into ``workdir`` and return their jobs.

    ``names`` overrides the draw (the golden recorder passes the whole pool).
    """
    texts = pool()
    if names is None:
        names = draw(seed, load_goldens()["quotient_cost_s"])
    jobs: list[Job] = []
    for name in names:
        (workdir / f"{name}.json").write_text(texts[int(name[1:])], encoding="utf-8")
        jobs += quotient_job_triple(name, f"{name}.json", str(workdir))
    for name in BUNDLED:
        jobs += quotient_job_triple(name, str(root / "specs" / f"{name}.json"), str(workdir))
    return jobs


def jobs_for(workload: str, root: Path, seed: int, workdir: Path) -> list[Job]:
    if workload == "horizon":
        return horizon_jobs(root)
    if workload == "census":
        return census_jobs(root)
    if workload == "quotient":
        return quotient_jobs(root, seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")
