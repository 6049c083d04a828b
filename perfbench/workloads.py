"""The five benchmark workloads.

A workload turns a seed into a fixed list of passes. A pass is one unit of
measured work: the argv lists of the CLI invocations it makes, how many
items (sets sampled, scanned, certified, verified, typed or transported)
they cover, and what the payloads must satisfy. The program sees only the
generated argv lists and the files they name.

Pass 0 draws from the seed itself, so with the default seed the census and
theorem pass 0 inputs are exactly those of acceptance criteria 7 and 3.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from sumsetlab.core import IntegerSet, binomial
from sumsetlab.types import h_type, product_type

DEFAULT_SEED = 20250809


@dataclass(frozen=True)
class Pass:
    """The invocations of one pass and the data its checks need."""

    index: int
    argvs: tuple[tuple[str, ...], ...]
    items: int
    extra: dict = field(default_factory=dict, compare=False)


def _pass_rng(seed: int, index: int) -> random.Random:
    # Pass 0 uses the seed itself so the default seed matches the
    # acceptance suite; later passes get independent string-seeded streams.
    return random.Random(seed if index == 0 else f"{seed}:{index}")


def _pass_seed(seed: int, index: int) -> int:
    return seed if index == 0 else _pass_rng(seed, index).getrandbits(32)


def _set_text(elements) -> str:
    return ",".join(str(x) for x in elements)


class Workload:
    name: str
    why: str
    distinct_passes: int

    def make_passes(self, seed: int, workdir: Path) -> list[Pass]:
        return [self.make_pass(seed, i, workdir) for i in range(self.distinct_passes)]

    def make_pass(self, seed: int, index: int, workdir: Path) -> Pass:
        raise NotImplementedError

    def check(self, p: Pass, payloads: list[bytes]) -> list[str]:
        """Seed-independent invariants; returns one message per violation."""
        raise NotImplementedError


class Census(Workload):
    name = "census"
    why = "seeded |hA| census: sumset fold on long masks plus the Philox sampler"
    distinct_passes = 8
    N, K, H, SAMPLES = 1000, 4, 10, 100_000

    def make_pass(self, seed, index, workdir):
        argv = ("experiment", "random", "--n", str(self.N), "--k", str(self.K),
                "--h", str(self.H), "--samples", str(self.SAMPLES),
                "--seed", str(_pass_seed(seed, index)), "--workers", "1")
        return Pass(index, (argv,), self.SAMPLES)

    def check(self, p, payloads):
        d = json.loads(payloads[0])
        hist = d["histogram"]
        problems = []
        if hist["total"] != self.SAMPLES or sum(hist["counts"].values()) != self.SAMPLES:
            problems.append(f"census total {hist['total']} != samples {self.SAMPLES}")
        if d["bh_count"] + d["non_bh_count"] != self.SAMPLES:
            problems.append("census bh_count + non_bh_count != samples")
        if d["max_size"] != binomial(self.H + self.K - 1, self.K - 1):
            problems.append("census max_size is not C(h+k-1, k-1)")
        return problems


class Scan(Workload):
    name = "scan"
    why = "exhaustive C(70,4) scan: short-mask fold and per-call dispatch, no sampler"
    distinct_passes = 1  # exhaustive, so the seed cannot change the input
    N, K, H = 70, 4, 6
    TOTAL = 916_895
    SPOTS = {84: 176_620, 83: 106_252, 80: 155_350, 74: 117_496, 64: 126_278, 49: 84_693}

    def make_pass(self, seed, index, workdir):
        argv = ("experiment", "scan", "--n", str(self.N), "--k", str(self.K),
                "--h", str(self.H), "--workers", "1")
        return Pass(index, (argv,), self.TOTAL)

    def check(self, p, payloads):
        hist = json.loads(payloads[0])["histogram"]
        problems = []
        if hist["total"] != self.TOTAL or sum(hist["counts"].values()) != self.TOTAL:
            problems.append(f"scan total {hist['total']} != {self.TOTAL}")
        for size, count in self.SPOTS.items():
            if hist["counts"].get(str(size)) != count:
                problems.append(f"scan count of size {size} is {hist['counts'].get(str(size))}, not {count}")
        return problems


class Minstat(Workload):
    name = "minstat"
    why = "first-minima statistics at cap 1024: k=4 lattice shells and cap doubling"
    distinct_passes = 8
    N, K, SAMPLES, CAP = 10_000, 4, 300, 1024

    def make_pass(self, seed, index, workdir):
        argv = ("experiment", "minima-stats", "--n", str(self.N), "--k", str(self.K),
                "--samples", str(self.SAMPLES), "--seed", str(_pass_seed(seed, index)),
                "--cap", str(self.CAP), "--workers", "1")
        return Pass(index, (argv,), self.SAMPLES)

    def check(self, p, payloads):
        d = json.loads(payloads[0])
        problems = []
        for entry in d["minima"]:
            if entry["found"] + entry["truncated"] != self.SAMPLES:
                problems.append(f"minstat found + truncated != samples for minimum {entry['index']}")
        if sum(d["h1_histogram"].values()) != d["minima"][0]["found"]:
            problems.append("minstat h1 histogram does not sum to found")
        return problems


class Theorem(Workload):
    name = "theorem"
    why = "closed form vs brute force on 700 sets: both lattice enumerators, count=2"
    distinct_passes = 16
    SHAPES = ((500, 4, 200), (200, 5, 100))  # (sets, k, n): k-subsets of [1, n]

    def make_pass(self, seed, index, workdir):
        rng = _pass_rng(seed, index)
        sets = [
            tuple(sorted(rng.sample(range(1, n + 1), k)))
            for count, k, n in self.SHAPES
            for _ in range(count)
        ]
        path = workdir / f"theorem-{index}.txt"
        path.write_text("".join(_set_text(s) + "\n" for s in sets))
        return Pass(index, (("theory", "verify", "--file", str(path)),), len(sets),
                    {"sets": sets})

    def check(self, p, payloads):
        d = json.loads(payloads[0])
        problems = []
        if d["all_match"] is not True:
            problems.append("theorem all_match is not true")
        if [tuple(r["set"]) for r in d["reports"]] != p.extra["sets"]:
            problems.append("theorem reports do not cover the input sets in order")
        return problems


class Types(Workload):
    name = "types"
    why = "h_type census plus 300 product-to-sum transports: types, core and CLI overhead"
    distinct_passes = 8
    N, K, H = 30, 4, 4
    TYPE_COUNT = 211  # distinct 4-types over all 4-subsets of [1, 30]
    TRANSPORTS = 300

    def make_pass(self, seed, index, workdir):
        rng = _pass_rng(seed, index)
        argvs = [("experiment", "type-census", "--n", str(self.N), "--k", str(self.K),
                  "--h", str(self.H))]
        transports = []
        for _ in range(self.TRANSPORTS):
            k = rng.randint(2, 5)
            h = rng.randint(1, 3)
            P = tuple(sorted(rng.sample(range(1, 41), k)))
            transports.append((P, h))
            argvs.append(("types", "to-sum", "--set", _set_text(P), "--h", str(h)))
        return Pass(index, tuple(argvs), binomial(self.N, self.K) + self.TRANSPORTS,
                    {"transports": transports})

    def check(self, p, payloads):
        problems = []
        census = json.loads(payloads[0])
        if census["type_count"] != self.TYPE_COUNT or len(census["representatives"]) != self.TYPE_COUNT:
            problems.append(f"type census counted {census['type_count']} types, not {self.TYPE_COUNT}")
        for (P, h), raw in zip(p.extra["transports"], payloads[1:]):
            d = json.loads(raw)
            A = IntegerSet(d["result"])
            if tuple(d["set"]) != P or h_type(A, h) != product_type(IntegerSet(P), h):
                problems.append(f"to-sum of {list(P)} at h={h} does not preserve the type")
        return problems


WORKLOADS: dict[str, Workload] = {w.name: w for w in (Census(), Scan(), Minstat(), Theorem(), Types())}
