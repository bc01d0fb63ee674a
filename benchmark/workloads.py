"""The four benchmark workloads: fixture generation, oracles and checks.

Each workload turns a seed into a pool of queries.  A query is one or
more argv lists for posetcode.cli.main, and every query in a pool has
its own seeded code, so no answer can be reused from an earlier query.
Fixtures are built through the public API only (Matrix.rank for full
rank, format_code, format_poset) and written as files; the timed worker
receives nothing else.

The oracle of a query is computed by a path its timed run does not use
(bruteforce, enumeration, Moebius counts, LinearCode.shorten).  Oracles
are computed after the timed worker has exited, and only for the
queries it attempted.  check() compares the captured JSON output of a
query with its oracle and returns None or a reason for the failure.
"""

from __future__ import annotations

import json
from pathlib import Path
from random import Random

from posetcode import (
    LinearCode,
    Matrix,
    Poset,
    distribution,
    format_code,
    format_poset,
    from_elements,
    gf,
    load_code,
    load_poset,
    min_weight_bruteforce,
    random_instance,
    support_mask,
    weight_hierarchy,
)
from posetcode.hierarchy import METHOD_BRUTEFORCE


def random_code(rng: Random, q: int, n: int, k: int) -> LinearCode:
    """Uniform k x n generator over GF(q), redrawn until it has full rank."""
    field = gf(q)
    while True:
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        if Matrix(field, rows).rank() == k:
            return LinearCode.from_generator(field, rows)


def nrt_poset(chains: int, length: int) -> Poset:
    """Disjoint union of chains, the Niederreiter-Rosenbloom-Tsfasman order."""
    relations = [
        (c * length + j + 1, c * length + j + 2)
        for c in range(chains)
        for j in range(length - 1)
    ]
    return Poset.from_cover_relations(chains * length, relations)


def expected_label(n: int, k: int, d1: int, d2: int | None) -> str:
    if d1 == n - k + 1:
        return "MDS"
    if k >= 2 and d1 == n - k and d2 == n - k + 2:
        return "NMDS"
    return "other"


def _poset_of(query: dict) -> Poset:
    spec = query["poset"]
    if spec.startswith("antichain:"):
        return Poset.antichain(int(spec.split(":")[1]))
    return load_poset(spec)


def _witness_problem(code: LinearCode, poset: Poset, r: int, d: int, witness) -> str | None:
    """An ideal witnessing d_r = d must have size d and carry an
    r-dimensional shortened subcode, by the null-space solver."""
    mask = from_elements(witness, code.n)
    if mask.bit_count() != d or not poset.is_ideal(mask):
        return f"witness {witness} for d_{r} = {d} is not an ideal of size {d}"
    if code.shorten(mask)[0] < r:
        return f"witness {witness} for d_{r} = {d} carries no {r}-dimensional subcode"
    return None


def _classification_problem(report: dict, code: LinearCode, poset: Poset, d1: int, d2) -> str | None:
    got = (report["d1"], report["d2"])
    if got != (d1, d2):
        return f"classification (d1, d2) = {got}, oracle {(d1, d2)}"
    label = expected_label(code.n, code.k, d1, d2)
    if report["label"] != label:
        return f"label {report['label']!r}, expected {label!r}"
    problem = _witness_problem(code, poset, 1, d1, report["d1_witness"])
    if problem is None and d2 is not None:
        problem = _witness_problem(code, poset, 2, d2, report["d2_witness"])
    return problem


def _distribution_problem(counts: list[int], expected: list[int], code: LinearCode) -> str | None:
    if counts != expected:
        return f"distribution {counts} != oracle {expected}"
    if sum(counts) != code.codeword_count or counts[0] != 1:
        return f"distribution {counts} does not sum to q^k with A_0 = 1"
    return None


def _first_nonzero_weight(counts: list[int]) -> int:
    return next(i for i, a in enumerate(counts) if i and a)


class Workload:
    name: str
    fields: tuple[int, ...]
    nominal_s: float  # untraced seconds per query at the seed commit; sizes the pools

    def queries(self, rng: Random, out: Path, count: int, toy: bool) -> list[dict]:
        raise NotImplementedError

    def oracle(self, query: dict) -> dict:
        return {}

    def check(self, query: dict, oracle: dict, outputs: list[str]) -> str | None:
        raise NotImplementedError


class _CodeWorkload(Workload):
    """A random [n, k] code over GF(q) per query under one shared poset."""

    size: tuple[int, int, int]  # q, n, k
    toy_size: tuple[int, int, int]

    def poset_arg(self, n: int, out: Path, toy: bool) -> str:
        return f"antichain:{n}"

    def commands(self, code_path: str, poset_arg: str) -> list[list[str]]:
        raise NotImplementedError

    def queries(self, rng, out, count, toy):
        q, n, k = self.toy_size if toy else self.size
        poset_arg = self.poset_arg(n, out, toy)
        pool = []
        for i in range(count):
            path = out / f"q{i:05d}.code"
            path.write_text(format_code(random_code(rng, q, n, k)))
            pool.append(
                {"id": i, "code": str(path), "poset": poset_arg, "argv": self.commands(str(path), poset_arg)}
            )
        return pool


class ScanAntichain(_CodeWorkload):
    """duality then classify: the ideal scan and the rank profile."""

    name = "scan-antichain-q2"
    fields = (2,)
    nominal_s = 1.0
    size = (2, 14, 7)
    toy_size = (2, 8, 4)

    def commands(self, code_path, poset_arg):
        common = ["--code", code_path, "--poset", poset_arg, "--json"]
        return [["duality", *common], ["classify", *common]]

    def oracle(self, query):
        code, poset = load_code(query["code"]), _poset_of(query)
        primal = weight_hierarchy(code, poset, METHOD_BRUTEFORCE).weights
        dual = weight_hierarchy(code.dualize(), poset.dual(), METHOD_BRUTEFORCE).weights
        return {"weights": list(primal), "dual_weights": list(dual)}

    def check(self, query, oracle, outputs):
        code, poset = load_code(query["code"]), _poset_of(query)
        duality, report = (json.loads(text) for text in outputs)
        weights, dual_weights = oracle["weights"], oracle["dual_weights"]
        if duality["weights"] != weights or duality["dual_weights"] != dual_weights:
            return (
                f"hierarchies {duality['weights']} / {duality['dual_weights']}, "
                f"bruteforce {weights} / {dual_weights}"
            )
        second = sorted(code.n + 1 - d for d in dual_weights)
        if duality["first"] != sorted(weights) or duality["second"] != second:
            return f"partition {duality['first']} / {duality['second']} does not match the hierarchies"
        return _classification_problem(report, code, poset, weights[0], weights[1] if code.k >= 2 else None)


class CensusAntichain(_CodeWorkload):
    """distribution --method moebius: 3^n interval terms under the antichain."""

    name = "census-antichain-q2"
    fields = (2,)
    nominal_s = 0.7
    size = (2, 12, 6)
    toy_size = (2, 8, 4)

    def commands(self, code_path, poset_arg):
        return [["distribution", "--method", "moebius", "--code", code_path, "--poset", poset_arg, "--json"]]

    def oracle(self, query):
        code, poset = load_code(query["code"]), _poset_of(query)
        return {
            "counts": list(distribution(code, poset, "enumerate")),
            "d1": min_weight_bruteforce(code, poset, 1)[0],
            "d2": min_weight_bruteforce(code, poset, 2)[0] if code.k >= 2 else None,
        }

    def check(self, query, oracle, outputs):
        code = load_code(query["code"])
        report = json.loads(outputs[0])
        problem = _distribution_problem(report["counts"], oracle["counts"], code)
        if problem is None and (report["d1"], report["d2"]) != (oracle["d1"], oracle["d2"]):
            problem = f"(d1, d2) = {(report['d1'], report['d2'])}, bruteforce {(oracle['d1'], oracle['d2'])}"
        if problem is None and report["classification"] != expected_label(code.n, code.k, report["d1"], report["d2"]):
            problem = f"label {report['classification']!r} does not follow from d1, d2"
        return problem


class EnumerateNrt(_CodeWorkload):
    """distribution (enumerate, with classify) then hierarchy, over GF(3)
    under an NRT poset read from a file."""

    name = "enumerate-nrt-q3"
    fields = (3,)
    nominal_s = 1.15
    size = (3, 20, 10)
    toy_size = (3, 8, 4)

    def poset_arg(self, n, out, toy):
        chains, length = (2, 4) if toy else (4, 5)
        path = out / "nrt.poset"
        path.write_text(format_poset(nrt_poset(chains, length)))
        return str(path)

    def commands(self, code_path, poset_arg):
        common = ["--code", code_path, "--poset", poset_arg, "--json"]
        return [["distribution", *common], ["hierarchy", *common]]

    def oracle(self, query):
        code, poset = load_code(query["code"]), _poset_of(query)
        counts = list(distribution(code, poset, "moebius"))
        union = 0
        for row in code.generator.rows:
            union |= support_mask(row)
        # d_k is the weight of the whole code: the closure of its support
        return {
            "counts": counts,
            "d1": _first_nonzero_weight(counts),
            "dk": poset.ideal_closure(union).bit_count(),
        }

    def check(self, query, oracle, outputs):
        code, poset = load_code(query["code"]), _poset_of(query)
        report, hierarchy = (json.loads(text) for text in outputs)
        problem = _distribution_problem(report["counts"], oracle["counts"], code)
        if problem is not None:
            return problem
        weights = hierarchy["weights"]
        if len(weights) != code.k or weights[0] != oracle["d1"] or weights[-1] != oracle["dk"]:
            return f"hierarchy {weights}: d_1 must be {oracle['d1']} and d_k {oracle['dk']}"
        for r, (d, witness) in enumerate(zip(weights, hierarchy["witnesses"]), start=1):
            problem = _witness_problem(code, poset, r, d, witness)
            if problem is not None:
                return problem
        d2 = weights[1] if code.k >= 2 else None
        if (report["d1"], report["d2"]) != (weights[0], d2):
            return f"distribution reports (d1, d2) = {(report['d1'], report['d2'])}, hierarchy {weights[:2]}"
        if report["classification"] != expected_label(code.n, code.k, weights[0], d2):
            return f"label {report['classification']!r} does not follow from d1, d2"
        return None


class SelftestSmall(Workload):
    """selftest --trials 1 on hundreds of seeds: small instances, all paths.

    Instances are held to lengths 8 to 10.  Below that a query takes a
    few milliseconds, and the host's speed, which swings by a third
    within tens of milliseconds, moved the median of a run by 10 %
    between runs of one seed; from length 8 on a query takes 15 ms to
    0.5 s and averages those swings out.  These lengths also hold most
    of the matrix work (the rank fill over all 2^n subsets).

    A query's latency is still set mostly by its instance's field, length
    and dimension.  So that every run gets the same mix, in the same
    order, seeds are sorted into bins by the (q, n, k) of the instance
    they draw, which random_instance(Random(seed)) shows, and dealt out
    in rounds of one seed per bin, every round in one fixed order of the
    bins.  Only the instances within a bin differ between seeds.  A run
    ends inside a round, at a point set by the host's speed, so the order
    alternates cheap and costly bins (cost taken as rising with n, then
    q, then k): every prefix of a round then holds about as many queries
    below the median as above it.
    """

    name = "selftest-small"
    fields = (2, 3, 4, 5)
    nominal_s = 0.12
    lengths = range(8, 11)

    def queries(self, rng, out, count, toy):
        bins: dict[tuple[int, int, int], list[int]] = {}
        need = 1
        for _ in range(50 * count):
            seed = rng.randrange(1 << 31)
            code, _poset = random_instance(Random(seed))
            if code.n not in self.lengths:
                continue
            bins.setdefault((code.field.q, code.n, code.k), []).append(seed)
            need = -(-count // len(bins))
            if min(map(len, bins.values())) >= need:
                break
        by_cost = sorted(bins, key=lambda c: (c[1], c[0], c[2]))
        order = [by_cost[i // 2] if i % 2 == 0 else by_cost[-1 - i // 2] for i in range(len(by_cost))]
        seeds = []
        for round_ in range(need):
            seeds.extend(bins[c][round_] for c in order if round_ < len(bins[c]))
        return [
            {"id": i, "seed": seed, "argv": [["selftest", "--seed", str(seed), "--trials", "1", "--json"]]}
            for i, seed in enumerate(seeds[:count])
        ]

    def check(self, query, oracle, outputs):
        report = json.loads(outputs[0])
        if report["seed"] != query["seed"] or report["trials"] != 1:
            return f"report for seed {report['seed']} with {report['trials']} trials"
        if report["passed"] is not True or report["failures"]:
            return f"selftest failed: {report['failures']}"
        return None


WORKLOADS = {w.name: w for w in (ScanAntichain(), CensusAntichain(), EnumerateNrt(), SelftestSmall())}
