"""Seeded inputs for the benchmark workloads, with answers known by construction.

Every workload turns a seed into fixed lists of CLI jobs.  Each job carries
the reference answer implied by how its input was built (never computed by
afkit) and a checker that compares the CLI's JSON report with it.  A checker
returns None when the report is right and a short description otherwise.
"""

from __future__ import annotations

import json
import random
import re
from collections import deque
from dataclasses import dataclass
from math import gcd
from pathlib import Path
from typing import Callable, Optional

# "Baseline" below means afkit before the normal-form rewrite of ROADMAP item 1.
#
# dense_group is not in BENCHMARK.json: about 30% of its baseline jobs fail
# (timeouts and wrong divisibility answers), so its failure count follows the
# run's length.  It stays runnable by hand to show those failures by reason.
#
# Per-job deadline in seconds.  On the other workloads it only stops a hang:
# it is over five times their slowest baseline job by wall clock on a 2-vCPU VM,
# so a slow spell on a shared machine does not turn a job into a timeout, and
# a job started just before the 140 s run budget still ends before 180 s.
# dense_group's is short on purpose: the baseline Smith normal form does not
# finish on dense input of size 10 or more, and a short deadline keeps those
# jobs at a known cost and bounds how far their integers (and the process's
# peak memory) grow.
DEADLINES = {
    "pipeline_ladder": 20.0,
    "dense_group": 0.5,
    "eplag_fingerprint": 20.0,
    "schreier_kernel": 20.0,
}


# A round is this many passes, each pass the workload's job list on inputs
# from its own stream of the seed.
PASSES = {"pipeline_ladder": 2, "dense_group": 3, "eplag_fingerprint": 3, "schreier_kernel": 2}


@dataclass
class Job:
    label: str
    argv: list
    check: Callable[[dict], Optional[str]]


# ---------------------------------------------------------------------------
# reference arithmetic (independent of afkit)
# ---------------------------------------------------------------------------


def factorize(n: int) -> dict:
    out: dict = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def invariant_factors(diagonal) -> tuple:
    """Canonical factors of Z^n / diag(d): torsion chain ascending, then one 0 per free part."""
    free = sum(1 for x in diagonal if x == 0)
    exps: dict = {}
    for x in diagonal:
        for p, e in factorize(abs(x)).items():
            exps.setdefault(p, []).append(e)
    k = max((len(v) for v in exps.values()), default=0)
    chain = [1] * k
    for p, es in exps.items():
        for i, e in enumerate(sorted(es, reverse=True)):
            chain[k - 1 - i] *= p**e
    return tuple(chain) + (0,) * free


def uniquely_divisible(factors, n: int) -> bool:
    """n-divisibility of a finitely generated group; it is unique exactly when it holds."""
    return all(t != 0 and gcd(t, n) == 1 for t in factors)


def strip_prime(t: int, p: int) -> int:
    while t % p == 0:
        t //= p
    return t


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def diagonal_matrix(d):
    return [[d[i] if i == j else 0 for j in range(len(d))] for i in range(len(d))]


def unimodular(rng: random.Random, n: int, steps: int):
    """Product of ``steps`` elementary row operations row_i += +-row_j."""
    m = diagonal_matrix([1] * n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        q = rng.choice((-1, 1))
        m[i] = [a + q * b for a, b in zip(m[i], m[j])]
    return m


def upper_bidiagonal(rng: random.Random, n: int):
    """Unit diagonal, +-1 on the superdiagonal, zero elsewhere."""
    return [[1 if i == j else (rng.choice((-1, 1)) if j == i + 1 else 0) for j in range(n)] for i in range(n)]


def bareiss_determinant(rows) -> int:
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def shuffled_deck(rng: random.Random, pool, count: int) -> list:
    """``count`` draws that use every pool value equally often, so the factor
    mix of a pass, and with it its cost, varies little with the seed."""
    out: list = []
    while len(out) < count:
        batch = list(pool)
        rng.shuffle(batch)
        out += batch
    return out[:count]


def _write(path: Path, data) -> str:
    path.write_text(json.dumps(data))
    return str(path)


def _group_json(rows) -> dict:
    return {"generators": len(rows), "relations": rows}


# ---------------------------------------------------------------------------
# pipeline_ladder
# ---------------------------------------------------------------------------

PIPELINE_PRIMES = (2, 3, 5)
PIPELINE_FACTORS = (2, 3, 4, 5, 6, 7, 9, 12, 15)
# Presentations per (g, width, kind) cell.  Cells are repeated so that the
# median job and the tail job (ten beyond it in a round) each sit inside one
# cluster of latencies instead of on the gap between two: the median in the
# middle of the g = 1, width 16 jobs, the tail among the g = 4, width 16 and
# g = 8, width 8 jobs.
PIPELINE_COPIES = {1: 8, 2: 2, 4: 2, 8: 1}
# Diagonals on which the baseline pipeline fails (exit 3 on the unit factor,
# PV kernel_rank 1 on the free one).  They are kept out of pipeline_ladder,
# whose jobs must all succeed for its failure count to repeat from run to run;
# bench/tests runs them as expected failures.
PIPELINE_EDGE_CASES = ((6, 1), (6, 0))


def check_pipeline(factors, p):
    want_dp = uniquely_divisible(factors, p)

    def check(out: dict) -> Optional[str]:
        pv = out["stages"]["pv"]
        if out["all_passed"] is not True:
            return "all_passed is not true"
        if tuple(pv["cokernel_invariant_factors"]) != factors:
            return f"pv cokernel {pv['cokernel_invariant_factors']} != {list(factors)}"
        if pv["kernel_rank"] != 0:
            return f"pv kernel_rank {pv['kernel_rank']} != 0"
        if out["absorption"][f"d_{p}"] is not want_dp:
            return f"d_{p} is {out['absorption'][f'd_{p}']}, expected {want_dp}"
        return None

    return check


def pipeline_jobs(rng: random.Random, workdir: Path, variant: int) -> list:
    """Diagonal and upper-triangular presentations for every (g, width, kind) cell.

    Triangular presentations are U @ diag(d) with U upper bidiagonal and
    unimodular, so they present the same group as diag(d).  A denser U makes
    the baseline pipeline run past the deadline at g = 8 (coefficient growth,
    which dense_group measures).  Every factor is finite and above 1: the
    baseline fails on a unit or a free factor (see PIPELINE_EDGE_CASES).
    """
    cells = [(g, w, kind) for g in (1, 2, 4, 8) for w in (8, 16) for kind in ("diag", "tri")
             for _ in range(PIPELINE_COPIES[g])]
    deck = shuffled_deck(rng, PIPELINE_FACTORS, sum(g for g, _, _ in cells))
    specs = []
    for g, w, kind in cells:
        d, deck = deck[:g], deck[g:]
        rows = diagonal_matrix(d)
        if kind == "tri":
            rows = matmul(upper_bidiagonal(rng, g), rows)
        specs.append((f"g{g}-w{w}-{kind}", d, rows, w))
    jobs = []
    for i, (label, d, rows, width) in enumerate(specs):
        p = PIPELINE_PRIMES[i % len(PIPELINE_PRIMES)]
        path = _write(workdir / f"pipeline-{variant}-{i}.json", _group_json(rows))
        argv = ["--format", "json", "pipeline", "--group", path, "--prime", str(p), "--width", str(width)]
        jobs.append(Job(f"{label}-p{p}", argv, check_pipeline(invariant_factors(d), p)))
    return jobs


# ---------------------------------------------------------------------------
# dense_group
# ---------------------------------------------------------------------------

# U and V are products of `mix * n` elementary operations.  With these sizes,
# mixes and factors the baseline's outcome hardly depends on the draw: size 4
# finishes well inside the deadline on all but about one job in 1500 (with
# wrong divisibility answers on many inputs) and sizes 10 and up never finish.  Sizes 5 to 8, size 4 mixed more,
# or the factor 663 at size 4, finish or not depending on the draw, and each
# such job would move this workload's figures by a whole deadline.
DENSE_SMALL = (4, 1)  # (size, mix)
DENSE_SMALL_COUNT = 200  # per pass
DENSE_SMALL_FACTORS = (0, 1, 1, 2, 3, 5, 6, 7, 10, 13, 17)
DENSE_LARGE_SIZES = (10, 12, 14, 16, 20, 25)  # spread over the passes
DENSE_LARGE_MIX = 3
DENSE_LARGE_FACTORS = DENSE_SMALL_FACTORS + (663,)
DENSE_DIVISORS = (2, 3, 5, 7)


def dense_presentation(rng: random.Random, d, mix: int):
    n = len(d)
    return matmul(matmul(unimodular(rng, n, mix * n), diagonal_matrix(d)), unimodular(rng, n, mix * n))


def reference_is_consistent(rows, d) -> bool:
    """|det| of U diag(d) V must equal |prod d| (zero when d has a free part)."""
    prod = 1
    for x in d:
        prod *= x
    return abs(bareiss_determinant(rows)) == abs(prod)


def check_group(factors):
    def check(out: dict) -> Optional[str]:
        if tuple(out["invariant_factors"]) != factors:
            return f"invariant factors {out['invariant_factors']} != {list(factors)}"
        for n in DENSE_DIVISORS:
            want = uniquely_divisible(factors, n)
            got = out["divisibility"][str(n)]
            if got["divisible"] is not want or got["uniquely_divisible"] is not want:
                return f"divisibility by {n}: {got}, expected {want}"
        return None

    return check


def check_invariant(factors, p):
    torsion = [strip_prime(t, p) for t in factors if t != 0]
    want_local = {"free_rank": factors.count(0), "torsion": [t for t in torsion if t > 1]}
    want_dp = uniquely_divisible(factors, p)

    def check(out: dict) -> Optional[str]:
        if tuple(out["invariant"]["k0"]["invariant_factors"]) != factors:
            return f"k0 {out['invariant']['k0']['invariant_factors']} != {list(factors)}"
        if out["o_infty_standard_absorbing"] is not True:
            return "o_infty_standard_absorbing is not true"
        if out[f"d_{p}_absorbing"] is not want_dp:
            return f"d_{p}_absorbing is {out[f'd_{p}_absorbing']}, expected {want_dp}"
        local = out["crossed_product_invariant"]["k0"]
        if {k: local[k] for k in want_local} != want_local:
            return f"crossed product k0 {local}, expected {want_local}"
        comparison = out["comparison"]
        if comparison["kp_isomorphic"] is not True or not all(
            v is True for v in comparison["equivalences"].values()
        ):
            return f"comparison {comparison}, expected all true"
        return None

    return check


def dense_jobs(rng: random.Random, workdir: Path, variant: int) -> list:
    """Presentations U diag(d) V, each a `group` job.

    Every other small entry and every large entry also gets a second
    presentation of the same group and an `invariant --compare` job, which
    keeps the median job inside the `group` jobs rather than between two
    clusters.  The large jobs are spread through the pass.
    """
    n, mix = DENSE_SMALL
    deck = shuffled_deck(rng, DENSE_SMALL_FACTORS, n * DENSE_SMALL_COUNT)
    small = [(deck[k * n:(k + 1) * n], mix) for k in range(DENSE_SMALL_COUNT)]
    large = [([rng.choice(DENSE_LARGE_FACTORS) for _ in range(n)], DENSE_LARGE_MIX)
             for n in DENSE_LARGE_SIZES[variant % PASSES["dense_group"]::PASSES["dense_group"]]]
    divisors = ",".join(map(str, DENSE_DIVISORS))
    jobs, large_jobs = [], []
    for i, (d, mix) in enumerate(small + large):
        n = len(d)
        out = jobs if i < len(small) else large_jobs
        first = dense_presentation(rng, d, mix)
        if not reference_is_consistent(first, d):
            raise AssertionError(f"dense input {i}: determinant disagrees with its diagonal")
        factors = invariant_factors(d)
        a = _write(workdir / f"dense-{variant}-{i}-a.json", _group_json(first))
        out.append(Job(f"n{n}-group", ["--format", "json", "group", a, "--divisors", divisors],
                       check_group(factors)))
        if i < len(small) and i % 2:
            continue
        second = dense_presentation(rng, rng.sample(d, n), mix)
        if not reference_is_consistent(second, d):
            raise AssertionError(f"dense input {i}: determinant disagrees with its diagonal")
        b = _write(workdir / f"dense-{variant}-{i}-b.json", _group_json(second))
        p = DENSE_DIVISORS[i % len(DENSE_DIVISORS)]
        out.append(Job(f"n{n}-invariant-p{p}",
                       ["--format", "json", "invariant", a, "--prime", str(p), "--compare", b],
                       check_invariant(factors, p)))
    step = len(jobs) // (len(large_jobs) + 1)
    for k, job in enumerate(large_jobs):
        jobs.insert((k + 1) * step + k, job)
    return jobs


# ---------------------------------------------------------------------------
# eplag_fingerprint
# ---------------------------------------------------------------------------

# (shape, depth, P).  Deeper trees get fewer primes in P: the baseline needs
# seconds per job for P = [3] past depth 8 and for P = [2, 7] past depth 4.
# The two costliest entries make 12 jobs a round and the next is far
# cheaper, so the tail job (ten beyond it) sits inside one latency cluster.
EPLAG_LADDER = (
    ("chain", 2, ()), ("chain", 2, (3,)), ("chain", 2, (2, 7)),
    ("branching", 3, ()),
    ("chain", 4, ()), ("chain", 4, (3,)), ("chain", 4, (2, 7)),
    ("branching", 5, ()),
    ("chain", 6, ()),
    ("branching", 8, ()), ("chain", 8, (3,)),
    ("chain", 10, ()),
    ("chain", 12, ()),
)
EPLAG_BOUND = 2


def tree_edges(shape: str, depth: int) -> list:
    """Parent-child edges over vertices 0..n-1, vertex 0 the root.

    A chain is a path with ``depth`` edges; a branching tree is that path
    plus a leaf on the root and a leaf on the path's middle vertex.
    """
    edges = [(k, k + 1) for k in range(depth)]
    if shape == "branching":
        edges += [(0, depth + 1), (depth // 2, depth + 2)]
    return edges


def primes_avoiding(excluded):
    n = 2
    while True:
        if n > 1 and all(n % q for q in range(2, int(n**0.5) + 1)) and n not in excluded:
            yield n
        n += 1


def labelled_graph(shape: str, depth: int, P, names) -> dict:
    """Graph JSON: level-k vertices and level-k edges get one prime each, all outside P."""
    edges = tree_edges(shape, depth)
    level = {0: 0}
    for a, b in edges:
        level[b] = level[a] + 1
    stream = primes_avoiding(set(P))
    vertex_primes, edge_primes = [], []
    for _ in range(max(level.values()) + 1):
        edge_primes.append(next(stream))
        vertex_primes.append(next(stream))
    return {
        "vertices": {names[v]: vertex_primes[lvl] for v, lvl in level.items()},
        "edges": [{"ends": [names[a], names[b]], "label": edge_primes[level[a]]} for a, b in edges],
        "P": list(P),
    }


def random_names(rng: random.Random, count: int) -> list:
    names: set = set()
    while len(names) < count:
        names.add("v" + "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(5)))
    return sorted(names)


def relabel(graph: dict, mapping: dict) -> dict:
    return {
        "vertices": {mapping[v]: label for v, label in graph["vertices"].items()},
        "edges": [{"ends": [mapping[v] for v in e["ends"]], "label": e["label"]} for e in graph["edges"]],
        "P": graph["P"],
    }


def check_fingerprint(P, memo: dict, key, original: bool):
    def check(out: dict) -> Optional[str]:
        fp = [tuple(s) for s in out["fingerprint"]]
        if out["p_divisible_sample"] is not True:
            return "p_divisible_sample is not true"
        for s in fp:
            if not set(P) <= set(s):
                return f"vertex set {list(s)} lacks P = {list(P)}"
        if original:
            memo[key] = fp
        elif key in memo and memo[key] != fp:
            return f"relabelled fingerprint {fp} != original {memo[key]}"
        return None

    return check


def eplag_jobs(rng: random.Random, workdir: Path, variant: int) -> list:
    jobs = []
    memo: dict = {}
    for i, (shape, depth, P) in enumerate(EPLAG_LADDER):
        n = len(tree_edges(shape, depth)) + 1
        names = random_names(rng, 2 * n)
        rng.shuffle(names)
        graph = labelled_graph(shape, depth, P, names[:n])
        copy = relabel(graph, dict(zip(names[:n], names[n:])))
        for tag, g in (("", graph), ("-relabelled", copy)):
            path = _write(workdir / f"eplag-{variant}-{i}{tag}.json", g)
            argv = ["--format", "json", "eplag", "fingerprint", "--graph", path, "--bound", str(EPLAG_BOUND)]
            jobs.append(Job(f"{shape}{depth}-P{'.'.join(map(str, P))}{tag}", argv,
                            check_fingerprint(P, memo, i, original=not tag)))
    return jobs


# ---------------------------------------------------------------------------
# schreier_kernel
# ---------------------------------------------------------------------------

SCHREIER_CELLS = tuple((2, m, b) for m in range(2, 7) for b in (4, 5, 6, 7)) + tuple(
    (3, m, b) for m in range(2, 7) for b in (4, 5)
)

_SYLLABLE = re.compile(r"x(\d+)(?:\^(-?\d+))?")


def exponent_sums(word: str, rank: int) -> list:
    """Exponent sum per generator of a word printed as ``x0.x1^-1`` (``e`` is the identity)."""
    sums = [0] * rank
    if word == "e":
        return sums
    for part in word.split("."):
        m = _SYLLABLE.fullmatch(part)
        if m is None:
            raise ValueError(f"cannot parse syllable {part!r}")
        sums[int(m.group(1))] += int(m.group(2) or 1)
    return sums


def in_kernel(word: str, images, m: int) -> bool:
    sums = exponent_sums(word, len(images))
    return sum(e * a for e, a in zip(sums, images)) % m == 0


def coset_radius(images, m: int) -> int:
    """Largest word length needed to reach every element of Z/m from the images."""
    dist = {0: 0}
    queue = deque([0])
    while queue:
        x = queue.popleft()
        for a in images:
            for y in ((x + a) % m, (x - a) % m):
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
    return max(dist.values())


def check_schreier(images, m: int, word_bound: int):
    r = len(images)
    expect_count = m * (r - 1) + 1 if word_bound >= coset_radius(images, m) else None

    def check(out: dict) -> Optional[str]:
        words = out["generators"]
        if out["count"] != len(words):
            return f"count {out['count']} != {len(words)} listed generators"
        if len(set(words)) != len(words) or "e" in words:
            return "generators repeat or include the identity"
        for w in words:
            if not in_kernel(w, images, m):
                return f"{w} is not in the kernel"
        if expect_count is not None and len(words) != expect_count:
            return f"count {len(words)} != m(r-1)+1 = {expect_count}"
        return None

    return check


def schreier_jobs(rng: random.Random, workdir: Path, variant: int) -> list:
    """Kernels of F_r -> Z/m with x0 sent to a unit, so the kernel has index m."""
    jobs = []
    for i, (r, m, bound) in enumerate(SCHREIER_CELLS):
        images = [rng.choice([u for u in range(1, m) if gcd(u, m) == 1])]
        images += [rng.randrange(m) for _ in range(r - 1)]
        target = _write(workdir / f"schreier-{variant}-{i}.json", _group_json([[m]]))
        argv = ["--format", "json", "schreier", "--target", target,
                "--images", json.dumps([[a] for a in images]),
                "--word-bound", str(bound), "--gen-bound", str(r)]
        jobs.append(Job(f"r{r}-m{m}-b{bound}", argv, check_schreier(images, m, bound)))
    return jobs


WORKLOADS = {
    "pipeline_ladder": pipeline_jobs,
    "dense_group": dense_jobs,
    "eplag_fingerprint": eplag_jobs,
    "schreier_kernel": schreier_jobs,
}


def build_round(workload: str, seed: int, workdir: Path, index: int) -> list:
    """The jobs of round ``index``: its passes one after the other."""
    first = index * PASSES[workload]
    return [job for v in range(first, first + PASSES[workload])
            for job in WORKLOADS[workload](random.Random(f"{workload}:{seed}:{v}"), workdir, v)]
