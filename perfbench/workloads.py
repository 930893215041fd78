"""Workload definitions and the benchmark's own closed-form oracles.

Every oracle here is computed from first principles in this file; none
of them calls into ``coulomb_hs``, so a bug in the program under test
cannot hide behind its own reference values.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from math import comb


# ---------------------------------------------------------------------------
# closed forms


def nilcone_series(degrees, dim: int, order: int) -> dict:
    """prod_d (1 - t^(2d)) / (1 - t^2)^dim as {exponent: coefficient}.

    This is the Hilbert series of the nilpotent cone of a Lie algebra of
    dimension ``dim`` whose Casimir invariants have the given degrees."""
    den = [comb(dim - 1 + e // 2, e // 2) if e % 2 == 0 else 0
           for e in range(order + 1)]
    out = den
    for d in degrees:
        step = 2 * d
        out = [c - (out[e - step] if e >= step else 0) for e, c in enumerate(out)]
    return {e: c for e, c in enumerate(out) if c}


# E6 Cartan matrix, Bourbaki labels: chain 1-3-4-5-6 with 2 attached to 4.
_E6_LINKS = ((1, 3), (3, 4), (4, 5), (5, 6), (2, 4))


def _positive_roots(rank: int, links) -> list:
    """Positive roots of a simply-laced algebra as simple-root coefficient
    vectors: alpha + alpha_i is a root exactly when (alpha, alpha_i) = -1."""
    cartan = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for a, b in links:
        cartan[a - 1][b - 1] = cartan[b - 1][a - 1] = -1
    simple = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    roots, frontier = set(simple), list(simple)
    while frontier:
        nxt = []
        for r in frontier:
            for i in range(rank):
                if sum(r[j] * cartan[j][i] for j in range(rank)) == -1:
                    s = tuple(c + (j == i) for j, c in enumerate(r))
                    if s not in roots:
                        roots.add(s)
                        nxt.append(s)
        frontier = nxt
    return sorted(roots)


def e6_minimal_orbit_series(order: int) -> dict:
    """sum_k dim V(k theta) t^(2k) for E6 (Benvenuti-Hanany-Mekareeya,
    arXiv:1005.3026), by the Weyl dimension formula.

    theta is orthogonal to every simple root except alpha_2, so
    (theta, alpha) is the alpha_2 coefficient of alpha, and
    dim V(k theta) = prod_alpha (k (theta, alpha) + ht alpha) / ht alpha."""
    roots = _positive_roots(6, _E6_LINKS)
    out = {}
    for k in range(order // 2 + 1):
        num = den = 1
        for r in roots:
            num *= k * r[1] + sum(r)
            den *= sum(r)
        out[2 * k] = num // den
    return out


def series_digest(coeffs: dict) -> str:
    """sha256 of the canonical JSON of a {exponent: coefficient} series."""
    blob = json.dumps({str(e): str(c) for e, c in sorted(coeffs.items())},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # ``generate`` arguments of the CLI for the quiver file, or None when
    # the subcommand builds its own quiver (and so ignores the seed).
    generate: tuple | None
    # CLI arguments after the program name; "{quiver}" is the input file.
    argv: tuple
    ungauge: str | None
    order: int
    oracle: dict
    # Exact EngineStats.charge_count; a change is a correctness alarm.
    charges: int
    digest: str | None = None
    # Predicted share of solve_s per layer, from single exploratory runs.
    predicted: dict = field(default_factory=dict)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="wide-bouquet",
        why="bouquet(5) K=4: edge/min-cost tables and the two empty "
            "trailing shells dominate, DFS and assembly near zero",
        generate=("bouquet", "--n", "5"),
        argv=("hs", "{quiver}", "--ungauge", "b1", "--order", "4",
              "--json", "--pl"),
        ungauge="b1",
        order=4,
        # t^2 = n^2 + n - 2 = 28; the digest pins the whole series.
        oracle={0: 1, 2: 28},
        digest="ca6e1b062862f9425a4e516ae47b637e9bb6bace6097bd4b92d927c86054d82b",
        charges=245,
        predicted={"engine.enumerate_s": 0.90, "engine.assemble_s": 0.0,
                   "series.pl_s": 0.01},
    ),
    Workload(
        name="partial-e6",
        why="affine E6 quiver K=6: the charge-volume case; DFS and integer "
            "assembly dominate, tables small",
        generate=("partial", "--n", "4", "--partition", "2,2"),
        argv=("hs", "{quiver}", "--ungauge", "l1_1", "--order", "6",
              "--json", "--pl"),
        ungauge="l1_1",
        order=6,
        oracle=e6_minimal_orbit_series(6),
        charges=25436,
        predicted={"engine.enumerate_s": 0.61, "engine.assemble_s": 0.33,
                   "series.pl_s": 0.01},
    ),
    Workload(
        name="refined-implosion",
        why="refined bouquet(3) K=12: Laurent-coefficient assembly, then "
            "series products and constant terms; builds its own quiver",
        generate=None,
        argv=("implosion-check", "--n", "3", "--order", "12"),
        ungauge="b1",
        order=12,
        oracle=nilcone_series((2, 3), 8, 12),
        charges=17668,
        predicted={"engine.assemble_s": 0.65},
    ),
    Workload(
        name="ortho-d5",
        why="SO/USp chain with SO(10) flavor K=6: the only orthosymplectic "
            "path (SO/USp chambers, ortho edges); bypass for unitary tables",
        generate=("dn", "--n", "5", "--flavor"),
        argv=("hs", "{quiver}", "--order", "6", "--json", "--pl"),
        ungauge=None,
        order=6,
        oracle=nilcone_series((2, 4, 5, 6, 8), 45, 6),
        charges=10630,
    ),
)}


def permuted_quiver(obj: dict, seed: int, solve: int) -> dict:
    """Quiver JSON with node and edge order shuffled by the seed; seed 0
    keeps the generator's order.

    The engine roots its spanning tree at the first non-flavor node, and
    the root alone can change a solve's time twofold. So solve ``i`` of a
    run rotates the shuffled node list to start at its ``i``-th non-flavor
    node: consecutive solves cycle through every root."""
    if seed == 0:
        return obj
    rng = random.Random(seed)
    nodes, edges = list(obj["nodes"]), list(obj["edges"])
    rng.shuffle(nodes)
    rng.shuffle(edges)
    roots = [i for i, nd in enumerate(nodes) if nd["kind"] != "flavor"]
    k = roots[solve % len(roots)]
    return {"nodes": nodes[k:] + nodes[:k], "edges": edges}


def root_count(obj: dict, seed: int) -> int:
    """How many solves one cycle through every root of ``permuted_quiver``
    takes."""
    if seed == 0:
        return 1
    return sum(1 for nd in obj["nodes"] if nd["kind"] != "flavor")


def tree_root(obj: dict) -> str:
    """The node the engine roots its spanning tree at."""
    return next(nd["id"] for nd in obj["nodes"] if nd["kind"] != "flavor")


def check_series(w: Workload, coeffs: dict) -> str | None:
    """None when the series matches the oracle, else what is wrong."""
    want = {e: c for e, c in w.oracle.items() if e <= w.order}
    got = {e: c for e, c in coeffs.items() if c}
    if w.digest is not None:
        if any(got.get(e, 0) != c for e, c in want.items()):
            return f"oracle coefficients {want}, got {got}"
        if series_digest(got) != w.digest:
            return f"series digest changed: {series_digest(got)} for {got}"
        return None
    if got != want:
        return f"expected {want}, got {got}"
    return None
