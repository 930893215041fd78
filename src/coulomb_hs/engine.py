"""Monopole-formula engine.

Computes the Coulomb-branch Hilbert series of a quiver as the lattice sum

    HS(t) = sum over dominant magnetic charges m of  t^(2*Delta(m)) * P(m,t)

where Delta(m) is the conformal dimension of the bare monopole (negative
root contributions plus half the matter weight contributions) and P(m,t)
is the dressing factor built from the Casimir degrees of the residual
gauge group.

All conformal dimensions are handled internally in quarter-integer units
(``delta4 = 4*Delta``) so the hot loops run on plain integers.

Charge enumeration grows a per-entry bound shell by shell and stops after
two consecutive shells contribute nothing below the dimension cutoff.
Within a shell, a depth-first search over the quiver's spanning tree is
pruned with exact per-subtree minimum-cost tables, which keeps quivers
with a dozen lattice dimensions tractable.  Edges that close a cycle
(every affine A_n quiver has one) are left out of the tables and added
as soon as both endpoints are chosen; matter terms are nonnegative, so
the tables stay a true lower bound on general graphs.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Mapping, Sequence

from .liedata import (
    Charge,
    Conventions,
    DEFAULT_CONVENTIONS,
    dominant_charges,
    dressing_degrees,
    positive_root_values,
    validate_charge,
)
from .quiver import (
    DecoupledU1UnresolvedError,
    Family,
    NodeKind,
    Quiver,
    QuiverError,
    build_bouquet_quiver,
    detect_decoupled_u1,
    ungauge,
)
from .series import Laurent, TruncatedSeries, one_minus_power


class EngineError(QuiverError):
    """Base class for monopole-engine failures."""


class BadTheoryError(EngineError):
    """A nonzero charge with Delta <= 0 was found; the sum cannot converge."""


class ConvergenceNotReachedError(EngineError):
    pass


class HalfOddGradingError(EngineError):
    pass


class UnsupportedEdgeError(EngineError):
    pass


DEFAULT_MAX_BOUND = 64  # largest per-entry charge shell before giving up


@dataclass(frozen=True, order=True)
class QuiverCharge:
    """Dominant magnetic charge per gauge node (fixed nodes pinned to 0)."""

    node_ids: tuple
    charges: tuple

    def charge_of(self, node_id: str) -> Charge:
        return self.charges[self.node_ids.index(node_id)]

    def as_dict(self) -> dict:
        return dict(zip(self.node_ids, self.charges))


@dataclass(frozen=True)
class HSRequest:
    quiver: Quiver
    order: int
    refined: frozenset = frozenset()
    ungauge: str | None = None
    max_bound: int = DEFAULT_MAX_BOUND
    conventions: Conventions = DEFAULT_CONVENTIONS


@dataclass(frozen=True)
class EngineStats:
    charge_count: int
    bound_reached: int
    shells_scanned: int
    wall_time_s: float


@dataclass(frozen=True)
class HSResult:
    series: TruncatedSeries
    stats: EngineStats


# ---------------------------------------------------------------------------
# preprocessed problem


class _ENode:
    __slots__ = ("id", "group", "rank", "fixed", "flavor")

    def __init__(self, node):
        self.id = node.id
        self.group = node.group
        self.rank = node.group.rank
        self.fixed = node.kind is NodeKind.FIXED
        self.flavor = []  # _EEdge to each flavor node, which sits at charge 0


class _EEdge:
    """Hypermultiplet on the edge between node ``a`` and node ``b``.

    ``b`` is -1 for a flavor node, whose charge is always ``zero``."""

    __slots__ = ("a", "b", "mult", "ortho", "so_first", "so_odd", "zero")

    def __init__(self, a, b, mult, ga, gb):
        self.a, self.b, self.mult = a, b, mult
        self.ortho = {ga.family, gb.family} == {Family.ORTHOGONAL, Family.SYMPLECTIC}
        self.so_first = ga.family is Family.ORTHOGONAL
        self.so_odd = (ga if self.so_first else gb).n % 2
        self.zero = (0,) * gb.rank


class _Problem:
    def __init__(self, quiver: Quiver, conv: Conventions):
        self.quiver = quiver
        self.conv = conv
        self.w2 = int(2 * conv.orthosymplectic_pair_weight)  # 2 or 1
        self.nodes = [_ENode(n) for n in quiver.nodes if n.kind is not NodeKind.FLAVOR]
        self.index = {nd.id: i for i, nd in enumerate(self.nodes)}
        self.edges: list = []
        for (a, b), mult in sorted(Counter(quiver.edges).items()):
            na, nb = quiver.node(a), quiver.node(b)
            if na.kind is NodeKind.FLAVOR:
                na, nb = nb, na
            if nb.kind is NodeKind.FLAVOR:
                e = _EEdge(self.index[na.id], -1, mult, na.group, nb.group)
                self.nodes[e.a].flavor.append(e)
            else:
                e = _EEdge(self.index[a], self.index[b], mult, na.group, nb.group)
                self.edges.append(e)
            if e.ortho and mult > 1:
                raise UnsupportedEdgeError(
                    f"edge {a!r}-{b!r}: orthosymplectic edge multiplicity "
                    f"{mult} is not supported")
        self._build_tree()

    def _build_tree(self):
        n = len(self.nodes)
        adj: list = [[] for _ in range(n)]
        for ei, e in enumerate(self.edges):
            adj[e.a].append((e.b, ei))
            adj[e.b].append((e.a, ei))
        visited = [False] * n
        self.parent = [-1] * n
        self.parent_edge = [-1] * n
        self.children: list = [[] for _ in range(n)]
        self.roots: list = []
        self.preorder: list = []
        tree_edge = [False] * len(self.edges)

        def dfs(u):
            self.preorder.append(u)
            for v, ei in adj[u]:
                if not visited[v]:
                    visited[v] = True
                    self.parent[v] = u
                    self.parent_edge[v] = ei
                    self.children[u].append(v)
                    tree_edge[ei] = True
                    dfs(v)

        for s in range(n):
            if not visited[s]:
                visited[s] = True
                self.roots.append(s)
                dfs(s)
        pos = {v: k for k, v in enumerate(self.preorder)}
        # Non-tree edges, attached to whichever endpoint comes later.
        self.nontree: list = [[] for _ in range(n)]
        for ei, e in enumerate(self.edges):
            if not tree_edge[ei]:
                late, early = (e.a, e.b) if pos[e.a] > pos[e.b] else (e.b, e.a)
                self.nontree[late].append((early, ei))

    # -- quarter-unit conformal dimension pieces ---------------------------

    def edge4(self, e: _EEdge, ca: Charge, cb: Charge) -> int:
        if not e.ortho:
            s = 0
            for x in ca:
                for y in cb:
                    s += abs(x - y)
            return 2 * e.mult * s
        so, sp = (ca, cb) if e.so_first else (cb, ca)
        s = 0
        for x in so:
            for y in sp:
                s += abs(x + y) + abs(x - y)
        if e.so_odd:  # zero weight of the odd orthogonal vector
            s += sum(abs(y) for y in sp)
        return self.w2 * s

    def local4(self, nd: _ENode, m: Charge) -> int:
        t = -4 * sum(positive_root_values(nd.group, m))
        for f in nd.flavor:
            t += self.edge4(f, m, f.zero)
        return t

    def delta4(self, vec: Sequence[Charge]) -> int:
        total = sum(self.local4(nd, vec[i]) for i, nd in enumerate(self.nodes))
        total += sum(self.edge4(e, vec[e.a], vec[e.b]) for e in self.edges)
        return total

    def coerce_charge(self, charge) -> tuple:
        if isinstance(charge, QuiverCharge):
            charge = charge.as_dict()
        if isinstance(charge, Mapping):
            vec = []
            for nd in self.nodes:
                if nd.id not in charge:
                    if nd.fixed:
                        vec.append((0,) * nd.rank)
                        continue
                    raise QuiverError(f"charge missing for node {nd.id!r}")
                c = tuple(charge[nd.id])
                vec.append(c)
        else:
            vec = [tuple(c) for c in charge]
            if len(vec) != len(self.nodes):
                raise QuiverError("charge has wrong number of components")
        for nd, c in zip(self.nodes, vec):
            if nd.fixed:
                if any(c):
                    raise QuiverError(f"fixed node {nd.id!r} must carry charge 0")
            else:
                validate_charge(nd.group, c, self.conv)
        return tuple(vec)


# ---------------------------------------------------------------------------
# charge enumeration


def _edge_table(prob: _Problem, e: _EEdge, p: int, cands_p: list,
                cands_v: list) -> list:
    """``tab[ip][iv]``: quarter-unit cost of tree edge ``e`` between parent
    candidate ``ip`` and child candidate ``iv``."""
    if p == e.a:
        return [[prob.edge4(e, x, y) for y in cands_v] for x in cands_p]
    return [[prob.edge4(e, y, x) for y in cands_v] for x in cands_p]


def _scan_shell(prob: _Problem, b: int, thr4: int) -> list:
    """Charges with max |entry| == b and delta4 <= thr4, sorted."""
    nodes = prob.nodes
    n = len(nodes)
    if n == 0:
        return [((), 0)] if b == 0 else []
    cands, maxabs, local4 = [], [], []
    for nd in nodes:
        cl = [(0,) * nd.rank] if nd.fixed else \
            dominant_charges(nd.group, b, prob.conv)
        cands.append(cl)
        maxabs.append([max((abs(x) for x in c), default=0) for c in cl])
        local4.append([prob.local4(nd, c) for c in cl])

    # Exact minimum added cost of each subtree, per parent candidate.
    sub_cost: list = [None] * n
    best: list = [None] * n
    etab: list = [None] * n
    for v in reversed(prob.preorder):
        sc = list(local4[v])
        for c in prob.children[v]:
            bc = best[c]
            sc = [s + bc[i] for i, s in enumerate(sc)]
        sub_cost[v] = sc
        p = prob.parent[v]
        if p >= 0:
            e = prob.edges[prob.parent_edge[v]]
            tab = _edge_table(prob, e, p, cands[p], cands[v])
            etab[v] = tab
            best[v] = [min(r + s for r, s in zip(row, sc)) for row in tab]
    root_min = {r: min(sub_cost[r]) for r in prob.roots}

    found: list = []
    choice = [0] * n
    selected: list = [None] * n
    pre = prob.preorder

    def rec(k: int, lb: int, mx: int):
        if k == n:
            if mx == b:
                if lb <= 0 and any(any(c) for c in selected):
                    raise BadTheoryError(
                        "nonzero magnetic charge "
                        f"{tuple(selected)} has 2*Delta = {Fraction(lb, 2)} <= 0; "
                        "the monopole sum diverges")
                found.append((tuple(selected), lb))
            return
        v = pre[k]
        p = prob.parent[v]
        base = lb - (best[v][choice[p]] if p >= 0 else root_min[v])
        erow = etab[v][choice[p]] if p >= 0 else None
        sc = sub_cost[v]
        for iv in range(len(cands[v])):
            nl = base + sc[iv] + (erow[iv] if erow is not None else 0)
            if nl > thr4:
                continue
            cv = cands[v][iv]
            nt = 0
            for other, ei in prob.nontree[v]:
                e = prob.edges[ei]
                ca, cb = (cv, selected[other]) if e.a == v else (selected[other], cv)
                nt += prob.edge4(e, ca, cb)
            nl += nt
            if nl > thr4:
                continue
            choice[v] = iv
            selected[v] = cv
            rec(k + 1, nl, mx if mx >= maxabs[v][iv] else maxabs[v][iv])
        selected[v] = None

    rec(0, sum(root_min.values()), 0)
    found.sort()
    return found


def _enumerate_raw(prob: _Problem, thr4: int, max_bound: int):
    """All charges with 4*Delta <= thr4, plus the bound reached."""
    if thr4 < 0:
        raise ValueError("the dimension cutoff must be nonnegative")
    if max_bound < 0:
        raise ValueError("max_bound must be >= 0")
    found: list = []
    empty_streak = 0
    b = 0
    while True:
        shell = _scan_shell(prob, b, thr4)
        if shell:
            found.extend(shell)
            empty_streak = 0
        else:
            empty_streak += 1
        if empty_streak >= 2:
            return found, b, b + 1
        if b >= max_bound:
            raise ConvergenceNotReachedError(
                f"charge shells still contribute at bound {b}; "
                "raise max_bound or check the theory")
        b += 1


def enumerate_charges(q: Quiver, delta_max, *,
                      max_bound: int = DEFAULT_MAX_BOUND,
                      conv: Conventions = DEFAULT_CONVENTIONS) -> list:
    """All dominant charges with Delta(m) <= delta_max, deterministic order."""
    thr4 = Fraction(delta_max) * 4
    if thr4.denominator != 1:
        raise ValueError("delta_max must be a quarter-integer")
    prob = _Problem(q, conv)
    raw, _, _ = _enumerate_raw(prob, int(thr4), max_bound)
    ids = tuple(nd.id for nd in prob.nodes)
    return [QuiverCharge(ids, c) for c, _ in raw]


# ---------------------------------------------------------------------------
# public conformal-dimension / dressing operations


def delta(q: Quiver, charge, conv: Conventions = DEFAULT_CONVENTIONS) -> Fraction:
    """Conformal dimension of the bare monopole of charge m (half-integer
    for unitary quivers; quarter-integers can only arise under the
    alternative orthosymplectic weight convention)."""
    prob = _Problem(q, conv)
    return Fraction(prob.delta4(prob.coerce_charge(charge)), 4)


@lru_cache(maxsize=None)
def _dressing_coeffs(degrees: tuple, order: int) -> tuple:
    arr = [0] * (order + 1)
    arr[0] = 1
    for d in degrees:
        step = 2 * d
        for e in range(step, order + 1):
            arr[e] += arr[e - step]
    return tuple(arr)


def dressing_factor(q: Quiver, charge, order: int,
                    conv: Conventions = DEFAULT_CONVENTIONS) -> TruncatedSeries:
    """P(m,t): product over residual Casimir degrees d of 1/(1 - t^(2d));
    fixed nodes contribute factor 1."""
    prob = _Problem(q, conv)
    vec = prob.coerce_charge(charge)
    degrees: list = []
    for i, nd in enumerate(prob.nodes):
        if not nd.fixed:
            degrees.extend(dressing_degrees(nd.group, vec[i], conv))
    arr = _dressing_coeffs(tuple(sorted(degrees)), order)
    return TruncatedSeries(order, {e: c for e, c in enumerate(arr) if c})


# ---------------------------------------------------------------------------
# Hilbert series


def _assemble(prob: _Problem, raw: list, order: int, refined: tuple) -> dict:
    conv = prob.conv
    acc: dict = {}
    degree_cache: dict = {}
    for vec, d4 in raw:
        if d4 % 2:
            raise HalfOddGradingError(
                f"charge {vec} has 2*Delta = {Fraction(d4, 2)}, not an integer; "
                "the t-grading would be half-odd")
        te = d4 // 2
        if te > order:
            continue
        key = []
        for i, nd in enumerate(prob.nodes):
            if nd.fixed:
                continue
            ck = (i, vec[i])
            degs = degree_cache.get(ck)
            if degs is None:
                degs = tuple(dressing_degrees(nd.group, vec[i], conv))
                degree_cache[ck] = degs
            key.extend(degs)
        arr = _dressing_coeffs(tuple(sorted(key)), order - te)
        if refined:
            mono = Laurent.monomial(
                {nid: sum(vec[i]) for i, nid in refined})
            for e, c in enumerate(arr):
                if c:
                    acc[te + e] = acc.get(te + e, 0) + c * mono
        else:
            for e, c in enumerate(arr):
                if c:
                    acc[te + e] = acc.get(te + e, 0) + c
    return acc


def compute_hilbert_series(request: HSRequest) -> HSResult:
    """Run the monopole sum; returns the series plus reproducibility stats."""
    t0 = time.perf_counter()
    q = request.quiver
    if request.ungauge is not None:
        q = ungauge(q, request.ungauge)
    if detect_decoupled_u1(q):
        raise DecoupledU1UnresolvedError(
            "a diagonal U(1) acts trivially and the monopole sum diverges; "
            "set the ungauge option (--ungauge <U(1) node id>) first")
    if request.order < 0:
        raise ValueError("truncation order must be >= 0")
    for nid in request.refined:
        node = q.node(nid)
        if node.kind is not NodeKind.GAUGE or node.group.family is not Family.UNITARY:
            raise QuiverError(
                f"refined node {nid!r} must be a unitary gauge node")
    prob = _Problem(q, request.conventions)
    thr4 = 2 * request.order
    raw, bound, shells = _enumerate_raw(prob, thr4, request.max_bound)
    refined = tuple((prob.index[nid], nid) for nid in sorted(request.refined))
    acc = _assemble(prob, raw, request.order, refined)
    series = TruncatedSeries(request.order, acc,
                             frozenset(nid for _, nid in refined))
    stats = EngineStats(len(raw), bound, shells, time.perf_counter() - t0)
    return HSResult(series, stats)


def coulomb_hilbert_series(request: HSRequest) -> TruncatedSeries:
    return compute_hilbert_series(request).series


def symmetry_dimension(s: TruncatedSeries) -> int:
    """t^2 coefficient: the expected dimension of the global symmetry."""
    c = s.coefficient(2)
    if isinstance(c, Laurent):
        raise EngineError("symmetry dimension needs an unrefined series")
    if isinstance(c, Fraction):
        c = int(c)
    return c


def nilcone_reference_hs(n: int, order: int) -> TruncatedSeries:
    """Closed form prod_{i=1..n}(1 - t^(2i)) / (1 - t^2)^(n^2), expanded."""
    if n < 1:
        raise ValueError("need n >= 1")
    num = TruncatedSeries.one(order)
    for i in range(1, n + 1):
        num = num * one_minus_power(2 * i, order)
    denom = TruncatedSeries(order, {2 * j: comb(n * n - 1 + j, j)
                                    for j in range(order // 2 + 1)})
    return num * denom


def bouquet_leaf_ids(n: int) -> list:
    return [f"b{i}" for i in range(1, n + 1)]


def refined_implosion_integral(n: int, order: int, *,
                               prefactor_exponent: int | None = None,
                               conventions: Conventions = DEFAULT_CONVENTIONS,
                               ) -> TruncatedSeries:
    """Residue integral over the bouquet fugacities.

    Ungauges the first bouquet U(1), refines the remaining n-1 with one
    fugacity each, multiplies the refined series by (1 - t^2)^(n-1) and
    extracts the constant term in every fugacity.  The result matches the
    nilpotent-cone closed form ``nilcone_reference_hs(n, order)``.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return TruncatedSeries.one(order)
    q = build_bouquet_quiver(n)
    leaves = bouquet_leaf_ids(n)
    req = HSRequest(q, order, refined=frozenset(leaves[1:]), ungauge=leaves[0],
                    conventions=conventions)
    s = coulomb_hilbert_series(req)
    exponent = (n - 1) if prefactor_exponent is None else prefactor_exponent
    s = s * (one_minus_power(2, order) ** exponent)
    for name in sorted(req.refined):
        s = s.constant_term(name)
    return s


@dataclass(frozen=True)
class ContributionCheck:
    """Expected low-order structure of the ungauged bouquet series."""

    n: int
    order: int
    t2_coefficient: int
    t2_generic_expected: int
    t2_matches_generic: bool
    enhanced_dimension: int | None
    t_power: int
    t_power_coefficient: int
    bouquet_monopole_count: int
    bouquet_monopole_expected: int


_ENHANCED_T2 = {2: 10, 3: 28}  # Sp(2) and SO(8) enhancements


def hs_contribution_check(n: int, *, conventions: Conventions = DEFAULT_CONVENTIONS,
                          ) -> ContributionCheck:
    """Check the t^2 coefficient (n^2 + n - 2 for n >= 4, with documented
    enhancements at n = 2, 3) and count the 2n basic bouquet monopoles at
    order t^(n-1)."""
    if n < 2:
        raise ValueError("need n >= 2")
    order = max(2, n - 1)
    q = build_bouquet_quiver(n)
    leaves = bouquet_leaf_ids(n)
    req = HSRequest(q, order, ungauge=leaves[0], conventions=conventions)
    s = coulomb_hilbert_series(req)
    t2 = int(s.coefficient(2))
    ungauged = ungauge(q, leaves[0])
    prob = _Problem(ungauged, conventions)
    target4 = 2 * (n - 1)  # 4*Delta for 2*Delta = n - 1
    count = 0
    for sign in (1, -1):
        for leaf in leaves[1:]:
            vec = [(0,) * nd.rank for nd in prob.nodes]
            vec[prob.index[leaf]] = (sign,)
            if prob.delta4(vec) == target4:
                count += 1
        vec = [(0,) * nd.rank if nd.fixed else (sign,) * nd.rank
               for nd in prob.nodes]
        if prob.delta4(vec) == target4:
            count += 1
    return ContributionCheck(
        n=n,
        order=order,
        t2_coefficient=t2,
        t2_generic_expected=n * n + n - 2,
        t2_matches_generic=(t2 == n * n + n - 2),
        enhanced_dimension=_ENHANCED_T2.get(n),
        t_power=n - 1,
        t_power_coefficient=int(s.coefficient(n - 1)),
        bouquet_monopole_count=count,
        bouquet_monopole_expected=2 * n,
    )
