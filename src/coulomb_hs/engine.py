"""Monopole-formula engine.

Computes the Coulomb-branch Hilbert series of a quiver as the lattice sum

    HS(t) = sum over dominant magnetic charges m of  t^(2*Delta(m)) * P(m,t)

where Delta(m) is the conformal dimension of the bare monopole (negative
root contributions plus half the matter weight contributions) and P(m,t)
is the dressing factor built from the Casimir degrees of the residual
gauge group.

All conformal dimensions are handled internally in quarter-integer units
(``delta4 = 4*Delta``) so the hot loops run on plain integers.

Charge enumeration scans one box of charges with max |entry| <= B, where
B is proven to hold every charge below the dimension cutoff: on the shell
of charges with max |entry| == b, 4*Delta is at least b times its minimum
over shell 1 (see ``_enumerate_raw``), so one scan of box 1 fixes B.
Within a box, a depth-first search over the quiver's spanning tree is
pruned with exact per-subtree minimum-cost tables, which keeps quivers
with a dozen lattice dimensions tractable.  Edges that close a cycle
(every affine A_n quiver has one) are left out of the tables and added
as soon as both endpoints are chosen; matter terms are nonnegative, so
the tables stay a true lower bound on general graphs.

The search counts rather than collects: it tallies the charges it finds
by 4*Delta and one label per node.  The Hilbert series labels a node's
charge by its dressing degrees and topological charge, so a few hundred
counts stand for tens of thousands of charges and no charge list is
built; ``enumerate_charges`` labels each node by its charge instead.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
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


DEFAULT_MAX_BOUND = 64  # largest charge box the search may scan


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
    bound_reached: int  # the proven charge box: max |entry| of any charge
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
            for key in charge:
                if key not in self.index:
                    raise QuiverError(
                        f"charge given for {key!r}, which is not a gauge "
                        "or fixed node")
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


def _charge_label(i: int, c: Charge) -> Charge:
    return c


def _scan_box(prob: _Problem, b: int, thr4: int, label=_charge_label) -> Counter:
    """Counts of the charges with max |entry| <= b and delta4 <= thr4, keyed
    by ``(delta4, labels)`` where ``labels[i] = label(i, c)`` for node i's
    charge c.  With the default label, each key is one charge."""
    nodes = prob.nodes
    n = len(nodes)
    if n == 0:
        return Counter({(0, ()): 1})
    cands, nonzero, labs, local4 = [], [], [], []
    for i, nd in enumerate(nodes):
        cl = [(0,) * nd.rank] if nd.fixed else \
            dominant_charges(nd.group, b, prob.conv)
        cands.append(cl)
        nonzero.append([any(c) for c in cl])
        labs.append([label(i, c) for c in cl])
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

    counts: Counter = Counter()
    choice = [0] * n
    selected: list = [None] * n
    labels: list = [None] * n
    pre = prob.preorder
    last = n - 1

    def rec(k: int, lb: int, nz: bool):
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
            for other, ei in prob.nontree[v]:
                e = prob.edges[ei]
                ca, cb = (cv, selected[other]) if e.a == v else (selected[other], cv)
                nl += prob.edge4(e, ca, cb)
            if nl > thr4:
                continue
            labels[v] = labs[v][iv]
            if k == last:
                if nl <= 0 and (nz or nonzero[v][iv]):
                    selected[v] = cv
                    raise BadTheoryError(
                        "nonzero magnetic charge "
                        f"{tuple(selected)} has 2*Delta = {Fraction(nl, 2)} <= 0; "
                        "the monopole sum diverges")
                counts[nl, tuple(labels)] += 1
            else:
                choice[v] = iv
                selected[v] = cv
                rec(k + 1, nl, nz or nonzero[v][iv])
        selected[v] = None

    rec(0, sum(root_min.values()), False)
    return counts


def _enumerate_raw(prob: _Problem, thr4: int, max_bound: int,
                   label=_charge_label):
    """Counts of all charges with 4*Delta <= thr4 as ``_scan_box`` keys them
    with ``label``, plus the proven box bound B.

    On the product of dominant chambers, 4*Delta is continuous, positively
    homogeneous of degree 1 and linear on every cell of the arrangement of
    hyperplanes x_i = +-x_j and x_i = 0: roots, matter weights, flavors
    (at charge 0), fixed nodes and chamber walls all have that form.  On a
    face x_i = +-1 of the real unit max-norm shell, each vertex of a cell
    solves independent equations x_i +- x_j = 0, x_i = 0, x_i = +-1, so its
    coordinates lie in {-1, 0, 1}.  Hence the minimum c4 of 4*Delta over
    the real unit shell is attained on integer shell 1, and by homogeneity
    every charge on shell b has 4*Delta >= b*c4.  Box 1 holds a nonzero
    charge with 4*Delta <= 0 exactly when c4 <= 0, which the scan reports
    as a bad theory; otherwise every charge with 4*Delta <= thr4 lies in
    the box B = thr4 // c4 (B = 0 when no nonzero charge of box 1 is below
    the cutoff, since then c4 > thr4).
    """
    if thr4 < 0:
        raise ValueError("the dimension cutoff must be nonnegative")
    if max_bound < 0:
        raise ValueError("max_bound must be >= 0")
    counts = _scan_box(prob, 1, thr4)
    c4 = min((d4 for d4, vec in counts if any(map(any, vec))), default=None)
    bound = 0 if c4 is None else thr4 // c4
    if bound > max_bound:
        raise ConvergenceNotReachedError(
            f"the proven charge box is {bound}, above max_bound {max_bound}; "
            "raise max_bound")
    if bound > 1 or label is not _charge_label:
        counts = _scan_box(prob, bound, thr4, label)
    return counts, bound


def _shell_order(counts: Counter) -> list:
    """The ``(charge, delta4)`` of a charge-labelled scan, shell by shell of
    equal max |entry| and sorted within each shell."""
    keyed = sorted((max(map(abs, chain.from_iterable(vec)), default=0), vec, d4)
                   for d4, vec in counts)
    return [(vec, d4) for _, vec, d4 in keyed]


def enumerate_charges(q: Quiver, delta_max, *,
                      max_bound: int = DEFAULT_MAX_BOUND,
                      conv: Conventions = DEFAULT_CONVENTIONS) -> list:
    """All dominant charges with Delta(m) <= delta_max, deterministic order."""
    thr4 = Fraction(delta_max) * 4
    if thr4.denominator != 1:
        raise ValueError("delta_max must be a quarter-integer")
    prob = _Problem(q, conv)
    counts, _ = _enumerate_raw(prob, int(thr4), max_bound)
    ids = tuple(nd.id for nd in prob.nodes)
    return [QuiverCharge(ids, vec) for vec, _ in _shell_order(counts)]


# ---------------------------------------------------------------------------
# public conformal-dimension / dressing operations


def delta(q: Quiver, charge, conv: Conventions = DEFAULT_CONVENTIONS) -> Fraction:
    """Conformal dimension of the bare monopole of charge m (half-integer
    for unitary quivers; quarter-integers can only arise under the
    alternative orthosymplectic weight convention)."""
    prob = _Problem(q, conv)
    return Fraction(prob.delta4(prob.coerce_charge(charge)), 4)


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


def _assemble(counts: Counter, order: int, refined: tuple) -> dict:
    """Sum t^(2 Delta) P(m, t) times the monomial of the refined nodes'
    topological charges over the counts of a scan labelled by
    ``(dressing degrees, topological charge)``.  The counts are merged by
    (t-exponent, sorted dressing degrees, monomial) first, so each distinct
    term is expanded once; without refined nodes every monomial is the
    empty key."""
    merged: Counter = Counter()
    for (d4, labels), n in counts.items():
        key = tuple(sorted(d for degs, _ in labels for d in degs))
        # refined is sorted by id, so this is a canonical Laurent key.
        mono = tuple((nid, s) for i, nid in refined if (s := labels[i][1]))
        merged[d4 // 2, key, mono] += n
    terms: dict = {}
    for (te, key, mono), n in merged.items():
        for e, c in enumerate(_dressing_coeffs(key, order - te), te):
            if c:
                row = terms.setdefault(e, {})
                row[mono] = row.get(mono, 0) + n * c
    return {e: Laurent(row) for e, row in terms.items()}


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

    def label(i: int, c: Charge) -> tuple:
        nd = prob.nodes[i]
        if nd.fixed:
            return (), 0
        return (tuple(dressing_degrees(nd.group, c, prob.conv)),
                sum(c) if nd.id in request.refined else 0)

    thr4 = 2 * request.order
    counts, bound = _enumerate_raw(prob, thr4, request.max_bound, label)
    if any(d4 % 2 for d4, _ in counts):
        # Labels drop the charge; rescan to name the first offending one.
        vec, d4 = next(x for x in _shell_order(_scan_box(prob, bound, thr4))
                       if x[1] % 2)
        raise HalfOddGradingError(
            f"charge {vec} has 2*Delta = {Fraction(d4, 2)}, not an integer; "
            "the t-grading would be half-odd")
    refined = tuple((prob.index[nid], nid) for nid in sorted(request.refined))
    acc = _assemble(counts, request.order, refined)
    series = TruncatedSeries(request.order, acc,
                             frozenset(nid for _, nid in refined))
    stats = EngineStats(sum(counts.values()), bound, time.perf_counter() - t0)
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
    req = HSRequest(q, order, refined=frozenset(leaves[1:]), ungauge=leaves[0])
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


def hs_contribution_check(n: int) -> ContributionCheck:
    """Check the t^2 coefficient (n^2 + n - 2 for n >= 4, with documented
    enhancements at n = 2, 3) and count the 2n basic bouquet monopoles at
    order t^(n-1)."""
    if n < 2:
        raise ValueError("need n >= 2")
    order = max(2, n - 1)
    q = build_bouquet_quiver(n)
    leaves = bouquet_leaf_ids(n)
    req = HSRequest(q, order, ungauge=leaves[0])
    s = coulomb_hilbert_series(req)
    t2 = int(s.coefficient(2))
    ungauged = ungauge(q, leaves[0])
    prob = _Problem(ungauged, DEFAULT_CONVENTIONS)
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
