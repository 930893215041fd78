"""Quiver bookkeeping: node balance, the ADE classification of the
balanced subquiver, the global-symmetry prediction and the expected
Coulomb dimension.

Balanced gauge nodes give the simple roots of the Coulomb branch's
enhanced symmetry (Gaiotto-Witten), so ``report`` and the check suite read
the predicted symmetry off the balanced subgraph.  Nothing here is needed
to compute a Hilbert series.
"""

from __future__ import annotations

from collections import Counter, namedtuple

from .quiver import (
    DecoupledU1UnresolvedError,
    Family,
    FlavorNodeHasNoBalanceError,
    NodeKind,
    NonIntegralBalanceError,
    Quiver,
    _components,
    decoupled_u1_count,
    detect_decoupled_u1,
)


# ---------------------------------------------------------------------------
# balance


def node_balance(q: Quiver, node_id: str) -> int:
    """Excess of a gauge node's matter over the conformal amount.

    Unitary U(N): -2N + sum of adjacent dimensions.  Orthosymplectic nodes
    use the signed deviation from their balancing condition, divided by two
    so that balanced means 0 uniformly: SO(N) gives (S+2)/2 - N and USp(N)
    gives (S-2)/2 - N where S is the adjacent dimension sum.
    """
    node = q.node(node_id)
    if node.kind is NodeKind.FLAVOR:
        raise FlavorNodeHasNoBalanceError(f"flavor node {node_id!r} has no balance")
    s = sum(q.node(other).group.n for other in q.neighbors(node_id))
    fam, n = node.group.family, node.group.n
    if fam is Family.UNITARY:
        return -2 * n + s
    if fam is Family.ORTHOGONAL:
        if (s + 2) % 2:
            raise NonIntegralBalanceError(
                f"node {node_id!r}: adjacent dimension sum {s} violates SO parity")
        return (s + 2) // 2 - n
    if (s - 2) % 2:
        raise NonIntegralBalanceError(
            f"node {node_id!r}: adjacent dimension sum {s} violates USp parity")
    return (s - 2) // 2 - n


BalanceReport = namedtuple("BalanceReport", "balances balanced_ids all_balanced "
                           "minimally_unbalanced positively_balanced "
                           "has_negative_below_minus_one")


def balance_report(q: Quiver) -> BalanceReport:
    balances = {n.id: node_balance(q, n.id) for n in q.gauge_nodes}
    vals = list(balances.values())
    balanced = frozenset(i for i, b in balances.items() if b == 0)
    if not vals:
        return BalanceReport({}, frozenset(), True, False, False, False)
    mn = min(vals)
    return BalanceReport(
        balances=balances,
        balanced_ids=balanced,
        all_balanced=all(b == 0 for b in vals),
        minimally_unbalanced=(mn == -1),
        positively_balanced=(mn >= 0 and any(b > 0 for b in vals)),
        has_negative_below_minus_one=(mn < -1),
    )


# ---------------------------------------------------------------------------
# Dynkin recognition on the balanced subgraph

_E_DIMS = {6: 78, 7: 133, 8: 248}


class DynkinComponent(namedtuple("DynkinComponent", "node_ids series rank shape")):
    """A connected balanced subgraph; ``series`` is "A", "D" or "E", or None
    with ``rank`` None when the shape is unrecognized."""

    __slots__ = ()

    @property
    def recognized(self) -> bool:
        return self.series is not None

    @property
    def label(self) -> str:
        if self.recognized:
            return f"{self.series}{self.rank}"
        return f"unrecognized[{self.shape}]"

    @property
    def dimension(self) -> int | None:
        """Dimension of the simple group with this simply-laced diagram."""
        if self.series == "A":
            return self.rank * (self.rank + 2)
        if self.series == "D":
            return self.rank * (2 * self.rank - 1)
        if self.series == "E":
            return _E_DIMS[self.rank]
        return None


def _classify_component(ids: list, adjacency: dict, edge_count: int) -> DynkinComponent:
    idset = frozenset(ids)
    n = len(ids)
    degrees = {i: len(adjacency[i]) for i in ids}
    if any(len(set(adjacency[i])) != len(adjacency[i]) for i in ids):
        return DynkinComponent(idset, None, None, "multi-edge")
    if edge_count != n - 1:
        shape = f"cycle({n})" if all(d == 2 for d in degrees.values()) else "non-tree"
        return DynkinComponent(idset, None, None, shape)
    if max(degrees.values(), default=0) <= 2:
        return DynkinComponent(idset, "A", n, f"path({n})")
    centers = [i for i in ids if degrees[i] >= 3]
    if len(centers) > 1:
        return DynkinComponent(idset, None, None, "tree(multiple branch points)")
    center = centers[0]
    # Leg lengths walking away from the single branch point.
    legs = []
    for start in adjacency[center]:
        length, prev, cur = 1, center, start
        while True:
            nxt = [x for x in adjacency[cur] if x != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        legs.append(length)
    legs.sort()
    shape = f"star({','.join(map(str, legs))})"
    if len(legs) == 3:
        a, b, c = legs
        if (a, b) == (1, 1):
            return DynkinComponent(idset, "D", c + 3, shape)
        if (a, b) == (1, 2) and c in (2, 3, 4):
            return DynkinComponent(idset, "E", c + 4, shape)
    return DynkinComponent(idset, None, None, shape)


def balanced_subquiver_classification(q: Quiver) -> list:
    """Connected components of the balanced gauge subgraph, ADE-labelled
    by graph isomorphism where the shape is a simply-laced Dynkin graph."""
    balanced = balance_report(q).balanced_ids
    adjacency: dict = {i: [] for i in balanced}
    inner_edges = Counter()
    for a, b in q.edges:
        if a in balanced and b in balanced:
            adjacency[a].append(b)
            adjacency[b].append(a)
            inner_edges[frozenset((a, b))] += 1
    components = []
    for comp in _components(adjacency):
        edge_count = sum(m for pair, m in inner_edges.items() if pair <= set(comp))
        components.append(_classify_component(sorted(comp), adjacency, edge_count))
    components.sort(key=lambda c: sorted(c.node_ids))
    return components


# factors: the recognized DynkinComponents; unrecognized: the flagged ones,
# excluded from the dimension total.
SymmetryPrediction = namedtuple(
    "SymmetryPrediction", "factors unrecognized abelian_rank total_dimension")


def predict_global_symmetry(q: Quiver) -> SymmetryPrediction:
    """Dual-symmetry prediction: balanced components give the semisimple
    part, unbalanced unitary gauge nodes give abelian factors (one fewer
    per decoupled diagonal U(1), that is per flavorless all-unitary
    component).

    Component labels are graph shapes; for orthosymplectic quivers only the
    semisimple report is meaningful and the abelian rule counts unitary
    nodes alone.
    """
    components = balanced_subquiver_classification(q)
    factors = tuple(c for c in components if c.recognized)
    unknown = tuple(c for c in components if not c.recognized)
    report = balance_report(q)
    unbalanced_unitary = sum(
        1 for n in q.gauge_nodes
        if n.group.family is Family.UNITARY and report.balances[n.id] != 0)
    abelian = unbalanced_unitary - decoupled_u1_count(q)
    abelian = max(abelian, 0)
    total = sum(c.dimension for c in factors) + abelian
    return SymmetryPrediction(factors, unknown, abelian, total)


# ---------------------------------------------------------------------------
# dimension bookkeeping


def gauge_group_rank(q: Quiver) -> int:
    """Total rank of the gauge group; fixed nodes contribute 0."""
    return sum(n.group.rank for n in q.gauge_nodes)


def expected_coulomb_dimension_real(q: Quiver) -> int:
    """4 * rank of the gauge group, the expected real Coulomb dimension."""
    if detect_decoupled_u1(q):
        raise DecoupledU1UnresolvedError(
            "a diagonal U(1) decouples; ungauge one U(1) node per "
            "flavorless all-unitary component first")
    return 4 * gauge_group_rank(q)
