"""Quiver data model: nodes, decoupled U(1)s, ungauging, the standard
quiver constructors and the JSON wire format.  Balance, the symmetry
prediction and the dimension bookkeeping live in ``balance``.

A quiver is a graph whose vertices carry classical compact groups.  Gauge
nodes are quotiented out, flavor nodes act as residual global symmetry,
fixed nodes are gauge U(1)s whose magnetic charge has been pinned to zero
(the realization of decoupling a trivially-acting diagonal U(1)).
"""

from __future__ import annotations

import json
from collections import namedtuple
from collections.abc import Iterable, Sequence
from enum import Enum


class QuiverError(ValueError):
    """A quiver, node, group, charge or quiver file that breaks a rule of
    the model; the message names the rule."""


class DecoupledU1UnresolvedError(QuiverError):
    pass


class Family(str, Enum):
    UNITARY = "U"
    ORTHOGONAL = "SO"
    SYMPLECTIC = "USp"


class NodeKind(str, Enum):
    GAUGE = "gauge"
    FLAVOR = "flavor"
    FIXED = "fixed"


class GaugeGroup(namedtuple("GaugeGroup", "family n")):
    """Classical compact group U(n), SO(n) or USp(n) (n even for USp)."""

    __slots__ = ()

    def __new__(cls, family: Family, n: int):
        if n < 1:
            raise QuiverError(f"group dimension must be >= 1, got {n}")
        if family is Family.SYMPLECTIC and n % 2:
            raise QuiverError(f"USp({n}) needs even n")
        return super().__new__(cls, family, n)

    @classmethod
    def _make(cls, iterable):
        # The namedtuple's own _make (and so _replace) skips __new__.
        return cls(*iterable)

    @property
    def rank(self) -> int:
        if self.family is Family.UNITARY:
            return self.n
        return self.n // 2

    def __repr__(self):
        return f"{self.family.value}({self.n})"


def U(n: int) -> GaugeGroup:
    return GaugeGroup(Family.UNITARY, n)


def SO(n: int) -> GaugeGroup:
    return GaugeGroup(Family.ORTHOGONAL, n)


def USp(n: int) -> GaugeGroup:
    return GaugeGroup(Family.SYMPLECTIC, n)


QuiverNode = namedtuple("QuiverNode", "id kind group")


def _edge_ok(a: QuiverNode, b: QuiverNode) -> bool:
    fa, fb = a.group.family, b.group.family
    if fa is Family.UNITARY and fb is Family.UNITARY:
        return True
    return {fa, fb} == {Family.ORTHOGONAL, Family.SYMPLECTIC}


class Quiver:
    """Immutable quiver: nodes plus a multiset of unordered edges."""

    __slots__ = ("nodes", "edges", "_by_id")

    def __init__(self, nodes: Iterable[QuiverNode], edges: Iterable[Sequence[str]]):
        nodes = tuple(nodes)
        by_id: dict = {}
        for i, node in enumerate(nodes):
            if node.id in by_id:
                raise QuiverError(f"nodes[{i}]: duplicate node id {node.id!r}")
            by_id[node.id] = node
        canon = []
        for i, e in enumerate(edges):
            a, b = e
            if a not in by_id:
                raise QuiverError(f"edges[{i}]: unknown node {a!r}")
            if b not in by_id:
                raise QuiverError(f"edges[{i}]: unknown node {b!r}")
            if a == b:
                raise QuiverError(
                    f"edges[{i}]: self-loop on {a!r} (adjoint matter unsupported)")
            na, nb = by_id[a], by_id[b]
            if na.kind is NodeKind.FLAVOR and nb.kind is NodeKind.FLAVOR:
                raise QuiverError(
                    f"edges[{i}]: edge {a!r}-{b!r} joins two flavor nodes")
            if not _edge_ok(na, nb):
                raise QuiverError(
                    f"edges[{i}]: edge {a!r}-{b!r} mixes group families "
                    f"{na.group.family.value} and {nb.group.family.value}")
            canon.append(tuple(sorted((a, b))))
        self.nodes = nodes
        self.edges = tuple(sorted(canon))
        self._by_id = by_id

    def node(self, node_id: str) -> QuiverNode:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise QuiverError(f"no node {node_id!r}") from None

    def has_node(self, node_id: str) -> bool:
        return node_id in self._by_id

    @property
    def gauge_nodes(self) -> tuple:
        return tuple(n for n in self.nodes if n.kind is NodeKind.GAUGE)

    @property
    def fixed_nodes(self) -> tuple:
        return tuple(n for n in self.nodes if n.kind is NodeKind.FIXED)

    @property
    def flavor_nodes(self) -> tuple:
        return tuple(n for n in self.nodes if n.kind is NodeKind.FLAVOR)

    def neighbors(self, node_id: str) -> list:
        """Neighbor ids with edge multiplicity (repeats per parallel edge)."""
        self.node(node_id)
        out = []
        for a, b in self.edges:
            if a == node_id:
                out.append(b)
            elif b == node_id:
                out.append(a)
        return out

    def __eq__(self, other):
        if not isinstance(other, Quiver):
            return NotImplemented
        return self.nodes == other.nodes and self.edges == other.edges

    def __repr__(self):
        return f"Quiver(nodes={len(self.nodes)}, edges={len(self.edges)})"


# ---------------------------------------------------------------------------
# decoupled U(1)s


def _components(adjacency: dict) -> list:
    """The vertex lists of the connected components of an adjacency map."""
    seen: set = set()
    out = []
    for root in sorted(adjacency):
        if root in seen:
            continue
        stack, comp = [root], []
        seen.add(root)
        while stack:
            cur = stack.pop()
            comp.append(cur)
            for nxt in adjacency[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        out.append(comp)
    return out


def decoupled_u1_count(q: Quiver) -> int:
    """The number of trivially-acting diagonal U(1)s: one per connected
    component of the quiver that is all unitary gauge nodes, with no
    flavor (and no already-fixed) node.  The conformal dimension is
    invariant under each such component's diagonal magnetic shift, so the
    monopole sum diverges unless one U(1) node per component is
    ungauged."""
    adjacency: dict = {n.id: [] for n in q.nodes}
    for a, b in q.edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    return sum(all(q.node(i).kind is NodeKind.GAUGE
                   and q.node(i).group.family is Family.UNITARY for i in comp)
               for comp in _components(adjacency))


def detect_decoupled_u1(q: Quiver) -> bool:
    """True when some diagonal U(1) acts trivially (see
    ``decoupled_u1_count``)."""
    return decoupled_u1_count(q) > 0


# ---------------------------------------------------------------------------
# ungauging


def ungauge(q: Quiver, node_id: str) -> Quiver:
    """Pin an abelian gauge node: its charge is fixed to 0 and it loses its
    dressing factor and fugacity, while its edges keep contributing matter."""
    node = q.node(node_id)
    if node.kind is not NodeKind.GAUGE or node.group.family is not Family.UNITARY \
            or node.group.n != 1:
        raise QuiverError(f"node {node_id!r} is not a U(1) gauge node")
    nodes = tuple(QuiverNode(n.id, NodeKind.FIXED, n.group) if n.id == node_id else n
                  for n in q.nodes)
    return Quiver(nodes, q.edges)


# ---------------------------------------------------------------------------
# constructors


def build_linear_nilpotent_quiver(n: int) -> Quiver:
    """Gauge chain U(1)-U(2)-...-U(n-1) ending on an n-dimensional flavor
    node; its Coulomb branch is the nilpotent cone of type A_{n-1}."""
    if n < 2:
        raise QuiverError("need n >= 2")
    nodes = [QuiverNode(f"g{i}", NodeKind.GAUGE, U(i)) for i in range(1, n)]
    nodes.append(QuiverNode("f", NodeKind.FLAVOR, U(n)))
    edges = [(f"g{i}", f"g{i+1}") for i in range(1, n - 1)]
    edges.append((f"g{n-1}", "f"))
    return Quiver(nodes, edges)


def bouquet_replace(q: Quiver, flavor_id: str, k: int) -> Quiver:
    """Replace a dimension-k flavor node by a bouquet of k U(1) gauge
    nodes, each attached by one edge to the flavor node's unique neighbor.
    The neighbor's adjacency sum is unchanged, so every surviving gauge
    node keeps its balance."""
    node = q.node(flavor_id)
    if node.kind is not NodeKind.FLAVOR:
        raise QuiverError(f"node {flavor_id!r} is not a flavor node")
    if node.group.n != k:
        raise QuiverError(
            f"flavor node {flavor_id!r} has dimension {node.group.n}, not {k}")
    attached = q.neighbors(flavor_id)
    if len(attached) != 1:
        raise QuiverError(
            f"flavor node {flavor_id!r} must have exactly one incident edge, "
            f"found {len(attached)}")
    anchor = attached[0]
    prefix = "b"
    if any(q.has_node(f"{prefix}{i}") for i in range(1, k + 1)):
        prefix = f"{flavor_id}_b"
    nodes = [n for n in q.nodes if n.id != flavor_id]
    edges = [e for e in q.edges if flavor_id not in e]
    for i in range(1, k + 1):
        nodes.append(QuiverNode(f"{prefix}{i}", NodeKind.GAUGE, U(1)))
        edges.append((anchor, f"{prefix}{i}"))
    return Quiver(nodes, edges)


def build_bouquet_quiver(n: int) -> Quiver:
    """Nilpotent-cone chain with the flavor node traded for n U(1) leaves."""
    return bouquet_replace(build_linear_nilpotent_quiver(n), "f", n)


def build_partial_implosion_quiver(n: int, partition: Sequence[int]) -> Quiver:
    """Chain U(1)..U(n-1) with one descending leg U(n_i)-...-U(1) per part,
    attached at U(n-1) via the U(n_i) end."""
    parts = list(partition)
    if any(p < 1 for p in parts) or sum(parts) != n:
        raise QuiverError(f"partition {parts} does not sum to {n} with positive parts")
    if n < 2:
        raise QuiverError("need n >= 2")
    nodes = [QuiverNode(f"g{i}", NodeKind.GAUGE, U(i)) for i in range(1, n)]
    edges = [(f"g{i}", f"g{i+1}") for i in range(1, n - 1)]
    for leg, p in enumerate(parts, start=1):
        prev = f"g{n-1}"
        for j in range(p, 0, -1):
            nid = f"l{leg}_{j}"
            nodes.append(QuiverNode(nid, NodeKind.GAUGE, U(j)))
            edges.append((prev, nid))
            prev = nid
    return Quiver(nodes, edges)


def build_dn_implosion_quiver(n: int, with_flavor: bool = False) -> Quiver:
    """Alternating chain SO(2)-USp(2)-SO(4)-...-USp(2n-2), terminated either
    by a bouquet of n SO(2) leaves (default) or by an SO(2n) flavor node."""
    if n < 2:
        raise QuiverError("need n >= 2")
    nodes = []
    for k in range(1, 2 * n - 1):
        group = SO(k + 1) if k % 2 else USp(k)
        nodes.append(QuiverNode(f"c{k}", NodeKind.GAUGE, group))
    edges = [(f"c{k}", f"c{k+1}") for k in range(1, 2 * n - 2)]
    tail = f"c{2*n-2}"
    if with_flavor:
        nodes.append(QuiverNode("f", NodeKind.FLAVOR, SO(2 * n)))
        edges.append((tail, "f"))
    else:
        for i in range(1, n + 1):
            nodes.append(QuiverNode(f"b{i}", NodeKind.GAUGE, SO(2)))
            edges.append((tail, f"b{i}"))
    return Quiver(nodes, edges)


# ---------------------------------------------------------------------------
# JSON wire format


def quiver_to_json(q: Quiver) -> dict:
    return {
        "nodes": [{"id": n.id, "kind": n.kind.value,
                   "group": {"family": n.group.family.value, "n": n.group.n}}
                  for n in q.nodes],
        "edges": [list(e) for e in q.edges],
    }


_GROUP_FORM = '{"family": ..., "n": ...}'
_NODE_FORM = '{"id": ..., "kind": ..., "group": ' + _GROUP_FORM + "}"


def _json_object(value, keys: tuple, form: str, path: str) -> dict:
    """``value`` if it is a JSON object holding every key of ``keys``; the
    error names ``path`` and the expected ``form``."""
    if not isinstance(value, dict):
        raise QuiverError(f"{path}: expected an object {form}, got {value!r}")
    for key in keys:
        if key not in value:
            raise QuiverError(f'{path}: missing "{key}"; expected {form}')
    return value


def quiver_from_json(obj: dict) -> Quiver:
    if not isinstance(obj, dict) or "nodes" not in obj:
        raise QuiverError("quiver JSON must be an object with 'nodes'")
    for key in ("nodes", "edges"):
        if not isinstance(obj.get(key, []), list):
            raise QuiverError(f"{key}: expected a list")
    nodes = []
    for i, spec in enumerate(obj["nodes"]):
        spec = _json_object(spec, ("id", "kind", "group"), _NODE_FORM, f"nodes[{i}]")
        group = _json_object(spec["group"], ("family", "n"), _GROUP_FORM,
                             f"nodes[{i}].group")
        node_id, n = spec["id"], group["n"]
        try:
            kind, family = NodeKind(spec["kind"]), Family(group["family"])
        except ValueError as exc:  # the message names the enum
            raise QuiverError(f"nodes[{i}]: {exc}") from None
        if not isinstance(node_id, str):
            raise QuiverError(f"nodes[{i}].id: expected a string, got {node_id!r}")
        if type(n) is not int:  # bool is not a group dimension either
            raise QuiverError(f"nodes[{i}].group.n: expected an integer, got {n!r}")
        try:
            nodes.append(QuiverNode(node_id, kind, GaugeGroup(family, n)))
        except QuiverError as exc:
            raise QuiverError(f"nodes[{i}]: {exc}") from None
    edges = []
    for i, e in enumerate(obj.get("edges", [])):
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise QuiverError(f"edges[{i}]: expected a pair of node ids")
        for j, end in enumerate(e):
            if not isinstance(end, str):
                raise QuiverError(f"edges[{i}][{j}]: expected a string, got {end!r}")
        edges.append(tuple(e))
    return Quiver(nodes, edges)


def load_quiver(path: str) -> Quiver:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise QuiverError(f"{path}: invalid JSON: {exc}") from None
    return quiver_from_json(obj)

