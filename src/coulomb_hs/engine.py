"""Monopole-formula engine.

Computes the Coulomb-branch Hilbert series of a quiver as the lattice sum

    HS(t) = sum over dominant magnetic charges m of  t^(2*Delta(m)) * P(m,t)

where Delta(m) is the conformal dimension of the bare monopole (negative
root contributions plus half the matter weight contributions) and P(m,t)
is the dressing factor built from the Casimir degrees of the residual
gauge group.  Each orthosymplectic half-hypermultiplet contributes
|x + y| + |x - y| per pair of SO and USp entries, plus |y| for the zero
weight of an odd orthogonal vector; SO(2) is the torus U(1), summed over
every integer.  Every candidate charge is dominant, where each positive
root is nonnegative, so a node's root term is -<2*rho, m> with rho its
Weyl vector: one dot product per candidate.

Conformal dimensions are handled internally in quarter units
(``delta4 = 4*Delta``) so the hot loops run on plain integers.  Every
term of 4*Delta is even (roots give -4 times a sum, unitary edges 2*mult
times one and orthosymplectic edges 2 times one), so 2*Delta is an
integer and the t-grading is never half-odd.

Every charge below the dimension cutoff lies in one box of charges with
max |entry| <= B, and B is proven: on the shell of charges with
max |entry| == b, 4*Delta is at least b times its minimum c4 over shell 1
(see ``_proven_box``).  As 4*Delta(m) = 4*Delta(m+) + 4*Delta(m-), with
m+ = max(m, 0) and m- = max(-m, 0) on unitary nodes (|m| and 0 on the
others), c4 is read off the exact minimum-cost tables of the 0/1 charges
1^c 0^(r - c) over the quiver's spanning forest, with no search.  The
same tables give each node v its floors, floor[v][c] the least 4*Delta
of a 0/1 charge with node v at 1^c 0^(r - c).  m+ is the sum of its
level sets 1[m+ >= k], k >= 1, each a 0/1 charge in the closure of the
cell of m+, on which 4*Delta is linear, so every charge m through
candidate x of node v has 4*Delta(m) >= F_v(x), the sum over k >= 1 of
floor[v][#{i : x+_i >= k}] plus the same for x-: one dot product per
candidate.  The sums over box B keep only the candidates with F_v(x) at
most the cutoff (``_candidates``), a superset of the live ones.  Only a
bad theory (c4 <= 0) lists the charges of box 1 with cutoff 0, to name
the offending charge; ``enumerate_charges`` lists the charges of box B.
Both lists come from the same tree pass as the Hilbert series (below),
with dressing 1 and one packed digit per charge entry, so that each
charge is one monomial.

Every matter term, on a tree edge, an edge that closes a cycle or a
flavor edge, comes from one kernel, the edge table, and 4*Delta of a
single charge (``delta``) is the same pipeline with one candidate per
node.  Each edge table is built row by row: its cost is a sum over pairs
of entries, so one row per parent entry value is added along a prefix
trie of the parent's candidates, one row addition per trie node.  Those
rows come from the same walk over the child's candidates, one column
addition per trie node, transposed once.  Nodes of one type share one
candidate list, and edges of one type between the same two lists share
one table per box, which nothing mutates.

The Hilbert series visits no charge.  4*Delta is a sum of node terms and
tree-edge terms and P(m,t) a product of node factors, so the sum
factorises over the spanning forest: each node sends its parent, per
parent candidate, one polynomial in the slack of 4*Delta above the
minimum-cost tables, times its dressing series and its children's
messages.  Each message is cut at the cutoff minus the least 4*Delta of
any charge through that parent candidate, which is exact, so the work
grows with the table cells times the order rather than with the number
of charges.  A candidate through which no charge is within the cutoff is
dead: no message sums over it and its dressing degrees are never
computed; a live candidate's are computed once per group and charge.
Those least totals are computed top-down from the live parent
candidates alone, since no charge through a dead parent candidate can
make its child live.  A second lane with dressing 1 counts the charges;
it runs only where the count is read (``compute_hilbert_series``), not
for the series alone (``coulomb_hilbert_series``) or the charge lists.
Integer functions of a node's charge ride along as digits of one packed
integer: the refined topological charges, or each charge read as one
number when the charges are listed.  A fixed node sits at charge 0, so
its edges are flavor edges of its gauge neighbours and it is a root of
its own with one candidate: a fixed node on a cycle opens it.  Edges that
close a cycle among gauge nodes are handled by conditioning on the
charges of their early endpoints, a cycle cutset, and running the same
pass once per assignment.

Conjugate candidates are priced once.  The monopole formula is invariant
under charge conjugation m -> -m (arXiv:1309.2657), which maps a U(r)
charge c to sigma(c), -c reversed, again dominant.  On a sum whose nodes
are all unitary, with no digit and no cycle cutset, sigma preserves every
quantity the tree pass reads: the root term -<2*rho, c>, as 2*rho is
antisymmetric under reversal; every edge term |x - y| and flavor term
|x|, as sigma negates the entries of every node at once; the residual
group, whose blocks sigma reverses, and so the dressing; and the
candidate lists, as the box, the spread filter and the floor F_v are
unchanged when x+ and x- swap, the entries of x- being weighed by the
floors' steps reversed.  So tab[sigma(ip)][sigma(iv)] = tab[ip][iv], the
node terms, minimum tables and totals agree at iv and sigma(iv), and so
do the products a node builds and the messages it sends, and each pair
of conjugate candidates is priced once (``liedata.negation``).
Bouquet(5) at K = 4 makes 40 messages, not 65, and affine E6 at K = 6
makes 82, not 153.  Off the unitary family sigma is the identity on USp,
SO(odd) and SO(4k) and is not used on SO(2) and SO(4k+2); a digit (the
topological charge or a listed charge) tells c from sigma(c), and a
cutset pins one of them.

The residual group of every charge of a U(n) or SO(2) gauge node holds
the node's center, a U(1) whose Casimir of degree 1 gives P(m,t) the same
factor 1/(1 - t^2) at every charge.  So the tree pass dresses each node
without its center, a U(1) node with dressing 1, and the packed sum is
multiplied once by (1 - t^2)^(-u), u the number of such nodes; the
messages' cuts stay exact, as that factor has no negative power of t.

Each component of the forest is rooted at its first node, except that
the refined series roots a component with no cycle at its widest
refined node (the largest rank; ties go to the first id in sorted
order).  The root's digit enters only the final sum, as one shift per
root candidate, while any other node's digit rides in every product at
each ancestor and in every message, once per parent candidate: for the
series of refined bouquet(3) at K = 12, counted without the count lane,
this cuts the message terms from 53 453 to 11 404.  Each node multiplies
its children's messages digit-free first, in ascending order of the
digits in the child's subtree, so each later factor meets a product
still narrow in the digits: 2 964 product term pairs on that run
instead of 5 997.  A component with a cycle keeps its first node, which
heads the cutset, since a root with more candidates would multiply the
passes.  The same edge type met from its other end reuses the table
already built, transposed.

The cell sum is a second exact route, for unrefined series of quivers
whose gauge nodes are all unitary (a fixed node is a flavor; cycles and
forests are allowed): the monopole formula (arXiv:1309.2657) summed cell
by cell, in the form of the T[SU(N)] Hall-Littlewood sums
(arXiv:1403.0585).  On a unitary quiver a cell is a weak ordering of
every node's entries around 0, on which 4*Delta is linear and the
dressing constant.  With r the vector of gauge ranks and every series
cut at t^K,

    HS = sum over s + z + n = r of G(s) D(z) G(n),
    G(0) = 1,  G(c) = t^w(c) / (1 - t^w(c)) * sum over 0 != k <= c of D(k) G(c - k),
    D(k) = prod over nodes v of prod_{d = 1..k_v} 1 / (1 - t^(2d)),

where the count vector s counts each node's positive entries, n its
negative ones and z its zeros, whose dressing D(z) includes the centers,
and w(c) is 2*Delta of the 0/1 charge with c_v entries 1 at node v, read
off the edge tables of the 0/1 charges.  D is separable, so the sum over
k runs one node axis at a time: the states c are visited in
lexicographic order, each axis keeps its partial sums, and G(c) joins
every axis once it is known.  On one axis D_v(k) = D_v(k - 1) / (1 -
t^(2k)), so its sum is a Horner scheme of divisions by 1 - t^(2k), each
linear in K.  The count lane is the same recursion with D = 1.  The
route runs when its estimated work, prod(r + 1) * sum(r + 1) * (K +
1)^2 / 2, is below the tree pass's, box B's table cells times its tree
passes times K plus a fixed set-up cost.  Box B is proven first either
way, which names a bad theory.  ``MAX_TABLE_CELLS`` bounds the tree
pass's tables and, for the cell sum, the about prod(r + 1) * sum(r + 1)
* (K + 1) coefficients of the series it keeps; a solve past the cell
sum's bound goes to the tree pass and its guard.  So nilcone(5) at K =
40, whose tables would need 1.7e9 cells, runs on the cells in
milliseconds.
"""

from __future__ import annotations

import time
from collections import Counter, namedtuple
from collections.abc import Mapping, Sequence
from functools import cached_property
from itertools import chain, product
from math import inf, prod
from operator import add, mul

from .liedata import (
    Charge,
    dominant_charge_count,
    dominant_charges,
    _dressing_coeffs,
    _dressing_degrees,
    negation,
    validate_charge,
    weyl_vector,
)
from .quiver import (
    DecoupledU1UnresolvedError,
    Family,
    NodeKind,
    SO,
    Quiver,
    QuiverError,
    build_bouquet_quiver,
    build_linear_nilpotent_quiver,
    decoupled_u1_count,
    ungauge,
)
from .series import Laurent, TruncatedSeries, check_order


class EngineError(QuiverError):
    """Base class for monopole-engine failures."""


class BadTheoryError(EngineError):
    """A nonzero charge with Delta <= 0 was found; the sum cannot converge."""


class UnsupportedEdgeError(EngineError):
    pass


class QuiverCharge(namedtuple("QuiverCharge", "node_ids charges")):
    """Dominant magnetic charge per gauge node (fixed nodes pinned to 0).
    Charges sort by ``(node_ids, charges)``."""

    __slots__ = ()

    def charge_of(self, node_id: str) -> Charge:
        return self.charges[self.node_ids.index(node_id)]

    def as_dict(self) -> dict:
        return dict(zip(self.node_ids, self.charges))


HSRequest = namedtuple("HSRequest", "quiver order refined ungauge",
                       defaults=(frozenset(), None))

# bound_reached is the proven charge box: max |entry| of any charge.
EngineStats = namedtuple("EngineStats", "charge_count bound_reached wall_time_s")

HSResult = namedtuple("HSResult", "series stats")


# ---------------------------------------------------------------------------
# preprocessed problem


class _ENode:
    __slots__ = ("id", "group", "rank", "fixed", "center", "flavor")

    def __init__(self, node):
        self.id = node.id
        self.group = node.group
        self.rank = node.group.rank
        self.fixed = node.kind is NodeKind.FIXED
        # A U(n) or SO(2) gauge node's center, a U(1) in the residual group
        # of every charge, dresses each charge by 1/(1 - t^2).
        self.center = not self.fixed and (
            node.group.family is Family.UNITARY or node.group == SO(2))
        self.flavor = []  # _EEdge to each flavor or fixed node, at charge 0


class _EEdge:
    """Hypermultiplet on the edge between node ``a`` and node ``b``.

    ``b`` is -1 for a flavor or fixed node, whose charge is always ``zero``."""

    __slots__ = ("a", "b", "mult", "ortho", "so_first", "so_odd", "zero")

    def __init__(self, a, b, mult, ga, gb):
        self.a, self.b, self.mult = a, b, mult
        self.ortho = {ga.family, gb.family} == {Family.ORTHOGONAL, Family.SYMPLECTIC}
        self.so_first = ga.family is Family.ORTHOGONAL
        self.so_odd = (ga if self.so_first else gb).n % 2
        self.zero = (0,) * gb.rank


class _Problem:
    def __init__(self, quiver: Quiver, preferred: Sequence[str] = ()):
        self.quiver = quiver
        self.nodes = [_ENode(n) for n in quiver.nodes if n.kind is not NodeKind.FLAVOR]
        self.index = {nd.id: i for i, nd in enumerate(self.nodes)}
        self.edges: list = []
        for (a, b), mult in sorted(Counter(quiver.edges).items()):
            na, nb = quiver.node(a), quiver.node(b)
            if na.kind is not NodeKind.GAUGE:
                na, nb = nb, na
            if nb.kind is NodeKind.GAUGE:
                e = _EEdge(self.index[a], self.index[b], mult, na.group, nb.group)
                self.edges.append(e)
            else:  # a fixed node is a flavor; between two, the edge costs 0
                e = _EEdge(self.index.get(na.id, -1), -1, mult, na.group, nb.group)
                if na.kind is NodeKind.GAUGE:
                    self.nodes[e.a].flavor.append(e)
            if e.ortho and mult > 1:
                raise UnsupportedEdgeError(
                    f"edge {a!r}-{b!r}: orthosymplectic edge multiplicity "
                    f"{mult} is not supported")
        self._build_tree([self.index[nid] for nid in preferred])

    def _build_tree(self, preferred: list):
        """Spanning forest by depth-first search.  Each component is rooted
        at its first node, except that a component with no edge outside its
        spanning tree is rooted at the first of the ``preferred`` nodes it
        holds.  A cyclic component keeps its first node, which heads its
        cycle cutset."""
        n = len(self.nodes)
        adj: list = [[] for _ in range(n)]
        for ei, e in enumerate(self.edges):
            adj[e.a].append((e.b, ei))
            adj[e.b].append((e.a, ei))
        self._search(adj, range(n))
        if preferred:
            top = [-1] * n  # the root of each node's component
            for v in self.preorder:
                top[v] = v if self.parent[v] < 0 else top[self.parent[v]]
            cyclic = {top[v] for v, late in enumerate(self.nontree) if late}
            starts = [v for v in preferred if top[v] not in cyclic]
            if starts:
                self._search(adj, starts + list(range(n)))

    def _search(self, adj: list, starts):
        """One depth-first tree from each of ``starts`` not yet reached."""
        n = len(self.nodes)
        visited = [False] * n
        self.parent = [-1] * n
        self.parent_edge = [-1] * n
        self.children: list = [[] for _ in range(n)]
        self.roots: list = []
        self.preorder: list = []
        tree_edge = [False] * len(self.edges)
        # Depth-first, with a stack of adjacency iterators in place of
        # recursion, so that a long chain of nodes cannot exhaust the stack.
        for s in starts:
            if visited[s]:
                continue
            visited[s] = True
            self.roots.append(s)
            self.preorder.append(s)
            stack = [(s, iter(adj[s]))]
            while stack:
                u, it = stack[-1]
                for v, ei in it:
                    if not visited[v]:
                        visited[v] = True
                        self.parent[v] = u
                        self.parent_edge[v] = ei
                        self.children[u].append(v)
                        tree_edge[ei] = True
                        self.preorder.append(v)
                        stack.append((v, iter(adj[v])))
                        break
                else:
                    stack.pop()
        pos = {v: k for k, v in enumerate(self.preorder)}
        # Non-tree edges, attached to whichever endpoint comes later.
        self.nontree: list = [[] for _ in range(n)]
        for ei, e in enumerate(self.edges):
            if not tree_edge[ei]:
                late, early = (e.a, e.b) if pos[e.a] > pos[e.b] else (e.b, e.a)
                self.nontree[late].append((early, ei))

    @cached_property
    def unit_tables(self) -> tuple:
        """``(cands, _box_tables(self, cands))`` over the 0/1 charges
        1^c 0^(r - c), c = 0..r, of each node (a fixed node has only 0),
        one list per rank, built once for ``_proven_box`` and ``_cell_sum``."""
        shared: dict = {}
        cands = [shared.setdefault((nd.rank, nd.fixed), [
            (1,) * c + (0,) * (nd.rank - c) for c in range(1 if nd.fixed else nd.rank + 1)])
            for nd in self.nodes]
        return cands, _box_tables(self, cands)

    @cached_property
    def floors(self) -> list:
        """``floors[v][c]``: the least 4*Delta of any 0/1 charge with node v
        at 1^c 0^(r - c), under every cycle cutset assignment, from the
        tables of ``unit_tables`` (see ``_proven_box``)."""
        cands, tables = self.unit_tables
        floors = None
        for loc, tab, lab in _cutset_assignments(self, *tables, cands):
            tot = _totals(self, tab, *_min_tables(self, loc, tab))
            # A pinned node keeps one candidate, and bounds only its count.
            tot = [tv if len(tv) == len(cl) else [tv[0] if c == lb[0] else inf for c in cl]
                   for tv, cl, lb in zip(tot, cands, lab)]
            floors = tot if floors is None else [list(map(min, f, t))
                                                 for f, t in zip(floors, tot)]
        return floors

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
                validate_charge(nd.group, c)
        return tuple(vec)


# ---------------------------------------------------------------------------
# charge enumeration


def _edge_table(prob: _Problem, e: _EEdge, p: int, cands_p: list,
                cands_v: list) -> list:
    """``tab[ip][iv]``: quarter-unit cost of edge ``e`` between candidate
    ``ip`` of node ``p`` and candidate ``iv`` of its other endpoint (for a
    flavor edge, its one charge ``e.zero``).  This is the engine's only
    definition of a matter term.

    That cost is a sum of h(x, y) over the entries x of ``ip`` and y of
    ``iv``, plus 2|y| per USp entry when the SO side is odd.  So each value
    x of a parent entry gets one row ``part[x][iv]``, the sum over the
    child's entries (with 2|x| when the parent is that USp side), and the
    parent candidates are walked as a prefix trie: one row addition per
    trie node.  The rows ``part`` come from the same walk over the child's
    candidates, adding one column ``[h(x, y) for x in xs]`` per trie node,
    and are transposed once."""
    if e.ortho:
        def h(x, y):
            return 2 * (abs(x + y) + abs(x - y))
        p_so = (p == e.a) == e.so_first
        odd_p, odd_v = 2 * e.so_odd * (not p_so), 2 * e.so_odd * p_so
    else:
        def h(x, y):
            return 2 * e.mult * abs(x - y)
        odd_p = odd_v = 0
    xs = list({x for c in cands_p for x in c})
    hcol = {y: [h(x, y) for x in xs] for y in {y for c in cands_v for y in c}}
    part = dict(zip(xs, zip(*_trie_sums(cands_v, [odd_p * abs(x) for x in xs], hcol))))
    return _trie_sums(cands_p, [odd_v * sum(map(abs, c)) for c in cands_v], part)


def _trie_sums(cands: list, base: list, part) -> list:
    """For each candidate c, ``base`` plus ``part[x]`` for every entry x of
    c, elementwise, walking the candidates as a prefix trie: one vector
    addition per trie node."""
    out: list = []
    rows, prev = [base], ()  # rows[k]: base plus the parts of prev[:k]
    for c in cands:
        k = 0
        while k < len(prev) and c[k] == prev[k]:
            k += 1
        del rows[k + 1:]
        for x in c[k:]:
            rows.append(list(map(add, rows[-1], part[x])))
        out.append(rows[-1])
        prev = c
    return out


def _table_memo(prob: _Problem):
    """``_edge_table`` with a memo, for one caller: edges of one type
    between the same two candidate lists share one table.  The key is what
    the kernel reads, the edge's kind (orthosymplectic with the SO side's
    orientation and parity, or unitary with its multiplicity) and the two
    lists, by identity; the memo holds the lists, so no identity is
    reused while it lives.  The same edge type seen from its other end
    is the transpose, which costs one pass over the cells rather than a
    sum over pairs of entries per cell.  A shared table is never mutated:
    every consumer builds new lists."""
    memo: dict = {}

    def kind(e: _EEdge, p_so: bool) -> tuple:
        return (True, p_so, e.so_odd) if e.ortho else (False, e.mult)

    def table(e: _EEdge, p: int, cands_p: list, cands_v: list) -> list:
        p_so = (p == e.a) == e.so_first
        key = kind(e, p_so), id(cands_p), id(cands_v)
        if key not in memo:
            flip = kind(e, not p_so), id(cands_v), id(cands_p)
            tab = ([list(col) for col in zip(*memo[flip][0])] if flip in memo
                   else _edge_table(prob, e, p, cands_p, cands_v))
            memo[key] = tab, cands_p, cands_v
        return memo[key][0]
    return table


# The most table cells one box of the tree pass may need, at about 20
# bytes each.  It was set above nilcone(5) at order 30 (2.6e8 cells),
# which the cell sum now takes, as it takes any box past the limit where
# its own work is smaller.
MAX_TABLE_CELLS = 300_000_000


def _box_work(prob: _Problem, b: int) -> tuple:
    """Box b's table cells and tree passes, in closed form: one cell per
    candidate (its node term) and one per pair of candidates of each edge
    between gauge nodes, and one pass per assignment of the cycle cutset
    (``_cutset_assignments``).  The whole box is counted, an upper bound
    on what the sums over it build from the lists of ``_candidates``."""
    sizes = [1 if nd.fixed else dominant_charge_count(nd.group, b) for nd in prob.nodes]
    cutset = {u for late in prob.nontree for u, _ in late}
    return (sum(sizes) + sum(sizes[e.a] * sizes[e.b] for e in prob.edges),
            prod(sizes[u] for u in cutset))


def _check_cells(prob: _Problem, b: int) -> None:
    """``EngineError`` for a box b of more than ``MAX_TABLE_CELLS`` table
    cells (``_box_work``)."""
    cells = _box_work(prob, b)[0]
    if cells > MAX_TABLE_CELLS:
        raise EngineError(f"box {b} needs {cells} table cells, more than the "
                          f"{MAX_TABLE_CELLS} allowed")


def _candidates(prob: _Problem, b: int, thr4: int | None = None) -> list:
    """Each node's dominant charges with max |entry| <= b; a fixed node has
    only charge 0.  With a cutoff ``thr4`` whose proven box is b, for a
    good theory, node v keeps only the charges x of spread <= b and floor
    F_v(x) <= thr4 (``liedata.dominant_charges`` over ``_Problem.floors``),
    since no charge through another is within the cutoff (``_proven_box``).
    Nodes of one group, fixed or not, with the same floors build one list,
    and equal lists are one object, which no consumer mutates: the table
    memo and the conjugation maps rely on it.  ``_check_cells`` counts the
    whole box before any is built, so the lists are bounded too."""
    _check_cells(prob, b)
    built: dict = {}  # (group, fixed, floors): the list
    shared: dict = {}  # (group, the list's charges): its one object
    out = []
    for nd, fl in zip(prob.nodes, prob.floors):
        key = nd.group, nd.fixed, tuple(fl)
        if key not in built:
            cl = [(0,) * nd.rank] if nd.fixed else dominant_charges(nd.group, b, fl, thr4)
            built[key] = shared.setdefault((nd.group, tuple(cl)), cl)
        out.append(built[key])
    return out


def _box_tables(prob: _Problem, cands: list):
    """The node terms ``local4`` of the candidates ``cands``, the table
    ``etab[v]`` of the tree edge from each non-root node v to its parent,
    and ``cuts``: ``(v, u, table)`` for each edge outside the spanning
    forest, from its early endpoint u to its late endpoint v.

    A node term is the root term, -4 <2*rho, c> (exact, since every
    candidate is dominant), plus one column of the flavor edges' tables.
    One table is built per edge type and pair of candidate lists, whether
    the edge is a flavor, tree or cycle-closing edge."""
    table = _table_memo(prob)
    zeros: dict = {}
    local4 = []
    for v, (nd, cl) in enumerate(zip(prob.nodes, cands)):
        rho2 = weyl_vector(nd.group)
        loc = [-4 * sum(map(mul, rho2, c)) for c in cl]
        for f in nd.flavor:
            col = [row[0] for row in table(f, v, cl, zeros.setdefault(f.zero, [f.zero]))]
            loc = list(map(add, loc, col))
        local4.append(loc)
    etab = [None if p < 0 else table(prob.edges[prob.parent_edge[v]], p, cands[p], cands[v])
            for v, p in enumerate(prob.parent)]
    cuts = [(v, u, table(prob.edges[ei], u, cands[u], cands[v]))
            for v in range(len(prob.nodes)) for u, ei in prob.nontree[v]]
    return local4, etab, cuts


def _min_tables(prob: _Problem, local4: list, etab: list):
    """Bottom-up exact minimum costs over the spanning forest.

    ``sub_cost[v][iv]`` is the least cost of v's subtree with v at candidate
    iv, ``best[v][ip]`` the least cost of that subtree plus its edge to
    the parent, with the parent at candidate ip, and ``root_min[r]`` the
    least cost of the tree rooted at r."""
    n = len(prob.nodes)
    sub_cost: list = [None] * n
    best: list = [None] * n
    for v in reversed(prob.preorder):
        sc = local4[v]
        for c in prob.children[v]:
            sc = list(map(add, sc, best[c]))
        sub_cost[v] = sc
        if prob.parent[v] >= 0:
            best[v] = [min(map(add, row, sc)) for row in etab[v]]
    root_min = {r: min(sub_cost[r]) for r in prob.roots}
    return sub_cost, best, root_min


def _totals(prob: _Problem, etab: list, sub_cost: list, best: list,
            root_min: dict, thr4: int | None = None) -> list:
    """Top-down from ``_min_tables``: ``tot[v][iv]`` is the least 4*Delta of
    any charge with node v at candidate iv.

    Given a cutoff ``thr4`` at least ``sum(root_min.values())``, node v
    reads only the rows of live parent candidates, ``tot[p][ip] <= thr4``:
    every term through ip is at least ``tot[p][ip]``, since the edge cost
    plus ``sub_cost[v][iv]`` is at least ``best[v][ip]``.  ``tot`` is then
    exact where it is at most ``thr4`` and above ``thr4`` elsewhere."""
    s0 = sum(root_min.values())
    tot: list = [None] * len(prob.nodes)
    for v in prob.preorder:
        p = prob.parent[v]
        if p < 0:
            tot[v] = [s - root_min[v] + s0 for s in sub_cost[v]]
            continue
        tab, bv = etab[v], best[v]
        keep = [ip for ip, t in enumerate(tot[p]) if thr4 is None or t <= thr4]
        rel = [tot[p][ip] - bv[ip] for ip in keep]
        tot[v] = [min(map(add, rel, col)) + s
                  for col, s in zip(zip(*[tab[ip] for ip in keep]), sub_cost[v])]
    return tot


def _cutset_assignments(prob: _Problem, local4: list, etab: list, cuts: list,
                        labels: list):
    """Condition on the charges of the cycle cutset: for each assignment of
    the early endpoints of the edges outside the spanning forest, yield the
    node terms, tree-edge tables and per-candidate ``labels`` with each
    pinned node kept at its one candidate and each such edge's cost (from
    ``cuts``, as ``_box_tables`` gives them) added to the node term of its
    late endpoint.  A forest has one assignment."""
    cutset = sorted({u for _, u, _ in cuts})
    for pins in product(*(range(len(local4[u])) for u in cutset)):
        pin = dict(zip(cutset, pins))
        loc, lab, tab = list(local4), list(labels), list(etab)
        for v, u, cost in cuts:
            loc[v] = list(map(add, loc[v], cost[pin[u]]))
        for u, iu in pin.items():
            loc[u], lab[u] = [loc[u][iu]], [lab[u][iu]]
            if prob.parent[u] >= 0:
                tab[u] = [[row[iu]] for row in tab[u]]
            for c in prob.children[u]:
                tab[c] = [tab[c][iu]]
        yield loc, tab, lab


def _delta4(prob: _Problem, vec: Sequence[Charge]) -> int:
    """4*Delta of one charge: the box tables with one candidate per node,
    under their one cutset assignment, summed over the spanning forest."""
    cands = [[c] for c in vec]
    (loc, tab, _), = _cutset_assignments(prob, *_box_tables(prob, cands), cands)
    return sum(_min_tables(prob, loc, tab)[2].values())


def _proven_box(prob: _Problem, thr4: int) -> int:
    """The proven box bound B: every charge with 4*Delta <= thr4 has
    max |entry| <= B and, at each unitary node, spread m_1 - m_r <= B.

    On the product of dominant chambers, 4*Delta is continuous, positively
    homogeneous of degree 1 and linear on every cell of the arrangement of
    hyperplanes x_i = +-x_j and x_i = 0: roots, matter weights, flavors
    (at charge 0), fixed nodes and chamber walls all have that form.  On a
    face x_i = +-1 of the real unit max-norm shell, each vertex of a cell
    solves independent equations x_i +- x_j = 0, x_i = 0, x_i = +-1, so its
    coordinates lie in {-1, 0, 1}.  Hence the minimum c4 of 4*Delta over
    the real unit shell is attained on integer shell 1, and by homogeneity
    every charge on shell b has 4*Delta >= b*c4.

    A unitary term |a - b| (a flavor or fixed entry is 0) is |a+ - b+| +
    |a- - b-|, and no SO or USp term sees the sign of one entry.  So with
    m+ the charge max(m, 0) on the unitary nodes and |m| on the others and
    m- the charge max(-m, 0) on the unitary nodes and 0 on the others, each
    sorted into its chamber, 4*Delta(m) = 4*Delta(m+) + 4*Delta(m-), which
    is at least c4 * (max m+ + max m-).  On shell 1, m+ and m- are 0/1
    charges 1^c 0^(r - c), one of them nonzero, so c4 is the least floor
    ``floors[v][c]`` with c >= 1 over every node v: the least ``tot`` of
    those charges' tables (``_Problem.unit_tables``) with node v at
    1^c 0^(r - c), under every assignment of the cycle cutset.  Box 1
    holds a nonzero charge with 4*Delta <= 0 exactly when c4 <= 0, a bad
    theory, named by the nonzero charge of box 1 with the least 4*Delta,
    ties going to the first in the order of ``enumerate_charges``;
    otherwise every charge with 4*Delta <= thr4 has max m+ + max m- <= B
    = thr4 // c4 (B = 0 when no node has a nonzero charge).  Delta is a
    half-integer, so a positive c4 is at least 2 and B <= thr4 // 2: at
    order K, thr4 = 2K and the box is at most K.
    ``_check_cells`` counts box 1 first: that count bounds the 0/1 tables,
    and a bad theory lists box 1.

    The floors bound each node's candidates too.  m+ is the sum over k >= 1
    of its level sets 1[m+ >= k], each a 0/1 charge, sorted as m+ is, in
    the closure of m+'s cell: wherever m+_i >= m+_j (entries of any nodes),
    1[m+_i >= k] >= 1[m+_j >= k], and wherever m+_i = 0 the level is 0.
    4*Delta is linear on that closed cell, so 4*Delta(m+) is the sum of the
    levels' 4*Delta, and level k costs at least ``floors[v][#{i : m+_v,i >=
    k}]``; likewise m-.  So 4*Delta(m) >= F_v(m_v) at every node v, with F_v
    as in ``liedata.dominant_charges``, and F_v(x) >= c4 * (max x+ + max
    x-), as each of those levels has a count c >= 1.  A charge within thr4
    thus passes only through candidates with F_v(x) <= thr4, whose spread
    is at most B (``_candidates``).
    """
    _check_cells(prob, 1)
    c4 = min(chain.from_iterable(fl[1:] for fl in prob.floors), default=None)
    if c4 is not None and c4 <= 0:
        d4, vec = min((d4, vec) for vec, d4 in _box_charges(prob, 1, 0).items()
                      if any(chain.from_iterable(vec)))
        raise BadTheoryError(
            f"nonzero magnetic charge {vec} has 2*Delta = {d4 // 2} <= 0; "
            "the monopole sum diverges")
    return 0 if c4 is None else thr4 // c4


def _box_charges(prob: _Problem, b: int, thr4: int, pruned: bool = False) -> dict:
    """``{charge: 4*Delta}`` for the charges with max |entry| <= b and
    4*Delta <= thr4 (with ``pruned``, over ``_candidates`` cut at thr4):
    the box sum without dressing, in which each entry of every charge is
    one balanced digit of base 2b + 1.  Node v's entries form the digit
    d(m) = sum_i m_v[i] * (2b + 1)^i, so each charge is one key of
    coefficient 1, and each node's digit names its charge."""
    base = 2 * b + 1

    def number(c: Charge) -> int:
        return sum(x * base ** i for i, x in enumerate(c))
    cands = _candidates(prob, b, thr4 if pruned else None)
    names = [{number(c): c for c in cl} for cl in cands]
    digits = [(v, number) for v in range(len(names))]
    terms, _ = _monopole_sum(prob, cands, thr4, digits, dressed=False, counted=False)
    return {tuple(map(dict.__getitem__, names, digits)): d4 for d4, digits in terms}


def enumerate_charges(q: Quiver, delta_max) -> list:
    """All dominant charges with Delta(m) <= delta_max, an int or Fraction,
    shell by shell of equal max |entry| and sorted within each shell."""
    from fractions import Fraction

    if type(delta_max) not in (int, Fraction) or delta_max < 0:  # nor bool
        raise ValueError(
            f"delta_max must be a nonnegative int or Fraction, got {delta_max!r}")
    thr4 = delta_max * 4
    if thr4.denominator != 1:
        raise ValueError("delta_max must be a quarter-integer")
    prob = _Problem(q)
    bound = _proven_box(prob, int(thr4))
    found = _box_charges(prob, bound, int(thr4), pruned=True)
    ids = tuple(nd.id for nd in prob.nodes)
    keyed = sorted((max(map(abs, chain.from_iterable(vec)), default=0), vec)
                   for vec in found)
    return [QuiverCharge(ids, vec) for _, vec in keyed]


# ---------------------------------------------------------------------------
# conformal dimension and dressing


def delta(q: Quiver, charge) -> Fraction:
    """Conformal dimension of the bare monopole of charge m, always a
    half-integer."""
    from fractions import Fraction

    prob = _Problem(q)
    return Fraction(_delta4(prob, prob.coerce_charge(charge)), 4)


# ---------------------------------------------------------------------------
# Hilbert series


def _poly_mul(a: dict, b: dict, top: int) -> dict:
    """Product of two packed polynomials, keys above ``top`` dropped."""
    out: dict = {}
    for ka, ca in a.items():
        lim = top - ka
        for kb, cb in b.items():
            if kb <= lim:
                k = ka + kb
                out[k] = out.get(k, 0) + ca * cb
    return out


def _message(fs: list, slack: list, cap: int, width: int, counted: bool):
    """The sums of ``x^slack[iv] * f[iv]`` over the candidates iv with slack
    at most ``cap``, for the main lane and, when ``counted``, the count
    lane of the pairs ``fs[iv]``, cut at ``cap``; without ``counted`` the
    count lane comes back empty."""
    out: dict = {}
    outc: dict = {}
    top = cap * width + width // 2
    for (fm, fc), s in zip(fs, slack):
        if s <= cap:
            shift = s * width
            lim = top - shift
            for k, c in fm.items():
                if k <= lim:
                    k += shift
                    out[k] = out.get(k, 0) + c
            if counted:
                lim = cap - s
                for k, c in fc.items():
                    if k <= lim:
                        k += s
                        outc[k] = outc.get(k, 0) + c
    return out, outc


def _tree_pass(prob: _Problem, thr4: int, local4: list, cands: list,
               etab: list, width: int, dress, kids: list, counted: bool,
               conj: list):
    """The monopole sum over one spanning forest, as packed polynomials in x
    with x^(4*Delta) = t^(2*Delta): the main lane keyed ``X * width + mono``
    and, when ``counted``, the count lane, with dressing 1 and no monomial,
    keyed ``X`` (else empty).  Node v multiplies its children's messages
    in the order ``kids[v]``, a permutation of ``prob.children[v]``.

    Every exponent is the least total S = sum of the root minima plus a
    slack ``etab[v][ip][iv] + sub_cost[v][iv] - best[v][ip] >= 0`` per node,
    so the messages carry X - S; the result is shifted back to X.
    ``tot[v][iv]`` is the least 4*Delta of any charge with node v at
    candidate iv, read from the rows of live parent candidates only, so
    exact where it is at most ``thr4`` and above ``thr4`` elsewhere; a term
    whose parent sits at ip can add at most ``thr4 - tot[p][ip]`` on top of
    the rest of the charge, so cutting each message there drops nothing at
    or below the cutoff.

    Only the live candidates of a node, those with ``tot[v][iv] <= thr4``,
    are priced: ``dress(v, c)`` gives the dressing degrees and packed
    monomial of node v at charge c, and the messages run over the live
    children alone.  A dead child never passes a message's cap:
    ``tot[p][ip]`` plus its slack is at least ``tot[v][iv] > thr4``.

    ``conj[v]``, when not None, is the index map of charge conjugation
    sigma on node v's candidates (``liedata.negation``), given for every
    node or for none.  Every table the pass reads is invariant under it
    (the module docstring), so the product of node v's dressing and its
    children's messages at candidate sigma(iv) is the one at iv, and its
    message to a parent candidate sigma(ip) the one to ip: each is built
    for the first of the two and shared with the other.  Each message is
    the pair of its lanes, and no consumer mutates one."""
    n = len(prob.nodes)
    parent = prob.parent
    sub_cost, best, root_min = _min_tables(prob, local4, etab)
    s0 = sum(root_min.values())
    if s0 > thr4:
        return {}, {}
    tot = _totals(prob, etab, sub_cost, best, root_min, thr4)

    half = width // 2
    dressings: dict = {}
    msg: list = [None] * n
    final, finalc = {0: 1}, {0: 1}
    for v in reversed(prob.preorder):
        live = [iv for iv, t in enumerate(tot[v]) if t <= thr4]
        sv = conj[v] or range(len(tot[v]))
        built: dict = {}  # the two lanes' products at each live candidate
        for iv in live:
            if sv[iv] < iv:  # the conjugate's, built already
                built[iv] = built[sv[iv]]
                continue
            cap = thr4 - tot[v][iv]
            dv = dress(v, cands[v][iv])
            key = dv, cap
            pm = dressings.get(key)
            if pm is None:
                degrees, mono = dv
                pm = dressings[key] = {
                    2 * j * width + mono: c
                    for j, c in enumerate(_dressing_coeffs(degrees, cap // 2)) if c}
            pc = {0: 1}
            top = cap * width + half
            for c in kids[v]:
                pm = _poly_mul(pm, msg[c][iv][0], top)
                if counted:
                    pc = _poly_mul(pc, msg[c][iv][1], cap)
            built[iv] = pm, pc
        fs = list(built.values())
        sc = [sub_cost[v][iv] for iv in live]
        p = parent[v]
        if p < 0:
            out, outc = _message(fs, [s - root_min[v] for s in sc],
                                 thr4 - s0, width, counted)
            final = _poly_mul(final, out, (thr4 - s0) * width + half)
            finalc = _poly_mul(finalc, outc, thr4 - s0)
            continue
        msg[v] = [None] * len(tot[p])
        sp = conj[p] or range(len(tot[p]))
        for ip, row in enumerate(etab[v]):
            if sp[ip] < ip:  # the conjugate's message, sent already
                msg[v][ip] = msg[v][sp[ip]]
            elif tot[p][ip] <= thr4:
                bv = best[v][ip]
                msg[v][ip] = _message(
                    fs, [row[iv] + s - bv for iv, s in zip(live, sc)],
                    thr4 - tot[p][ip], width, counted)
        for c in kids[v]:
            msg[c] = None
    return ({k + s0 * width: c for k, c in final.items()},
            {k + s0: c for k, c in finalc.items()})


def _monopole_sum(prob: _Problem, cands: list, thr4: int, digits: list, *,
                  dressed: bool, counted: bool):
    """Sum t^(2 Delta) P(m, t) times prod_j y_j^(d_j(m)) over the
    candidates ``cands`` of box b up to 4*Delta = thr4, and, when
    ``counted``, count the charges; without ``dressed``, P(m, t) is 1.
    With ``dressed``, P(m, t) leaves out the factor 1/(1 - t^2) of each
    center (``_ENode.center``), which is the same at every charge: the
    caller multiplies the sum by (1 - t^2)^(-u) once, u the number of
    centers.  Each digit ``(v, f)`` is an integer function d(m) = f(m_v)
    of node v's charge.

    Returns ``{(4*Delta, digit values): coefficient}`` and
    ``{4*Delta: charge count}``, or None in place of the count when it is
    not ``counted``.

    Monomials pack into one integer: h is the largest |f(c)| over node v's
    candidates c in box b, so digit j is a balanced digit of base 2h + 1
    below the exponent, and multiplying monomials adds keys.  The refined
    series gives each refined U(r) node one digit, its topological charge
    (h = b * r); ``_box_charges`` gives each node one, whose own digits of
    base 2b + 1 are the node's entries (h = 0 at a fixed node).  Edges
    outside the spanning forest are handled by conditioning on their
    early endpoints: for each assignment of that cutset, the pinned nodes
    keep one candidate, each such edge's cost joins the local term of its
    late endpoint, and the tree pass runs as is.  The tree pass asks
    ``dress`` for the dressing degrees of its live candidates only, and
    ``dress`` computes them once per (group, fixed, charge) for the whole
    sum.  Each node multiplies its children's messages fewest digits in
    the subtree first, by a stable sort, so a sum without digits keeps the
    forest's order.  A sum with no digit and no cycle cutset over nodes
    that are all unitary builds one charge-conjugation map per shared
    candidate list (``liedata.negation``), so the tree pass prices each
    pair of conjugate candidates once; every other sum passes no map."""
    nodes = prob.nodes
    places: list = [[] for _ in nodes]
    radix = []  # (place, base, h) of each digit
    width = 1
    for v, f in digits:
        h = max(abs(f(c)) for c in cands[v])
        places[v].append((width, f))
        radix.append((width, 2 * h + 1, h))
        width *= 2 * h + 1
    spread = list(map(len, places))  # the digits in each node's subtree
    for v in reversed(prob.preorder):
        spread[v] += sum(spread[c] for c in prob.children[v])
    kids = [sorted(cs, key=spread.__getitem__) for cs in prob.children]
    degrees: dict = {}

    def dress(v: int, c: Charge) -> tuple:
        nd = nodes[v]
        key = nd.group, nd.fixed, c
        degs = degrees.get(key)
        if degs is None:
            degs = []
            if dressed and not nd.fixed:
                degs = _dressing_degrees(nd.group, c)
                if nd.center:
                    degs.remove(1)
            degs = degrees[key] = tuple(degs)
        return degs, sum(place * f(c) for place, f in places[v]) if places[v] else 0

    # The conjugation map of each shared list, used only when every node
    # has one and no digit or cutset tells c from sigma(c).
    maps: dict = {}
    if not digits and not any(prob.nontree):
        for nd, cl in zip(nodes, cands):
            if id(cl) not in maps:
                maps[id(cl)] = negation(nd.group, cl)
    conj = [maps.get(id(cl)) for cl in cands]
    if None in conj:
        conj = [None] * len(nodes)
    main: Counter = Counter()
    count: Counter = Counter()
    for loc, tab, lab in _cutset_assignments(prob, *_box_tables(prob, cands), cands):
        terms, counts = _tree_pass(prob, thr4, loc, lab, tab, width, dress,
                                   kids, counted, conj)
        main.update(terms)
        count.update(counts)

    # Adding half the width turns each balanced digit d into d + h >= 0.
    half = width // 2
    out: dict = {}
    for k, coeff in main.items():
        x, rest = divmod(k + half, width)
        out[x, tuple(rest // place % base - h for place, base, h in radix)] = coeff
    return out, count if counted else None


def compute_hilbert_series(request: HSRequest) -> HSResult:
    """Run the monopole sum; returns the series plus reproducibility stats."""
    t0 = time.perf_counter()
    series, bound, counts = _hilbert_series(request, counted=True)
    stats = EngineStats(sum(counts.values()), bound, time.perf_counter() - t0)
    return HSResult(series, stats)


def coulomb_hilbert_series(request: HSRequest) -> TruncatedSeries:
    """The series of ``compute_hilbert_series`` alone.  No charge count is
    computed: the sum runs without its count lane."""
    return _hilbert_series(request, counted=False)[0]


def _hilbert_series(request: HSRequest, counted: bool):
    """Check ``request`` and run its monopole sum.  Returns the series, the
    proven charge box and, when ``counted``, the charge counts
    ``{4*Delta: count}`` (else None).  An unrefined request on a quiver
    whose gauge nodes are all unitary runs the cell sum when its
    estimated work (``_cell_work``) is below the tree pass's: box B's
    table cells times its tree passes times the order, plus
    ``_TREE_SETUP_WORK``.  Every other request runs the tree pass."""
    q = request.quiver
    if request.ungauge is not None:
        q = ungauge(q, request.ungauge)
    order = request.order
    check_order(order)
    for nid in request.refined:
        node = q.node(nid)
        if node.kind is not NodeKind.GAUGE or node.group.family is not Family.UNITARY:
            raise QuiverError(
                f"refined node {nid!r} must be a unitary gauge node")
    decoupled = decoupled_u1_count(q)
    if decoupled:
        raise DecoupledU1UnresolvedError(
            f"{decoupled} flavorless all-unitary component(s) each carry a "
            "diagonal U(1) that acts trivially, and the monopole sum "
            "diverges; one U(1) per such component must be ungauged "
            "(--ungauge <U(1) node id> pins one node)")
    refined = sorted(request.refined)
    # Widest digit first: a topological charge has h = b * rank.
    prob = _Problem(q, sorted(refined, key=lambda nid: -q.node(nid).group.rank))
    bound = _proven_box(prob, 2 * order)
    work = None if refined else _cell_work(prob, order)
    if work is not None and work < prod(_box_work(prob, bound)) * order + _TREE_SETUP_WORK:
        coeffs, counts = _cell_sum(prob, order, counted)
    else:
        coeffs, counts = _tree_sum(prob, order, bound, refined, counted)
    return TruncatedSeries(order, coeffs, frozenset(refined)), bound, counts


def _tree_sum(prob: _Problem, order: int, bound: int, refined: list, counted: bool):
    """The monopole sum over box ``bound`` by the tree pass: ``{exponent:
    coefficient}``, each a ``Laurent`` in the topological charges of the
    ``refined`` node ids if there are any and an int otherwise, and the
    charge counts of ``_monopole_sum``.  A refined node's digit is its
    topological charge.  The sum leaves each of its u centers undressed,
    so it is multiplied once by (1 - t^2)^(-u), whose coefficient of
    t^(2j) is the integer c_j = c_(j-1) * (u - 1 + j) / j, with c_0 = 1."""
    digits = [(prob.index[nid], sum) for nid in refined]
    terms, counts = _monopole_sum(prob, _candidates(prob, bound, 2 * order), 2 * order,
                                  digits, dressed=True, counted=counted)
    centers = sum(nd.center for nd in prob.nodes)
    factor = [1]
    for j in range(1, order // 2 + 1):
        factor.append(factor[-1] * (centers - 1 + j) // j)
    rows: dict = {}
    for (x, tops), coeff in terms.items():
        mono = tuple((nid, s) for nid, s in zip(refined, tops) if s)
        for j, e in enumerate(range(x // 2, order + 1, 2)):
            row = rows.setdefault(e, {})
            row[mono] = row.get(mono, 0) + coeff * factor[j]
    return {e: Laurent(row) if refined else row[()] for e, row in rows.items()}, counts


# The tree pass's fixed cost in the routing estimates' units (table cells
# times orders), calibrated when the cell sum landed on a grid of chains,
# bouquets, affine E6 and a flavored ring at orders 2 to 40.  The tree
# pass has since become cheaper than ``_box_work`` says, so the router can
# pick the slower route (nilcone(8) at order 8 goes to the cells); see the
# roadmap's router notes.
_TREE_SETUP_WORK = 4000


def _cell_work(prob: _Problem, order: int) -> int | None:
    """The cell sum's estimated work, its states times its axes times the
    products of two series, prod(r + 1) * sum(r + 1) * (K + 1)^2 / 2 over
    the gauge ranks r at order K; or None when a gauge node is not unitary
    or when the series it keeps, about prod(r + 1) * sum(r + 1) * (K + 1)
    coefficients, would pass ``MAX_TABLE_CELLS``."""
    if any(not nd.fixed and nd.group.family is not Family.UNITARY for nd in prob.nodes):
        return None
    sizes = [nd.rank + 1 for nd in prob.nodes if not nd.fixed]
    kept = prod(sizes) * sum(sizes) * (order + 1)
    return None if kept > MAX_TABLE_CELLS else kept * (order + 1) // 2


def _padd(a: list | None, b: list | None) -> list | None:
    """The sum of two truncated series, None standing for 0."""
    return b if a is None else a if b is None else list(map(add, a, b))


def _cell_sum(prob: _Problem, order: int, counted: bool):
    """The unrefined series of a quiver whose gauge nodes are all unitary
    as a sum over count vectors (the module docstring's cell sum):
    ``{exponent: coefficient}`` and, when ``counted``, the charge counts
    ``{4*Delta: count}`` (else None), from the same recursion with D = 1.
    Each w(c) is read off the tables of the 0/1 charges, ``unit_tables``."""
    cands, (local4, etab, cuts) = prob.unit_tables
    ranks = [len(cl) - 1 for cl in cands]
    links = [(v, p, etab[v]) for v, p in enumerate(prob.parent) if p >= 0] + cuts
    states = list(product(*[range(r + 1) for r in ranks]))  # in lexicographic order
    weight = [(sum(map(list.__getitem__, local4, c))
               + sum(tab[c[u]][c[v]] for v, u, tab in links)) // 2 for c in states]
    # Each gauge node is an axis: (node, the index step of its unit vector).
    axes = [(v, prod(r + 1 for r in ranks[v + 1:])) for v, r in enumerate(ranks) if r]
    n, top = len(states), order + 1
    # A series is a list of its order + 1 coefficients followed, when
    # counted, by the count lane's, so that one pass runs both lanes.
    lanes = range(0, top * (1 + counted), top)
    one = [int(e % top == 0) for e in range(len(lanes) * top)]
    gs = [None] * n  # G(c); None stands for 0
    fs = [None] * n  # F(c), the sum of D(k) G(c - k) over k <= c
    # parts[j][s]: G(c) plus the sums over k != 0 on the first j axes, at
    # the state s = c; axis j sums over parts[j].
    parts = [gs] + [[None] * n for _ in axes[1:]]
    for s, c in enumerate(states):
        q, qs = None, []  # the running sum of the axes' sums over k >= 1
        for (v, step), h in zip(axes, parts):
            acc = None  # D_v(k) = D_v(k - 1) / (1 - t^(2k)), by Horner
            for k in range(c[v], 0, -1):
                x = h[s - k * step]
                if x is not None:
                    acc = list(x) if acc is None else list(map(add, acc, x))
                if acc is not None:
                    for e in range(2 * k, top):
                        acc[e] += acc[e - 2 * k]
            q = _padd(q, acc)
            qs.append(q)
        w, g = weight[s], None if s else one
        if s and w < top:  # G(c) = t^w / (1 - t^w) times q
            g = []
            for o in lanes:
                g += [0] * w + q[o:o + top - w]
                for e in range(o + 2 * w, o + top):
                    g[e] += g[e - w]
        gs[s], fs[s] = g, _padd(g, q)
        for j in range(1, len(parts)):
            parts[j][s] = _padd(g, qs[j - 1])
    out = [0] * len(one)  # the sum of G(c) F(r - c) over c <= r
    for g, f in zip(gs, reversed(fs)):
        if g is None:
            continue
        for o in lanes:
            for i, x in enumerate(g[o:o + top]):
                if x:
                    out[o + i:o + top] = map(add, out[o + i:o + top],
                                             [x * y for y in f[o:o + top - i]])
    return ({e: c for e, c in enumerate(out[:top]) if c},
            {2 * e: c for e, c in enumerate(out[top:]) if c} if counted else None)


def symmetry_dimension(s: TruncatedSeries) -> int:
    """t^2 coefficient: the expected dimension of the global symmetry."""
    c = s.coefficient(2)
    if isinstance(c, Laurent):
        raise EngineError("symmetry dimension needs an unrefined series")
    return c


def bouquet_leaf_ids(n: int) -> list:
    return [f"b{i}" for i in range(1, n + 1)]


def _check_leaf_count(n) -> None:
    if type(n) is not int:  # nor bool
        raise ValueError(f"n must be an int, got {n!r}")


def refined_implosion_integral(n: int, order: int) -> TruncatedSeries:
    """Residue integral over the bouquet fugacities: the refined series of
    bouquet(n) with leaf b1 ungauged and the other n-1 leaves refined, times
    (1 - t^2)^(n-1), constant term in every fugacity.  ``n`` must be an
    int, else ``ValueError``.

    That integral is the unrefined series of the T[SU(n)] chain
    ``build_linear_nilpotent_quiver(n)``, and is computed as that series.
    On any quiver, refining r U(1) nodes, multiplying by (1 - t^2)^r and
    taking the constant terms equals ungauging those nodes: the constant
    term in z_v keeps the charges with m_v = 0, at which a U(1) dresses by
    1/(1 - t^2).  Ungauging every leaf leaves the chain with a U(n)
    flavor, whose Coulomb branch is the nilpotent cone, so the result
    matches ``nilcone_reference_hs(n, order)``: the T[SU(n)] chain check
    and no more.  The bouquet's own Coulomb branch is not tested here.
    """
    _check_leaf_count(n)
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return TruncatedSeries.one(order)
    return coulomb_hilbert_series(HSRequest(build_linear_nilpotent_quiver(n), order))


def implosion_series(n: int, order: int) -> tuple:
    """``(integral, bouquet)``: ``refined_implosion_integral(n, order)`` and
    the unrefined series of bouquet(n), leaf b1 ungauged, to t^2, the rows
    that ``implosion-check`` reads.  The bouquet, the wider quiver, is
    solved first, so a box too large for either is named by the
    bouquet's.  ``n`` must be an int, else ``ValueError``.
    """
    _check_leaf_count(n)
    check_order(order)  # before the bouquet's solve, which runs at t^2
    bouquet = coulomb_hilbert_series(HSRequest(
        build_bouquet_quiver(n), 2, ungauge=bouquet_leaf_ids(n)[0]))
    return refined_implosion_integral(n, order), bouquet
