"""Brute-force reference for the monopole formula, for tests only.

Built from ``liedata``, the quiver data model and ``series`` arithmetic
alone, with its own matter weights, so it shares no code with the
engine's tree pass or its quarter-unit kernels:

    Delta(m) = -sum |alpha(m)| over positive roots of every gauge node
               + 1/2 * sum over edges (with multiplicity) of
                 sum weight * |rho(m)| over the edge's matter weights

and the Hilbert series is the unpruned sum of t^(2 Delta(m)) P(m, t) over
every dominant charge in a box (``hs_ref``), whose charges with their
4*Delta ``charges_ref`` lists.  Also the Weyl orbits and positive-root
counts that the Lie-data tests check against, the positive roots
evaluated one by one (``positive_root_values``), and the dressing
degrees by way of the residual stabilizer's groups
(``dressing_degrees_ref``), and Kostant's refined Hilbert series of the
nilpotent cone (``kostant_nilcone_series``).

For quivers whose gauge nodes are all unitary, a second oracle sums the
monopole formula cell by cell over count vectors (``cell_sum_ref``),
refined by topological charges or not, with each cell's weight read off
the counts alone (``cell_weight``), so it reaches orders that no box sum
can.
"""

from collections import Counter
from fractions import Fraction
from itertools import permutations, product

from coulomb_hs.liedata import casimir_degrees, dominant_charges, validate_charge
from coulomb_hs.quiver import Family, GaugeGroup, NodeKind
from coulomb_hs.series import Laurent, TruncatedSeries, expand_inverse, one_minus_power

# The pair weight of the orthosymplectic half-hypermultiplet that the
# monopole formula uses; 1/2 is the rejected alternative, kept here as
# evidence that it makes the D-type implosion quivers diverge.
PAIR_WEIGHT = Fraction(1)
HALF_PAIR_WEIGHT = Fraction(1, 2)


def positive_root_values(g: GaugeGroup, m: tuple) -> list:
    """Multiset {|alpha(m)|} over the positive roots of g, for a dominant
    charge m."""
    validate_charge(g, m)
    m = tuple(m)
    r = g.rank
    out: list = []
    if g.family is Family.UNITARY:
        out.extend(abs(m[i] - m[j]) for i in range(r) for j in range(i + 1, r))
        return out
    for i in range(r):
        for j in range(i + 1, r):
            out.append(abs(m[i] - m[j]))
            out.append(abs(m[i] + m[j]))
    if g.family is Family.SYMPLECTIC:
        out.extend(abs(2 * x) for x in m)
    elif g.n % 2:
        out.extend(abs(x) for x in m)
    return out


def positive_root_count(g) -> int:
    r = g.rank
    if g.family is Family.UNITARY:
        return r * (r - 1) // 2
    if g.family is Family.SYMPLECTIC or g.n % 2:
        return r * r
    return r * (r - 1)


def weyl_orbit(g, m) -> set:
    """Full Weyl orbit of a charge (brute force; meant for small ranks)."""
    m = tuple(m)
    r = g.rank
    orbit: set = set()
    if g.family is Family.UNITARY:
        return {tuple(p) for p in permutations(m)}
    for p in permutations(m):
        for signs in range(1 << r):
            flips = [(-1) ** ((signs >> i) & 1) for i in range(r)]
            if g.family is Family.ORTHOGONAL and g.n % 2 == 0:
                if sum((signs >> i) & 1 for i in range(r)) % 2:
                    continue  # D-series flips signs in pairs only
            orbit.add(tuple(f * x for f, x in zip(flips, p)))
    return orbit


def dressing_degrees_ref(g, m) -> list:
    """Casimir degrees of the residual stabilizer of the dominant charge m,
    group by group: U(N) keeps one U(k) per distinct entry, and an
    orthosymplectic group an SO/USp block on its zero entries (none for
    SO(1)) and one U(k) per distinct nonzero |entry|, in descending order
    of the value."""
    if g.family is Family.UNITARY:
        pieces = [GaugeGroup(Family.UNITARY, k)
                  for _, k in sorted(Counter(m).items(), reverse=True)]
    else:
        zeros = list(m).count(0)
        pieces = [GaugeGroup(g.family, 2 * zeros + g.n % 2)] if zeros else []
        pieces += [GaugeGroup(Family.UNITARY, k) for _, k in
                   sorted(Counter(abs(x) for x in m if x).items(), reverse=True)]
    return [d for piece in pieces for d in casimir_degrees(piece)]


def matter_weight_values(ga, ma, gb, mb, pair_weight=PAIR_WEIGHT) -> list:
    """Weighted |weight(m)| values of the hypermultiplet on one edge.

    Unitary bifundamental: |m_i - n_j| with weight 1 each.  Orthosymplectic
    (vector x fundamental half-hypermultiplet): the sign-reduced values
    |m_i + n_j| and |m_i - n_j|, plus |n_j| for the zero weight of an odd
    orthogonal vector, each carrying ``pair_weight``.
    Returns (value, weight) pairs.
    """
    fa, fb = ga.family, gb.family
    if fa is Family.UNITARY and fb is Family.UNITARY:
        return [(abs(x - y), Fraction(1)) for x in ma for y in mb]
    if {fa, fb} != {Family.ORTHOGONAL, Family.SYMPLECTIC}:
        raise ValueError(f"edge mixes families {fa.value} and {fb.value}")
    if fa is Family.ORTHOGONAL:
        so_group, so, sp = ga, tuple(ma), tuple(mb)
    else:
        so_group, so, sp = gb, tuple(mb), tuple(ma)
    out = []
    for x in so:
        for y in sp:
            out.append((abs(x + y), pair_weight))
            out.append((abs(x - y), pair_weight))
    if so_group.n % 2:
        out.extend((abs(y), pair_weight) for y in sp)
    return out


def charge_of(node, charge: dict) -> tuple:
    """The charge of ``node``: flavor and fixed nodes sit at zero."""
    if node.kind is NodeKind.GAUGE:
        return tuple(charge[node.id])
    return (0,) * node.group.rank


def root_term(group, c) -> int:
    """Minus the sum of |alpha(m)| over the positive roots of one node."""
    return -sum(positive_root_values(group, c))


def matter_term(ga, ca, gb, cb, pair_weight=PAIR_WEIGHT) -> Fraction:
    """Half the weighted sum of |rho(m)| over one edge's matter weights."""
    return Fraction(1, 2) * sum(w * v for v, w in
                                matter_weight_values(ga, ca, gb, cb, pair_weight))


def quarter_units(x: Fraction) -> int:
    """4 x, which must be an integer."""
    assert (4 * x).denominator == 1, x
    return int(4 * x)


def delta_ref(q, charge: dict, pair_weight=PAIR_WEIGHT) -> Fraction:
    """Delta(m) for a dict of gauge-node charges: the root terms of the
    gauge nodes plus the matter terms of the edges."""
    d = 0
    for node in q.gauge_nodes:
        d += root_term(node.group, charge_of(node, charge))
    for a, b in q.edges:  # a repeated edge is listed once per multiplicity
        na, nb = q.node(a), q.node(b)
        d += matter_term(na.group, charge_of(na, charge), nb.group,
                         charge_of(nb, charge), pair_weight)
    return Fraction(d)


def shell_min_ref(q, b: int, pair_weight=PAIR_WEIGHT):
    """The least Delta over the dominant charges with max |entry| == b,
    or None when shell b holds no charge."""
    gauge = q.gauge_nodes
    return min((delta_ref(q, dict(zip((n.id for n in gauge), combo)), pair_weight)
                for combo in product(*(dominant_charges(n.group, b)
                                       for n in gauge))
                if max((abs(x) for c in combo for x in c), default=0) == b),
               default=None)


def charges_ref(q, order: int, bound: int) -> dict:
    """{charge: 4*Delta} for the dominant charges with max |entry| <= bound
    and 2*Delta <= order, each charge a tuple over ``q.gauge_nodes``.

    Delta is as in delta_ref, with node groups and edge endpoints resolved
    once and each term (in quarter units) cached by the charges it depends
    on: that makes a box affordable without changing what is summed."""
    gauge = q.gauge_nodes
    slot = {n.id: k for k, n in enumerate(gauge)}
    cands = [dominant_charges(n.group, bound) for n in gauge]
    root = [{c: 4 * root_term(n.group, c) for c in cl} for n, cl in zip(gauge, cands)]
    ends = []
    for a, b in q.edges:  # a repeated edge is listed once per multiplicity
        na, nb = q.node(a), q.node(b)
        ends.append((na.group, slot.get(a), (0,) * na.group.rank,
                     nb.group, slot.get(b), (0,) * nb.group.rank, {}))
    out = {}
    for combo in product(*cands):
        d4 = sum(r[c] for r, c in zip(root, combo))
        for ga, ia, za, gb, ib, zb, cache in ends:
            ca = za if ia is None else combo[ia]
            cb = zb if ib is None else combo[ib]
            m = cache.get((ca, cb))
            if m is None:
                m = cache[ca, cb] = quarter_units(matter_term(ga, ca, gb, cb))
            d4 += m
        if d4 <= 2 * order:
            out[combo] = d4
    return out


def cell_weight(q, counts: dict) -> int:
    """w(c), 2*Delta of the 0/1 charge that sets the top c_v entries of
    each gauge node v to 1, from the counts alone: a node term
    f_v c_v - 2 c_v (r_v - c_v), with every flavor or pinned neighbour
    counted in f_v, plus c_u (r_v - c_v) + c_v (r_u - c_u) per edge
    between gauge nodes, once per multiplicity."""
    rank = {nd.id: nd.group.n for nd in q.gauge_nodes}
    w = sum(-2 * c * (rank[v] - c) for v, c in counts.items())
    for a, b in q.edges:
        if a in rank and b in rank:
            w += counts[a] * (rank[b] - counts[b]) + counts[b] * (rank[a] - counts[a])
        elif a in rank or b in rank:
            v, f = (a, b) if a in rank else (b, a)
            w += q.node(f).group.n * counts[v]
    return w


def cell_sum_ref(q, order: int, dressed: bool = True, refined=None) -> list:
    """Coefficients of t^0..t^order of the Hilbert series of a good quiver
    whose gauge nodes are all unitary, as the monopole formula summed cell
    by cell (arXiv:1309.2657, 1403.0585):

        HS = sum over s + z + n = r of G+(s) D(z) G-(n),
        G(0) = 1,  G+-(c) = T+-(c) * sum over 0 != k <= c of D(k) G+-(c - k),
        T+-(c) = t^w(c) z^(+-c) / (1 - t^w(c) z^(+-c)),
        D(k) = prod over gauge nodes v of prod_{d = 1..k_v} 1 / (1 - t^(2d)),

    over the count vectors of the gauge ranks r, with w(c) =
    ``cell_weight``: s counts each node's positive entries, z its zeros
    and n its negative ones.  z^c is the product of z_v^(c_v) over a set
    of ``refined`` gauge node ids, each z_v the fugacity of node v's
    topological charge, so that each coefficient is a map as in ``hs_ref``;
    without ``refined``, z = 1 and each coefficient is an integer.  Every
    sum runs over all count vectors, one product at a time.  Without
    ``dressed``, D = 1 and the coefficient of t^e counts the charges with
    2*Delta = e."""
    gauge = q.gauge_nodes
    ids = [nd.id for nd in gauge]
    ranks = [nd.group.n for nd in gauge]
    tops = [ids.index(i) for i in sorted(refined or ())]
    plain = (0,) * len(tops)

    # A series is a Counter {(exponent of t, exponents of the z_v): coefficient}.
    def mul(a, b):
        out = Counter()
        for (e, x), u in a.items():
            for (f, y), v in b.items():
                if e + f <= order:
                    out[e + f, tuple(i + j for i, j in zip(x, y))] += u * v
        return out

    def geometric(w, z, start):  # sum over j >= start of (t^w z)^j
        return Counter({(j * w, tuple(j * x for x in z)): 1
                        for j in range(start, order // w + 1)})

    one = Counter({(0, plain): 1})
    dressings = {}

    def dressing(k):
        if k not in dressings:
            out = one
            for kv in k if dressed else ():
                for d in range(1, kv + 1):
                    out = mul(out, geometric(2 * d, plain, 0))
            dressings[k] = out
        return dressings[k]

    states = list(product(*(range(r + 1) for r in ranks)))
    weight = {}
    for c in states[1:]:
        w = weight[c] = cell_weight(q, dict(zip(ids, c)))
        if w <= 0:
            raise ValueError(f"count vector {c} has w = {w} <= 0: a bad theory")

    def g_sums(sign):
        g = {}
        for c in states:
            if not any(c):
                g[c] = one
                continue
            acc = Counter()
            for k in product(*(range(x + 1) for x in c)):
                if any(k):
                    acc.update(mul(dressing(k), g[tuple(x - y for x, y in zip(c, k))]))
            g[c] = mul(geometric(weight[c], [sign * c[i] for i in tops], 1), acc)
        return g

    plus, minus = g_sums(1), g_sums(-1)
    out = Counter()
    for s in states:
        for n in states:
            z = tuple(r - a - b for r, a, b in zip(ranks, s, n))
            if min(z, default=0) >= 0:
                out.update(mul(mul(plus[s], dressing(z)), minus[n]))
    if refined is None:
        return [out[e, ()] for e in range(order + 1)]
    return [{x: v for (f, x), v in out.items() if f == e and v} for e in range(order + 1)]


def hs_ref(q, order: int, bound: int, refined=None) -> list:
    """Coefficients of t^0..t^order, summed over every dominant charge with
    max |entry| <= bound.

    With a set of ``refined`` gauge node ids, each coefficient is instead a
    map from the tuple of their topological charges (the sum of the node's
    charge entries, ids in sorted order) to the count of terms carrying it.
    """
    return series_ref(q, order, charges_ref(q, order, bound), refined)


def series_ref(q, order: int, charges: dict, refined=None) -> list:
    """``hs_ref`` summed over the ``charges_ref`` dict ``charges``."""
    gauge = q.gauge_nodes
    slot = {n.id: k for k, n in enumerate(gauge)}
    tops = [slot[i] for i in sorted(refined or ())]
    degrees = [{} for _ in gauge]  # each node's dressing degrees, by charge
    acc = [Counter() for _ in range(order + 1)]
    for combo, d4 in charges.items():
        assert d4 % 2 == 0, "half-odd t-grading"
        te = d4 // 2
        top = tuple(sum(combo[k]) for k in tops)
        dress = [0] * (order + 1)
        dress[0] = 1
        for n, deg, c in zip(gauge, degrees, combo):
            if c not in deg:
                deg[c] = dressing_degrees_ref(n.group, c)
            for d in deg[c]:
                for e in range(2 * d, order + 1):
                    dress[e] += dress[e - 2 * d]
        for e in range(order + 1 - te):
            acc[te + e][top] += dress[e]
    if refined is None:
        return [c[()] for c in acc]
    return [{k: v for k, v in c.items() if v} for c in acc]


def topological_counts(c, ids) -> dict:
    """An engine coefficient in the refined form of ``hs_ref``:
    {charges of the ids, in order: count}."""
    terms = getattr(c, "terms", {(): c})  # a Laurent, or a plain integer
    out = {}
    for key, v in terms.items():
        exps = dict(key)
        assert 0 not in exps.values() and set(exps) <= set(ids), key
        out[tuple(exps.get(i, 0) for i in ids)] = v
    return {k: v for k, v in out.items() if v}


def kostant_nilcone_series(n: int, order: int) -> TruncatedSeries:
    """The nilpotent cone of sl(n) refined by its Cartan torus, to t^order:

        prod_{i=2..n} (1 - t^(2i)) * PE[(n - 1 + sum_alpha z^alpha) t^2]

    over the roots alpha = e_i - e_j (i != j) of sl(n), with z_i the
    fugacity of gauge node g{i} of ``build_linear_nilpotent_quiver(n)``, so
    that alpha is z_i ... z_{j-1} for i < j and its inverse for i > j."""
    s = TruncatedSeries(order, {0: 1}, frozenset(f"g{i}" for i in range(1, n)))
    for i in range(2, n + 1):
        s = s * one_minus_power(2 * i, order)
    for _ in range(n - 1):  # the Cartan part, PE[(n - 1) t^2]
        s = s * expand_inverse(2, order)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for sign in (1, -1):  # PE[z^alpha t^2] = sum_k z^(k alpha) t^(2k)
                s = s * TruncatedSeries(order, {
                    2 * k: Laurent.monomial({f"g{m}": sign * k for m in range(i, j)})
                    for k in range(order // 2 + 1)})
    return s
