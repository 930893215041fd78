"""Brute-force reference for the monopole formula, for tests only.

Built from ``liedata`` and the quiver data model alone, so it shares no
code with the engine's pruned search or its quarter-unit kernels:

    Delta(m) = -sum |alpha(m)| over positive roots of every gauge node
               + 1/2 * sum over edges (with multiplicity) of
                 sum weight * |rho(m)| over the edge's matter weights

and the Hilbert series is the unpruned sum of t^(2 Delta(m)) P(m, t) over
every dominant charge in a box.
"""

from fractions import Fraction
from itertools import product

from coulomb_hs.liedata import (
    DEFAULT_CONVENTIONS,
    dominant_charges,
    dressing_degrees,
    matter_weight_values,
    positive_root_values,
)
from coulomb_hs.quiver import NodeKind


def charge_of(node, charge: dict) -> tuple:
    """The charge of ``node``: flavor and fixed nodes sit at zero."""
    if node.kind is NodeKind.GAUGE:
        return tuple(charge[node.id])
    return (0,) * node.group.rank


def delta_ref(q, charge: dict, conv=DEFAULT_CONVENTIONS) -> Fraction:
    """Delta(m) for a dict of gauge-node charges."""
    d = Fraction(0)
    for node in q.gauge_nodes:
        d -= sum(positive_root_values(node.group, charge_of(node, charge)))
    for a, b in q.edges:  # a repeated edge is listed once per multiplicity
        na, nb = q.node(a), q.node(b)
        weights = matter_weight_values(na.group, charge_of(na, charge),
                                       nb.group, charge_of(nb, charge), conv)
        d += Fraction(1, 2) * sum(w * v for v, w in weights)
    return d


def hs_ref(q, order: int, bound: int, conv=DEFAULT_CONVENTIONS) -> list:
    """Coefficients of t^0..t^order, summed over every dominant charge with
    max |entry| <= bound."""
    gauge = q.gauge_nodes
    acc = [0] * (order + 1)
    for combo in product(*(dominant_charges(n.group, bound, conv) for n in gauge)):
        charge = {n.id: c for n, c in zip(gauge, combo)}
        two_delta = 2 * delta_ref(q, charge, conv)
        assert two_delta.denominator == 1, "half-odd t-grading"
        te = int(two_delta)
        if te > order:
            continue
        dress = [0] * (order + 1)
        dress[0] = 1
        for n in gauge:
            for d in dressing_degrees(n.group, charge[n.id], conv):
                for e in range(2 * d, order + 1):
                    dress[e] += dress[e - 2 * d]
        for e in range(order + 1 - te):
            acc[te + e] += dress[e]
    return acc
