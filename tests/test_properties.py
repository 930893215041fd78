"""Property test: the pruned box search against the brute-force box sum on
small random quivers."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from coulomb_hs.engine import (
    BadTheoryError,
    HalfOddGradingError,
    HSRequest,
    compute_hilbert_series,
    enumerate_charges,
)
from coulomb_hs.liedata import Conventions, HALF_PAIR_WEIGHT
from coulomb_hs.quiver import (
    Family,
    NodeKind,
    Quiver,
    QuiverNode,
    SO,
    U,
    USp,
    detect_decoupled_u1,
    ungauge,
)

from brute import hs_ref, shell_min_ref

CONVENTIONS = (Conventions(), HALF_PAIR_WEIGHT, Conventions(so2_as_o2=True))


@st.composite
def unitary_quivers(draw):
    """A tree of up to four U(1)/U(2) nodes, possibly with a doubled edge,
    one extra edge closing a cycle, flavors and one ungauged U(1)."""
    n = draw(st.integers(1, 4))
    ranks = [draw(st.integers(1, 2)) if i == 0 else 1 for i in range(n)]
    ids = [f"u{i}" for i in range(n)]
    nodes = [QuiverNode(i, NodeKind.GAUGE, U(r)) for i, r in zip(ids, ranks)]
    edges = [(ids[draw(st.integers(0, i - 1))], ids[i]) for i in range(1, n)]
    if edges and draw(st.booleans()):
        edges.append(draw(st.sampled_from(edges)))
    chords = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)
              if (ids[i], ids[j]) not in edges]
    if chords and draw(st.booleans()):
        edges.append(draw(st.sampled_from(chords)))
    for i in ids:
        f = draw(st.integers(0, 3))
        if f:
            nodes.append(QuiverNode(f"f{i}", NodeKind.FLAVOR, U(f)))
            edges.append((i, f"f{i}"))
    q = Quiver(nodes, edges)
    abelian = [i for i, r in zip(ids, ranks) if r == 1]
    if abelian and (detect_decoupled_u1(q) or draw(st.booleans())):
        q = ungauge(q, draw(st.sampled_from(abelian)))
    if detect_decoupled_u1(q):  # a lone U(2) with no flavor
        q = Quiver(q.nodes + (QuiverNode("f", NodeKind.FLAVOR, U(4)),),
                   q.edges + (("u0", "f"),))
    return q


@st.composite
def orthosymplectic_chains(draw):
    """An alternating SO/USp chain of one to three nodes of rank <= 2, with
    a flavor of the opposite family at either end."""
    n = draw(st.integers(1, 3))
    so_first = draw(st.booleans())
    nodes = []
    for k in range(n):
        if (k % 2 == 0) == so_first:
            group = SO(draw(st.integers(2, 4 if n < 3 else 3)))
        else:
            group = USp(2 * draw(st.integers(1, 2 if n < 3 else 1)))
        nodes.append(QuiverNode(f"c{k}", NodeKind.GAUGE, group))
    edges = [(f"c{k}", f"c{k + 1}") for k in range(n - 1)]
    for end in sorted({0, n - 1}):
        if nodes[end].group.family is Family.ORTHOGONAL:
            f = 2 * draw(st.integers(0, 3))
            group = USp(f) if f else None
        else:
            f = draw(st.integers(0, 10))
            group = SO(f) if f else None
        if group is not None:
            nodes.append(QuiverNode(f"f{end}", NodeKind.FLAVOR, group))
            edges.append((f"c{end}", f"f{end}"))
    return Quiver(nodes, edges)


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(q=st.one_of(unitary_quivers(), orthosymplectic_chains()),
       conv=st.sampled_from(CONVENTIONS), order=st.integers(0, 4))
def test_engine_matches_brute_force(q, conv, order):
    req = HSRequest(q, order, conventions=conv)
    c = shell_min_ref(q, 1, conv)
    if c is not None and c <= 0:
        with pytest.raises(BadTheoryError):
            compute_hilbert_series(req)
        return
    try:
        result = compute_hilbert_series(req)
    except HalfOddGradingError:
        with pytest.raises(AssertionError, match="half-odd"):
            hs_ref(q, order, 2 * order // int(4 * c) + 1, conv)
        return
    bound = result.stats.bound_reached
    assert bound == (0 if c is None else 2 * order // int(4 * c))
    want = hs_ref(q, order, bound + 1, conv)
    assert [result.series.coefficient(k) for k in range(order + 1)] == want
    assert result.stats.charge_count == len(
        enumerate_charges(q, Fraction(order, 2), conv=conv))
