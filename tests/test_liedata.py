import re
from fractions import Fraction

import pytest

from coulomb_hs.liedata import (
    casimir_degrees,
    dominant_charge_count,
    dominant_charges,
    dressing_degrees,
    negation,
    validate_charge,
    weyl_vector,
)
from coulomb_hs.quiver import Family, QuiverError, SO, U, USp

from brute import (HALF_PAIR_WEIGHT, dressing_degrees_ref, matter_weight_values,
                   positive_root_count, positive_root_values, weyl_orbit)


SMALL_GROUPS = [U(1), U(2), U(3), USp(2), USp(4), USp(6),
                SO(2), SO(3), SO(4), SO(5), SO(6), SO(7)]


# ---------------------------------------------------------------------------
# explicit root lists: the independent oracle used for Weyl checks


def explicit_positive_roots(g):
    """Positive roots as coefficient vectors on the charge entries."""
    r = g.rank
    roots = []

    def vec(**kv):
        v = [0] * r
        for i, c in kv.items():
            v[int(i)] += c
        return tuple(v)

    for i in range(r):
        for j in range(i + 1, r):
            e = [0] * r
            e[i], e[j] = 1, -1
            roots.append(tuple(e))
            if g.family is not Family.UNITARY:
                e = [0] * r
                e[i], e[j] = 1, 1
                roots.append(tuple(e))
    if g.family is Family.SYMPLECTIC:
        for i in range(r):
            e = [0] * r
            e[i] = 2
            roots.append(tuple(e))
    elif g.family is Family.ORTHOGONAL and g.n % 2:
        for i in range(r):
            e = [0] * r
            e[i] = 1
            roots.append(tuple(e))
    return roots


def eval_root_sum(roots, m):
    return sum(abs(sum(c * x for c, x in zip(root, m))) for root in roots)


# ---------------------------------------------------------------------------
# chambers


def outside(g, m):
    """The whole message of a charge outside g's dominant chamber."""
    return f"^{re.escape(f'{g}: charge {m}')} is outside the dominant chamber$"


def test_validate_charge():
    validate_charge(U(3), (2, 0, -1))
    with pytest.raises(QuiverError, match=outside(U(3), (0, 1, 0))):
        validate_charge(U(3), (0, 1, 0))
    validate_charge(USp(4), (3, 0))
    with pytest.raises(QuiverError, match=outside(USp(4), (1, -1))):
        validate_charge(USp(4), (1, -1))
    validate_charge(SO(6), (2, 1, -1))
    with pytest.raises(QuiverError, match=outside(SO(6), (2, 1, -2))):
        validate_charge(SO(6), (2, 1, -2))
    validate_charge(SO(2), (-5,))
    with pytest.raises(QuiverError,
                       match=r"^U\(2\): charge \(1,\) has wrong length \(rank 2\)$"):
        validate_charge(U(2), (1,))
    for m in ((True,), (False,), (1.0,)):  # True == 1, but is no charge entry
        with pytest.raises(QuiverError, match=r"^U\(1\): charge entries must be integers$"):
            validate_charge(U(1), m)


# ---------------------------------------------------------------------------
# roots


def test_positive_root_values_examples():
    assert positive_root_values(U(2), (1, 0)) == [1]
    assert positive_root_values(USp(2), (1,)) == [2]
    assert sorted(positive_root_values(SO(4), (1, 1))) == [0, 2]
    assert positive_root_values(SO(2), (7,)) == []
    assert positive_root_values(U(1), (3,)) == []


def test_positive_root_counts():
    for g in SMALL_GROUPS:
        m = tuple(range(3 * g.rank, 0, -3))  # generic dominant charge
        assert len(positive_root_values(g, m)) == positive_root_count(g)
        r = g.rank
        if g.family is Family.UNITARY:
            assert positive_root_count(g) == r * (r - 1) // 2
        elif g.family is Family.SYMPLECTIC or g.n % 2:
            assert positive_root_count(g) == r * r
        else:
            assert positive_root_count(g) == r * (r - 1)


def test_weyl_invariance_brute_force():
    charges = {
        1: [(0,), (1,), (3,)],
        2: [(0, 0), (1, 0), (2, 1), (2, -1), (3, 3)],
        3: [(0, 0, 0), (1, 0, 0), (2, 1, 1), (3, 2, -1), (2, 2, 2)],
    }
    for g in SMALL_GROUPS:
        roots = explicit_positive_roots(g)
        for m in charges[g.rank]:
            try:
                validate_charge(g, m)
            except QuiverError:
                continue
            reference = sum(positive_root_values(g, m))
            orbit = weyl_orbit(g, m)
            assert all(eval_root_sum(roots, w) == reference for w in orbit)


def test_root_sum_is_the_weyl_vector_dot_product():
    # On the dominant chamber the root term is <2*rho, m>, so the engine
    # prices it as a dot product; SO(even) charges with a negative last
    # entry are included.
    groups = ([U(r) for r in range(1, 6)] + [SO(n) for n in range(2, 11)]
              + [USp(n) for n in range(2, 9, 2)])
    assert weyl_vector(U(4)) == (3, 1, -1, -3)
    assert weyl_vector(USp(6)) == (6, 4, 2)
    assert weyl_vector(SO(7)) == (5, 3, 1)
    assert weyl_vector(SO(8)) == (6, 4, 2, 0)
    assert weyl_vector(SO(2)) == (0,)
    negative_last = 0
    for g in groups:
        rho2 = weyl_vector(g)
        assert len(rho2) == g.rank
        for b in range(4):
            for m in dominant_charges(g, b):
                assert sum(positive_root_values(g, m)) == \
                    sum(w * x for w, x in zip(rho2, m)), (g, m)
                negative_last += (g.family is Family.ORTHOGONAL and g.n % 2 == 0
                                  and m[-1] < 0)
    assert negative_last > 0


# ---------------------------------------------------------------------------
# matter weights


def aggregate(pairs):
    out = {}
    for v, w in pairs:
        out[v] = out.get(v, Fraction(0)) + w
    return {v: w for v, w in out.items() if w}


def test_matter_weight_unitary_examples():
    # U(1) with d flavors, m = 1: value 1 with total weight d
    for d in (1, 2, 4):
        pairs = matter_weight_values(U(1), (1,), U(d), (0,) * d)
        assert aggregate(pairs) == {1: Fraction(d)}
    pairs = matter_weight_values(U(2), (1, 0), U(1), (0,))
    assert sorted(v for v, _ in pairs) == [0, 1]


def test_matter_weight_ortho_examples():
    pairs = matter_weight_values(SO(2), (1,), USp(2), (0,), HALF_PAIR_WEIGHT)
    assert pairs == [(1, Fraction(1, 2)), (1, Fraction(1, 2))]
    pairs = matter_weight_values(SO(2), (1,), USp(2), (0,))
    assert aggregate(pairs) == {1: Fraction(2)}
    with pytest.raises(ValueError, match="mixes families"):
        matter_weight_values(U(2), (0, 0), SO(3), (0,))


def full_weight_set_sum(so_group, so, sp_group, sp):
    """Oracle: |b(m)| summed over every weight of vector x fundamental."""
    so_weights = []
    for i in range(so_group.rank):
        so_weights.extend([(i, 1), (i, -1)])
    if so_group.n % 2:
        so_weights.append(None)  # zero weight of the odd vector
    total = 0
    for sw in so_weights:
        for j in range(sp_group.rank):
            for sgn in (1, -1):
                val = sgn * sp[j] + (0 if sw is None else sw[1] * so[sw[0]])
                total += abs(val)
    return total


def test_matter_weight_against_full_enumeration():
    cases = [
        (SO(2), (1,), USp(2), (0,)),
        (SO(2), (2,), USp(4), (1, 0)),
        (SO(4), (1, 1), USp(2), (1,)),
        (SO(4), (2, -1), USp(4), (2, 1)),
        (SO(5), (2, 1), USp(2), (3,)),
        (SO(3), (1,), USp(4), (2, 0)),
        (SO(6), (2, 1, -1), USp(2), (1,)),
    ]
    for so_g, so, sp_g, sp in cases:
        full = full_weight_set_sum(so_g, so, sp_g, sp)
        got = sum(v * w for v, w in matter_weight_values(so_g, so, sp_g, sp))
        assert got == Fraction(full, 2)  # default weight: half the doubled set
        got_half = sum(v * w for v, w in
                       matter_weight_values(so_g, so, sp_g, sp, HALF_PAIR_WEIGHT))
        assert got_half == Fraction(full, 4)
        # orientation symmetry
        flipped = sum(v * w for v, w in matter_weight_values(sp_g, sp, so_g, so))
        assert flipped == got


def test_matter_weight_weyl_invariance():
    so_g, sp_g = SO(4), USp(4)
    so, sp = (2, 1), (1, 1)
    base = sum(v * w for v, w in matter_weight_values(so_g, so, sp_g, sp))
    for wso in weyl_orbit(so_g, so):
        for wsp in weyl_orbit(sp_g, sp):
            total = Fraction(0)
            for x in wso:
                for y in wsp:
                    total += abs(x + y) + abs(x - y)
            assert total == base


# ---------------------------------------------------------------------------
# stabilizers and Casimir degrees


def test_dressing_degrees_examples():
    # The degrees of U(2) x U(1), of U(1) x USp(2), and at charge 0 of the
    # whole group.
    assert dressing_degrees(U(3), (2, 2, 0)) == [1, 2, 1]
    assert dressing_degrees(USp(4), (1, 0)) == [2, 1]
    for g in SMALL_GROUPS:
        assert dressing_degrees(g, (0,) * g.rank) == list(casimir_degrees(g))


def test_dressing_degrees_count_the_rank():
    # The residual group keeps the rank, so its degrees number the rank.
    for g in SMALL_GROUPS:
        for m in dominant_charges(g, 2):
            assert len(dressing_degrees(g, m)) == g.rank, (g, m)


def test_dressing_degrees_so_even_signs():
    # SO(4)'s Weyl group flips signs in pairs, so (1, -1) and (1, 1) both
    # leave U(2); SO(6) at (1, 0, 0) leaves SO(4) x U(1).
    assert dressing_degrees(SO(4), (1, -1)) == [1, 2]
    assert dressing_degrees(SO(4), (1, 1)) == [1, 2]
    assert dressing_degrees(SO(6), (1, 0, 0)) == [2, 2, 1]


def test_casimir_degrees_examples():
    assert casimir_degrees(U(3)) == (1, 2, 3)
    assert casimir_degrees(SO(4)) == (2, 2)
    assert casimir_degrees(SO(2)) == (1,)
    assert casimir_degrees(SO(3)) == (2,)
    assert casimir_degrees(USp(2)) == (2,)
    assert casimir_degrees(USp(6)) == (2, 4, 6)
    assert casimir_degrees(SO(6)) == (2, 3, 4)
    assert casimir_degrees(SO(7)) == (2, 4, 6)


def count_partitions_with_parts_at_most(total, k):
    if total == 0:
        return 1
    if k == 0:
        return 0
    return count_partitions_with_parts_at_most(total, k - 1) + \
        count_partitions_with_parts_at_most(total - k, k) if total >= k else \
        count_partitions_with_parts_at_most(total, k - 1)


def test_casimir_degrees_unitary_against_partition_count():
    # The invariant ring of u(N) is freely generated in degrees 1..N, so its
    # Hilbert series counts partitions with parts of size at most N.
    for N in (1, 2, 3, 4):
        degrees = casimir_degrees(U(N))
        for order in range(0, 7):
            coeff = [0] * (order + 1)
            coeff[0] = 1
            for d in degrees:
                for e in range(d, order + 1):
                    coeff[e] += coeff[e - d]
            assert coeff[order] == count_partitions_with_parts_at_most(order, N)


def test_casimir_degree_identities():
    # sum(d_i) = #positive roots + rank and prod(d_i) = |Weyl group|,
    # with the Weyl order measured as the orbit size of a regular charge.
    for g in SMALL_GROUPS:
        degrees = casimir_degrees(g)
        assert sum(degrees) == positive_root_count(g) + g.rank
        generic = tuple(range(3 * g.rank, 0, -3))
        prod = 1
        for d in degrees:
            prod *= d
        assert prod == len(weyl_orbit(g, generic))


def test_dressing_degrees_so2_is_a_torus():
    assert dressing_degrees(SO(2), (0,)) == [1]
    assert dressing_degrees(SO(2), (3,)) == [1]
    assert dressing_degrees(SO(2), (-3,)) == [1]
    assert dressing_degrees(USp(4), (1, 0)) in ([2, 1], [1, 2])


def test_dressing_degrees_match_the_stabilizer_groups():
    # The run count against the degrees of each residual group, built as a
    # group: every dominant charge of box 3, in the same order.
    groups = ([U(n) for n in range(1, 6)] + [SO(n) for n in range(2, 12)]
              + [USp(n) for n in range(2, 11, 2)])
    checked = 0
    for g in groups:
        for m in dominant_charges(g, 3):
            assert dressing_degrees(g, m) == dressing_degrees_ref(g, m), (g, m)
            checked += 1
            # The center of U(n) and SO(2) is in every residual group: the
            # engine dresses it once, outside the sum over charges.
            if g.family is Family.UNITARY or g == SO(2):
                assert 1 in dressing_degrees(g, m), (g, m)
    assert checked == 1221
    for g, m in ((U(2), (0, 1)), (SO(4), (-1, 1)), (USp(4), (1, -1)), (SO(3), (-1,))):
        with pytest.raises(QuiverError, match=outside(g, m)):
            dressing_degrees(g, m)


# ---------------------------------------------------------------------------
# dominant charge enumeration


def test_dominant_charges_examples():
    assert sorted(dominant_charges(U(1), 1)) == [(-1,), (0,), (1,)]
    assert dominant_charges(U(2), 1) == \
        [(1, 1), (1, 0), (1, -1), (0, 0), (0, -1), (-1, -1)]
    assert sorted(dominant_charges(USp(2), 2)) == [(0,), (1,), (2,)]
    with pytest.raises(ValueError, match="bound must be >= 0"):
        dominant_charges(U(1), -1)


def test_dominant_charges_so_even():
    got = dominant_charges(SO(4), 1)
    assert set(got) == {(0, 0), (1, 0), (1, 1), (1, -1)}
    assert len(set(got)) == len(got)


def test_dominant_charges_nesting_and_uniqueness():
    for g in SMALL_GROUPS:
        for b in (0, 1, 2):
            a = dominant_charges(g, b)
            c = dominant_charges(g, b + 1)
            assert set(a) <= set(c)
            assert len(set(a)) == len(a)
            for m in a:
                validate_charge(g, m)


def test_dominant_charge_count_is_the_list_length():
    # The closed forms the table-cell guard reads before any list is built,
    # the length of a capped list before its floor filter (a cap high
    # enough that only the spread test runs): for U(r) the box of spread
    # <= b, (b+1) C(b+r-1, r-1) + C(b+r-1, r); C(b+r, r) for USp(2r) and
    # SO(2r+1), and C(b+r, r) + C(b+r-1, r) for SO(2r), SO(2) included.
    groups = SMALL_GROUPS + [U(4), U(5), USp(8), SO(1), SO(8), SO(9), SO(10)]
    for g in groups:
        for b in range(7):
            capped = dominant_charges(g, b, (0,) * (g.rank + 1), 0)
            assert dominant_charge_count(g, b) == len(capped), (g, b)
    assert [dominant_charge_count(g, 1) for g in (U(3), USp(6), SO(7), SO(6))] == [7, 4, 4, 5]


def test_negation_is_an_involution_on_every_unitary_list():
    # Charge conjugation sigma maps a U(r) charge c to -c reversed.  Every
    # list dominant_charges gives for U(r) is closed under it, the spread
    # and floor filters included, as F weighs the entries of m- by the
    # floor's steps reversed; negation is its index map, an involution.
    # Off the unitary family there is no map.
    for r in range(1, 5):
        floors = ([0] * (r + 1), list(range(0, 2 * r + 1, 2)),
                  [0] + [2 * c * (r - c + 1) for c in range(1, r + 1)],
                  [0, 6, 2, 4, 8][:r + 1])
        for b in range(4):
            for floor in floors:
                for cap in (None, 0, 2, 4, 8, 16):
                    cands = dominant_charges(U(r), b, floor, cap)
                    sigma = negation(U(r), cands)
                    assert [cands[i] for i in sigma] == [
                        tuple(-x for x in reversed(c)) for c in cands], (r, b, floor, cap)
                    assert [sigma[i] for i in sigma] == list(range(len(cands)))
    for g in SMALL_GROUPS:
        if g.family is not Family.UNITARY:
            assert negation(g, dominant_charges(g, 2)) is None, g


def test_dominant_charges_cover_weyl_orbits():
    # every integer tuple in the box is Weyl-equivalent to a unique
    # enumerated representative
    from itertools import product as iproduct

    for g in (U(2), USp(2), SO(3), SO(4), SO(2)):
        reps = dominant_charges(g, 1)
        covered = set()
        for m in reps:
            orbit = weyl_orbit(g, m)
            assert not (covered & orbit)
            covered |= orbit
        assert covered == set(iproduct((-1, 0, 1), repeat=g.rank))
