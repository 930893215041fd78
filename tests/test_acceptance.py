"""Acceptance suite: every check is an exact-coefficient statement and is
asserted to exact equality within the stated wall-time allowance.  Each
criterion prints one pass line (run with ``pytest -s`` to see them)."""

import random
import time

from coulomb_hs.engine import (
    HSRequest,
    coulomb_hilbert_series,
    refined_implosion_integral,
    symmetry_dimension,
)
from coulomb_hs.gale import (
    RankDeficientError,
    ToricConfig,
    duality_report,
    gale_dual,
    hnf_rows,
    is_gale_dual_pair,
)
from coulomb_hs.quiver import (
    NodeKind,
    Quiver,
    QuiverNode,
    SO,
    U,
    USp,
    balance_report,
    build_bouquet_quiver,
    build_dn_implosion_quiver,
    build_linear_nilpotent_quiver,
    expected_coulomb_dimension_real,
    gauge_group_rank,
    node_balance,
    predict_global_symmetry,
    ungauge,
)
from coulomb_hs.series import expand_inverse, nilcone_reference_hs, one_minus_power, \
    plethystic_exp, plethystic_log

from brute import HALF_PAIR_WEIGHT, delta_ref, positive_root_values, weyl_orbit
from test_engine import boxes_past_bound


def u1_with_flavors(d):
    return Quiver([QuiverNode("g", NodeKind.GAUGE, U(1)),
                   QuiverNode("f", NodeKind.FLAVOR, U(d))], [("g", "f")])


def report(num, text):
    print(f"ACCEPTANCE {num:>2} PASS: {text}")


def test_criterion_01_abelian_family():
    t0 = time.perf_counter()
    for d in range(1, 6):
        got = coulomb_hilbert_series(HSRequest(u1_with_flavors(d), 20))
        ref = one_minus_power(2 * d, 20) * expand_inverse(2, 20) \
            * expand_inverse(d, 20) * expand_inverse(d, 20)
        assert got == ref, f"d={d}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"U(1) with d=1..5 flavors equals the closed form to t^20 "
              f"({elapsed:.2f}s)")


def test_criterion_02_nilpotent_cone():
    t0 = time.perf_counter()
    for n in (2, 3):
        got = coulomb_hilbert_series(HSRequest(build_linear_nilpotent_quiver(n), 10))
        assert got == nilcone_reference_hs(n, 10), f"n={n}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(2, f"nilpotent-cone quivers n=2,3 equal the closed form to t^10 "
              f"({elapsed:.2f}s)")


def test_criterion_03_su2_bouquet():
    t0 = time.perf_counter()
    s = coulomb_hilbert_series(HSRequest(build_bouquet_quiver(2), 2, ungauge="b1"))
    assert s.coefficient(1) == 4
    assert s.coefficient(2) == 10
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(3, f"ungauged bouquet(2): 4t and 10t^2 (flat H^2, Sp(2) symmetry) "
              f"({elapsed:.2f}s)")


def test_criterion_04_su3_bouquet():
    t0 = time.perf_counter()
    s = coulomb_hilbert_series(HSRequest(build_bouquet_quiver(3), 4, ungauge="b1"))
    assert symmetry_dimension(s) == 28
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(4, f"ungauged bouquet(3): t^2 coefficient 28 = dim SO(8) "
              f"({elapsed:.2f}s)")


def test_criterion_05_bouquet_t2_coefficients():
    t0 = time.perf_counter()
    for n in (4, 5):
        s = coulomb_hilbert_series(HSRequest(build_bouquet_quiver(n), 4,
                                             ungauge="b1"))
        assert s.coefficient(2) == n * n + n - 2, f"n={n}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report(5, f"ungauged bouquet(4),(5) at order 4: t^2 = n^2+n-2 "
              f"({elapsed:.2f}s)")


def test_criterion_06_refined_integral():
    t0 = time.perf_counter()
    for n in (2, 3):
        got = refined_implosion_integral(n, 8)
        assert got == nilcone_reference_hs(n, 8), f"n={n}"
    elapsed = time.perf_counter() - t0
    report(6, f"(1-t^2)^(n-1) * residue integral of the refined bouquet series "
              f"equals the nilpotent cone to t^8, n=2,3 ({elapsed:.2f}s)")


def test_criterion_07_orthosymplectic_t2():
    t0 = time.perf_counter()
    s3 = coulomb_hilbert_series(HSRequest(build_dn_implosion_quiver(3), 2))
    assert symmetry_dimension(s3) == 18
    s4 = coulomb_hilbert_series(HSRequest(build_dn_implosion_quiver(4), 2))
    assert symmetry_dimension(s4) == 32
    # The convention that gives 18 (pair weight 1, SO(2) summed over Z)
    # is the engine's only one; the half pair weight, through the
    # brute-force Delta, gives the balanced USp basic monopole of the D3
    # chain Delta < 0, a divergent theory.
    chain = build_dn_implosion_quiver(3, with_flavor=True)
    monopole = {"c1": (0,), "c2": (0,), "c3": (0, 0), "c4": (1, 0)}
    assert delta_ref(chain, monopole) == 1
    assert delta_ref(chain, monopole, HALF_PAIR_WEIGHT) < 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report(7, f"D-type bouquets: t^2 = 18 (n=3) and 32 (n=4) with pair "
              f"weight 1 and SO(2) summed over Z ({elapsed:.2f}s)")


def test_criterion_08_dimension_bookkeeping():
    for n in range(2, 11):
        uq = ungauge(build_bouquet_quiver(n), "b1")
        assert expected_coulomb_dimension_real(uq) == 2 * (n * n + n - 2)
    for n in range(2, 9):
        assert 4 * gauge_group_rank(build_dn_implosion_quiver(n)) == 4 * n * n
    report(8, "4*rank = 2(n^2+n-2) for ungauged bouquets (n=2..10) and "
              "4n^2 for D-type bouquets (n=2..8)")


def test_criterion_09_balance_suite():
    for n in range(2, 13):
        assert balance_report(build_linear_nilpotent_quiver(n)).all_balanced
    for n in range(2, 11):
        q = build_bouquet_quiver(n)
        assert all(node_balance(q, f"b{i}") == n - 3 for i in range(1, n + 1))
    for n in range(2, 9):
        assert balance_report(build_dn_implosion_quiver(n, with_flavor=True)).all_balanced
    for n in range(4, 9):
        assert predict_global_symmetry(build_bouquet_quiver(n)).total_dimension \
            == n * n + n - 2
    report(9, "balance suite: chains balanced (n=2..12), bouquet balance n-3, "
              "D-type chains balanced, predicted dims n^2+n-2 (n>=4)")


def _golden_series(order):
    out = []
    for d in range(1, 6):
        out.append(coulomb_hilbert_series(HSRequest(u1_with_flavors(d), order)))
    for n in (2, 3):
        out.append(coulomb_hilbert_series(
            HSRequest(build_linear_nilpotent_quiver(n), order)))
    out.append(coulomb_hilbert_series(
        HSRequest(build_bouquet_quiver(2), order, ungauge="b1")))
    out.append(coulomb_hilbert_series(
        HSRequest(build_bouquet_quiver(3), order, ungauge="b1")))
    return out


def test_criterion_10a_pe_pl_round_trip():
    t0 = time.perf_counter()
    golden = _golden_series(10)
    for s in golden:
        assert plethystic_exp(plethystic_log(s)) == s
    report(10, f"PE[PL[.]] identity on {len(golden)} golden series to order 10 "
               f"({time.perf_counter() - t0:.2f}s)")


def test_criterion_10b_weyl_invariance():
    groups = [U(2), U(3), USp(2), USp(4), USp(6),
              SO(2), SO(3), SO(4), SO(5), SO(6), SO(7)]
    charges = {1: [(2,), (1,)], 2: [(2, 1), (1, 1), (2, -1)],
               3: [(2, 1, 1), (3, 2, -1), (1, 1, 1)]}

    def explicit_roots(g):
        from coulomb_hs.quiver import Family
        r = g.rank
        roots = []
        for i in range(r):
            for j in range(i + 1, r):
                e = [0] * r; e[i], e[j] = 1, -1; roots.append(tuple(e))
                if g.family is not Family.UNITARY:
                    e = [0] * r; e[i], e[j] = 1, 1; roots.append(tuple(e))
        if g.family is Family.SYMPLECTIC:
            for i in range(r):
                e = [0] * r; e[i] = 2; roots.append(tuple(e))
        elif g.family is Family.ORTHOGONAL and g.n % 2:
            for i in range(r):
                e = [0] * r; e[i] = 1; roots.append(tuple(e))
        return roots

    checked = 0
    for g in groups:
        roots = explicit_roots(g)
        for m in charges[g.rank]:
            try:
                ref = sum(positive_root_values(g, m))
            except Exception:
                continue
            for w in weyl_orbit(g, m):
                val = sum(abs(sum(c * x for c, x in zip(root, w)))
                          for root in roots)
                assert val == ref
            checked += 1
    report(10, f"Weyl-invariance brute force on {checked} rank<=3 charges")


def test_criterion_10c_gale_involution_exchange():
    rng = random.Random(1234)
    done = 0
    while done < 40:
        d = rng.randint(1, 8)
        n = rng.randint(1, min(4, d))
        try:
            c = ToricConfig([[rng.randint(-3, 3) for _ in range(d)]
                             for _ in range(n)])
        except RankDeficientError:
            continue
        dual = gale_dual(c)
        assert is_gale_dual_pair(c, dual)
        rep, drep = duality_report(c), duality_report(dual)
        assert rep.fi_primal == drep.isometry_rank_primal
        assert rep.dim_primal + rep.dim_dual == 4 * d
        if not rep.has_torsion:
            assert gale_dual(dual).rows == hnf_rows(c.rows, c.d)
        done += 1
    report(10, f"Gale involution and exchange on {done} random configs (d<=8)")


def test_criterion_10d_enumeration_stability():
    for req in (HSRequest(u1_with_flavors(3), 12),
                HSRequest(build_linear_nilpotent_quiver(3), 8),
                HSRequest(build_bouquet_quiver(3), 4, ungauge="b1"),
                HSRequest(build_dn_implosion_quiver(3), 4)):
        wider, proven = boxes_past_bound(req)
        assert wider == proven
    report(10, "enumeration stability: the box two past the proven bound "
               "holds no further charge")


def test_criterion_10e_ungauging_choice_independence():
    for n, order in ((2, 8), (3, 4)):
        q = build_bouquet_quiver(n)
        series = {coulomb_hilbert_series(HSRequest(q, order, ungauge=pick)).text()
                  for pick in ("b1", f"b{n}", "g1")}
        assert len(series) == 1
    report(10, "ungauging-choice independence for bouquet(2) and bouquet(3)")
