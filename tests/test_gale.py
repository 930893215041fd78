import hashlib
import random

import pytest

from coulomb_hs.gale import (
    DimensionMismatchError,
    GaleError,
    RankDeficientError,
    ToricConfig,
    config_from_json,
    config_to_json,
    duality_report,
    gale_dual,
    hnf_rows,
    is_gale_dual_pair,
    kernel_lattice,
)


def test_kernel_examples():
    assert kernel_lattice(ToricConfig([[1, 1]])) == ((1, -1),)
    assert kernel_lattice(ToricConfig([[1, 0], [0, 1]])) == ()
    rows = kernel_lattice(ToricConfig([[1, 1, 1]]))
    assert len(rows) == 2
    assert all(sum(r) == 0 for r in rows)


def test_kernel_is_integral_and_saturated():
    c = ToricConfig([[2, 0, 1], [0, 2, 1]])
    rows = kernel_lattice(c)
    # (1, 1, -2) spans the kernel over Q; saturation must find the primitive
    # integer generator, not a multiple.
    assert rows == ((1, 1, -2),)


def test_gale_dual_examples():
    assert gale_dual(ToricConfig([[1, 1]])).rows == ((1, -1),)
    dual = gale_dual(ToricConfig([[1, 0], [0, 1]]))
    assert dual.rows == () and dual.d == 2 and dual.n == 0
    # Eguchi-Hanson-type datum: diagonal one-dimensional subtorus of T^2
    diag = ToricConfig([[1, 1]])
    assert gale_dual(diag).columns == ((1,), (-1,))


def test_rank_validation():
    with pytest.raises(RankDeficientError):
        ToricConfig([[1, 1], [1, 1]])
    with pytest.raises(RankDeficientError):
        ToricConfig([[1], [2]])
    with pytest.raises(RankDeficientError):
        ToricConfig([[0, 0]])


def test_duality_report_examples():
    rep = duality_report(ToricConfig([[1, 1]]))
    assert (rep.dim_primal, rep.dim_dual) == (4, 4)
    assert (rep.fi_primal, rep.fi_dual) == (1, 1)
    rep = duality_report(ToricConfig([[1, 0, 1, 2, 3], [0, 1, 1, 1, 1]]))
    assert (rep.dim_primal, rep.dim_dual) == (8, 12)
    assert rep.fi_primal == 3 and rep.fi_dual == 2
    assert rep.isometry_rank_primal == 2 and rep.isometry_rank_dual == 3
    rep = duality_report(ToricConfig([[1, 0], [0, 1]]))
    assert rep.dim_dual == 0


def test_report_invariants():
    rng = random.Random(4242)
    for _ in range(30):
        d = rng.randint(1, 8)
        n = rng.randint(1, d)
        c = random_config(rng, n, d)
        rep = duality_report(c)
        assert rep.dim_primal + rep.dim_dual == 4 * d
        assert rep.fi_primal == rep.isometry_rank_dual
        assert rep.fi_dual == rep.isometry_rank_primal
        dual_rep = duality_report(gale_dual(c))
        assert rep.fi_primal == dual_rep.isometry_rank_primal
        assert rep.dim_dual == dual_rep.dim_primal


def test_torsion_flag():
    assert duality_report(ToricConfig([[2]])).has_torsion
    assert not duality_report(ToricConfig([[1, 1]])).has_torsion
    assert duality_report(ToricConfig([[2, 0], [0, 3]])).has_torsion
    assert not duality_report(ToricConfig([[1, 0, 5], [0, 1, 7]])).has_torsion


def test_is_gale_dual_pair_examples():
    a = ToricConfig([[1, 1]])
    assert is_gale_dual_pair(a, ToricConfig([[1, -1]]))
    assert is_gale_dual_pair(a, ToricConfig([[-1, 1]]))  # same lattice
    assert not is_gale_dual_pair(a, ToricConfig([[1, 1]]))
    with pytest.raises(DimensionMismatchError):
        is_gale_dual_pair(a, ToricConfig([[1, 1, 0]]))


def random_config(rng, n, d):
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(n)]
        try:
            return ToricConfig(rows)
        except RankDeficientError:
            continue


def test_involution_and_pair_randomized():
    rng = random.Random(20240818)
    for _ in range(60):
        d = rng.randint(1, 8)
        n = rng.randint(0, min(4, d))
        if n == 0:
            c = ToricConfig([], d=d)
        else:
            c = random_config(rng, n, d)
        dual = gale_dual(c)
        assert dual.n == d - n and dual.d == d
        assert is_gale_dual_pair(c, dual)
        ddc = gale_dual(dual)
        if duality_report(c).has_torsion:
            # double dual saturates the row lattice; the change is flagged
            assert ddc.rows != hnf_rows(c.rows, c.d)
        else:
            assert ddc.rows == hnf_rows(c.rows, c.d)


def test_kernel_basis_is_pinned():
    # The exact HNF bases of seeded random configurations, n = 0 included,
    # hashed: any change to the elimination that alters a basis shows here.
    rng = random.Random(7)
    digest = hashlib.sha256()
    count = 0
    for _ in range(1000):
        d = rng.randint(1, 9)
        n = rng.randint(0, d)
        rows = [[rng.randint(-5, 5) for _ in range(d)] for _ in range(n)]
        try:
            c = ToricConfig(rows, d=d)
        except RankDeficientError:
            continue
        kernel = kernel_lattice(c)
        assert len(kernel) == d - n
        for r in kernel:
            assert all(sum(a * x for a, x in zip(row, r)) == 0 for row in c.rows)
        digest.update(repr(kernel).encode())
        count += 1
    assert count == 992
    assert digest.hexdigest() == (
        "f1929d7effda232ef7b56550d0d1a46005ce1a7431d41415d8226d72df55f857")


def test_json_round_trip():
    c = ToricConfig([[1, 0, 1, 2], [0, 1, 1, 1]])
    obj = config_to_json(c)
    assert obj["n"] == 2 and obj["d"] == 4
    assert config_from_json(obj).rows == c.rows
    empty = ToricConfig([], d=3)
    assert config_from_json(config_to_json(empty)).d == 3


def test_declared_height_of_no_columns():
    # An n x 0 matrix with n > 0 has n > d, like any other such input.
    with pytest.raises(RankDeficientError, match="got n=2, d=0"):
        config_from_json({"n": 2, "columns": []})
    with pytest.raises(RankDeficientError):
        ToricConfig.from_columns([], n=1)
    # A negative declared shape is rejected by name, not by a count mismatch.
    for key, value in (("n", -1), ("d", -2)):
        with pytest.raises(GaleError,
                           match=f"^{key}: expected a nonnegative integer, got {value}$"):
            config_from_json({key: value, "columns": []})
    for obj in ({"n": 0, "columns": []}, {"columns": []}):
        c = config_from_json(obj)
        assert (c.n, c.d, kernel_lattice(c)) == (0, 0, ())
    c = config_from_json({"n": 0, "columns": [[], []]})
    assert kernel_lattice(c) == ((1, 0), (0, 1))
