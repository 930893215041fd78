import json
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from coulomb_hs.series import (
    Laurent,
    SeriesError,
    TruncatedSeries,
    expand_inverse,
    one_minus_power,
    plethystic_exp,
    plethystic_log,
    series_to_json,
)


def S(order, coeffs):
    return TruncatedSeries(order, coeffs)


def power(name, e):
    return Laurent({((name, e),): 1})


def test_add_mul_basics():
    one_plus_t = S(2, {0: 1, 1: 1})
    assert (one_plus_t * one_plus_t) == S(2, {0: 1, 1: 2, 2: 1})
    s = S(4, {0: 1, 2: 3, 4: 5})
    assert s * TruncatedSeries.one(4) == s
    assert S(4, {0: 1, 2: 1}) * S(4, {0: 1, 2: 2, 4: 3}) == S(4, {0: 1, 2: 3, 4: 5})


def test_order_propagates_as_minimum():
    a = S(6, {0: 1, 6: 9})
    b = S(3, {0: 1})
    assert (a * b).order == 3


def test_expand_inverse():
    assert expand_inverse(2, 6) == S(6, {0: 1, 2: 1, 4: 1, 6: 1})
    assert expand_inverse(1, 3) == S(3, {0: 1, 1: 1, 2: 1, 3: 1})
    prod = expand_inverse(2, 4) * expand_inverse(4, 4)
    assert prod == S(4, {0: 1, 2: 1, 4: 2})


def test_expand_inverse_is_inverse():
    for d in (1, 2, 3, 5):
        assert expand_inverse(d, 12) * one_minus_power(d, 12) == TruncatedSeries.one(12)
    for d in (0, -2):  # 1 - t^0 is 0, not a factor of a Hilbert series
        with pytest.raises(SeriesError, match="^pole degree must be >= 1$"):
            expand_inverse(d, 4)
        with pytest.raises(SeriesError, match="^degree must be >= 1$"):
            one_minus_power(d, 4)
    for d in (5.5, 1.5, True):  # bool is not a degree either
        with pytest.raises(SeriesError, match=f"^pole degree must be an integer, got {d}$"):
            expand_inverse(d, 4)
        with pytest.raises(SeriesError, match=f"^degree must be an integer, got {d}$"):
            one_minus_power(d, 4)


def test_coefficient_access():
    s = S(2, {0: 1, 2: 3})
    assert s.coefficient(2) == 3
    assert s.coefficient(1) == 0
    with pytest.raises(SeriesError, match="^coefficient 3 beyond truncation order 2$"):
        s.coefficient(3)


def test_mul_commutative_associative_random():
    rng = random.Random(20240817)
    for _ in range(40):
        order = rng.randint(2, 8)
        mk = lambda: S(order, {e: rng.randint(-9, 9) for e in range(order + 1)})
        a, b, c = mk(), mk(), mk()
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_plethystic_log_examples():
    assert plethystic_log(TruncatedSeries.one(6)) == TruncatedSeries(6)
    assert plethystic_log(expand_inverse(1, 6)) == S(6, {1: 1})
    # (1+t^2)/(1-t^2)^2: three generators, one relation, nothing further.
    s = S(6, {0: 1, 2: 1}) * expand_inverse(2, 6) * expand_inverse(2, 6)
    assert plethystic_log(s) == S(6, {2: 3, 4: -1})


def test_plethystic_exp_examples():
    assert plethystic_exp(S(3, {1: 1})) == S(3, {0: 1, 1: 1, 2: 1, 3: 1})
    assert plethystic_exp(S(4, {2: 3, 4: -1})) == S(4, {0: 1, 2: 3, 4: 5})
    assert plethystic_exp(TruncatedSeries(5)) == TruncatedSeries.one(5)


def test_plethystic_guards():
    with pytest.raises(SeriesError, match="^PL needs constant term 1$"):
        plethystic_log(S(4, {0: 2}))
    with pytest.raises(SeriesError, match="^PE needs constant term 0$"):
        plethystic_exp(S(4, {0: 1}))


def test_plethystics_match_the_product_form():
    """s = prod_n (1 - t^n)^(-a_n) has PL[s] = sum_n a_n t^n and PE of that is s."""
    rng = random.Random(20261018)
    for _ in range(60):
        order = rng.randint(0, 16)
        a = {n: rng.randint(-4, 4) for n in range(1, order + 1)}
        s = TruncatedSeries.one(order)
        for n, an in a.items():
            factor = expand_inverse(n, order) if an > 0 else one_minus_power(n, order)
            s = s * factor ** abs(an)
        pl = S(order, a)
        assert plethystic_log(s) == pl
        assert plethystic_exp(pl) == s


def test_pe_pl_round_trip_random():
    rng = random.Random(77)
    for _ in range(25):
        order = rng.randint(2, 9)
        coeffs = {0: 1}
        coeffs.update({e: rng.randint(0, 6) for e in range(1, order + 1)})
        s = S(order, coeffs)
        assert plethystic_exp(plethystic_log(s)) == s


def test_laurent_arithmetic():
    z, zi = power("z", 1), power("z", -1)
    both = z + zi
    assert both * both == power("z", 2) + 2 + power("z", -2)
    assert (z + 1 + zi).constant_part("z") == Laurent({(): 1})
    assert power("z", 2).constant_part("z") == Laurent({})


def test_constant_term_series():
    z, zi = power("z", 1), power("z", -1)
    s = TruncatedSeries(2, {0: z + 1 + zi, 1: power("z", 2)},
                        fugacities=frozenset({"z"}))
    ct = s.constant_term("z")
    assert ct.coefficient(0) == 1
    assert ct.coefficient(1) == 0
    assert ct.fugacities == frozenset()
    with pytest.raises(SeriesError, match="^series carries no fugacity 'w'$"):
        s.constant_term("w")


def test_constant_term_commutes_with_fugacity_free_mul():
    z = power("z", 1)
    s = TruncatedSeries(4, {0: 1, 1: z, 2: z + 2}, fugacities=frozenset({"z"}))
    plain = S(4, {0: 1, 2: -1})
    lhs = (s * plain).constant_term("z")
    rhs = s.constant_term("z") * plain
    assert lhs.coeffs == rhs.coeffs


def test_fugacity_context_rules():
    sa = TruncatedSeries(3, {0: power("a", 1)}, frozenset({"a"}))
    sb = TruncatedSeries(3, {0: power("b", 1)}, frozenset({"b"}))
    with pytest.raises(SeriesError,
                       match=r"^fugacity contexts differ: \['a'\] vs \['b'\]$"):
        sa * sb
    free = S(3, {0: 2})
    assert (sa * free).fugacities == frozenset({"a"})


@pytest.mark.parametrize("c", [Fraction(1, 3), 0.5, True, Decimal("0.5")])
def test_coefficients_other_than_int_or_laurent_are_rejected(c):
    with pytest.raises(SeriesError, match="coefficients must be int or Laurent"):
        S(2, {1: c})


@pytest.mark.parametrize("c", [Fraction(1, 3), Fraction(2), 0.5, True])
def test_laurent_terms_other_than_int_are_rejected(c):
    # A rational term never gets as far as a series coefficient.
    for key in ((), (("x", 1),)):
        with pytest.raises(SeriesError, match="Laurent coefficients must be int"):
            Laurent({key: c})


@pytest.mark.parametrize("e", [1.5, 1.0, True, Fraction(1)])
def test_exponents_other_than_int_are_rejected(e):
    with pytest.raises(SeriesError, match="exponents must be int"):
        S(4, {e: 1})


def test_plethystics_reject_laurent_coefficients_without_fugacities():
    x = power("x", 1)
    with pytest.raises(SeriesError, match="logarithm of refined series"):
        plethystic_log(S(3, {0: 1, 1: x}))
    with pytest.raises(SeriesError, match="exponential of refined series"):
        plethystic_exp(S(3, {1: x}))


def test_json_round_trip():
    # Coefficients are written as decimal strings, so no JSON reader rounds
    # a big one.
    s = S(4, {0: 1, 2: 10 ** 40 + 7})
    assert json.loads(json.dumps(series_to_json(s))) == \
        {"order": 4, "coeffs": {"0": "1", "2": "1" + "0" * 39 + "7"}}


def test_json_round_trip_refined():
    # The refined format: each Laurent coefficient is a list of
    # [{fugacity: exponent}, "coefficient"] terms, and the fugacities are listed.
    c = Laurent({(("z1", 1), ("z2", -2)): 3, (): -5})
    s = TruncatedSeries(3, {2: c}, frozenset({"z1", "z2"}))
    assert json.loads(json.dumps(series_to_json(s))) == \
        {"order": 3, "coeffs": {"2": [[{}, "-5"], [{"z1": 1, "z2": -2}, "3"]]},
         "fugacities": ["z1", "z2"]}


def test_text_rendering():
    assert S(4, {0: 1, 2: 3, 4: 5}).text() == "1 + 3*t^2 + 5*t^4"
    assert S(4, {2: 3, 4: -1}).text() == "3*t^2 - t^4"
    assert S(2, {1: 4}).text() == "4*t"
    assert TruncatedSeries(2).text() == "0"
    assert Laurent({(("z", 1),): -1, (("z", -1),): 1, (): 2,
                    (("w", 2), ("z", 1)): 3}).text() == "2 + 3*w^2*z + z^-1 - z"
