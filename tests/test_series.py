import json
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from coulomb_hs.series import (
    FugacityMismatchError,
    Laurent,
    NonUnitConstantTermError,
    NonzeroConstantTermError,
    OrderExceededError,
    SeriesError,
    TruncatedSeries,
    UnknownFugacityError,
    expand_inverse,
    one_minus_power,
    plethystic_exp,
    plethystic_log,
    series_from_json,
    series_to_json,
)


def S(order, coeffs):
    return TruncatedSeries(order, coeffs)


def test_add_mul_basics():
    one_plus_t = S(2, {0: 1, 1: 1})
    assert (one_plus_t * one_plus_t) == S(2, {0: 1, 1: 2, 2: 1})
    s = S(4, {0: 1, 2: 3, 4: 5})
    assert s * TruncatedSeries.one(4) == s
    assert S(4, {0: 1, 2: 1}) * S(4, {0: 1, 2: 2, 4: 3}) == S(4, {0: 1, 2: 3, 4: 5})


def test_order_propagates_as_minimum():
    a = S(6, {0: 1, 6: 9})
    b = S(3, {0: 1})
    assert (a + b).order == 3
    assert (a * b).order == 3


def test_expand_inverse():
    assert expand_inverse(2, 6) == S(6, {0: 1, 2: 1, 4: 1, 6: 1})
    assert expand_inverse(1, 3) == S(3, {0: 1, 1: 1, 2: 1, 3: 1})
    prod = expand_inverse(2, 4) * expand_inverse(4, 4)
    assert prod == S(4, {0: 1, 2: 1, 4: 2})


def test_expand_inverse_is_inverse():
    for d in (1, 2, 3, 5):
        assert expand_inverse(d, 12) * one_minus_power(d, 12) == TruncatedSeries.one(12)


def test_coefficient_access():
    s = S(2, {0: 1, 2: 3})
    assert s.coefficient(2) == 3
    assert s.coefficient(1) == 0
    with pytest.raises(OrderExceededError):
        s.coefficient(3)


def test_mul_commutative_associative_random():
    rng = random.Random(20240817)
    for _ in range(40):
        order = rng.randint(2, 8)
        mk = lambda: S(order, {e: rng.randint(-9, 9) for e in range(order + 1)})
        a, b, c = mk(), mk(), mk()
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_plethystic_log_examples():
    assert plethystic_log(TruncatedSeries.one(6)) == TruncatedSeries.zero(6)
    assert plethystic_log(expand_inverse(1, 6)) == S(6, {1: 1})
    # (1+t^2)/(1-t^2)^2: three generators, one relation, nothing further.
    s = S(6, {0: 1, 2: 1}) * expand_inverse(2, 6) * expand_inverse(2, 6)
    assert plethystic_log(s) == S(6, {2: 3, 4: -1})


def test_plethystic_exp_examples():
    assert plethystic_exp(S(3, {1: 1})) == S(3, {0: 1, 1: 1, 2: 1, 3: 1})
    assert plethystic_exp(S(4, {2: 3, 4: -1})) == S(4, {0: 1, 2: 3, 4: 5})
    assert plethystic_exp(TruncatedSeries.zero(5)) == TruncatedSeries.one(5)


def test_plethystic_guards():
    with pytest.raises(NonUnitConstantTermError):
        plethystic_log(S(4, {0: 2}))
    with pytest.raises(NonzeroConstantTermError):
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
    z = Laurent.monomial({"z": 1})
    zi = Laurent.monomial({"z": -1})
    both = z + zi
    assert both * both == Laurent.monomial({"z": 2}) + 2 + Laurent.monomial({"z": -2})
    assert (z + 1 + zi).constant_part("z") == Laurent.monomial({}, 1)
    assert (z + 1 + zi).substitute_one("z") == 3
    assert Laurent.monomial({"z": 2}).constant_part("z") == Laurent({})


def test_constant_term_series():
    z = Laurent.monomial({"z": 1})
    zi = Laurent.monomial({"z": -1})
    s = TruncatedSeries(2, {0: z + 1 + zi, 1: Laurent.monomial({"z": 2})},
                        fugacities=frozenset({"z"}))
    ct = s.constant_term("z")
    assert ct.coefficient(0) == 1
    assert ct.coefficient(1) == 0
    assert ct.fugacities == frozenset()
    with pytest.raises(UnknownFugacityError):
        s.constant_term("w")


def test_constant_term_commutes_with_fugacity_free_mul():
    z = Laurent.monomial({"z": 1})
    s = TruncatedSeries(4, {0: 1, 1: z, 2: z + 2}, fugacities=frozenset({"z"}))
    plain = S(4, {0: 1, 2: -1})
    lhs = (s * plain).constant_term("z")
    rhs = s.constant_term("z") * plain
    assert lhs.coeffs == rhs.coeffs
    a, b = S(4, {0: 1}), S(4, {1: 2})
    assert (s * (a + b)).constant_term("z") == \
        (s * a).constant_term("z") + (s * b).constant_term("z")


def test_fugacity_context_rules():
    sa = TruncatedSeries(3, {0: Laurent.monomial({"a": 1})}, frozenset({"a"}))
    sb = TruncatedSeries(3, {0: Laurent.monomial({"b": 1})}, frozenset({"b"}))
    with pytest.raises(FugacityMismatchError):
        sa + sb
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
    x = Laurent.monomial({"x": 1})
    with pytest.raises(SeriesError, match="logarithm of refined series"):
        plethystic_log(S(3, {0: 1, 1: x}))
    with pytest.raises(SeriesError, match="exponential of refined series"):
        plethystic_exp(S(3, {1: x}))


def test_substitute_ones():
    z = Laurent.monomial({"z1": 1}) + Laurent.monomial({"z2": -1})
    s = TruncatedSeries(2, {1: z}, frozenset({"z1", "z2"}))
    u = s.substitute_ones()
    assert u.coefficient(1) == 2
    assert u.fugacities == frozenset()


def test_json_round_trip():
    big = 10 ** 40 + 7
    s = S(4, {0: 1, 2: big})
    blob = json.dumps(series_to_json(s))
    back = series_from_json(json.loads(blob))
    assert back == s
    assert json.dumps(series_to_json(back), sort_keys=True) == \
        json.dumps(series_to_json(s), sort_keys=True)
    with pytest.raises(ValueError):
        series_from_json({"order": 4, "coeffs": {"3": "1/3"}})


def test_json_round_trip_refined():
    c = Laurent.monomial({"z1": 1, "z2": -2}, 3) + Laurent.monomial({}, -5)
    s = TruncatedSeries(3, {2: c}, frozenset({"z1", "z2"}))
    back = series_from_json(series_to_json(s))
    assert back == s
    assert back.fugacities == s.fugacities


@pytest.mark.parametrize("obj, message", [
    ({"order": 2.5}, "truncation order must be an integer, got 2.5"),
    ({"order": True}, "truncation order must be an integer, got True"),
    ({"order": 2, "coeffs": {"0": 1}},
     "coeffs['0']: expected a string or a list of terms, got 1"),
    ({"order": 2, "coeffs": {"1": [[{"z": 1.5}, "1"]]}, "fugacities": ["z"]},
     "coeffs['1']: malformed term [{'z': 1.5}, '1']"),
    ({"order": 2, "coeffs": {"1": [[{"z": True}, "1"]]}, "fugacities": ["z"]},
     "coeffs['1']: malformed term [{'z': True}, '1']"),
    ({"order": 2, "coeffs": {"1": [[{"z": 1}, 2]]}, "fugacities": ["z"]},
     "coeffs['1']: malformed term [{'z': 1}, 2]"),
    ([], "series JSON must be an object with 'order'"),
    ({"coeffs": {}}, "series JSON must be an object with 'order'"),
    ({"order": 2, "coeffs": []}, "coeffs: expected an object, got []"),
    ({"order": 2, "coeffs": {"x": "1"}}, "coeffs key: expected an integer, got 'x'"),
    ({"order": 2, "coeffs": {"1": [[1, "1"]]}}, "coeffs['1']: malformed term [1, '1']"),
    ({"order": 2, "coeffs": {"1": [[{"z": 1}]]}},
     "coeffs['1']: malformed term [{'z': 1}]"),
    ({"order": 2, "fugacities": 5}, "fugacities: expected a list of strings, got 5"),
    ({"order": 2, "fugacities": "z"},
     "fugacities: expected a list of strings, got 'z'"),
    # Integer text is -?[0-9]+ in ASCII, though int() reads more.
    ({"order": 2, "coeffs": {" 1": "1_0"}}, "coeffs key: expected an integer, got ' 1'"),
    ({"order": 2, "coeffs": {"+1": "1"}}, "coeffs key: expected an integer, got '+1'"),
    ({"order": 2, "coeffs": {"1\n": "1"}}, "coeffs key: expected an integer, got '1\\n'"),
    ({"order": 2, "coeffs": {"\uff12": "1"}},
     "coeffs key: expected an integer, got '\uff12'"),
    ({"order": 2, "coeffs": {1: "1"}}, "coeffs key: expected a string, got 1"),
    ({"order": 2, "coeffs": {"1": "1_0"}}, "coeffs['1']: expected an integer, got '1_0'"),
    ({"order": 2, "coeffs": {"1": "+1"}}, "coeffs['1']: expected an integer, got '+1'"),
    ({"order": 2, "coeffs": {"1": " 1"}}, "coeffs['1']: expected an integer, got ' 1'"),
    ({"order": 2, "coeffs": {"1": "\uff12"}},
     "coeffs['1']: expected an integer, got '\uff12'"),
    ({"order": 2, "coeffs": {"1": "-"}}, "coeffs['1']: expected an integer, got '-'"),
    ({"order": 2, "coeffs": {"1": "--1"}}, "coeffs['1']: expected an integer, got '--1'"),
    ({"order": 2, "coeffs": {"1": [[{"z": 1}, "1_0"]]}, "fugacities": ["z"]},
     "coeffs['1']: expected an integer, got '1_0'"),
    # Every fugacity a term names is declared.
    ({"order": 2, "coeffs": {"1": [[{"z": 1}, "1"]]}},
     "coeffs['1']: fugacity 'z' is not listed under 'fugacities'"),
    ({"order": 2, "coeffs": {"1": [[{"z": 1, "w": -1}, "1"]]}, "fugacities": ["z"]},
     "coeffs['1']: fugacity 'w' is not listed under 'fugacities'"),
], ids=["float-order", "bool-order", "int-coefficient", "float-exponent",
        "bool-exponent", "int-term-coefficient", "not-an-object", "no-order",
        "coeffs-list", "exponent-key-text", "exponent-map-int", "one-element-term",
        "fugacities-int", "fugacities-text", "key-space", "key-plus", "key-newline",
        "key-fullwidth", "key-int", "coefficient-underscore", "coefficient-plus",
        "coefficient-space", "coefficient-fullwidth", "coefficient-minus-only",
        "coefficient-double-minus", "term-coefficient-underscore",
        "undeclared-fugacity", "one-undeclared-fugacity"])
def test_json_rejects_malformed_series(obj, message):
    # Nothing is rounded or coerced: a bad field is named, not read as
    # something else.
    with pytest.raises(SeriesError, match=re.escape(message)):
        series_from_json(obj)


def test_text_rendering():
    assert S(4, {0: 1, 2: 3, 4: 5}).text() == "1 + 3*t^2 + 5*t^4"
    assert S(4, {2: 3, 4: -1}).text() == "3*t^2 - t^4"
    assert S(2, {1: 4}).text() == "4*t"
    assert TruncatedSeries.zero(2).text() == "0"
