"""Exact truncated power series in the grading variable t.

Every Hilbert series in this package is an exact truncated series: a sparse
map from t-exponent to coefficient, cut off inclusively at a fixed order.
Coefficients are Python integers (arbitrary precision), exact
``fractions.Fraction`` values (these appear only inside plethystic
logarithms), or :class:`Laurent` multinomials in named fugacities for
refined series.  There is no floating-point mode anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Union


class SeriesError(ValueError):
    """Base class for series-algebra failures."""


class FugacityMismatchError(SeriesError):
    pass


class UnknownFugacityError(SeriesError):
    pass


class OrderExceededError(SeriesError):
    pass


class NonUnitConstantTermError(SeriesError):
    pass


class NonzeroConstantTermError(SeriesError):
    pass


# Term key of a Laurent multinomial: sorted (name, exponent) pairs, all
# exponents nonzero.
ExpKey = tuple


class Laurent:
    """Laurent multinomial in named fugacities, integer coefficients.

    Canonical form: no zero coefficients stored, term keys carry no zero
    exponents.  Instances are treated as immutable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[ExpKey, int] | None = None):
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @staticmethod
    def monomial(exponents: Mapping[str, int], coeff: int = 1) -> "Laurent":
        key = tuple(sorted((n, e) for n, e in exponents.items() if e))
        return Laurent({key: coeff})

    def names(self) -> set:
        out = set()
        for key in self.terms:
            out.update(n for n, _ in key)
        return out

    def as_int(self):
        """Integer value if fugacity-free, else None."""
        if not self.terms:
            return 0
        if len(self.terms) == 1 and () in self.terms:
            return self.terms[()]
        return None

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, Laurent):
            return self.terms == other.terms
        if isinstance(other, int):
            return self.as_int() == other
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __neg__(self):
        return Laurent({k: -v for k, v in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, int):
            other = Laurent({(): other})
        if not isinstance(other, Laurent):
            return NotImplemented
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return Laurent(out)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, int):
            return Laurent({k: v * other for k, v in self.terms.items()})
        if not isinstance(other, Laurent):
            return NotImplemented
        out: dict = {}
        for ka, va in self.terms.items():
            da = dict(ka)
            for kb, vb in other.terms.items():
                d = dict(da)
                for n, e in kb:
                    d[n] = d.get(n, 0) + e
                key = tuple(sorted((n, e) for n, e in d.items() if e))
                out[key] = out.get(key, 0) + va * vb
        return Laurent(out)

    __rmul__ = __mul__

    def constant_part(self, name: str) -> "Laurent":
        """Terms with exponent 0 in the named fugacity."""
        return Laurent({k: v for k, v in self.terms.items()
                        if all(n != name for n, _ in k)})

    def substitute_one(self, name: str) -> "Laurent":
        """Set the named fugacity to 1."""
        out: dict = {}
        for k, v in self.terms.items():
            key = tuple(p for p in k if p[0] != name)
            out[key] = out.get(key, 0) + v
        return Laurent(out)

    def text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms):
            c = self.terms[key]
            mono = "*".join(f"{n}^{e}" if e != 1 else n for n, e in key)
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"Laurent({self.text()})"


Coefficient = Union[int, Fraction, Laurent]


def _normalize(c: Coefficient) -> Coefficient:
    if isinstance(c, Laurent):
        i = c.as_int()
        return i if i is not None else c
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def _cadd(a: Coefficient, b: Coefficient) -> Coefficient:
    if isinstance(a, Laurent) and isinstance(b, Fraction):
        raise SeriesError("cannot mix rational and refined coefficients")
    if isinstance(b, Laurent) and isinstance(a, Fraction):
        raise SeriesError("cannot mix rational and refined coefficients")
    return a + b


def _cmul(a: Coefficient, b: Coefficient) -> Coefficient:
    if isinstance(a, Laurent) and isinstance(b, Fraction):
        raise SeriesError("cannot mix rational and refined coefficients")
    if isinstance(b, Laurent) and isinstance(a, Fraction):
        raise SeriesError("cannot mix rational and refined coefficients")
    return a * b


class TruncatedSeries:
    """Series sum_{k=0}^{order} c_k t^k with exact coefficients.

    The truncation order is inclusive and propagates through arithmetic as
    the minimum across operands, so precision is never silently invented.
    Instances are immutable.
    """

    __slots__ = ("order", "coeffs", "fugacities")

    def __init__(self, order: int, coeffs: Mapping[int, Coefficient] | None = None,
                 fugacities: frozenset = frozenset()):
        if order < 0:
            raise SeriesError("truncation order must be >= 0")
        clean: dict = {}
        for e, c in (coeffs or {}).items():
            if not 0 <= e <= order:
                raise OrderExceededError(f"exponent {e} outside 0..{order}")
            c = _normalize(c)
            if c != 0:
                clean[e] = c
        self.order = order
        self.coeffs = clean
        self.fugacities = frozenset(fugacities)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls(order, {0: 1})

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls(order, {})

    def coefficient(self, k: int) -> Coefficient:
        if not 0 <= k <= self.order:
            raise OrderExceededError(
                f"coefficient {k} beyond truncation order {self.order}")
        return self.coeffs.get(k, 0)

    def _merged_context(self, other: "TruncatedSeries") -> frozenset:
        a, b = self.fugacities, other.fugacities
        if a and b and a != b:
            raise FugacityMismatchError(
                f"fugacity contexts differ: {sorted(a)} vs {sorted(b)}")
        return a | b

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries(self.order, {0: other})
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        ctx = self._merged_context(other)
        order = min(self.order, other.order)
        out = {e: c for e, c in self.coeffs.items() if e <= order}
        for e, c in other.coeffs.items():
            if e <= order:
                out[e] = _cadd(out.get(e, 0), c)
        return TruncatedSeries(order, out, ctx)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(self.order, {e: -c for e, c in self.coeffs.items()},
                               self.fugacities)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries(self.order, {0: other})
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        ctx = self._merged_context(other)
        order = min(self.order, other.order)
        out: dict = {}
        for ea, ca in self.coeffs.items():
            if ea > order:
                continue
            for eb, cb in other.coeffs.items():
                e = ea + eb
                if e > order:
                    continue
                out[e] = _cadd(out.get(e, 0), _cmul(ca, cb))
        return TruncatedSeries(order, out, ctx)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise SeriesError("series powers must be nonnegative integers")
        result = TruncatedSeries(self.order, {0: 1}, self.fugacities)
        for _ in range(k):
            result = result * self
        return result

    def scale(self, c: Coefficient) -> "TruncatedSeries":
        return TruncatedSeries(self.order,
                               {e: _cmul(v, c) for e, v in self.coeffs.items()},
                               self.fugacities)

    def truncate(self, order: int) -> "TruncatedSeries":
        order = min(order, self.order)
        return TruncatedSeries(order,
                               {e: c for e, c in self.coeffs.items() if e <= order},
                               self.fugacities)

    def scale_exponents(self, k: int) -> "TruncatedSeries":
        """Substitute t -> t^k, keeping the original truncation order."""
        if k < 1:
            raise SeriesError("exponent scale must be >= 1")
        return TruncatedSeries(self.order,
                               {e * k: c for e, c in self.coeffs.items()
                                if e * k <= self.order},
                               self.fugacities)

    def constant_term(self, name: str) -> "TruncatedSeries":
        """Residue integral in one fugacity: keep its exponent-0 part."""
        if name not in self.fugacities:
            raise UnknownFugacityError(f"series carries no fugacity {name!r}")
        out: dict = {}
        for e, c in self.coeffs.items():
            if isinstance(c, Laurent):
                c = c.constant_part(name)
            out[e] = c
        return TruncatedSeries(self.order, out, self.fugacities - {name})

    def substitute_ones(self) -> "TruncatedSeries":
        """Set every fugacity to 1 (unrefinement)."""
        out: dict = {}
        for e, c in self.coeffs.items():
            if isinstance(c, Laurent):
                for name in sorted(c.names()):
                    c = c.substitute_one(name)
            out[e] = c
        return TruncatedSeries(self.order, out, frozenset())

    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self.coeffs.values())

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __repr__(self):
        return f"TruncatedSeries({self.text()!r}, order={self.order})"

    def text(self, var: str = "t") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if isinstance(c, Laurent):
                cs = f"({c.text()})"
                neg = False
            else:
                neg = c < 0
                c = abs(c)
                cs = str(c)
            if e == 0:
                term = cs
            else:
                te = var if e == 1 else f"{var}^{e}"
                term = te if cs == "1" else f"{cs}*{te}"
            if not parts:
                parts.append(f"-{term}" if neg else term)
            else:
                parts.append(f"- {term}" if neg else f"+ {term}")
        return " ".join(parts)


def expand_inverse(d: int, order: int) -> TruncatedSeries:
    """Geometric expansion of 1/(1 - t^d) up to the truncation order."""
    if d < 1:
        raise SeriesError("pole degree must be >= 1")
    return TruncatedSeries(order, {j: 1 for j in range(0, order + 1, d)})


def one_minus_power(d: int, order: int) -> TruncatedSeries:
    """The polynomial 1 - t^d as a truncated series."""
    coeffs = {0: 1}
    if d <= order:
        coeffs[d] = -1
    return TruncatedSeries(order, coeffs)


def _mobius(k: int) -> int:
    if k == 1:
        return 1
    mu, p = 1, 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            mu = -mu
        p += 1
    if k > 1:
        mu = -mu
    return mu


def plethystic_log(s: TruncatedSeries, order: int | None = None) -> TruncatedSeries:
    """PL[s](t) = sum_{k>=1} mu(k)/k * log s(t^k), exact rationals.

    Positive terms count generators of the graded ring, negative terms count
    relations (and alternating higher syzygies).
    """
    if s.fugacities:
        raise SeriesError("plethystic logarithm of refined series is unsupported")
    if s.coefficient(0) != 1:
        raise NonUnitConstantTermError("PL needs constant term 1")
    K = s.order if order is None else min(order, s.order)
    x = (s - 1).truncate(K)
    # log(1 + x) with x of valuation >= 1: terminates at power K.
    log_s = TruncatedSeries.zero(K)
    power = TruncatedSeries.one(K)
    for j in range(1, K + 1):
        power = power * x
        if not power.coeffs:
            break
        log_s = log_s + power.scale(Fraction((-1) ** (j + 1), j))
    out = TruncatedSeries.zero(K)
    for k in range(1, K + 1):
        mu = _mobius(k)
        if mu:
            out = out + log_s.scale_exponents(k).scale(Fraction(mu, k))
    return out


def plethystic_exp(s: TruncatedSeries, order: int | None = None) -> TruncatedSeries:
    """PE[s](t) = exp(sum_{k>=1} s(t^k)/k); inverse transform of PL."""
    if s.fugacities:
        raise SeriesError("plethystic exponential of refined series is unsupported")
    if s.coefficient(0) != 0:
        raise NonzeroConstantTermError("PE needs constant term 0")
    K = s.order if order is None else min(order, s.order)
    arg = TruncatedSeries.zero(K)
    for k in range(1, K + 1):
        arg = arg + s.scale_exponents(k).scale(Fraction(1, k))
    out = TruncatedSeries.one(K)
    power = TruncatedSeries.one(K)
    fact = 1
    for j in range(1, K + 1):
        power = power * arg
        if not power.coeffs:
            break
        fact *= j
        out = out + power.scale(Fraction(1, fact))
    return out


# ---------------------------------------------------------------------------
# serialization


def _encode_coeff(c: Coefficient):
    if isinstance(c, int):
        return str(c)
    if isinstance(c, Fraction):
        return f"{c.numerator}/{c.denominator}"
    return [[{n: e for n, e in key}, str(v)] for key, v in sorted(c.terms.items())]


def _decode_coeff(obj) -> Coefficient:
    if isinstance(obj, str):
        if "/" in obj:
            num, den = obj.split("/")
            return Fraction(int(num), int(den))
        return int(obj)
    terms = {}
    for expvec, v in obj:
        key = tuple(sorted((n, int(e)) for n, e in expvec.items() if int(e)))
        terms[key] = int(v)
    return Laurent(terms)


def series_to_json(s: TruncatedSeries) -> dict:
    out = {"order": s.order,
           "coeffs": {str(e): _encode_coeff(s.coeffs[e]) for e in sorted(s.coeffs)}}
    if s.fugacities:
        out["fugacities"] = sorted(s.fugacities)
    return out


def series_from_json(obj: dict) -> TruncatedSeries:
    coeffs = {int(e): _decode_coeff(c) for e, c in obj.get("coeffs", {}).items()}
    return TruncatedSeries(int(obj["order"]), coeffs,
                           frozenset(obj.get("fugacities", ())))
