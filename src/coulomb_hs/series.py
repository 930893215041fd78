"""Exact truncated power series in the grading variable t.

Every Hilbert series in this package is an exact truncated series: a sparse
map from t-exponent to coefficient, cut off inclusively at a fixed order.
Coefficients are Python integers (arbitrary precision) or :class:`Laurent`
multinomials in named fugacities for refined series; anything else is
rejected.  The plethystic logarithm and exponential of an integer series are
integer series, so they stay in integers too.  There is no floating-point or
rational mode anywhere.
"""

from __future__ import annotations

from collections.abc import Mapping
from math import comb


class SeriesError(ValueError):
    """A malformed series or an operation it does not support; the
    message names the check that failed."""


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
        clean: dict = {}
        for k, v in (terms or {}).items():
            if type(v) is not int:  # bool is not a coefficient either
                raise SeriesError(f"Laurent coefficients must be int, got {v!r}")
            if v:
                clean[k] = v
        self.terms = clean

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

    def __add__(self, other):
        """Sum; the series products of perfbench's traced solve add terms."""
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
        """Product; the series products of perfbench's traced solve scale terms."""
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
        """Terms with exponent 0 in the named fugacity (perfbench's traced solve)."""
        return Laurent({k: v for k, v in self.terms.items()
                        if all(n != name for n, _ in k)})

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


Coefficient = int | Laurent


def check_order(order) -> None:
    """A truncation order is a nonnegative int."""
    if type(order) is not int:  # bool is not an order either
        raise SeriesError(f"truncation order must be an integer, got {order!r}")
    if order < 0:
        raise SeriesError("truncation order must be >= 0")


def _normalize(c) -> Coefficient:
    if isinstance(c, Laurent):
        i = c.as_int()
        if i is None:
            return c
        c = i
    if type(c) is not int:  # bool is not a coefficient either
        raise SeriesError(f"coefficients must be int or Laurent, got {c!r}")
    return c


class TruncatedSeries:
    """Series sum_{k=0}^{order} c_k t^k with exact coefficients.

    The truncation order is inclusive and propagates through arithmetic as
    the minimum across operands, so precision is never silently invented.
    Instances are immutable.
    """

    __slots__ = ("order", "coeffs", "fugacities")

    def __init__(self, order: int, coeffs: Mapping[int, Coefficient] | None = None,
                 fugacities: frozenset = frozenset()):
        check_order(order)
        clean: dict = {}
        for e, c in (coeffs or {}).items():
            if type(e) is not int:  # nor is bool
                raise SeriesError(f"exponents must be int, got {e!r}")
            if not 0 <= e <= order:
                raise SeriesError(f"exponent {e} outside 0..{order}")
            c = _normalize(c)
            if c != 0:
                clean[e] = c
        self.order = order
        self.coeffs = clean
        self.fugacities = frozenset(fugacities)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls(order, {0: 1})

    def coefficient(self, k: int) -> Coefficient:
        if not 0 <= k <= self.order:
            raise SeriesError(f"coefficient {k} beyond truncation order {self.order}")
        return self.coeffs.get(k, 0)

    def _merged_context(self, other: "TruncatedSeries") -> frozenset:
        a, b = self.fugacities, other.fugacities
        if a and b and a != b:
            raise SeriesError(f"fugacity contexts differ: {sorted(a)} vs {sorted(b)}")
        return a | b

    def __mul__(self, other):
        """Product; perfbench's traced solve multiplies refined series too."""
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
                out[e] = out.get(e, 0) + ca * cb
        return TruncatedSeries(order, out, ctx)

    def __pow__(self, k: int):
        """k-th power; perfbench's traced solve raises 1 - t^2 to the refined count."""
        if not isinstance(k, int) or k < 0:
            raise SeriesError("series powers must be nonnegative integers")
        result = TruncatedSeries(self.order, {0: 1}, self.fugacities)
        for _ in range(k):
            result = result * self
        return result

    def constant_term(self, name: str) -> "TruncatedSeries":
        """Exponent-0 part in one fugacity, a residue; perfbench's traced solve takes it."""
        if name not in self.fugacities:
            raise SeriesError(f"series carries no fugacity {name!r}")
        out: dict = {}
        for e, c in self.coeffs.items():
            if isinstance(c, Laurent):
                c = c.constant_part(name)
            out[e] = c
        return TruncatedSeries(self.order, out, self.fugacities - {name})

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __repr__(self):
        return f"TruncatedSeries({self.text()!r}, order={self.order})"

    def text(self) -> str:
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
                te = "t" if e == 1 else f"t^{e}"
                term = te if cs == "1" else f"{cs}*{te}"
            if not parts:
                parts.append(f"-{term}" if neg else term)
            else:
                parts.append(f"- {term}" if neg else f"+ {term}")
        return " ".join(parts)


def _check_degree(d, what: str) -> None:
    """A degree d of 1 - t^d is an int >= 1: 1 - t^0 is 0."""
    if type(d) is not int:  # bool is not a degree either
        raise SeriesError(f"{what} must be an integer, got {d!r}")
    if d < 1:
        raise SeriesError(f"{what} must be >= 1")


def expand_inverse(d: int, order: int) -> TruncatedSeries:
    """Geometric expansion of 1/(1 - t^d) up to the truncation order."""
    _check_degree(d, "pole degree")
    check_order(order)
    return TruncatedSeries(order, {j: 1 for j in range(0, order + 1, d)})


def one_minus_power(d: int, order: int) -> TruncatedSeries:
    """The polynomial 1 - t^d as a truncated series."""
    _check_degree(d, "degree")
    coeffs = {0: 1}
    if d <= order:
        coeffs[d] = -1
    return TruncatedSeries(order, coeffs)


def nilcone_reference_hs(n: int, order: int) -> TruncatedSeries:
    """Closed form prod_{i=1..n}(1 - t^(2i)) / (1 - t^2)^(n^2), expanded."""
    if n < 1:
        raise ValueError("need n >= 1")
    num = TruncatedSeries.one(order)
    for i in range(1, n + 1):
        num = num * one_minus_power(2 * i, order)
    denom = TruncatedSeries(order, {2 * j: comb(n * n - 1 + j, j)
                                    for j in range(order // 2 + 1)})
    return num * denom


def _unrefined(s: TruncatedSeries, what: str) -> None:
    if s.fugacities or any(isinstance(c, Laurent) for c in s.coeffs.values()):
        raise SeriesError(f"{what} of refined series is unsupported")


def plethystic_log(s: TruncatedSeries) -> TruncatedSeries:
    """PL[s] = sum_{n>=1} a_n t^n, where s = prod_{n>=1} (1 - t^n)^(-a_n).

    Positive terms count generators of the graded ring, negative terms count
    relations (and alternating higher syzygies).

    The logarithmic derivative of the product is t s'/s = sum_m b_m t^m with
    b_m = sum_{n | m} n a_n, so the coefficients c of s obey
    m c_m = sum_{j=1..m} b_j c_{m-j}.  That gives each b_m from c, and then
    a_m = (b_m - sum_{n | m, n < m} n a_n) / m.  The division is exact: an
    integer series with constant term 1 is such a product with integer a_n
    (divide out (1 - t^m)^(-a_m) degree by degree), so PL is integral.
    """
    _unrefined(s, "plethystic logarithm")
    if s.coefficient(0) != 1:
        raise SeriesError("PL needs constant term 1")
    K = s.order
    c = [s.coeffs.get(e, 0) for e in range(K + 1)]
    b = [0] * (K + 1)  # b[m] holds the proper divisors' share until step m
    out = {}
    for m in range(1, K + 1):
        bm = m * c[m] - sum(b[j] * c[m - j] for j in range(1, m))
        a = (bm - b[m]) // m
        b[m] = bm
        if a:
            out[m] = a
            for k in range(2 * m, K + 1, m):
                b[k] += m * a
    return TruncatedSeries(K, out)


def plethystic_exp(s: TruncatedSeries) -> TruncatedSeries:
    """PE[sum_n a_n t^n] = prod_{n>=1} (1 - t^n)^(-a_n); inverse transform of PL.

    Runs the recursion of :func:`plethystic_log` the other way: with
    b_m = sum_{n | m} n a_n, c_m = (sum_{j=1..m} b_j c_{m-j}) / m, an exact
    division since a product of integer powers is an integer series.
    """
    _unrefined(s, "plethystic exponential")
    if s.coefficient(0) != 0:
        raise SeriesError("PE needs constant term 0")
    K = s.order
    b = [0] * (K + 1)
    for n, a in s.coeffs.items():
        for m in range(n, K + 1, n):
            b[m] += n * a
    c = [1] + [0] * K
    for m in range(1, K + 1):
        c[m] = sum(b[j] * c[m - j] for j in range(1, m + 1)) // m
    return TruncatedSeries(K, dict(enumerate(c)))


# ---------------------------------------------------------------------------
# serialization


def _encode_coeff(c: Coefficient):
    if isinstance(c, int):
        return str(c)
    return [[{n: e for n, e in key}, str(v)] for key, v in sorted(c.terms.items())]


def series_to_json(s: TruncatedSeries) -> dict:
    out = {"order": s.order,
           "coeffs": {str(e): _encode_coeff(s.coeffs[e]) for e in sorted(s.coeffs)}}
    if s.fugacities:
        out["fugacities"] = sorted(s.fugacities)
    return out
