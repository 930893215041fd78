"""Root-system data for U(n), SO(n) and USp(2m): dominant magnetic
chambers, the Weyl vector, residual stabilizers and Casimir degrees.

Magnetic charges are integer tuples throughout (no spinor or coweight
refinements).  Dominant chambers:

* U(N):      m_1 >= ... >= m_N, entries in Z
* USp(2r):   m_1 >= ... >= m_r >= 0
* SO(2r+1):  m_1 >= ... >= m_r >= 0
* SO(2r):    m_1 >= ... >= m_{r-1} >= |m_r|
* SO(2):     a single unconstrained integer (SO(2) is the torus U(1))
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import comb
from operator import neg, sub

from .quiver import Family, GaugeGroup, QuiverError


class ChamberViolationError(QuiverError):
    pass


Charge = tuple


def validate_charge(g: GaugeGroup, m: Charge) -> None:
    """Raise ChamberViolationError unless m is a dominant representative."""
    m = tuple(m)
    r = g.rank
    if len(m) != r:
        raise ChamberViolationError(f"{g}: charge {m} has wrong length (rank {r})")
    if any(type(x) is not int for x in m):  # bool entries are not integers
        raise ChamberViolationError(f"{g}: charge entries must be integers")
    if g.family is Family.UNITARY:
        ok = all(m[i] >= m[i + 1] for i in range(r - 1))
    elif g.family is Family.SYMPLECTIC:
        ok = all(m[i] >= m[i + 1] for i in range(r - 1)) and (r == 0 or m[-1] >= 0)
    elif g.n % 2:  # SO(odd)
        ok = all(m[i] >= m[i + 1] for i in range(r - 1)) and (r == 0 or m[-1] >= 0)
    elif r == 1:   # SO(2): every integer
        ok = True
    else:          # SO(even), rank >= 2
        ok = all(m[i] >= m[i + 1] for i in range(r - 2)) and m[r - 2] >= abs(m[r - 1])
    if not ok:
        raise ChamberViolationError(f"{g}: charge {m} is outside the dominant chamber")


def weyl_vector(g: GaugeGroup) -> tuple:
    """2*rho, twice the Weyl vector of g, in the charge coordinates.

    On the dominant chamber every positive root is nonnegative, so the sum
    of |alpha(m)| over the positive roots alpha is the dot product
    <2*rho, m>.  For SO(2r) the last entry's weight is 0: its roots
    m_i -+ m_r cancel in it, which is why a negative last entry changes
    nothing."""
    r = g.rank
    if g.family is Family.UNITARY:
        return tuple(range(r - 1, -r, -2))
    if g.family is Family.SYMPLECTIC:
        return tuple(range(2 * r, 0, -2))
    if g.n % 2:
        return tuple(range(2 * r - 1, 0, -2))
    return tuple(range(2 * r - 2, -1, -2))


def _residual_blocks(g: GaugeGroup, m: Charge) -> tuple:
    """The residual stabilizer of a dominant charge m as ``(n0, sizes)``:
    the SO(n0) or USp(n0) block on the zero entries (n0 = 0 if none, and
    for U(N)), and the k of each U(k) factor, in descending order.  A
    dominant charge keeps equal entries (off the unitary family, equal
    |entries|, zeros last) adjacent, so each factor is one run."""
    unitary = g.family is Family.UNITARY
    sizes: list = []
    prev = None
    for x in (m if unitary else map(abs, m)):
        if x == prev:
            sizes[-1] += 1
        else:
            sizes.append(1)
            prev = x
    if unitary or prev != 0:
        return 0, sizes
    return 2 * sizes.pop() + g.n % 2, sizes


def casimir_degrees(g: GaugeGroup) -> tuple:
    """Degrees of the generators of the adjoint invariant ring."""
    return _casimir_degrees(g.family, g.n)


def _casimir_degrees(family: Family, n: int) -> tuple:
    if family is Family.UNITARY:
        return tuple(range(1, n + 1))
    r = n // 2
    if family is Family.SYMPLECTIC or n % 2:
        return tuple(range(2, 2 * r + 1, 2))
    if r == 1:  # SO(2) is a torus
        return (1,)
    return tuple(sorted(list(range(2, 2 * r - 1, 2)) + [r]))


def dressing_degrees(g: GaugeGroup, m: Charge) -> list:
    """Casimir degrees of the residual stabilizer, ready for the dressing
    factor: the zero block's, then 1..k per U(k) factor."""
    validate_charge(g, m)
    return _dressing_degrees(g, m)


def _dressing_degrees(g: GaugeGroup, m: Charge) -> list:
    """``dressing_degrees`` of a charge known to be dominant, unvalidated:
    the engine's charges all come from ``dominant_charges``."""
    n0, sizes = _residual_blocks(g, m)
    out = list(_casimir_degrees(g.family, n0)) if n0 else []
    for k in sizes:
        out.extend(range(1, k + 1))
    return out


def _dressing_coeffs(degrees: tuple, order: int) -> tuple:
    """The coefficients of t^(2j), j = 0..order, of the dressing factor
    prod_d 1 / (1 - t^(2d)) over the Casimir ``degrees``."""
    arr = [0] * (order + 1)
    arr[0] = 1
    for d in degrees:
        step = 2 * d
        for e in range(step, order + 1):
            arr[e] += arr[e - step]
    return tuple(arr)


def dominant_charges(g: GaugeGroup, bound: int, floor=(), cap=None) -> list:
    """All dominant charges with max |entry| <= bound, descending-lex.

    With a ``cap``, and ``floor`` a list of r + 1 integers with floor[0] =
    0, a U(r) charge m is kept only when its spread is at most ``bound``,
    max(m_1, 0) + max(-m_r, 0) <= bound, and any charge only when its
    floor F(m) is at most ``cap``.  F(m) is the sum over the levels k >= 1
    of floor[#{i : m+_i >= k}] + floor[#{i : m-_i >= k}], where on U(r) m+
    = max(m, 0) and m- = max(-m, 0), each sorted descending, and on the
    other groups m+ = |m| and m- = 0.  As floor[c] is the sum of floor[i]
    - floor[i - 1] over i <= c, and m+_i levels k have #{i : m+_i >= k} >=
    i, F is one dot product: the sum over i of (floor[i] - floor[i - 1]) *
    (m+_i + m-_i), with m-_i = max(-m_(r+1-i), 0) on U(r).  A charge of
    spread at most ``bound`` has at most ``bound`` levels, so when
    ``bound * max(floor[1:]) <= cap`` no F is computed: only the spread
    test runs."""
    if bound < 0:
        raise ValueError("bound must be >= 0")
    r = g.rank
    fam = g.family
    if fam is Family.UNITARY:
        alphabet = range(bound, -bound - 1, -1)
        out = [m for m in combinations_with_replacement(alphabet, r)
               if cap is None or m[0] - m[-1] <= bound]
    elif fam is Family.SYMPLECTIC or g.n % 2:
        out = list(combinations_with_replacement(range(bound, -1, -1), r))
    elif r == 1:  # SO(2)
        out = [(x,) for x in range(bound, -bound - 1, -1)]
    else:
        out = []
        for t in combinations_with_replacement(range(bound, -1, -1), r):
            out.append(t)
            if t[-1] > 0:
                out.append(t[:-1] + (-t[-1],))
        out.sort(reverse=True)
    if cap is None or bound * max(floor[1:], default=0) <= cap:
        return out
    up = list(map(sub, floor[1:], floor))
    down = up[::-1] if fam is Family.UNITARY else up  # for entries x < 0
    return [m for m in out
            if sum(x * u if x > 0 else -x * d for x, u, d in zip(m, up, down)) <= cap]


def negation(g: GaugeGroup, cands: list) -> list | None:
    """The index map of charge conjugation sigma on ``cands``, a list of
    U(r) charges closed under it: ``cands[out[i]]`` is -``cands[i]``
    reversed, the dominant representative of the negated charge.  None on
    every other group: USp, SO(odd) and SO(4k) map each charge to itself,
    and SO(2) and SO(4k+2), on which sigma flips the sign of the last
    entry, are left alone."""
    if g.family is not Family.UNITARY:
        return None
    at = {c: i for i, c in enumerate(cands)}
    return [at[tuple(map(neg, c[::-1]))] for c in cands]


def dominant_charge_count(g: GaugeGroup, bound: int) -> int:
    """``len(dominant_charges(g, bound))`` in closed form: the multisets of
    r entries from 2*bound + 1 values for U(r), from bound + 1 values for
    USp(2r) and SO(2r+1), and for SO(2r), SO(2) included, those plus the
    ones with a positive last entry, whose sign flips."""
    r = g.rank
    if g.family is Family.UNITARY:
        return comb(2 * bound + r, r)
    if g.family is Family.SYMPLECTIC or g.n % 2:
        return comb(bound + r, r)
    return comb(bound + r, r) + comb(bound + r - 1, r)
