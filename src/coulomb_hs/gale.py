"""Gale duality for hypertoric data.

A torus embedding is specified by an n x d integer matrix U whose columns
u_1..u_d span rank n.  The dual configuration is the integer kernel of U,
i.e. the lattice of linear dependency relations among the columns, with
its d coordinate functionals as the distinguished dual vectors.  The swap
n <-> d - n exchanges the isometry-torus rank with the number of
deformation parameters of the associated hypertoric space, whose real
dimensions are 4n and 4(d - n).

All linear algebra is exact big-integer arithmetic in one routine, the
row Hermite normal form ``hnf_rows`` (positive pivots, entries above a
pivot reduced into [0, pivot)), which fixes the basis ambiguity and makes
outputs deterministic and the duality an involution on row lattices.  The
kernel of U is the tail of the augmented reduction HNF([U^T | I_d]).
"""

from __future__ import annotations

import json
from collections import namedtuple
from collections.abc import Iterable, Sequence


class GaleError(ValueError):
    pass


class RankDeficientError(GaleError):
    pass


class DimensionMismatchError(GaleError):
    pass


Matrix = tuple  # tuple of row tuples


def hnf_rows(rows: Iterable[Sequence[int]], width: int) -> Matrix:
    """Canonical row Hermite normal form of a row lattice, zero rows
    dropped.  This is the module's one elimination routine."""
    mat = [list(r) for r in rows]
    if any(len(r) != width for r in mat):
        raise GaleError("ragged matrix")
    pivot_row = 0
    for col in range(width):
        pr = None
        for r in range(pivot_row, len(mat)):
            if mat[r][col]:
                pr = r
                break
        if pr is None:
            continue
        mat[pivot_row], mat[pr] = mat[pr], mat[pivot_row]
        # Euclidean elimination below the pivot.
        for r in range(pivot_row + 1, len(mat)):
            while mat[r][col]:
                q = mat[pivot_row][col] // mat[r][col]
                mat[pivot_row] = [a - q * b for a, b in zip(mat[pivot_row], mat[r])]
                mat[pivot_row], mat[r] = mat[r], mat[pivot_row]
        if mat[pivot_row][col] < 0:
            mat[pivot_row] = [-a for a in mat[pivot_row]]
        piv = mat[pivot_row][col]
        for r in range(pivot_row):
            q = mat[r][col] // piv
            if q:
                mat[r] = [a - q * b for a, b in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
    return tuple(tuple(r) for r in mat[:pivot_row])


class ToricConfig:
    """Integer vector configuration: an n x d matrix (stored by rows) whose
    d columns are the defining vectors.  n = 0 (empty configuration in an
    ambient Z^d) is allowed.  Immutable; equal when rows and d are equal."""

    __slots__ = ("rows", "d")

    def __init__(self, rows: Iterable[Sequence[int]], d: int | None = None):
        rows = tuple(tuple(int(x) for x in r) for r in rows)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise GaleError("ragged matrix")
            if d is not None and d != width:
                raise GaleError(f"declared d={d} but rows have width {width}")
            d = width
        elif d is None:
            d = 0
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "d", d)
        if self.n > self.d:
            raise RankDeficientError(f"need n <= d, got n={self.n}, d={self.d}")
        if rows and len(hnf_rows(rows, self.d)) != len(rows):
            raise RankDeficientError("columns do not span full rank")

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return ToricConfig, (self.rows, self.d)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.rows, self.d) == (other.rows, other.d)

    def __hash__(self):
        return hash((self.rows, self.d))

    def __repr__(self):
        return f"ToricConfig(rows={self.rows!r}, d={self.d!r})"

    @property
    def n(self) -> int:
        return len(self.rows)

    @staticmethod
    def from_columns(columns: Iterable[Sequence[int]], n: int | None = None,
                     d: int | None = None) -> "ToricConfig":
        cols = [tuple(int(x) for x in c) for c in columns]
        if d is not None and len(cols) != d:
            raise GaleError(f"expected {d} columns, got {len(cols)}")
        # With no columns the height is the declared n: an n x 0 matrix.
        height = len(cols[0]) if cols else n or 0
        if n is not None and height != n:
            raise GaleError(f"expected columns of height {n}, got {height}")
        if any(len(c) != height for c in cols):
            raise GaleError("ragged columns")
        return ToricConfig(tuple(zip(*cols)) or ((),) * height, d=len(cols))

    @property
    def columns(self) -> Matrix:
        return tuple(tuple(r[j] for r in self.rows) for j in range(self.d))


def kernel_lattice(c: ToricConfig) -> Matrix:
    """Hermite-normal-form basis of the integer kernel of the configuration
    matrix A: the lattice of dependency relations among the columns.

    The rows of [A^T | I_d] span {(A w, w) : w in Z^d}.  In its HNF the
    rows with a pivot among the first n columns come first and stay
    independent there, so the rows whose first n entries vanish, cut to
    their last d entries, are a basis of the kernel: as the tail of a
    normal form, its own HNF.  For n = 0 the HNF of I_d is I_d = Z^d."""
    n, d = c.n, c.d
    aug = [col + tuple(int(i == j) for i in range(d))
           for j, col in enumerate(c.columns)]
    return tuple(r[n:] for r in hnf_rows(aug, n + d) if not any(r[:n]))


def gale_dual(c: ToricConfig) -> ToricConfig:
    """Configuration on the dependency lattice; n and d - n swap roles."""
    return ToricConfig(kernel_lattice(c), d=c.d)


def is_gale_dual_pair(a: ToricConfig, b: ToricConfig) -> bool:
    """True when b's row lattice is exactly the integer kernel of a."""
    if a.d != b.d:
        raise DimensionMismatchError(f"configurations have d={a.d} and d={b.d}")
    if a.n + b.n != a.d:
        return False
    return hnf_rows(b.rows, b.d) == kernel_lattice(a)


DualityReport = namedtuple("DualityReport", "n d dim_primal dim_dual fi_primal fi_dual "
                           "isometry_rank_primal isometry_rank_dual has_torsion")


def duality_report(c: ToricConfig) -> DualityReport:
    """Dimension and parameter bookkeeping for a configuration and its
    dual: 4n vs 4(d-n) dimensions, with deformation-parameter counts and
    isometry ranks exchanged.  Non-primitive data (the column lattice is a
    proper finite-index sublattice of Z^n) is flagged as torsion."""
    n, d = c.n, c.d
    index = 1
    if n:
        h = hnf_rows(c.columns, n)
        for row in h:
            for x in row:
                if x:
                    index *= x
                    break
    return DualityReport(
        n=n, d=d,
        dim_primal=4 * n, dim_dual=4 * (d - n),
        fi_primal=d - n, fi_dual=n,
        isometry_rank_primal=n, isometry_rank_dual=d - n,
        has_torsion=(index != 1),
    )


# ---------------------------------------------------------------------------
# JSON wire format: {"n": ..., "d": ..., "columns": [[...], ...]}


def config_to_json(c: ToricConfig) -> dict:
    return {"n": c.n, "d": c.d, "columns": [list(col) for col in c.columns]}


def config_from_json(obj: dict) -> ToricConfig:
    if not isinstance(obj, dict) or "columns" not in obj:
        raise GaleError("matrix JSON must be an object with 'columns'")
    columns = obj["columns"]
    if not isinstance(columns, list):
        raise GaleError("columns: expected a list")
    for j, col in enumerate(columns):
        if not isinstance(col, list):
            raise GaleError(f"columns[{j}]: expected a list")
        for i, x in enumerate(col):
            if type(x) is not int:  # bool and float entries are not integers
                raise GaleError(f"columns[{j}][{i}]: expected an integer, got {x!r}")
    for key in ("n", "d"):
        if key in obj and type(obj[key]) is not int:
            raise GaleError(f"{key}: expected an integer, got {obj[key]!r}")
        if obj.get(key, 0) < 0:
            raise GaleError(f"{key}: expected a nonnegative integer, got {obj[key]}")
    return ToricConfig.from_columns(columns, obj.get("n"), obj.get("d"))


def load_config(path: str) -> ToricConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GaleError(f"{path}: invalid JSON: {exc}") from None
    return config_from_json(obj)
