"""Exact structure-constant Lie algebras over the rationals.

The central object is the seven-dimensional extension of the planar
(two space dimensions plus time) Galilei algebra.  Its basis is

    N1, N2, P1, P2, H, M, E

where N_i generate boosts, P_i space translations, H time translations,
M rotations, and E, central and last, is the enveloping algebra's unit,
whose words are over the first six in this order.  With eps_12 = +1 the
nonzero brackets are

    [N_i, H]  = P_i            [N_i, N_j] = k eps_ij E
    [M,  P_i] = eps_ij P_j     [N_i, P_j] = m delta_ij E
    [M,  N_i] = eps_ij N_j     [M,  H]    = l E

for three rational charges (k, m, l).  All arithmetic is exact: scalars
are `fractions.Fraction` and structure constants are stored as a dense
rank-3 tuple tensor c[i][j][n] with [X_i, X_j] = sum_n c[i][j][n] X_n.
With `Poly` charges they are polynomials in (k, m, l), and `==` between two
such values is an identity in the charges, so one evaluation proves a check
for every charge set at once.

Every value here is immutable once built (a `Poly` is never changed, a record
refuses to set or delete a field) and can be shared freely between threads.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from fractions import Fraction
from itertools import product

GALILEI_LABELS = ("N1", "N2", "P1", "P2", "H", "M", "E")
_INDEX = {lbl: i for i, lbl in enumerate(GALILEI_LABELS)}

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _as_rational(x) -> Fraction:
    if isinstance(x, Fraction) or type(x) is Poly:  # a Poly subclass is no charge
        return x
    if isinstance(x, int) or isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class Poly(dict):
    """A polynomial over Fraction in commuting symbols: it maps each monomial,
    the sorted tuple of its symbols (repeated for a power), to a nonzero
    coefficient, so zero is the empty, falsy Poly and ``==`` is polynomial
    equality.  Floats raise TypeError, and so does a division other than by a
    monomial that divides every term; operands and results take ``type(self)``."""

    def __init__(self, terms):
        """From {monomial: coefficient}, or from a number as a constant."""
        terms = terms if type(terms) in (dict, Poly) else {(): _as_rational(terms)}
        super().__init__((mono, c) for mono, c in terms.items() if c)

    @staticmethod
    def symbol(name: str) -> "Poly":
        return Poly({(name,): _ONE})

    def __add__(self, other) -> "Poly":
        terms = dict(self)
        for mono, c in type(self)(other).items():
            terms[mono] = terms.get(mono, _ZERO) + c
        return type(self)(terms)

    def __mul__(self, other) -> "Poly":
        terms: dict = {}
        for (ma, a), (mb, b) in product(self.items(), type(self)(other).items()):
            mono = tuple(sorted(ma + mb))
            terms[mono] = terms.get(mono, _ZERO) + a * b
        return type(self)(terms)

    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self) -> "Poly":
        return self * -1

    def __sub__(self, other) -> "Poly":
        return self + -type(self)(other)

    def __rsub__(self, other) -> "Poly":
        return -self + other

    def __truediv__(self, other) -> "Poly":
        divisor = type(self)(other)
        if len(divisor) != 1:
            raise TypeError("a Poly divides only by a nonzero monomial")
        ((mono, c),) = divisor.items()
        terms = {}
        for ma, a in self.items():
            rest = list(ma)  # stays sorted as symbols are removed
            for name in mono:
                if name not in rest:
                    raise TypeError(f"{mono} does not divide {ma}")
                rest.remove(name)
            terms[tuple(rest)] = a / c
        return type(self)(terms)

    def __rtruediv__(self, other) -> "Poly":
        return type(self)(other) / self

    def __eq__(self, other):
        """Equal as polynomials of one type, an int or a Fraction counting as a
        constant.  Nothing else is compared: a float or a str is never equal to a Poly."""
        if not isinstance(other, (Poly, int, Fraction)):
            return NotImplemented
        other = other if isinstance(other, Poly) else type(self)(other)  # no copy of a Poly
        return type(other) is type(self) and dict.__eq__(self, other)  # both canonical

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal


class _Record:
    """An immutable record of the fields its subclass lists in ``__slots__``.
    Like a frozen dataclass it equals only a record of its own class with equal
    fields, and hashes by them: both go through ``__reduce__``."""

    __slots__ = ("__weakref__",)

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self.__reduce__() == other.__reduce__() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self.__reduce__())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class ExtensionParams(_Record):
    """The three central charges (k, m, l) of the extended algebra."""

    __slots__ = ("k", "m", "l")

    def __init__(self, k: Fraction, m: Fraction, l: Fraction):
        super().__init__(_as_rational(k), _as_rational(m), _as_rational(l))

    def __repr__(self):
        return f"ExtensionParams(k={self.k}, m={self.m}, l={self.l})"

    @property
    def k_shift(self):
        """s = k/(2m), the boost shift N_i -> N_i + s eps_ij P_j that removes k;
        m != 0.  Plain division, so at `Poly` charges (2ms, m, l) it is s."""
        if self.m == 0:
            raise ValueError("m = 0: the charge k cannot be shifted away")
        return self.k / (2 * self.m)


class LieAlgebra(_Record):
    """A finite-dimensional algebra given by labels and a bracket tensor.

    The tensor is not validated on construction; use
    :func:`antisymmetry_defect` and :func:`jacobi_defect` to certify
    that it actually defines a Lie algebra.  ``==`` is exact structural
    equality: the same labels and equal tensors, which with `Poly` entries
    is an identity in their symbols.
    """

    __slots__ = ("labels", "tensor")  # tensor[i][j][n] = coefficient of X_n in [X_i, X_j]

    def __init__(self, labels: tuple[str, ...], tensor: tuple):
        super().__init__(labels, tensor)

    def __repr__(self):
        return f"LieAlgebra(labels={self.labels!r}, tensor={self.tensor!r})"

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no basis element named {label!r}") from None


def _freeze_tensor(t: Sequence[Sequence[Sequence[Fraction]]]) -> tuple:
    return tuple(tuple(tuple(row) for row in plane) for plane in t)


def _zero_tensor(dim: int) -> list:
    return [[[_ZERO] * dim for _ in range(dim)] for _ in range(dim)]


def make_galilei_algebra(params: ExtensionParams) -> LieAlgebra:
    """The extended planar Galilei algebra g_(k,m,l); the charges may be `Poly`s."""
    c = _zero_tensor(len(GALILEI_LABELS))

    def put(a: str, b: str, result: Mapping[str, Fraction]):
        ia, ib = _INDEX[a], _INDEX[b]
        for lbl, co in result.items():
            c[ia][ib][_INDEX[lbl]] = co
            c[ib][ia][_INDEX[lbl]] = -co

    put("N1", "H", {"P1": _ONE})
    put("N2", "H", {"P2": _ONE})
    put("N1", "N2", {"E": params.k})
    put("M", "P1", {"P2": _ONE})
    put("M", "P2", {"P1": -_ONE})
    put("N1", "P1", {"E": params.m})
    put("N2", "P2", {"E": params.m})
    put("M", "N1", {"N2": _ONE})
    put("M", "N2", {"N1": -_ONE})
    put("M", "H", {"E": params.l})
    return LieAlgebra(GALILEI_LABELS, _freeze_tensor(c))


def _nonzero_rows(alg: LieAlgebra) -> list:
    """rows[i][j] = [(n, coeff), ...] for the nonzero bracket entries."""
    dim = alg.dim
    return [
        [
            [(n, cn) for n, cn in enumerate(alg.tensor[i][j]) if cn]
            for j in range(dim)
        ]
        for i in range(dim)
    ]


def antisymmetry_defect(alg: LieAlgebra) -> Fraction:
    """max |c[i][j][n] + c[j][i][n]| over pairs not both zero; zero iff antisymmetric."""
    dim, c = alg.dim, alg.tensor
    return worst_defect((abs(x + y) for i in range(dim) for j in range(i, dim)
                         for x, y in zip(c[i][j], c[j][i]) if x or y), _ZERO)


def jacobi_entries(alg: LieAlgebra):
    """The entries sum_m (c_ijm c_mkn + c_jkm c_min + c_kim c_mjn) of the
    Jacobi tensor that some pair of brackets reaches (all others are zero)."""
    rows = _nonzero_rows(alg)
    for i, j, k in product(range(alg.dim), repeat=3):
        acc: dict[int, Fraction] = {}
        for (a, b, c3) in ((i, j, k), (j, k, i), (k, i, j)):
            for m, cv in rows[a][b]:
                for n, cw in rows[m][c3]:
                    acc[n] = acc.get(n, _ZERO) + cv * cw
        yield from acc.values()


def jacobi_defect(alg: LieAlgebra) -> Fraction:
    """max over (i,j,k,n) of |sum_m (c_ijm c_mkn + c_jkm c_min + c_kim c_mjn)|."""
    return worst_defect(map(abs, jacobi_entries(alg)), _ZERO)


def apply_basis_change(
    alg: LieAlgebra, T: Sequence[Sequence[Fraction]], T_inv: Sequence[Sequence[Fraction]]
) -> LieAlgebra:
    """Structure constants of `alg` rewritten in the basis X_i' = sum_j T[i][j] X_j.

    `T_inv` is the inverse of T.  T.T_inv = I is checked exactly, which with
    `Poly` entries is an identity in their symbols; a mismatch raises ValueError.
    """
    dim = alg.dim
    if any(len(M) != dim or any(len(row) != dim for row in M) for M in (T, T_inv)):
        raise ValueError("dimension mismatch")

    def times(row, M):
        """row.M, skipping zero entries."""
        acc = [_ZERO] * dim
        for a, x in enumerate(row):
            if x:
                for kk, w in enumerate(M[a]):
                    if w:
                        acc[kk] += x * w
        return acc

    if any(times(T[i], T_inv) != [int(i == j) for j in range(dim)] for i in range(dim)):
        raise ValueError("T_inv is not the inverse of T")
    rows = _nonzero_rows(alg)
    out = _zero_tensor(dim)
    for i in range(dim):
        for j in range(dim):
            # [X_i', X_j'] in the old basis
            acc = [_ZERO] * dim
            for a in range(dim):
                tia = T[i][a]
                if not tia:
                    continue
                for b in range(dim):
                    tjb = T[j][b]
                    if not tjb:
                        continue
                    f = tia * tjb
                    for n, cn in rows[a][b]:
                        acc[n] += f * cn
            # re-express in the new basis: X_n = sum_k T_inv[n][k] X_k'
            out[i][j] = times(acc, T_inv)
    return LieAlgebra(alg.labels, _freeze_tensor(out))


def eliminate_k_change(params: ExtensionParams) -> tuple:
    """Matrix of the basis change N_i -> N_i + (k/2m) eps_ij P_j removing the
    boost-boost charge, a tuple of rows for `apply_basis_change`.  The shift
    moves N_i only by P's, which it fixes, so its inverse is the shift by
    -k/(2m): the matrix at charges (-k, m, l).

    Requires m != 0 (`ExtensionParams.k_shift`).  Applying it to g_(k,m,l)
    yields an algebra structurally equal to g_(0,m,l); the shift direction is
    frozen by a regression test against that structural equality.
    """
    shift = params.k_shift
    dim = len(GALILEI_LABELS)
    rows = [[_ONE if i == j else _ZERO for j in range(dim)] for i in range(dim)]
    rows[_INDEX["N1"]][_INDEX["P2"]] = shift
    rows[_INDEX["N2"]][_INDEX["P1"]] = -shift
    return tuple(tuple(r) for r in rows)


def removes_k(params: ExtensionParams) -> bool:
    """True when `eliminate_k_change` takes g_(k,m,l) exactly onto g_(0,m,l); m != 0.

    At `Poly` charges (2ms, m, l) it runs unchanged and decides the identity in
    m, l and s = k/(2m): `k_shift` is the exact division 2ms/(2m), and the
    inverse is the closed form `eliminate_k_change` at (-k, m, l), no division.
    """
    inverse = eliminate_k_change(ExtensionParams(-params.k, params.m, params.l))
    removed = apply_basis_change(make_galilei_algebra(params), eliminate_k_change(params), inverse)
    return removed == make_galilei_algebra(ExtensionParams(0, params.m, params.l))


def worst_defect(defects, zero):
    """Largest of `defects`, or `zero` when none exceeds it; fails closed.

    Ties keep the earlier value, so an all-zero exact set returns `zero`
    with its type (a Fraction stays a Fraction).  A NaN or +-inf defect,
    or zero, makes the result NaN, which no `< tol` or `== 0` test
    accepts; builtin max() would drop a NaN that is not the first value.
    Every defect is consumed, so a seeded caller draws the same samples
    whether or not one of them fails.
    """
    worst, finite = zero, True
    for d in defects:
        if d > worst:
            worst = d
        elif not d > -math.inf:  # NaN or -inf
            finite = False
    return worst if finite and -math.inf < worst < math.inf else math.nan

