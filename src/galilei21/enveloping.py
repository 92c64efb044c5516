"""Normal-ordered enveloping algebra of the extended Galilei algebra.

A monomial is a sorted word of generator indices into GEN_NAMES, so
(0, 0, 3, 4) is N1^2 P2 H: the generators stand in the fixed sequence
N1 N2 P1 P2 H M, and these words are the Poincare-Birkhoff-Witt basis
(Dixmier, Enveloping Algebras, ch. 2).  A polynomial is a sparse map from
such words to rational coefficients.  The central element E
of the underlying algebra is evaluated to the scalar unit, so brackets
like [N1, P1] = m E contribute plain numbers when products are reordered.

Products are normalized by repeatedly replacing an adjacent out-of-order
pair X Y with Y X + [X, Y]; every rewrite either removes an inversion at
fixed degree or lowers the degree, so the process terminates.  The
leftmost out-of-order pair is rewritten first; confluence is certified
by the associativity tests rather than assumed.  Each top-level call
(`no_mul`, `no_commutators`, `is_central`, `centralizer_basis`) takes the
charges (k, m, l) and builds one memo of normal forms over
`make_galilei_algebra` for all of its products; nothing refers back to
the memo, so it is freed by the time the call returns, and nothing is
kept between calls.

The memo holds integers, not fractions: with D the least common
denominator of the structure constants, the normal form of a word of
length n is stored as the integer numerators of D**n times it.  A
rewrite that drops the word by one letter (a generator term) or two (a
scalar) multiplies by its constant times D or D**2, which is an integer,
and `_product` divides by D**n once per pair of terms.

The bounded-degree centralizer search solves [g, X] = 0 in exact integer
arithmetic, with rows for g in {N1, H, M} only: [N1,H] = P1, [M,N1] = N2
and [N2,H] = P2 at every charge set, so by Jacobi, which holds identically
in the charges, X then commutes with all six generators and the kernel is
unchanged (tests/test_enveloping.py proves both premises at symbolic
charges).  Each column of the system, a monomial of length n,
is scaled by D**(max degree - n), so every row is integral.  The
eliminator takes the rows sparsest first, so the early pivots are short
and the many redundant rows reduce to zero against them cheaply.  The
order cannot change a basis: the pivot columns are the leading columns
of the row space, and each null vector is the unique solution with 1 in
its free column and 0 in the other free columns, scaled by the least
common multiple of its denominators.  No floating point enters this
module.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .algebra import ExtensionParams, Poly, _as_rational, make_galilei_algebra

GEN_NAMES = ("N1", "N2", "P1", "P2", "H", "M")
NGEN = len(GEN_NAMES)
N1, N2, P1, P2, H, M = range(NGEN)

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _coefficient(x) -> Fraction:
    """An exact rational coefficient; a float or a `Poly` raises TypeError."""
    if isinstance(x, Poly):
        raise TypeError("an enveloping coefficient is a rational, not a Poly")
    return _as_rational(x)


class NOPoly:
    """Normal-ordered polynomial: sparse {sorted word: Fraction}, no zeros stored."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple, Fraction] | None = None):
        cleaned = {}
        if terms:
            for word, co in terms.items():
                # an unsorted word would stand for a different element
                if not (isinstance(word, tuple)
                        and all(type(g) is int and 0 <= g < NGEN for g in word)
                        and list(word) == sorted(word)):
                    raise ValueError(f"not a sorted word of generator indices: {word!r}")
                co = co if isinstance(co, Fraction) else _coefficient(co)
                if co:
                    cleaned[word] = co
        self.terms = cleaned

    # construction helpers
    @classmethod
    def generator(cls, name: str) -> "NOPoly":
        return cls({(GEN_NAMES.index(name),): _ONE})

    @classmethod
    def scalar(cls, value) -> "NOPoly":
        return cls({(): _coefficient(value)})

    # ring-module structure (multiplication needs the charges: see no_mul)
    def __add__(self, other: "NOPoly") -> "NOPoly":
        out = dict(self.terms)
        for mono, co in other.terms.items():
            out[mono] = out.get(mono, _ZERO) + co
        return NOPoly(out)

    def __sub__(self, other: "NOPoly") -> "NOPoly":
        out = dict(self.terms)
        for mono, co in other.terms.items():
            out[mono] = out.get(mono, _ZERO) - co
        return NOPoly(out)

    def __neg__(self) -> "NOPoly":
        return NOPoly({m: -c for m, c in self.terms.items()})

    def __rmul__(self, scalar) -> "NOPoly":
        s = _coefficient(scalar)
        return NOPoly({m: s * c for m, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, NOPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def max_abs_coefficient(self) -> Fraction:
        return max((abs(c) for c in self.terms.values()), default=_ZERO)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for word in sorted(self.terms, key=lambda w: (len(w), w)):
            co = self.terms[word]
            factors = [
                f"{GEN_NAMES[g]}^{word.count(g)}" if word.count(g) > 1 else GEN_NAMES[g]
                for g in dict.fromkeys(word)
            ]
            body = "*".join(factors) if factors else "1"
            if co == 1 and factors:
                parts.append(body)
            elif co == -1 and factors:
                parts.append(f"-{body}")
            else:
                parts.append(f"{co}*{body}" if factors else str(co))
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


class _NormalOrderer(dict):
    """Memo of normal forms over g_(k,m,l), in integers: orderer[word] is
    {sorted word: n} with sum n * mono = D**len(word) * (word in normal
    order), for any word of generator indices, computed on its first lookup.
    D (`den`) is the least common denominator of the structure constants,
    read from the tensor of `make_galilei_algebra(params)`."""

    def __init__(self, params: ExtensionParams):
        alg = make_galilei_algebra(params)
        e_idx = alg.index("E")
        gen_idx = [alg.index(n) for n in GEN_NAMES]
        # a rewrite drops the word by one letter (generator term) or two
        # (scalar), so the numerators gain den or den**2
        self.den = den = lcm(*(c.denominator for a in gen_idx for b in gen_idx
                               for c in alg.tensor[a][b]))
        # [g_a, g_b] = scalar*1 + sum of generator terms, E evaluated to 1
        self.table = {}
        for a in range(NGEN):
            for b in range(NGEN):
                row = alg.tensor[gen_idx[a]][gen_idx[b]]
                terms = tuple((gen_idx.index(n), int(cn * den))
                              for n, cn in enumerate(row) if n != e_idx and cn)
                self.table[(a, b)] = (int(row[e_idx] * den * den), terms)

    def __missing__(self, word: tuple) -> dict:
        for i in range(len(word) - 1):
            x, y = word[i], word[i + 1]
            if x > y:
                scalar, terms = self.table[(x, y)]
                out = dict(self[word[:i] + (y, x) + word[i + 2:]])
                parts = [(scalar, word[:i] + word[i + 2:])] if scalar else []
                parts += [(cg, word[:i] + (g,) + word[i + 2:]) for g, cg in terms]
                for f, w in parts:
                    for mono, co in self[w].items():
                        out[mono] = out.get(mono, 0) + f * co
                out = {m: c for m, c in out.items() if c}
                break
        else:
            out = {word: self.den ** len(word)}
        self[word] = out
        return out


def _product(normal_form: _NormalOrderer, p: NOPoly, q: NOPoly) -> NOPoly:
    out: dict[tuple, Fraction] = {}
    for w1, c1 in p.terms.items():
        for w2, c2 in q.terms.items():
            f = c1 * c2 / normal_form.den ** (len(w1) + len(w2))
            for mono, co in normal_form[w1 + w2].items():
                out[mono] = out.get(mono, _ZERO) + f * co
    return NOPoly(out)


def no_mul(params: ExtensionParams, p: NOPoly, q: NOPoly) -> NOPoly:
    """Product of p and q in the enveloping algebra, in normal order."""
    return _product(_NormalOrderer(params), p, q)


def no_commutators(params: ExtensionParams, pairs: Iterable[tuple[NOPoly, NOPoly]]) -> list[NOPoly]:
    """[p, q] for each pair (p, q), all normal-ordered by one orderer."""
    normal_form = _NormalOrderer(params)
    return [_product(normal_form, p, q) - _product(normal_form, q, p) for p, q in pairs]


def no_commutator(params: ExtensionParams, p: NOPoly, q: NOPoly) -> NOPoly:
    return no_commutators(params, [(p, q)])[0]


def is_central(params: ExtensionParams, p: NOPoly) -> bool:
    """True iff p commutes with every generator N1, N2, P1, P2, H, M."""
    return not any(no_commutators(params, [(p, NOPoly.generator(name)) for name in GEN_NAMES]))


# --- the invariants from the Casimir table ----------------------------------


def internal_energy(params: ExtensionParams) -> NOPoly:
    """H - (1/2m) (P1^2 + P2^2); requires m != 0."""
    if params.m == 0:
        raise ValueError("m = 0: internal energy is not defined")
    half = Fraction(1, 2) / params.m
    return NOPoly(
        {
            (H,): _ONE,
            (P1, P1): -half,
            (P2, P2): -half,
        }
    )


def internal_angular_momentum(params: ExtensionParams) -> NOPoly:
    """M - (1/m)(N1 P2 - N2 P1) - (k/m) H; requires m != 0.

    Already in normal order (boosts precede momenta), so no reordering
    correction appears in the definition.
    """
    if params.m == 0:
        raise ValueError("m = 0: internal angular momentum is not defined")
    inv = 1 / params.m
    return NOPoly(
        {
            (M,): _ONE,
            (N1, P2): -inv,
            (N2, P1): inv,
            (H,): -params.k * inv,
        }
    )


def momentum_squared() -> NOPoly:
    """P1^2 + P2^2 (the m = 0 invariant)."""
    return NOPoly({(P1, P1): _ONE, (P2, P2): _ONE})


def boost_momentum_cross() -> NOPoly:
    """N1 P2 - N2 P1, central only when m = 0 and k = 0.  At m = 0, l = 0 the
    central element is N1 P2 - N2 P1 + k H for every k (`casimir_invariants`)."""
    return NOPoly({(N1, P2): _ONE, (N2, P1): -_ONE})


def casimir_invariants(params: ExtensionParams) -> tuple[NOPoly, ...]:
    """The regime's commuting degree-2 invariants, the Casimir table: with 1 they
    span the degree-2 centralizer, and `casimir` expects the degree <= d one to
    have as many elements as their products, C(d // 2 + g, g) for g of them."""
    if params.m != 0:
        return (internal_energy(params), internal_angular_momentum(params)) if params.l == 0 else ()
    if params.k == 0 or params.l == 0:
        return momentum_squared(), boost_momentum_cross() + params.k * NOPoly.generator("H")
    return (momentum_squared(),)


# --- bounded-degree centralizer ----------------------------------------------


def monomials_up_to(max_degree: int) -> list[tuple]:
    """All sorted words of length <= max_degree, graded order."""
    return [word for total in range(max_degree + 1)
            for word in itertools.combinations_with_replacement(range(NGEN), total)]


def _integer_rows(rows: Iterable[Mapping[int, Fraction]]) -> list[dict]:
    """Clear denominators and common factors, and drop zero entries and rows
    (gcd is 0 only for those); keeps elimination in Z."""
    out = []
    for row in rows:
        den = lcm(*(c.denominator for c in row.values()))
        ints = {j: c.numerator * (den // c.denominator) for j, c in row.items()}
        g = gcd(*ints.values())
        if g:
            out.append({j: v // g for j, v in ints.items() if v})
    return out


def _eliminate(rows: list[dict]) -> dict[int, dict]:
    """Fraction-free forward elimination, sparsest row first; returns
    {pivot column: row}."""
    pivots: dict[int, dict] = {}
    for row in sorted(rows, key=len):
        row = dict(row)
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                if row[col] < 0:
                    row = {j: -v for j, v in row.items()}
                g = gcd(*row.values())
                pivots[col] = {j: v // g for j, v in row.items()}
                break
            a, b = pivot[col], row[col]
            new = {}
            for j, v in row.items():
                w = a * v - b * pivot.get(j, 0)
                if w:
                    new[j] = w
            for j, pv in pivot.items():
                if j not in row:
                    w = -b * pv
                    if w:
                        new[j] = w
            # drop the shared content so the integers stay small
            if new:
                g = gcd(*new.values())
                if g > 1:
                    new = {j: v // g for j, v in new.items()}
            row = new
    return pivots


def exact_nullspace(
    rows: Iterable[Mapping[int, Fraction]], ncols: int
) -> list[tuple[Fraction, ...]]:
    """Basis of {x : A x = 0} over the rationals, one vector per free column.

    Elimination is fraction-free (integer cross-multiplication with gcd
    reduction), and so is back-substitution: numerators over one common
    denominator.  Each vector is the primitive integer multiple (as
    `Fraction`s) of the solution with a 1 in its free column.
    """
    pivots = _eliminate(_integer_rows(rows))
    pivot_cols = sorted(pivots, reverse=True)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        # the nonzero numerators; each rescale is the least that keeps them
        # integers, so the common denominator ends as the lcm of the solution's
        vec = {free: 1}
        for col in pivot_cols:  # descending: later pivots are already final
            row = pivots[col]
            s = sum(v * vec[j] for j, v in row.items() if j in vec)
            if s:
                g = gcd(s, row[col])
                if row[col] != g:
                    vec = {j: c * (row[col] // g) for j, c in vec.items()}
                vec[col] = -s // g
        basis.append(tuple(Fraction(vec[j]) if j in vec else _ZERO for j in range(ncols)))
    return basis


def _centralizer_rows(params: ExtensionParams, monos: Sequence[tuple]) -> Iterable[dict[int, int]]:
    """The rows of [g, sum_m x_m X^m] = 0 over `monos` for g in {N1, H, M}, one
    per (g, monomial of the commutator), each scaled by D**(max degree + 1) to
    integers.  The memo of normal forms is freed on return, before the
    elimination needs its memory."""
    normal_form = _NormalOrderer(params)
    max_degree = len(monos[-1])
    rows: dict[tuple, dict[int, int]] = {}
    for g in (N1, H, M):
        for col, w in enumerate(monos):
            left, right = normal_form[(g,) + w], normal_form[w + (g,)]
            scale = normal_form.den ** (max_degree - len(w))
            for rmono in {**left, **right}:
                co = left.get(rmono, 0) - right.get(rmono, 0)
                if co:
                    rows.setdefault((g, rmono), {})[col] = co * scale
    return rows.values()


def centralizer_basis(params: ExtensionParams, max_degree: int) -> tuple[NOPoly, ...]:
    """A basis of the degree <= max_degree polynomials commuting with every generator.

    The kernel of the exact linear system [g, sum_m x_m X^m] = 0 over the
    graded monomial list, for g in {N1, H, M}, which generate the other three
    at every charge set.  Scalars are always present, so the basis is never empty.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    monos = monomials_up_to(max_degree)
    kernel = exact_nullspace(_centralizer_rows(params, monos), len(monos))
    return tuple(NOPoly({monos[i]: c for i, c in enumerate(vec) if c}) for vec in kernel)


def in_span(polys: Sequence[NOPoly], p: NOPoly) -> bool:
    """Exact membership of p in the linear span of `polys`."""
    support = sorted({m for q in polys for m in q.terms} | set(p.terms))
    # solve sum_j x_j polys[j] = p by elimination on the augmented columns
    aug = len(polys)
    rows = []
    for m in support:
        row = {j: q.terms.get(m, _ZERO) for j, q in enumerate(polys) if m in q.terms}
        if m in p.terms:
            row[aug] = p.terms[m]
        if row:
            rows.append(row)
    pivots = _eliminate(_integer_rows(rows))
    # inconsistent iff some pivot sits in the augmented column
    return all(col != aug for col in pivots)

