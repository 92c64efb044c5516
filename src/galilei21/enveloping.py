"""Normal-ordered enveloping algebra of the extended Galilei algebra.

A monomial is a sorted word of indices into the algebra's own basis,
GEN_NAMES = N1 N2 P1 P2 H M, so (0, 0, 3, 4) is N1^2 P2 H, and these words
are the Poincare-Birkhoff-Witt basis (Dixmier, Enveloping Algebras, ch. 2).
A polynomial, `NOPoly`, is a `Poly` over such words, with its sums and
equality.  The last basis element, the central E, is evaluated to the
scalar unit, so brackets like [N1, P1] = m E contribute plain numbers
when products are reordered.

Products are normalized by repeatedly replacing an adjacent out-of-order
pair X Y with Y X + [X, Y]; every rewrite either removes an inversion at
fixed degree or lowers the degree, so the process terminates.  The
leftmost out-of-order pair is rewritten first; confluence is certified
by the associativity tests rather than assumed.  The memo of normal forms
is a `NormalOrderer`, built by its owner over
`make_galilei_algebra(params)` and passed to `generator_brackets`,
`centralizer_basis` and `centralizer_dimension` as their first argument:
`casimir` builds one per report, which all three share.  None of them
keeps a reference to it, and this module keeps nothing, so it is freed
with its owner's last reference.

The memo holds integers, not fractions: with D the least common
denominator of the structure constants, the normal form of a word of
length n is stored as the integer numerators of D**n times it.  A
rewrite that drops the word by one letter (a generator term) or two (a
scalar) multiplies by its constant times D or D**2, which is an integer,
and `_product` divides by D**n once per pair of terms.

A commutator with a generator g is not the difference of two products:
the orderer's `bracket` applies the derivation rule [g, X^w] =
sum_i X^(w<i) [g, w_i] X^(w>i) to a sorted word w, so the leading terms
of g X^w and X^w g, which cancel, are never formed, and only the words
with one letter replaced by a bracket term get normal-ordered.
`generator_brackets`, the module's one commutator, gives the six [g, p]
of each candidate invariant this way.

The degree <= d centralizer is not searched for; the Casimir table's
products are proved to be a basis of it, with no symmetrization:
1. Its dimension is that of the degree <= d kernel of ad_g on the
   symmetric algebra S(g)/(E - 1), as the symmetrization S(g) -> U(g) is
   an isomorphism of g-modules that keeps the filtration (Dixmier,
   Enveloping Algebras, 2.4.10) and passes to the quotients by (E - 1),
   E being central.  Commutative rows need no normal ordering
   (`_centralizer_rows`), and g in {N1, H, M} suffices: [N1,H] = P1,
   [M,N1] = N2 and [N2,H] = P2 at every charge set, so by Jacobi X then
   commutes with all six generators (tests/test_enveloping.py proves both
   premises at symbolic charges).  `centralizer_dimension` is the number
   of columns minus the rank, with no back-substitution.
2. `centralizer_basis` gives the products of degree <= d of the table's
   degree-2 entries, built by the given orderer's `_product`.  They are
   central when each entry is, which `casimir`'s `central[...]` rows show.
3. `rank` counts the independent ones by the same elimination, on integer
   rows scaled by one common denominator.
4. If all are independent and they are as many as the dimension of step
   1, they are a basis: `casimir`'s `centralizer_dimension` row passes only
   then.

`_eliminate` is the one exact elimination.  It takes rows of int entries
(anything else raises TypeError before any work) and first peels
singletons (structured Gaussian elimination; LaMacchia and Odlyzko,
CRYPTO '90): a row with one nonzero entry sets its column j to 0, so j
is struck from every row, through a column -> rows index, until no row
has one entry left.  As e_j is in the row space, each peeled j is a
leading column, with pivot row {j: 1}, and the leading columns of the
struck rows that remain, reduced fraction-free sparsest first, make up
the rank.  No floating point enters this module.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm

from .algebra import GALILEI_LABELS, ExtensionParams, LieAlgebra, Poly, _as_rational

GEN_NAMES = GALILEI_LABELS[:-1]  # E, the last basis element, is the unit
NGEN = len(GEN_NAMES)
N1, N2, P1, P2, H, M = range(NGEN)

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _coefficient(x) -> Fraction:
    """An exact rational coefficient; a float or a `Poly` raises TypeError."""
    if isinstance(x, Poly):
        raise TypeError(f"an enveloping coefficient is a rational, not a {type(x).__name__}")
    return _as_rational(x)


class NOPoly(Poly):
    """Normal-ordered polynomial: a `Poly` over sorted words, rational coefficients.
    It multiplies by a rational only (a product of two needs the brackets, which
    a `NormalOrderer` holds), and it is not divided."""

    def __init__(self, terms=_ZERO):
        """From {sorted word: rational}, or from a rational as a constant; zero by default."""
        for word, co in (terms if type(terms) in (dict, NOPoly) else {(): terms}).items():
            # an unsorted word would stand for a different element
            if not (isinstance(word, tuple)
                    and all(type(g) is int and 0 <= g < NGEN for g in word)
                    and list(word) == sorted(word)):
                raise ValueError(f"not a sorted word of generator indices: {word!r}")
            co = co if isinstance(co, Fraction) else _coefficient(co)
            if co:
                self[word] = co

    @classmethod
    def generator(cls, name: str) -> "NOPoly":
        if name not in GEN_NAMES:
            raise ValueError(f"not a generator: {name!r}; the generators are {', '.join(GEN_NAMES)}, "
                             "and E is the unit, NOPoly.scalar(1)")
        return cls({(GEN_NAMES.index(name),): _ONE})

    @classmethod
    def scalar(cls, value) -> "NOPoly":
        return cls({(): _coefficient(value)})

    def __mul__(self, other) -> "NOPoly":
        return Poly.__mul__(self, _coefficient(other))  # a rational only

    def __truediv__(self, other):
        raise TypeError("a NOPoly is not divided; multiply it by a rational")

    __rmul__, __rtruediv__ = __mul__, __truediv__

    def __repr__(self):
        if not self:
            return "0"
        parts = []
        for word in sorted(self, key=lambda w: (len(w), w)):
            co = self[word]
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


class NormalOrderer(dict):
    """Memo of normal forms over a `LieAlgebra` whose last basis element is a
    central unit, evaluated to 1, in integers: orderer[word] is {sorted word: n}
    with sum n * mono = D**len(word) * (word in normal order), for any word of
    indices into the algebra's other basis elements, computed on its first
    lookup.  D (`den`) is the least common denominator of their brackets, and
    `labels` are the algebra's.  `NormalOrderer(make_galilei_algebra(params))`
    orders U(g_(k,m,l))."""

    def __init__(self, alg: LieAlgebra):
        self.labels = alg.labels
        unit = alg.dim - 1
        # the nonzero entries c of [X_a, X_b] = sum_n c X_n between generators
        entries = [(a, b, n, c) for a in range(unit) for b in range(unit)
                   for n, c in enumerate(alg.tensor[a][b]) if c]
        # a rewrite drops the word by one letter (generator term) or two
        # (scalar), so the numerators gain den or den**2
        self.den = den = lcm(*(c.denominator for *_, c in entries))
        # [X_a, X_b] = scalar*1 + sum of generator terms, the unit evaluated to 1
        self.table = {(a, b): (0, ()) for a in range(unit) for b in range(unit)}
        for a, b, n, c in entries:
            scalar, terms = self.table[(a, b)]
            if n == unit:
                scalar = c.numerator * (den * den // c.denominator)
            else:
                terms += ((n, c.numerator * (den // c.denominator)),)
            self.table[(a, b)] = (scalar, terms)

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

    def bracket(self, g: int, word: tuple) -> dict:
        """{sorted word: n} with sum n * mono = D**(len(word) + 1) * [g, word]
        for a sorted word, by the derivation rule [g, X^w] = sum_i X^(w<i)
        [g, w_i] X^(w>i): a scalar bracket leaves the sorted word without w_i,
        and only the nearly sorted words with w_i replaced are ordered."""
        out: dict[tuple, int] = {}
        for i, x in enumerate(word):
            scalar, terms = self.table[(g, x)]  # (0, ()) for x == g
            head, tail = word[:i], word[i + 1:]
            if scalar:
                rest = head + tail
                out[rest] = out.get(rest, 0) + scalar * self.den ** len(rest)
            for h, ch in terms:
                for mono, co in self[head + (h,) + tail].items():
                    out[mono] = out.get(mono, 0) + ch * co
        return {m: c for m, c in out.items() if c}


def _product(normal_form: NormalOrderer, p: Poly, q: Poly) -> Poly:
    """p q in normal order, of p's type: a plain `Poly` for another algebra's words."""
    out: dict[tuple, Fraction] = {}
    for w1, c1 in p.items():
        for w2, c2 in q.items():
            f = c1 * c2 / normal_form.den ** (len(w1) + len(w2))
            for mono, co in normal_form[w1 + w2].items():
                out[mono] = out.get(mono, _ZERO) + f * co
    return type(p)(out)


def _require_galilei(normal_form: NormalOrderer) -> None:
    if normal_form.labels != GALILEI_LABELS:  # the callers loop over the six Galilei generators
        raise ValueError(f"an orderer over {', '.join(normal_form.labels)}: this needs the six Galilei "
                         f"generators {', '.join(GEN_NAMES)} and the unit E")


def generator_brackets(normal_form: NormalOrderer, polys: Iterable[NOPoly]) -> list[tuple[NOPoly, ...]]:
    """([N1, p], [N2, p], [P1, p], [P2, p], [H, p], [M, p]) for each p, all
    from the orderer's `bracket`."""
    _require_galilei(normal_form)
    out = []
    for p in polys:
        row = []
        for g in range(NGEN):
            com: dict[tuple, Fraction] = {}
            for w, c in p.items():
                f = c / normal_form.den ** (len(w) + 1)
                for mono, co in normal_form.bracket(g, w).items():
                    com[mono] = com.get(mono, _ZERO) + f * co
            row.append(NOPoly(com))
        out.append(tuple(row))
    return out


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


def _eliminate(rows: Iterable[Mapping[int, int]]) -> dict[int, dict]:
    """Fraction-free forward elimination of integer rows; returns {pivot
    column: primitive row}.  Zero entries are dropped, and any entry that
    is not an int raises TypeError.  Singletons are peeled first (see the
    module docstring); the rows left reduce sparsest first, and a one-entry
    pivot row made by a reduction retires its column from the later rows."""
    rows = list(rows)
    holding = defaultdict(list)  # column -> the rows with a nonzero entry there
    # per row, the count and the sum of its nonzero entries' unpeeled columns:
    # the sum is the column itself once one is left
    live, colsum = list(map(len, rows)), list(map(sum, rows))
    for i, row in enumerate(rows):
        for j, v in row.items():
            if type(v) is not int:
                raise TypeError("exact elimination takes int entries")
            if v:
                holding[j].append(i)
            else:
                live[i] -= 1
                colsum[i] -= j
    pivots: dict[int, dict] = {}
    singles = [i for i, n in enumerate(live) if n == 1]
    while singles:
        i = singles.pop()
        if live[i]:  # not emptied since by peeling its column from another row
            col = colsum[i]
            pivots[col] = {col: 1}
            for k in holding[col]:
                live[k] -= 1
                colsum[k] -= col
                if live[k] == 1:
                    singles.append(k)
    zero = set(pivots)
    for i in sorted((i for i, n in enumerate(live) if n), key=live.__getitem__):
        row = {j: v for j, v in rows[i].items() if v and j not in zero}
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                g = gcd(*row.values()) if row[col] > 0 else -gcd(*row.values())
                pivots[col] = {j: v // g for j, v in row.items()}
                if len(row) == 1:
                    zero.add(col)
                break
            a, b = pivot[col], row[col]
            new = {j: w for j in row.keys() | pivot.keys() if (w := a * row.get(j, 0) - b * pivot.get(j, 0))}
            # drop the shared content so the integers stay small
            g = gcd(*new.values())
            row = {j: v // g for j, v in new.items()} if g > 1 else new
    return pivots


def _centralizer_rows(normal_form: NormalOrderer, monos: Sequence[tuple]) -> Iterable[dict[int, int]]:
    """The rows of ad_g(sum_w x_w w) = 0 in S(g)/(E - 1) for g in {N1, H, M},
    times D**(max degree + 1), one per (g, word): ad_g(x^a rest) =
    a x^(a-1) rest [g, x], with [g, x] from the orderer's `table`, keyed by g
    and the word's exponents as base max degree + 1 digits, step[x] apart."""
    den, max_degree = normal_form.den, len(monos[-1])
    step = [(max_degree + 1) ** x for x in range(NGEN + 1)]  # step[NGEN] counts g
    brackets = [[] for _ in range(NGEN)]  # [g, x] as (key shift, coefficient) for each letter x
    for x, g in itertools.product(range(NGEN), (N1, H, M)):
        scalar, terms = normal_form.table[(g, x)]
        shift = g * step[NGEN] - step[x]
        brackets[x] += [(shift, scalar * den ** max(max_degree - 1, 0))] * bool(scalar)
        brackets[x] += [(shift + step[h], ch * den ** max_degree) for h, ch in terms]
    rows: dict[int, dict[int, int]] = {}
    for col, w in enumerate(monos):
        key = sum(map(step.__getitem__, w))
        for i, x in enumerate(w):
            if i and w[i - 1] == x:
                continue
            a = w.count(x)
            for shift, c in brackets[x]:
                row = rows.setdefault(key + shift, {})
                row[col] = row.get(col, 0) + a * c
    return rows.values()


def centralizer_basis(normal_form: NormalOrderer, table: Sequence[NOPoly], max_degree: int) -> tuple[NOPoly, ...]:
    """The products of degree <= max_degree of the table's entries, each of
    degree 2 (`casimir_invariants`), in graded order: 1, C1, C2, C1^2, C1 C2,
    ..., multiplied by the orderer.  They are a basis of the degree <=
    max_degree centralizer when the entries are central, `rank` finds them
    independent and they are `centralizer_dimension` many (see the module
    docstring); `casimir` checks all three."""
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    products = {(): NOPoly.scalar(1)}  # keyed by the sorted word of table indices
    if max_degree >= 2:
        products.update(((i,), entry) for i, entry in enumerate(table))
    # an entry is in normal order already: only a product of two or more is ordered
    for n in range(2, max_degree // 2 + 1):
        for word in itertools.combinations_with_replacement(range(len(table)), n):
            products[word] = _product(normal_form, products[word[:-1]], table[word[-1]])
    return tuple(products.values())


def centralizer_dimension(normal_form: NormalOrderer, max_degree: int) -> int:
    """The dimension of the degree <= max_degree centralizer: columns minus
    the rank of the ad-system in the symmetric algebra (module docstring)."""
    _require_galilei(normal_form)
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    monos = monomials_up_to(max_degree)
    return len(monos) - len(_eliminate(_centralizer_rows(normal_form, monos)))


def rank(polys: Sequence[NOPoly]) -> int:
    """The dimension of the linear span of `polys`, exactly: `_eliminate` on
    one row per word, column j holding the word's coefficient in polys[j],
    every coefficient times one common denominator, so the rows are
    integers.  p is in the span iff rank((*polys, p)) == rank(polys)."""
    den = lcm(*(c.denominator for q in polys for c in q.values()))
    support = sorted({m for q in polys for m in q})
    return len(_eliminate([{j: int(q[m] * den) for j, q in enumerate(polys) if m in q}
                           for m in support]))
