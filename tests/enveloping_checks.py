"""The tests' checks on enveloping elements: a fresh orderer at given charges;
the reference product `no_mul`, and the commutator as the product difference
p q - q p, which shares nothing with the orderer's `bracket`; the table's
products as `casimir` builds them; centrality as `casimir` reads it, from
`generator_brackets`; span membership by `rank`; and `fraction_product` and
`fraction_generator_brackets`, which sum every term as a `Fraction`, as
`_product` and `generator_brackets` did before they summed in integers; and
the centralizer's dimension over every word, `word_centralizer_dimension`,
from the rows `centralizer_rows` of ad_g for g in {N1, H, M}, as
`centralizer_dimension` found it before it worked in the rotation-invariant
subring."""

import itertools
from fractions import Fraction

from galilei21.algebra import make_galilei_algebra
from galilei21.enveloping import (
    H,
    M,
    N1,
    NGEN,
    NOPoly,
    NormalOrderer,
    _peel_and_reduce,
    _product,
    casimir_invariants,
    centralizer_basis,
    generator_brackets,
    rank,
)


def orderer_at(params):
    """A fresh orderer over g_(k,m,l) at the charges `params`."""
    return NormalOrderer(make_galilei_algebra(params))


def no_mul(params, p, q):
    """p q in normal order, by a fresh orderer per product."""
    return _product(orderer_at(params), p, q)


def commutators(params, pairs):
    """[p, q] = p q - q p for each pair (p, q), both products by one orderer."""
    normal_form = orderer_at(params)
    return [_product(normal_form, p, q) - _product(normal_form, q, p) for p, q in pairs]


def commutator(params, p, q):
    return commutators(params, [(p, q)])[0]


def table_basis(params, max_degree):
    """The products of degree <= max_degree of the Casimir table at `params`,
    by a fresh orderer, as `casimir` builds them."""
    return centralizer_basis(orderer_at(params), casimir_invariants(params), max_degree)


def central(params, p) -> bool:
    """Whether [g, p] = 0 for each of the six generators g."""
    return not any(generator_brackets(orderer_at(params), [p])[0])


def in_span(polys, p) -> bool:
    """p is in the span of polys iff adding it keeps the rank."""
    return rank((*polys, p)) == rank(polys)


def fraction_product(normal_form, p, q):
    """p q in normal order, each pair of terms scaled by a `Fraction` and
    added to the sum as one: a reference for `_product`."""
    out = {}
    for w1, c1 in p.items():
        for w2, c2 in q.items():
            f = c1 * c2 / normal_form.den ** (len(w1) + len(w2))
            for mono, co in normal_form[w1 + w2].items():
                out[mono] = out.get(mono, Fraction(0)) + f * co
    return type(p)(out)


def fraction_generator_brackets(normal_form, polys):
    """The six [g, p] of each p from the orderer's `bracket`, every term
    added as a `Fraction`: a reference for `generator_brackets`."""
    out = []
    for p in polys:
        row = []
        for g in range(NGEN):
            com = {}
            for w, c in p.items():
                f = c / normal_form.den ** (len(w) + 1)
                for mono, co in normal_form.bracket(g, w).items():
                    com[mono] = com.get(mono, Fraction(0)) + f * co
            row.append(NOPoly(com))
        out.append(tuple(row))
    return out


def monomials_up_to(max_degree: int) -> list[tuple]:
    """All sorted words of length <= max_degree, graded order."""
    return [word for total in range(max_degree + 1)
            for word in itertools.combinations_with_replacement(range(NGEN), total)]


def centralizer_rows(normal_form, monos):
    """The rows of ad_g(sum_w x_w w) = 0 in S(g)/(E - 1) for g in {N1, H, M},
    times D**(max degree + 1), one per (g, word): ad_g(x^a rest) =
    a x^(a-1) rest [g, x], with [g, x] from the orderer's `table`, keyed by g
    and the word's exponents as base max degree + 1 digits, step[x] apart.
    With them, holding[col] lists the rows that column col enters.  Each entry
    is the multiplicity of x times a [g, x] coefficient, checked to be an int.
    N1, H and M generate g_(k,m,l), as [N1, H] = P1, [M, N1] = N2 and
    [N2, H] = P2 at every charge set."""
    den, max_degree = normal_form.den, len(monos[-1])
    step = [(max_degree + 1) ** x for x in range(NGEN + 1)]  # step[NGEN] counts g
    brackets = [[] for _ in range(NGEN)]  # [g, x] as (key shift, coefficient) for each letter x
    for x, g in itertools.product(range(NGEN), (N1, H, M)):
        scalar, terms = normal_form.table[(g, x)]
        shift = g * step[NGEN] - step[x]
        brackets[x] += [(shift, scalar * den ** max(max_degree - 1, 0))] * bool(scalar)
        brackets[x] += [(shift + step[h], ch * den ** max_degree) for h, ch in terms]
    if any(type(c) is not int for terms in brackets for _, c in terms):
        raise TypeError("exact elimination takes int entries")
    rows, place, holding = [], {}, []  # place: row key -> index in rows
    for col, w in enumerate(monos):
        key, hold = sum(map(step.__getitem__, w)), []
        holding.append(hold)
        for i, x in enumerate(w):
            if i and w[i - 1] == x:
                continue
            a = w.count(x)
            for shift, c in brackets[x]:
                if (r := place.get(key + shift)) is None:
                    place[key + shift] = r = len(rows)
                    rows.append({})
                row, v = rows[r], a * c
                if col in row:  # only if [g, x] holds x for two letters; none does in g_(k,m,l)
                    v += row.pop(col)
                    hold.remove(r)
                if v:
                    row[col] = v
                    hold.append(r)
    return rows, holding


def word_centralizer_dimension(params, max_degree):
    """The degree <= max_degree centralizer's dimension over all 6-letter
    words: their number minus the rank of `centralizer_rows`."""
    monos = monomials_up_to(max_degree)
    return len(monos) - len(_peel_and_reduce(*centralizer_rows(orderer_at(params), monos)))
