"""The tests' checks on enveloping elements: a fresh orderer at given charges;
the reference product `no_mul`, and the commutator as the product difference
p q - q p, which shares nothing with the orderer's `bracket`; the table's
products as `casimir` builds them; centrality as `casimir` reads it, from
`generator_brackets`; span membership by `rank`; and `fraction_product` and
`fraction_generator_brackets`, which sum every term as a `Fraction`, as
`_product` and `generator_brackets` did before they summed in integers."""

from fractions import Fraction

from galilei21.algebra import make_galilei_algebra
from galilei21.enveloping import (
    NGEN,
    NOPoly,
    NormalOrderer,
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
