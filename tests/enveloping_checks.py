"""The tests' checks on enveloping elements: the commutator as the product
difference p q - q p, a reference that shares nothing with the orderer's
`bracket`; centrality as `casimir` reads it, from `generator_brackets`; and
span membership by `rank`."""

from galilei21.enveloping import _NormalOrderer, _product, generator_brackets, rank


def commutators(params, pairs):
    """[p, q] = p q - q p for each pair (p, q), both products by one orderer."""
    normal_form = _NormalOrderer(params)
    return [_product(normal_form, p, q) - _product(normal_form, q, p) for p, q in pairs]


def commutator(params, p, q):
    return commutators(params, [(p, q)])[0]


def central(params, p) -> bool:
    """Whether [g, p] = 0 for each of the six generators g."""
    return not any(generator_brackets(params, [p])[0])


def in_span(polys, p) -> bool:
    """p is in the span of polys iff adding it keeps the rank."""
    return rank((*polys, p)) == rank(polys)
