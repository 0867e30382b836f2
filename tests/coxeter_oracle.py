"""The permutation model of a ``zircons.coxeter.CoxeterSystem``, as the
oracle for its index tables.

The library multiplies permutation models only while it builds a group,
and keeps index tables: ``_right``, ``_left``, ``_inverse`` and the
Coxeter matrix. Here every element's permutation is rebuilt from the
generators of ``coxeter._permutation_model`` by multiplying them along
the element's reduced word, and the tables are read off the products. A
model is the tuple of images of the points 1..d, and (a*b)(x) = a(b(x)).
"""

from zircons.coxeter import CoxeterSystem, _parse_type_spec, _permutation_model


def mul(a: tuple, b: tuple) -> tuple:
    return tuple(a[x - 1] for x in b)


def inv(a: tuple) -> tuple:
    out = [0] * len(a)
    for x, y in enumerate(a, start=1):
        out[y - 1] = x
    return tuple(out)


def generators(W: CoxeterSystem) -> list[tuple]:
    """The models of s1, s2, ..."""
    return _permutation_model(*_parse_type_spec(W.type_spec))


def identity(W: CoxeterSystem) -> tuple:
    return tuple(range(1, len(generators(W)[0]) + 1))


def models(W: CoxeterSystem) -> list[tuple]:
    """The model of each element of ``W.elements``: the product of the
    generators along its word."""
    gens, out = generators(W), []
    for el in W.elements:
        acc = identity(W)
        for k in el.word:
            acc = mul(acc, gens[k - 1])
        out.append(acc)
    return out


def index(W: CoxeterSystem) -> dict[tuple, int]:
    """Model -> index in ``W.elements``."""
    return {model: i for i, model in enumerate(models(W))}


def distances(W: CoxeterSystem) -> dict[tuple, int]:
    """Cayley-graph distances from the identity, by a breadth-first search
    over right multiplication by the generators, keyed by model."""
    gens = generators(W)
    dist = {identity(W): 0}
    frontier = list(dist)
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                v = mul(w, g)
                if v not in dist:
                    dist[v] = dist[w] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def product_order(a: tuple, b: tuple) -> int:
    """The multiplicative order of a*b."""
    prod, identity = mul(a, b), tuple(range(1, len(a) + 1))
    acc, order = prod, 1
    while acc != identity:
        acc, order = mul(acc, prod), order + 1
    return order
