"""Known answers computed without the library.

Each function here rebuilds a quantity the benchmark compares the library
against, from definitions alone: signed permutations multiplied by hand,
the subword property of the Bruhat order, and plain reachability over a
cover list. None of them imports ``zircons``.
"""

from __future__ import annotations

from itertools import permutations, product
from math import factorial


def group_order(family: str, rank: int) -> int:
    """|W| for the presets: (n+1)!, 2^n n!, 2^(n-1) n!, 2m."""
    if family == "A":
        return factorial(rank + 1)
    if family == "B":
        return 2**rank * factorial(rank)
    if family == "D":
        return 2 ** (rank - 1) * factorial(rank)
    if family == "I2":
        return 2 * rank
    raise ValueError(f"unknown family {family!r}")


def _signed_generators(family: str, rank: int) -> list[tuple[int, ...]]:
    """Generators as signed permutations of 1..n, written as image tuples."""
    n = rank + 1 if family == "A" else rank
    gens = []
    for i in range(1, n):
        img = list(range(1, n + 1))
        img[i - 1], img[i] = img[i], img[i - 1]
        gens.append(tuple(img))
    if family == "B":
        gens.append((-1,) + tuple(range(2, n + 1)))
    elif family == "D":
        gens.append((-2, -1) + tuple(range(3, n + 1)))
    return gens


def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """(a*b)(x) = a(b(x)) for signed permutations."""
    return tuple(a[v - 1] if v > 0 else -a[-v - 1] for v in b)


def _reduced_words(family: str, rank: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Every element with one reduced word, by breadth-first search."""
    gens = _signed_generators(family, rank)
    n = len(gens[0])
    identity = tuple(range(1, n + 1))
    words = {identity: ()}
    frontier = [identity]
    while frontier:
        nxt = []
        for w in frontier:
            for k, g in enumerate(gens):
                v = _compose(w, g)
                if v not in words:
                    words[v] = words[w] + (k,)
                    nxt.append(v)
        frontier = nxt
    return words


def bruhat_interval_count(family: str, rank: int) -> int:
    """Number of pairs u < v in the Bruhat order of A_n, B_n or D_n.

    Subword property: u <= v iff u is the product of a subword of a
    reduced word of v.
    """
    gens = _signed_generators(family, rank)
    words = _reduced_words(family, rank)
    identity = tuple(range(1, len(gens[0]) + 1))
    total = 0
    for word in words.values():
        below = set()
        for keep in product((False, True), repeat=len(word)):
            u = identity
            for k, on in zip(word, keep):
                if on:
                    u = _compose(u, gens[k])
            below.add(u)
        total += len(below) - 1
    return total


def dihedral_interval_count(m: int) -> int:
    """Pairs u < v in the Bruhat order of I2(m): exactly the pairs with
    l(u) < l(v), with one element each of length 0 and m and two of
    every length in between."""
    sizes = [1] + [2] * (m - 1) + [1]
    return sum(sizes[i] * sizes[j] for i in range(len(sizes)) for j in range(i + 1, len(sizes)))


def signed_permutations(n: int, signed: bool, even: bool = False):
    """Permutations of 1..n, with every sign pattern when ``signed`` (an
    even number of minus signs when ``even``), as image tuples."""
    patterns = list(product((1, -1), repeat=n)) if signed else [(1,) * n]
    if even:
        patterns = [p for p in patterns if p.count(-1) % 2 == 0]
    for perm in permutations(range(1, n + 1)):
        for signs in patterns:
            yield tuple(s * v for s, v in zip(signs, perm))


def inverse(w: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(w)
    for i, v in enumerate(w, start=1):
        out[abs(v) - 1] = i if v > 0 else -i
    return tuple(out)


def count_twisted_involutions(group, twist=None) -> int:
    """Elements w of ``group`` with t w t = w^-1, for an involution t given
    as a signed permutation (the identity when None)."""
    count = 0
    for w in group:
        image = w if twist is None else _compose(_compose(twist, w), twist)
        count += image == inverse(w)
    return count


def count_d_flip_twisted_involutions(n: int) -> int:
    """Twisted involutions of D_n for the diagram flip that swaps the two
    fork generators s1 = (-2, -1, 3, ...) and s2 = (2, 1, 3, ...): that flip
    is conjugation by e1, the sign change of the first coordinate."""
    e1 = (-1,) + tuple(range(2, n + 1))
    return count_twisted_involutions(signed_permutations(n, signed=True, even=True), e1)


def reachability_below(elements, covers) -> dict[str, int]:
    """Strict downsets as Python-int bitsets (bit k = elements[k]).

    Kahn's topological order over the cover list, then each element ORs
    in its lower covers and their downsets. Arbitrary-precision ints
    cannot wrap, which is the point of this oracle.
    """
    index = {e: k for k, e in enumerate(elements)}
    lower: list[list[int]] = [[] for _ in elements]
    upper: list[list[int]] = [[] for _ in elements]
    for a, b in covers:
        lower[index[b]].append(index[a])
        upper[index[a]].append(index[b])
    indegree = [len(x) for x in lower]
    ready = [k for k, d in enumerate(indegree) if d == 0]
    below = [0] * len(elements)
    seen = 0
    while ready:
        k = ready.pop()
        seen += 1
        mask = 0
        for j in lower[k]:
            mask |= below[j] | (1 << j)
        below[k] = mask
        for j in upper[k]:
            indegree[j] -= 1
            if indegree[j] == 0:
                ready.append(j)
    if seen != len(elements):
        raise ValueError("cover list has a cycle")
    return {e: below[k] for k, e in enumerate(elements)}
