import pytest

from zircons import build_coxeter, build_poset, enumerate_posets


@pytest.fixture(scope="session")
def diamond():
    return build_poset(
        [0, 1, 2, 3], [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)], mode="relations"
    )


@pytest.fixture(scope="session")
def n_poset():
    return build_poset(["a", "b", "c", "d"], [("a", "c"), ("a", "d"), ("b", "d")])


@pytest.fixture(scope="session")
def a2():
    return build_coxeter("A2")


@pytest.fixture(scope="session")
def a3():
    return build_coxeter("A3")


@pytest.fixture(scope="session")
def b2():
    return build_coxeter("B2")


@pytest.fixture(scope="session")
def cube():
    """Boolean lattice of the subsets of {0, 1, 2}, as bitmasks 0..7."""
    covers = [(m, m | 1 << i) for m in range(8) for i in range(3) if not m >> i & 1]
    return build_poset(list(range(8)), covers)


@pytest.fixture(scope="session")
def hexagon(a2):
    return a2.bruhat_poset()


@pytest.fixture(scope="session")
def corpus_to_5():
    """One representative per isomorphism class, n = 1..5."""
    out = []
    for n in range(1, 6):
        out.extend(enumerate_posets(n))
    return out
