import pytest

from gspace import Groupoid, build_builtin, enumerate_all, subsemigroup_view
from gspace.hyperspaces import upset_words


@pytest.fixture(scope="session")
def z2():
    return build_builtin("cyclic", 2)


@pytest.fixture(scope="session")
def z3():
    return build_builtin("cyclic", 3)


@pytest.fixture(scope="session")
def z4():
    return build_builtin("cyclic", 4)


@pytest.fixture(scope="session")
def z5():
    return build_builtin("cyclic", 5)


@pytest.fixture(scope="session")
def z6():
    return build_builtin("cyclic", 6)


@pytest.fixture(scope="session")
def census6():
    # the 7,828,352 census words on 6 points (63 MB), built once for the session
    words = upset_words(6)
    words.setflags(write=False)
    return words


@pytest.fixture(scope="session")
def s3():
    return build_builtin("symmetric-3", 6)


@pytest.fixture(scope="session")
def magma3():
    # subtraction mod 3: a quasigroup that is neither associative nor commutative
    return Groupoid(["0", "1", "2"],
                    [[(i - j) % 3 for j in range(3)] for i in range(3)],
                    "subtraction:3")


@pytest.fixture(scope="session")
def g2_all(z2):
    return sorted(enumerate_all(2))


@pytest.fixture(scope="session")
def g3_all(z3):
    return sorted(enumerate_all(3))


@pytest.fixture(scope="session")
def g2_view(z2, g2_all):
    return subsemigroup_view(z2, g2_all)


@pytest.fixture(scope="session")
def g3_view(z3, g3_all):
    return subsemigroup_view(z3, g3_all)
