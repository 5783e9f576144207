import pytest

from fingroups import GroupSpec, build

import sys
from pathlib import Path

# make `import oracles` work no matter where pytest is invoked from
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(scope="session")
def z2():
    return build(GroupSpec.cyclic(2))


@pytest.fixture(scope="session")
def z6():
    return build(GroupSpec.cyclic(6))


@pytest.fixture(scope="session")
def z12():
    return build(GroupSpec.cyclic(12))


@pytest.fixture(scope="session")
def s3():
    return build(GroupSpec.symmetric(3))


@pytest.fixture(scope="session")
def s4():
    return build(GroupSpec.symmetric(4))


@pytest.fixture(scope="session")
def s5():
    return build(GroupSpec.symmetric(5))


@pytest.fixture(scope="session")
def d4():
    return build(GroupSpec.dihedral(4))


@pytest.fixture(scope="session")
def q8():
    return build(GroupSpec.q8())


@pytest.fixture(scope="session")
def klein():
    return build(GroupSpec.product(GroupSpec.cyclic(2), GroupSpec.cyclic(2)))


@pytest.fixture(scope="session")
def tuple_route_families():
    """(g, h, p) for each distinct product-one family verify_group builds on
    the catalog: Cauchy on each whole group and in each Sylow step's
    quotient, recorded as product_one_tuples is called."""
    from fingroups import sylow
    from fingroups.suite import catalog, verify_group

    seen = {}
    build_tuples = sylow.product_one_tuples

    def recording(g, h, p):
        seen.setdefault((g.mul.tobytes(), h.bits, p), (g, h, p))
        return build_tuples(g, h, p)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sylow, "product_one_tuples", recording)
        for label, g in catalog():
            assert verify_group(g, label).ok, label
    return list(seen.values())
