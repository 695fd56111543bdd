from fractions import Fraction

import pytest

from pathtsp import lp_relax
from pathtsp.cuts import narrow_cuts
from pathtsp.instance import build_appendix_instance, random_metric_instance
from pathtsp.parity import LEGACY, GammaParams


@pytest.fixture(scope="session")
def appendix0():
    """(Instance, xstar, four-tree distribution) for the base wall fixture."""
    return build_appendix_instance(0)


@pytest.fixture(scope="session")
def appendix0_chain(appendix0):
    inst, xstar, _ = appendix0
    return narrow_cuts(xstar, inst)


def lp_path(inst):
    """(Instance, LpSolution, points): points are every x that solve_lp
    handed to separate on the way, as Fractions."""
    points = []
    separate = lp_relax.separate

    def recording(x, inst, den):
        points.append({e: Fraction(v, den) for e, v in x.items()})
        return separate(x, inst, den)

    lp_relax.separate = recording
    try:
        sol = lp_relax.solve_lp(inst)
    finally:
        lp_relax.separate = separate
    return inst, sol, points


@pytest.fixture(scope="session")
def lp26():
    """The LP path of a random n = 26 instance (see lp_path)."""
    return lp_path(random_metric_instance(26, 3))  # five separation rounds


@pytest.fixture(scope="session")
def lp20():
    """The LP path of a random n = 20 instance (see lp_path)."""
    return lp_path(random_metric_instance(20, 3))  # four separation rounds


@pytest.fixture(scope="session")
def lp40():
    """The LP path of a random n = 40 instance (see lp_path)."""
    return lp_path(random_metric_instance(40, 0))  # five separation rounds


@pytest.fixture(scope="session")
def params():
    return GammaParams()


@pytest.fixture(scope="session")
def half_params():
    """The default constants with Sebo's uniform gamma = 1/2."""
    return GammaParams(uniform_half=True)


@pytest.fixture(scope="session")
def legacy_params():
    """The older 8/5 audit: beta = 2/5 with the uniform gamma = 1/2."""
    return LEGACY
