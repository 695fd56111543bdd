"""The first instance off the wall that needs reassembly.

tests/data/graph20.txt is a unit-length graph on 20 vertices (s = 6,
t = 4, 30 edges), a partial cost file, read as its shortest-path metric.
graph20.sol is its LP optimum x* (`solve-lp -o`), and graph20_raw.dist
the four trees `decompose` writes for it.  The
raw distribution fails the benefit audit at one cut; reassembly makes two
exchanges, after which the distribution certifies 1599/1000.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from pathtsp.cli import main
from pathtsp.instance import instance_digest, read_instance
from pathtsp.lp_relax import read_solution, solve_lp
from pathtsp.tree_decomp import check_reconstruction, read_distribution

from .oracles import reconstruct

DATA = Path(__file__).resolve().parent / "data"
INST, SOL, RAW = (str(DATA / name) for name in
                  ("graph20.txt", "graph20.sol", "graph20_raw.dist"))


def report(tmp_path, argv):
    """(exit status, report lines above the timings) of one command."""
    out = tmp_path / "report.txt"
    rc = main([*argv, "-o", str(out)])
    lines = out.read_text().splitlines()
    return rc, lines[:lines.index("# timings")]


@pytest.fixture(scope="module")
def inst():
    return read_instance(INST)


def test_the_instance_and_its_lp_optimum(inst):
    assert (inst.n, inst.s, inst.t) == (20, 6, 4)
    assert instance_digest(inst).startswith("21ce7870")
    x, value = read_solution(SOL)
    sol = solve_lp(inst)
    assert sol.value == value == Fraction(45, 2)
    assert sol.x == x


def test_the_stored_distribution_reconstructs_the_point(inst):
    x, _ = read_solution(SOL)
    dist = read_distribution(RAW, n=inst.n)
    assert len(dist) == 4
    check_reconstruction(x, dist)
    assert reconstruct(dist) == x


def test_the_raw_distribution_fails_at_one_cut(tmp_path):
    rc, lines = report(tmp_path, ["audit", INST, SOL, RAW])
    assert rc == 1
    failed = [ln for ln in lines if ln.endswith("status=FAIL")]
    assert failed == ["cut=6 load=3/2 case=none benefit=1/2 "
                      "required=401/792 margin=-5/792 status=FAIL"]
    assert lines[-1] == "certified_beta=none"
    rc, lines = report(tmp_path, ["run", INST, "--skip-reassembly"])
    assert rc == 1
    assert "cut=6 load=3/2 case=none benefit=1/2 required=401/792 " \
        "margin=-5/792 status=FAIL" in lines
    assert lines[-2:] == ["bomc=26", "verdict=fallback bound=5/3"]


def test_reassembly_certifies_after_two_exchanges(tmp_path):
    rc, lines = report(tmp_path, ["run", INST, "--trace"])
    assert rc == 0
    after = lines.index("types_after:")
    assert lines[after + 1:after + 14] == [
        "  cut=1 010=1/2 021=1/4 121=1/4",
        "  cut=2 010=1/2 121=1/2",
        "  cut=3 010=1/2 121=1/2",
        "  cut=4 010=1/4 011=1/4 110=1/4 GOOD=1/4",
        "  cut=5 010=1/2 121=1/4 GOOD=1/4",
        "  cut=6 010=1/2 121=1/4 GOOD=1/4",
        "  cut=7 010=1/2 GOOD=1/2",
        "  cut=8 010=1/2 GOOD=1/2",
        "  cut=9 010=1/2 GOOD=1/2",
        "  cut=10 010=1/2 121=1/4 GOOD=1/4",
        "exchanges:",
        "  cut=10 dir=left delta=1/4 h=11 k=6",
        "  cut=6 dir=right delta=1/4 h=4 k=10"]
    assert not any(ln.endswith("status=FAIL") for ln in lines)
    assert "bomc=25" in lines
    assert lines[-1] == "verdict=certified bound=1599/1000"


def test_the_legacy_audit_certifies_the_raw_distribution(tmp_path):
    rc, lines = report(tmp_path, ["audit", INST, SOL, RAW,
                                  "--legacy-gamma-half"])
    assert rc == 0
    assert lines[-1] == "certified_beta=2/5"
