import os
import subprocess
import sys
from pathlib import Path

import pytest

from pathtsp.cli import main


def strip_timings(path):
    lines = path.read_text().splitlines()
    return lines[:lines.index("# timings")]


def test_generate_solve_decompose_verify_tour(tmp_path):
    inst = tmp_path / "inst.txt"
    sol = tmp_path / "sol.txt"
    dist = tmp_path / "dist.txt"
    report = tmp_path / "tour.txt"
    assert main(["gen", "random", "--n", "7", "--seed", "3",
                 "-o", str(inst)]) == 0
    assert main(["solve-lp", str(inst), "-o", str(sol)]) == 0
    assert main(["decompose", str(inst), str(sol), "-o", str(dist)]) == 0
    assert main(["verify", str(dist), str(inst), str(sol)]) == 0
    assert main(["audit", str(inst), str(sol), str(dist)]) == 0
    assert main(["tour", str(inst), str(dist), "-o", str(report)]) == 0
    text = report.read_text()
    assert "bomc=" in text and "ratio≈" in text
    assert any(ln.startswith("path=") for ln in text.splitlines())


def test_run_appendix_is_certified_and_deterministic(tmp_path):
    out1 = tmp_path / "run1.txt"
    out2 = tmp_path / "run2.txt"
    assert main(["run", "appendix", "-o", str(out1)]) == 0
    assert main(["run", "appendix", "-o", str(out2)]) == 0
    body = strip_timings(out1)
    assert body == strip_timings(out2)
    assert "certified_beta=401/1000" in body
    assert "verdict=certified bound=1599/1000" in body
    assert any(ln.startswith("bomc_bound=") and ln.endswith("status=OK")
               for ln in body)
    assert "types_before:" in body and "types_after:" in body


def test_run_appendix_without_reassembly_fails(tmp_path):
    out = tmp_path / "raw.txt"
    assert main(["run", "appendix", "--skip-reassembly",
                 "--legacy-gamma-half", "--trace", "-o", str(out)]) == 1
    body = strip_timings(out)
    assert "certified_beta=none" in body
    assert "verdict=fallback bound=5/3" in body
    assert any("margin=-5/792" in ln for ln in body)


def test_verify_flags_the_raw_wall(tmp_path, capsys):
    inst = tmp_path / "wall.txt"
    sol = tmp_path / "wall.sol"
    dist = tmp_path / "wall.dist"
    assert main(["gen", "appendix", "--k", "0", "-o", str(inst),
                 "--solution", str(sol), "--dist", str(dist)]) == 0
    out = tmp_path / "verify.txt"
    assert main(["verify", str(dist), str(inst), str(sol),
                 "--legacy-gamma-half", "-o", str(out)]) == 1
    body = strip_timings(out)
    assert "check=reconstruction status=OK" in body
    assert any(ln.startswith("check=benefit_margins status=FAIL")
               for ln in body)
    assert any(ln.startswith("check=type_mix status=FAIL") for ln in body)
    assert body[-1] == "checks_failed=2"


def test_reassembled_wall_verifies(tmp_path):
    # k = 2 gives n = 28: membership is checked above n = 22 as well
    for k in ("0", "2"):
        inst = tmp_path / f"wall{k}.txt"
        sol = tmp_path / f"wall{k}.sol"
        raw = tmp_path / f"raw{k}.dist"
        fixed = tmp_path / f"fixed{k}.dist"
        out = tmp_path / f"verify{k}.txt"
        assert main(["gen", "appendix", "--k", k, "-o", str(inst),
                     "--solution", str(sol), "--dist", str(raw)]) == 0
        assert main(["reassemble", str(inst), str(sol), "-o", str(fixed),
                     "--initial", str(raw)]) == 0
        assert main(["verify", str(fixed), str(inst), str(sol),
                     "-o", str(out)]) == 0
        body = strip_timings(out)
        assert body[-1] == "checks_failed=0"
        assert all("status=FAIL" not in ln for ln in body)
        assert "check=join_membership status=OK" in body


def test_reassemble_decomposes_when_no_initial_is_given(tmp_path, capsys):
    inst = tmp_path / "wall.txt"
    sol = tmp_path / "wall.sol"
    dist = tmp_path / "dist.txt"
    assert main(["gen", "appendix", "--k", "0", "-o", str(inst),
                 "--solution", str(sol)]) == 0
    assert main(["decompose", str(inst), str(sol), "-o", str(dist)]) == 0
    capsys.readouterr()
    reports = []
    for name, extra in (("given", ["--initial", str(dist)]), ("own", [])):
        assert main(["reassemble", str(inst), str(sol), "--trace",
                     "-o", str(tmp_path / f"{name}.dist"), *extra]) == 0
        out = capsys.readouterr().out
        reports.append(out[:out.index("# timings")])
    assert reports[0] == reports[1]
    assert (tmp_path / "given.dist").read_bytes() == \
        (tmp_path / "own.dist").read_bytes()


def test_run_random_end_to_end(tmp_path):
    out = tmp_path / "rand.txt"
    assert main(["run", "random", "--n", "6", "--seed", "2",
                 "-o", str(out)]) == 0
    body = strip_timings(out)
    assert "verdict=certified bound=1599/1000" in body


def test_usage_errors(tmp_path):
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["run", "appendix", "--frobnicate"])
    assert err.value.code == 2
    assert main(["solve-lp", str(tmp_path / "missing.txt")]) == 2


def test_stage_failures_exit_2(tmp_path):
    inst = tmp_path / "inst.txt"
    bad_sol = tmp_path / "bad.sol"
    assert main(["gen", "random", "--n", "6", "--seed", "0",
                 "-o", str(inst)]) == 0
    bad_sol.write_text("# value 1\n0 1 1\n")  # not an LP-feasible point
    assert main(["decompose", str(inst), str(bad_sol),
                 "-o", str(tmp_path / "d.txt")]) == 2


def test_console_script(tmp_path):
    out = tmp_path / "inst.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "pathtsp.cli", "gen", "random", "--n", "5",
         "--seed", "1", "-o", str(out)], env=dict(os.environ),
        capture_output=True)
    assert proc.returncode == 0 and out.exists()


def test_demos_run():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for demo in ("wall_story.py", "random_pipeline.py"):
        proc = subprocess.run([sys.executable, str(root / "demos" / demo)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


def infeasible_triple(tmp_path):
    """`gen random --n 6 --seed 0` (s = 2, t = 5) with the triangle 0-1-3
    floating beside the path 2-4-5: every degree is right, but the cut
    {0, 1, 3} carries no load.  The distribution is any spanning tree."""
    inst = tmp_path / "inst.txt"
    sol = tmp_path / "bad.sol"
    dist = tmp_path / "star.dist"
    assert main(["gen", "random", "--n", "6", "--seed", "0",
                 "-o", str(inst)]) == 0
    sol.write_text("0 1 1\n0 3 1\n1 3 1\n2 4 1\n4 5 1\n")
    dist.write_text("tree 1\n0 1\n0 2\n0 3\n0 4\n0 5\n")
    return inst, sol, dist


def test_verify_skips_the_chain_checks_of_an_infeasible_point(tmp_path):
    inst, sol, dist = infeasible_triple(tmp_path)
    out = tmp_path / "verify.txt"
    assert main(["verify", str(dist), str(inst), str(sol),
                 "-o", str(out)]) == 1
    body = strip_timings(out)
    assert body[0].startswith("check=lp_point status=FAIL detail=cut "
                              "(0, 1, 3) load 0 < 2")
    for name in ("narrow_cuts", "cut_stats", "packing", "correction_floor",
                 "join_membership", "benefit_margins", "type_mix"):
        assert f"check={name} status=SKIP" in body
    assert body[-1] == "checks_failed=2"  # lp_point and reconstruction


def test_audit_rejects_an_infeasible_point(tmp_path, capsys):
    inst, sol, dist = infeasible_triple(tmp_path)
    assert main(["audit", str(inst), str(sol), str(dist)]) == 2
    assert "stage check-lp-point" in capsys.readouterr().err
    # reassemble checks the point in the same stage, before the chain
    assert main(["reassemble", str(inst), str(sol),
                 "-o", str(tmp_path / "fixed.dist")]) == 2
    assert "stage check-lp-point" in capsys.readouterr().err
