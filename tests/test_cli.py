import hashlib
import json
import os
import random
import re
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from pathtsp import lp_relax
from pathtsp.cli import SUBCOMMANDS, build_parser, census_lines, main
from pathtsp.instance import random_metric_instance, write_instance
from pathtsp.reassembler import reassemble

from .oracles import type_census_fraction, wall


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


@pytest.mark.parametrize("k", [0, 5])
def test_census_lines_print_the_type_census(k):
    _, _, dist, chain = wall(k)
    for d in (dist, reassemble(dist, chain)[0]):
        lines = census_lines(d, chain)
        assert lines == [
            f"  cut={chain.xi_indices[pos]} " + " ".join(
                f"{code}={mass}"
                for code, mass in sorted(type_census_fraction(d, chain, pos).items()))
            for pos in range(1, len(chain.xi_indices) - 1)]
        assert any("/" in line for line in lines)


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
        # audit checks the same membership inside its certify stage
        audit = tmp_path / f"audit{k}.txt"
        assert main(["audit", str(inst), str(sol), str(fixed),
                     "-o", str(audit)]) == 0
        assert strip_timings(audit)[-1] == "certified_beta=401/1000"


def test_audit_rejects_a_distribution_that_is_not_the_lp_point(tmp_path,
                                                                capsys):
    # one tree, the path 2-0-1-3-4-5: a feasible point and a certifiable
    # distribution, but not a decomposition of the LP optimum
    inst = tmp_path / "inst.txt"
    sol = tmp_path / "sol.txt"
    dist = tmp_path / "path.dist"
    assert main(["gen", "random", "--n", "6", "--seed", "0",
                 "-o", str(inst)]) == 0
    assert main(["solve-lp", str(inst), "-o", str(sol)]) == 0
    dist.write_text("tree 1\n0 2\n0 1\n1 3\n3 4\n4 5\n")
    out = tmp_path / "verify.txt"
    assert main(["verify", str(dist), str(inst), str(sol),
                 "-o", str(out)]) == 1
    assert "check=reconstruction status=FAIL detail=distribution does not " \
        "reconstruct the solution" in strip_timings(out)
    capsys.readouterr()
    assert main(["audit", str(inst), str(sol), str(dist)]) == 2
    assert "stage reconstruction: distribution does not reconstruct the " \
        "solution" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["6", "12", "20"])
def test_large_walls_are_certified(tmp_path, k):
    # the largest parity sets have |T| = 22, 34 and 50
    out = tmp_path / "run.txt"
    assert main(["run", "appendix", "--k", k, "-o", str(out)]) == 0
    assert "verdict=certified bound=1599/1000" in strip_timings(out)


def test_reassembled_large_wall_verifies_and_tours(tmp_path):
    inst = tmp_path / "wall.txt"
    sol = tmp_path / "wall.sol"
    raw = tmp_path / "raw.dist"
    fixed = tmp_path / "fixed.dist"
    assert main(["gen", "appendix", "--k", "12", "-o", str(inst),
                 "--solution", str(sol), "--dist", str(raw)]) == 0
    assert main(["reassemble", str(inst), str(sol), "-o", str(fixed),
                 "--initial", str(raw)]) == 0
    out = tmp_path / "verify.txt"
    assert main(["verify", str(fixed), str(inst), str(sol),
                 "-o", str(out)]) == 0
    assert strip_timings(out)[-1] == "checks_failed=0"
    report = tmp_path / "tour.txt"
    assert main(["tour", str(inst), str(fixed), "-o", str(report)]) == 0
    assert "bomc=88" in strip_timings(report)  # as `run appendix --k 12`


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


def test_reassemble_counts_the_trees_it_writes(tmp_path, capsys):
    # at n = 26 seed 1 reassembly lists five trees twice each, once for
    # their whole grid steps and once for a residual; the file merges them
    inst = tmp_path / "inst.txt"
    sol = tmp_path / "sol.txt"
    out = tmp_path / "dist.txt"
    assert main(["gen", "random", "--n", "26", "--seed", "1",
                 "-o", str(inst)]) == 0
    assert main(["solve-lp", str(inst), "-o", str(sol)]) == 0
    capsys.readouterr()
    assert main(["reassemble", str(inst), str(sol), "-o", str(out)]) == 0
    written = sum(ln.startswith("tree ")
                  for ln in out.read_text().splitlines())
    assert written == 5
    assert f"atoms={written}\n" in capsys.readouterr().out


def test_run_random_end_to_end(tmp_path):
    out = tmp_path / "rand.txt"
    assert main(["run", "random", "--n", "6", "--seed", "2",
                 "-o", str(out)]) == 0
    body = strip_timings(out)
    assert "verdict=certified bound=1599/1000" in body


def test_run_reports_match_the_recorded_digests(tmp_path):
    # perfbench/answers.json holds the sha256 of each benchmark job's report
    # above its timings; these are the `wall` jobs and the `random-n26`
    # corpus-0 instances, written as the benchmark's set-up writes them
    answers = Path(__file__).resolve().parent.parent / "perfbench" \
        / "answers.json"
    recorded = json.loads(answers.read_text())
    jobs = {f"appendix k={k}": ["appendix", "--k", str(k)]
            for k in (0, 2, 3, 4, 5)}
    for seed in range(8):
        path = tmp_path / f"random-n26-{seed}.txt"
        write_instance(random_metric_instance(26, seed), path)
        jobs[f"random n=26 seed={seed}"] = [str(path)]
    out = tmp_path / "report.txt"
    digests = {}
    for key, target in jobs.items():
        assert main(["run", *target, "-o", str(out)]) == 0
        report = out.read_text().split("# timings")[0]
        digests[key] = hashlib.sha256(report.encode()).hexdigest()
    assert digests == {key: recorded[key] for key in jobs}


def test_usage_errors(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["run", "appendix", "--frobnicate"])
    assert err.value.code == 2
    assert main(["solve-lp", str(tmp_path / "missing.txt")]) == 2
    capsys.readouterr()
    assert main(["run", "random"]) == 2
    assert capsys.readouterr().err == "pathtsp: run random requires --n\n"


def test_run_checks_the_gamma_settings_before_any_stage(monkeypatch,
                                                         capsys):
    def solve_lp(inst):
        raise AssertionError("the LP was solved before the settings were "
                             "checked")

    monkeypatch.setattr(lp_relax, "solve_lp", solve_lp)
    assert main(["run", "random", "--n", "30", "--beta", "1/2"]) == 2
    assert capsys.readouterr().err == "pathtsp: beta 1/2 outside [0.4, 0.5)\n"
    # inside [2/5, 1/2) a beta whose nu is at most 1/2 is refused too
    assert main(["run", "appendix", "--beta", "49/100"]) == 2
    assert (capsys.readouterr().err
            == "pathtsp: nu = -76579/20000 must exceed 1/2\n")


def test_a_zero_denominator_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["run", "appendix", "--beta", "1/0"])
    assert err.value.code == 2
    assert "'1/0'" in capsys.readouterr().err
    inst = tmp_path / "inst.txt"
    inst.write_text("3 0 2\n0 1 1\n0 2 1/0\n1 2 1\n")
    assert main(["run", str(inst)]) == 2
    assert capsys.readouterr().err == "pathtsp: zero denominator in '1/0'\n"
    inst.write_text("3 0 2\n0 1 1\n0 2 1\n1 2 1\n")
    sol = tmp_path / "bad.sol"
    sol.write_text("0 1 1/0\n")
    assert main(["decompose", str(inst), str(sol),
                 "-o", str(tmp_path / "d.txt")]) == 2
    assert capsys.readouterr().err == "pathtsp: zero denominator in '1/0'\n"


@pytest.mark.parametrize("reader, text, message", [
    ("instance", "3 0 2\n0 1 1\n0 1 2\n", "duplicate edge (0, 1)"),
    ("solution", "0 1 1\n0 2 -1\n", "line 2: negative value"),
    ("dist", "0 1\n", "line 1: edge before any tree header"),
])
def test_a_malformed_file_is_a_usage_error(tmp_path, capsys, reader, text,
                                           message):
    files = {"instance": "3 0 2\n0 1 1\n0 2 1\n1 2 1\n",
             "solution": "0 1 1\n1 2 1\n", "dist": "tree 1\n0 1\n1 2\n"}
    files[reader] = text
    for name, body in files.items():
        (tmp_path / name).write_text(body)
    inst, sol, dist = (str(tmp_path / name) for name in files)
    argv = {"instance": ["solve-lp", inst],
            "solution": ["decompose", inst, sol, "-o", str(tmp_path / "d")],
            "dist": ["tour", inst, dist]}[reader]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"pathtsp: {message}\n"


def test_run_on_an_instance_of_cost_0(tmp_path):
    inst = tmp_path / "zero.txt"
    inst.write_text("6 0 5\n" + "".join(
        f"{u} {v} 0\n" for u in range(6) for v in range(u + 1, 6)))
    out = tmp_path / "zero.out"
    assert main(["run", str(inst), "-o", str(out)]) == 0
    assert "bomc=0 opt=0" in strip_timings(out)


@pytest.mark.parametrize("seed", [10, 142])
def test_a_full_cost_file_that_is_not_a_metric_is_refused(tmp_path, capsys,
                                                          seed):
    # costs drawn from {1, 2, 3, 50, 100}: read as given, seed 10's run
    # broke its bomc bound (exit 1) and seed 142's stopped at the tours
    # stage (exit 2), because the T-join and the shortcutting assume a metric
    rng = random.Random(seed)
    n = rng.randint(5, 9)
    cost = {e: rng.choice((1, 2, 3, 50, 100))
            for e in combinations(range(n), 2)}
    s, t = rng.sample(range(n), 2)
    inst = tmp_path / "inst.txt"
    inst.write_text(f"{n} {s} {t}\n" + "".join(
        f"{u} {v} {c}\n" for (u, v), c in cost.items()))
    cost_of = lambda u, v: cost[min(u, v), max(u, v)] if u != v else 0
    u, w = next((u, w) for u, w in cost if any(
        cost_of(u, v) + cost_of(v, w) < cost_of(u, w) for v in range(n)))
    # --closure fills only missing costs: it does not repair a full file
    for closure in ([], ["--closure"]):
        assert main(["run", str(inst), *closure]) == 2
        assert capsys.readouterr().err == (
            f"pathtsp: edge {u},{w} costs more than a path through a third "
            "vertex: not a metric\n")


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
    for demo, *args in (["wall_story.py"], ["random_pipeline.py"],
                        ["random_pipeline.py", "--n", "20", "--seed", "3"]):
        proc = subprocess.run(
            [sys.executable, str(root / "demos" / demo), *args],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    # reassembly lists each of the 8 trees twice, as whole grid steps and
    # as a residual: the demo counts distinct trees
    lines = proc.stdout.splitlines()
    assert lines[2].startswith("decomposition: 8 trees,")
    assert lines[4] == "reassembly: 0 exchanges, 8 trees"


def test_the_package_runs_without_numpy():
    # numpy is a test dependency only: importing the library and its
    # command line must not load it
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = ("import sys, pathtsp, pathtsp.cli; "
            "print('numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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


def test_run_random_n40_is_the_same_under_two_hash_seeds():
    # n = 40 runs flow separation, the cut tree and Padberg-Rao membership
    # end to end; no report line may depend on string hashing
    root = Path(__file__).resolve().parents[1]
    reports = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=str(root / "src"),
                   PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-m", "pathtsp.cli", "run", "random",
             "--n", "40", "--seed", "0"],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "verdict=certified bound=1599/1000" in proc.stdout
        reports.append(proc.stdout.split("# timings")[0])
    assert reports[0] == reports[1]


@pytest.mark.parametrize("line, detail", [
    ("4 9 1", "vertex 9 of edge 4,9 is not in 0..5"),
    ("-1 3 1", "vertex -1 of edge -1,3 is not in 0..5"),
])
def test_an_edge_outside_the_instance_is_a_violation(tmp_path, capsys,
                                                     line, detail):
    inst, sol, dist = infeasible_triple(tmp_path)
    sol.write_text(f"0 1 1\n0 3 1\n1 3 1\n2 4 1\n{line}\n")
    out = tmp_path / "verify.txt"
    assert main(["verify", str(dist), str(inst), str(sol),
                 "-o", str(out)]) == 1
    assert strip_timings(out)[0].startswith(
        f"check=lp_point status=FAIL detail={detail}; ")
    for argv in (["audit", str(inst), str(sol), str(dist)],
                 ["reassemble", str(inst), str(sol),
                  "-o", str(tmp_path / "fixed.dist")]):
        capsys.readouterr()
        assert main(argv) == 2
        assert f"stage check-lp-point: {detail}; " in capsys.readouterr().err


def test_a_wrong_degree_is_printed_as_a_rational(tmp_path, capsys):
    # the degrees are summed as ints over one lcm; each wrong one is still
    # printed as the rational it is, in vertex order
    inst, sol, dist = infeasible_triple(tmp_path)
    sol.write_text("0 1 1\n0 3 1\n1 3 1\n2 4 1\n4 5 1/2\n2 3 1\n")
    detail = ("degree 2 at vertex 2, expected 1; "
              "degree 3 at vertex 3, expected 2; "
              "degree 3/2 at vertex 4, expected 2; "
              "degree 1/2 at vertex 5, expected 1")
    out = tmp_path / "verify.txt"
    assert main(["verify", str(dist), str(inst), str(sol),
                 "-o", str(out)]) == 1
    assert strip_timings(out)[0].startswith(
        f"check=lp_point status=FAIL detail={detail}; ")
    capsys.readouterr()
    assert main(["audit", str(inst), str(sol), str(dist)]) == 2
    assert f"stage check-lp-point: {detail}; " in capsys.readouterr().err


CHECKS = ("lp_point", "reconstruction", "narrow_cuts", "cut_stats",
          "packing", "correction_floor", "join_membership",
          "benefit_margins", "type_mix")


def wall_triple(tmp_path, reassembled):
    """The k = 0 wall as written by `gen appendix`, with its four-tree
    distribution, or that distribution after `reassemble`."""
    inst = tmp_path / "wall.txt"
    sol = tmp_path / "wall.sol"
    dist = tmp_path / "wall.dist"
    assert main(["gen", "appendix", "--k", "0", "-o", str(inst),
                 "--solution", str(sol), "--dist", str(dist)]) == 0
    if reassembled:
        fixed = tmp_path / "fixed.dist"
        assert main(["reassemble", str(inst), str(sol), "-o", str(fixed),
                     "--initial", str(dist)]) == 0
        dist = fixed
    return inst, sol, dist


@pytest.mark.parametrize("triple, statuses, rc", [
    ("raw", ["OK"] * 7 + [
        "FAIL detail=negative margin at cuts [3, 5, 6, 7, 8]",
        "FAIL detail=type-mix bound violated at an internal cut"], 1),
    ("reassembled", ["OK"] * 9, 0),
    ("infeasible", [
        "FAIL detail=cut (0, 1, 3) load 0 < 2",
        "FAIL detail=distribution does not reconstruct the solution"]
     + ["SKIP"] * 7, 1),
])
def test_verify_report(tmp_path, capsys, triple, statuses, rc):
    if triple == "infeasible":
        inst, sol, dist = infeasible_triple(tmp_path)
    else:
        inst, sol, dist = wall_triple(tmp_path, triple == "reassembled")
    capsys.readouterr()
    assert main(["verify", str(dist), str(inst), str(sol)]) == rc
    out = capsys.readouterr().out.splitlines()
    cut = out.index("# timings")
    failed = sum(s.startswith("FAIL") for s in statuses)
    assert out[:cut] == [f"check={name} status={status}"
                         for name, status in zip(CHECKS, statuses)] + [
        f"checks_failed={failed}"]
    # one timing line per check that ran, none for a skipped one
    assert [ln.split()[0] for ln in out[cut + 1:]] == [
        f"stage={name}" for name, status in zip(CHECKS, statuses)
        if status != "SKIP"]


def test_run_trace_prints_the_exchanges_of_reassemble(tmp_path, capsys):
    inst, sol, dist = wall_triple(tmp_path, reassembled=False)
    capsys.readouterr()
    reports = []
    for argv in (["run", "appendix", "--k", "0", "--trace"],
                 ["reassemble", str(inst), str(sol), "--trace",
                  "--initial", str(dist), "-o", str(tmp_path / "f.dist")]):
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        end = start = lines.index("exchanges:") + 1
        while lines[end].startswith("  cut="):
            end += 1
        reports.append(lines[start:end])
    assert reports[0] == reports[1]
    assert len(reports[0]) == 6
    assert all(re.fullmatch(r"  cut=\d+ dir=(left|right) delta=\S+ "
                            r"h=\d+ k=\d+", ln) for ln in reports[0])


def parse_exit(parse, argv, capsys):
    """(exit code, stdout, stderr) of a parse that must exit."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


HELP = [["-h"], ["--help"], ["gen", "random", "-h"],
        ["gen", "appendix", "-h"]] + [[cmd, "-h"] for cmd in SUBCOMMANDS]
USAGE_ERRORS = [
    [], ["bogus"], ["-x"], ["gen"], ["gen", "bogus"], ["gen", "random"],
    ["gen", "appendix", "--k", "two", "-o", "f"], ["solve-lp"],
    ["decompose", "i", "s"], ["reassemble", "i", "s"], ["audit", "i", "s"],
    ["tour", "i"], ["verify", "d", "i"], ["run"],
    ["run", "appendix", "--k", "x"], ["run", "appendix", "--bogus"],
    ["run", "appendix", "extra"], ["tour", "i", "d", "--xi", "1/2"],
    ["audit", "i", "s", "d", "--beta", "1/0"],
    ["reassemble", "i", "s", "-o", "f", "--beta", "1/2"],
    ["run", "appendix", "--xi", "8/5"],
    ["reassemble", "i", "s", "-o", "f", "--eps", "1/100"]]


@pytest.mark.parametrize("argv", HELP + USAGE_ERRORS)
def test_main_prints_what_the_full_parser_prints(argv, capsys):
    # main builds only the subparser that argv[0] names; its help, usage
    # lines and errors match the parser with every subcommand, byte for
    # byte, also where the top-level usage line lists the subcommands
    # (an unrecognized argument after a known one)
    want = parse_exit(lambda a: build_parser().parse_args(a), argv, capsys)
    assert parse_exit(main, argv, capsys) == want
    assert want[0] == (0 if argv in HELP else 2)


def test_a_subcommand_parser_holds_that_subcommand_alone(capsys):
    code, _, err = parse_exit(build_parser("run").parse_args,
                              ["tour", "i", "d"], capsys)
    assert code == 2
    assert "invalid choice: 'tour' (choose from 'run')" in err
    args = build_parser("tour").parse_args(["tour", "i", "d"])
    assert (args.command, args.instance, args.dist) == ("tour", "i", "d")
