import hashlib
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from pathtsp import cli, parity
from pathtsp.cli import SUBCOMMANDS, build_parser, census_lines, main
from pathtsp.instance import (build_appendix_instance, random_metric_instance,
                              write_instance)
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
    assert main(["run", "appendix", "--skip-reassembly", "--trace",
                 "-o", str(out)]) == 1
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
                 "-o", str(out)]) == 1
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


def test_run_random_n2_is_certified(tmp_path):
    # two vertices, the fewest an instance has: x* is the edge s-t
    out = tmp_path / "n2.txt"
    assert main(["run", "random", "--n", "2", "--seed", "1",
                 "-o", str(out)]) == 0
    body = strip_timings(out)
    assert "bomc=9 opt=9 ratio≈1.000000" in body
    assert body[-1] == "verdict=certified bound=1599/1000"


def test_a_run_record_cannot_change_the_next_default_run():
    # pipeline's default GammaParams() is one object, shared by every call
    # and handed back in the gamma table, so it is frozen, as is every
    # record of the run
    inst, x, dist0 = build_appendix_instance(0)
    res = cli.pipeline(inst, x, dist0, reassemble=False)
    assert res.verdict.label == "fallback"
    params = res.audit.table.params
    for field, value in (("uniform_half", True), ("beta", Fraction(2, 5))):
        with pytest.raises(FrozenInstanceError):
            setattr(params, field, value)
    for record in (res.verdict, res.audit, res.audit.table, res.tour):
        with pytest.raises(FrozenInstanceError):
            record.bound = Fraction(8, 5)
    again = cli.pipeline(inst, x, dist0, reassemble=False)
    assert again.audit.table.params == parity.GammaParams()
    assert again.verdict == res.verdict
    # the values the assignments tried are LEGACY's, which certifies 8/5
    legacy = cli.pipeline(inst, x, dist0, parity.LEGACY, reassemble=False)
    assert legacy.verdict.bound == Fraction(8, 5)


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


# sha256 of the report above its timings, with its exit code, on the k = 5
# wall's designed point: the audit of its four raw trees, and the audit and
# the tours of the trees that `reassemble --initial` makes from them
WALL5_REPORTS = {
    "audit raw": (
        1, "529f0532c57c80350958be7e4f2bf8a827f821189f759b6a83c217666487757b"),
    "audit raw --legacy-gamma-half": (
        0, "4a182a77e8761710942d6b800b2590cbfe7a4305dabb9bab095cdf107622346a"),
    "audit reassembled": (
        0, "4d3be6f2eee19cde8e4a3751a13461f668b14eef8e3b2f5ad0d428256dbf48d8"),
    "tour reassembled": (
        0, "3dbe87d4e4429cf86af3acc0d80d696962bdf9491032831c2faa18c1d66e502d")}


def test_audit_and_tour_reports_match_their_recorded_digests(tmp_path):
    inst, sol, raw, fixed, out = (str(tmp_path / name) for name in (
        "wall.txt", "wall.sol", "raw.dist", "fixed.dist", "report.txt"))
    assert main(["gen", "appendix", "--k", "5", "-o", inst,
                 "--solution", sol, "--dist", raw]) == 0
    assert main(["reassemble", inst, sol, "-o", fixed,
                 "--initial", raw]) == 0
    jobs = {"audit raw": ["audit", inst, sol, raw],
            "audit raw --legacy-gamma-half": ["audit", inst, sol, raw,
                                              "--legacy-gamma-half"],
            "audit reassembled": ["audit", inst, sol, fixed],
            "tour reassembled": ["tour", inst, fixed]}
    reports = {}
    for key, argv in jobs.items():
        code = main([*argv, "-o", out])
        report = Path(out).read_text().split("# timings")[0]
        reports[key] = (code, hashlib.sha256(report.encode()).hexdigest())
    assert reports == WALL5_REPORTS


TIMELINES = {
    "appendix --k 0": ["build", "check-lp-point", "narrow-cuts",
                       "reassemble", "assign-gamma", "benefits",
                       "correction-vectors", "certify", "tours"],
    "appendix --k 0 --skip-reassembly": [
        "build", "check-lp-point", "narrow-cuts", "assign-gamma",
        "benefits", "correction-vectors", "certify", "tours"],
    "random --n 8 --seed 0": [
        "build", "solve-lp", "narrow-cuts", "decompose", "reassemble",
        "assign-gamma", "benefits", "correction-vectors", "certify",
        "tours", "baseline"],
    "FILE": ["solve-lp", "narrow-cuts", "decompose", "reassemble",
             "assign-gamma", "benefits", "correction-vectors", "certify",
             "tours"]}


@pytest.mark.parametrize("target", TIMELINES)
def test_run_times_each_stage_once_in_order(tmp_path, capsys, target):
    # the names and order of the timing lines, one per stage that ran; FILE
    # is the n = 26 seed 1 instance
    path = tmp_path / "n26.txt"
    write_instance(random_metric_instance(26, 1), path)
    argv = target.replace("FILE", str(path)).split()
    # the raw wall is not certified, so that run exits 1
    assert main(["run", *argv]) == int("--skip-reassembly" in argv)
    lines = capsys.readouterr().out.splitlines()
    timings = lines[lines.index("# timings") + 1:]
    assert [ln.split()[0] for ln in timings] == [
        f"stage={name}" for name in TIMELINES[target]]


@pytest.mark.parametrize("target, atoms", [("appendix --k 5", 4),
                                           ("FILE", 10)])
def test_run_splits_each_atom_once(tmp_path, monkeypatch, capsys, target,
                                   atoms):
    # the tours stage reads T_S from the gamma table, so one run splits
    # each atom's tree into its s-t path and T_S-join once: 4 atoms on the
    # k = 5 wall, 10 on the reassembled n = 26 seed 1 instance (FILE);
    # every module that holds split_path_join gets the counting wrapper
    path = tmp_path / "n26.txt"
    write_instance(random_metric_instance(26, 1), path)
    split = parity.split_path_join
    calls = []

    def counting(tree, inst):
        calls.append(tree)
        return split(tree, inst)

    for name, module in list(sys.modules.items()):
        if name.startswith("pathtsp") and \
                getattr(module, "split_path_join", None) is split:
            monkeypatch.setattr(module, "split_path_join", counting)
    assert main(["run", *target.replace("FILE", str(path)).split()]) == 0
    capsys.readouterr()
    assert len(calls) == atoms


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


def test_a_zero_denominator_is_a_usage_error(tmp_path, capsys):
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
    # a full file is read as given: its missing costs alone are completed
    assert main(["run", str(inst)]) == 2
    assert capsys.readouterr().err == (
        f"pathtsp: edge {u},{w} costs more than a path through a third "
        "vertex: not a metric\n")


def test_a_partial_cost_file_with_a_cost_above_a_path_is_refused(tmp_path,
                                                                 capsys):
    # 0 2 5 is above the path 0-1-2 of cost 2: refused, not lowered to 2
    inst = tmp_path / "inst.txt"
    inst.write_text("4 0 3\n0 1 1\n1 2 1\n2 3 1\n0 2 5\n")
    assert main(["run", str(inst)]) == 2
    assert capsys.readouterr().err == (
        "pathtsp: edge 0,2 costs more than a path through a third "
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
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "pathtsp.cli", "gen", "random", "--n", "5",
         "--seed", "1", "-o", str(out)],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
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


def test_decompose_checks_its_point_first(tmp_path, capsys):
    # the LP optimum of `gen random --n 6 --seed 1`, and an edge to a
    # vertex the instance does not have
    inst, sol = tmp_path / "inst.txt", tmp_path / "x.sol"
    assert main(["gen", "random", "--n", "6", "--seed", "1",
                 "-o", str(inst)]) == 0
    assert main(["solve-lp", str(inst), "-o", str(sol)]) == 0
    sol.write_text(sol.read_text() + "0 9 1\n")
    capsys.readouterr()
    assert main(["decompose", str(inst), str(sol),
                 "-o", str(tmp_path / "d.txt")]) == 2
    assert capsys.readouterr().err == ("pathtsp: error stage check-lp-point: "
                                       "vertex 9 of edge 0,9 is not in "
                                       "0..5\n")


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
    ["reassemble", "i", "s", "-o", "f", "--eps", "1/100"],
    # a partial cost file is completed and the audit is one of two, so
    # neither --closure nor --beta is a flag of any subcommand
    ["run", "appendix", "--closure"], ["solve-lp", "i", "--closure"],
    ["tour", "i", "d", "--closure"], ["verify", "d", "i", "s", "--closure"],
    ["run", "appendix", "--beta", "2/5"],
    ["audit", "i", "s", "d", "--legacy-gamma-half", "--beta", "2/5"],
    ["verify", "d", "i", "s", "--beta", "401/1000"]]


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
