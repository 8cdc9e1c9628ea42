"""Tests of the benchmark's own generators, checkers and accounting.

Run from the repository root: python3 -m pytest bench/tests -q
"""

import json
import random
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _fake_cli(main):
    return SimpleNamespace(main=main)


def _printing(report, code=0):
    def main(argv):
        print(json.dumps(report))
        return code

    return main


# --- reference arithmetic --------------------------------------------------


@pytest.mark.parametrize("d,factors", [
    ([2, 3], (6,)),
    ([4, 6], (2, 12)),
    ([1, 0, 5], (5, 0)),
    ([1, 1], ()),
    ([663], (663,)),
])
def test_invariant_factors_of_a_diagonal(d, factors):
    assert workloads.invariant_factors(d) == factors


def test_dense_reference_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(7)
    for n in (2, 3, 4, 5, 6):
        for mix in (1, 3):
            for _ in range(4):
                d = [rng.choice(workloads.DENSE_LARGE_FACTORS) for _ in range(n)]
                rows = workloads.dense_presentation(rng, d, mix)
                assert workloads.reference_is_consistent(rows, d)
                got = invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ)
                got = tuple(abs(int(x)) for x in got if abs(x) > 1) + (0,) * sum(1 for x in got if x == 0)
                assert got == workloads.invariant_factors(d), (rows, d)


# --- pipeline_ladder ---------------------------------------------------------


@pytest.mark.xfail(strict=True, reason="baseline pipeline fails on a unit or a free factor")
@pytest.mark.parametrize("d", workloads.PIPELINE_EDGE_CASES)
def test_pipeline_edge_case(d, tmp_path):
    """Once this passes, the case belongs in pipeline_ladder."""
    cli = run.import_afkit()
    path = tmp_path / "g.json"
    path.write_text(json.dumps(workloads._group_json(workloads.diagonal_matrix(list(d)))))
    argv = ["--format", "json", "pipeline", "--group", str(path), "--prime", "5", "--width", "8"]
    job = workloads.Job("edge", argv, workloads.check_pipeline(workloads.invariant_factors(d), 5))
    assert run.run_job(cli, job, run.Deadline(), 10.0)[1] is None


# --- schreier_kernel ---------------------------------------------------------


def test_schreier_recheck_rejects_a_word_outside_the_kernel():
    check = workloads.check_schreier([1, 1], 3, word_bound=7)
    good = ["x0^3", "x0.x1^-1", "x0^2.x1", "x1^3"]
    assert all(workloads.in_kernel(w, [1, 1], 3) for w in good)
    assert check({"count": 4, "generators": good}) is None
    bad = good[:3] + ["x0.x1"]
    assert not workloads.in_kernel("x0.x1", [1, 1], 3)
    assert "not in the kernel" in check({"count": 4, "generators": bad})


def test_schreier_count_is_checked_only_when_the_bound_reaches_every_coset():
    assert workloads.coset_radius([1], 6) == 3
    assert workloads.check_schreier([1], 6, word_bound=2)({"count": 0, "generators": []}) is None
    assert workloads.check_schreier([1], 6, word_bound=3)({"count": 0, "generators": []}) is not None


# --- eplag_fingerprint -------------------------------------------------------


@pytest.mark.parametrize("shape,depth", [("chain", 2), ("branching", 5), ("chain", 12)])
def test_relabelling_is_a_bijection(shape, depth):
    rng = random.Random(depth)
    n = len(workloads.tree_edges(shape, depth)) + 1
    names = workloads.random_names(rng, 2 * n)
    graph = workloads.labelled_graph(shape, depth, (3,), names[:n])
    mapping = dict(zip(names[:n], names[n:]))
    copy = workloads.relabel(graph, mapping)
    assert len(set(mapping.values())) == len(mapping) == len(graph["vertices"])
    assert set(copy["vertices"]) == set(mapping.values())
    assert all(copy["vertices"][mapping[v]] == label for v, label in graph["vertices"].items())
    edges = {(frozenset(e["ends"]), e["label"]) for e in graph["edges"]}
    moved = {(frozenset(e["ends"]), e["label"]) for e in copy["edges"]}
    assert {(frozenset(mapping[v] for v in ends), label) for ends, label in edges} == moved


def test_relabelled_fingerprint_must_equal_the_original():
    memo = {}
    original = workloads.check_fingerprint((3,), memo, 0, original=True)
    copy = workloads.check_fingerprint((3,), memo, 0, original=False)
    report = {"fingerprint": [[3], [3, 5]], "p_divisible_sample": True}
    assert original(report) is None
    assert copy(report) is None
    assert copy({"fingerprint": [[3], [3, 7]], "p_divisible_sample": True}) is not None
    assert copy({"fingerprint": [[5], [3, 5]], "p_divisible_sample": True}) is not None


# --- failure accounting ------------------------------------------------------


def test_job_tail_rank_keeps_ten_samples_beyond_it():
    for n in range(11, 600):
        rank = run.tail_rank(n)
        assert n - rank == 10
        for rounds in (1, 2, 3):
            samples = [float(i) for i in range(n * rounds)]
            _, tail, pct = run.latency_summary(samples, n)
            assert sum(1 for x in samples if x > tail) >= 10 * rounds
            assert pct == pytest.approx(100.0 * rank / n)


def test_wrong_answer_is_counted_as_a_failure():
    job = workloads.Job("z6", [], workloads.check_group((6,)))
    wrong = {"invariant_factors": [2, 3],
             "divisibility": {str(n): {"divisible": False, "uniquely_divisible": False} for n in (2, 3, 5, 7)}}
    latency, reason, detail = run.run_job(_fake_cli(_printing(wrong)), job, run.Deadline(), 5.0)
    assert reason == "wrong_answer" and "invariant factors" in detail
    tally = run.Tally()
    tally.add(job.label, latency, reason, detail)
    assert (tally.attempted, tally.ok, tally.reasons["wrong_answer"]) == (1, 0, 1)


def test_right_answer_passes():
    job = workloads.Job("z6", [], workloads.check_group((6,)))
    right = {"invariant_factors": [6],
             "divisibility": {str(n): {"divisible": n in (5, 7), "uniquely_divisible": n in (5, 7)}
                              for n in (2, 3, 5, 7)}}
    assert run.run_job(_fake_cli(_printing(right)), job, run.Deadline(), 5.0)[1] is None


def test_timeout_nonzero_exit_and_exception_are_failures():
    job = workloads.Job("j", [], lambda out: None)

    def spin(argv):
        while True:
            pass

    def boom(argv):
        raise RuntimeError("boom")

    latency, reason, _ = run.run_job(_fake_cli(spin), job, run.Deadline(), 0.05)
    assert reason == "timeout" and latency >= 0.05
    assert run.run_job(_fake_cli(_printing({}, code=3)), job, run.Deadline(), 5.0)[1] == "nonzero_exit"
    assert run.run_job(_fake_cli(boom), job, run.Deadline(), 5.0)[1] == "exception"
    time.sleep(0.06)  # a stray alarm after the job would raise here


def test_malformed_report_is_a_wrong_answer():
    job = workloads.Job("z6", [], workloads.check_group((6,)))
    assert run.run_job(_fake_cli(_printing({"nope": 1})), job, run.Deadline(), 5.0)[1] == "wrong_answer"


# --- traced run --------------------------------------------------------------


def test_tracing_counts_calls_and_restores_the_originals(tmp_path):
    cli = run.import_afkit()
    abelian = sys.modules["afkit.abelian"]
    original = abelian.smith_normal_form
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"generators": 2, "relations": [[2, 0], [0, 3]]}))
    rec = tracing.Recorder()
    with tracing.Tracing(rec):
        assert abelian.smith_normal_form is not original
        job = workloads.Job("g", ["--format", "json", "group", str(path), "--divisors", "2"],
                            lambda out: None)
        assert run.run_job(cli, job, run.Deadline(), 5.0)[1] is None
    assert abelian.smith_normal_form is original
    values = tracing.per_layer_metrics(rec, overhead=0.0)
    assert values["abelian.smith_normal_form.calls"] >= 1
    assert values["abelian.smith_normal_form.out_bits_max"] >= 2
    assert values["abelian.smith_normal_form.self_s"] <= values["abelian.smith_normal_form.total_s"]
    assert set(values) == {name for name, _, _ in tracing.per_layer_spec()}
