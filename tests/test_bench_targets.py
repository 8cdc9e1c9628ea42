"""The benchmark's tracer wraps afkit functions by name; each name must exist,
and its post-hooks must still read what the functions return.

A deleted or renamed function, or a changed return type, would otherwise
only show up when someone runs ``bench/run.py --trace 1``.
"""

import importlib
import importlib.util
import json
import signal
from pathlib import Path

import afkit.cli
from afkit.cli import main

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    missing = []
    for layer, attr, _ in load_tracing().TARGETS:
        module = importlib.import_module(f"afkit.{layer}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            found = meth in vars(getattr(module, cls_name, object))
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"afkit.{layer}.{attr}")
    assert missing == []


def test_traced_pipeline_job_runs(tmp_path, capsys):
    # the hermite_row_basis post-hook iterates the returned rows
    tracing = load_tracing()
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"generators": 2, "relations": [[2, 0], [0, 3]]}))
    rec = tracing.Recorder()
    with tracing.Tracing(rec):
        code = main(["--format", "json", "pipeline", "--group", str(path), "--prime", "3", "--width", "8"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["all_passed"] is True
    values = tracing.per_layer_metrics(rec, overhead=0.0)
    assert values["abelian.hermite_row_basis.calls"] > 0
    assert values["abelian.hermite_row_basis.out_bits_max"] > 0
    assert values["dimension.shen_solve.calls"] > 0  # the realization solves through the traced name


def load_bench_run():
    spec = importlib.util.spec_from_file_location("bench_run", TRACING.with_name("run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scored_workload_checkers_accept_real_cli_output(tmp_path):
    # run_job with each workload's own checker on the CLI's real report: a
    # renamed or dropped JSON key fails here, not only in a benchmark run
    bench = load_bench_run()
    jobs = [bench.workloads.build_round(name, 1, tmp_path, 0)[0]
            for name in ("pipeline_ladder", "eplag_fingerprint", "schreier_kernel")]
    jobs.append(next(job for job in bench.workloads.build_round("dense_group", 1, tmp_path, 0)
                     if job.argv[2] == "invariant" and "--compare" in job.argv))
    alarm = signal.getsignal(signal.SIGALRM)
    try:
        deadline = bench.Deadline()
        outcomes = {job.label: bench.run_job(afkit.cli, job, deadline, 60.0)[1:] for job in jobs}
    finally:
        signal.signal(signal.SIGALRM, alarm)
    assert outcomes == {job.label: (None, None) for job in jobs}
