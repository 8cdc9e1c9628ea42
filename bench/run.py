"""Closed-loop benchmark of the afkit CLI: one process, one client.

Run from the repository root:

    python3 bench/run.py --workload pipeline_ladder --seed 1 --seconds 20 --trace 0

Set-up turns the seed into the first round of jobs (see workloads.py),
writes its input files and imports afkit from ./src.  The timed loop then
calls ``afkit.cli.main(argv)`` in-process for each job, one after the other,
in whole rounds until --seconds have elapsed; every round has inputs of its
own, built from the seed between rounds, so a run measures as many distinct
inputs as it can.  Every report is checked against the reference its input
was built from.  A job fails when it times out, gives a wrong answer,
raises, or exits nonzero; failures are counted against attempted jobs, by
reason.

Times are reported at a fixed machine speed.  On a shared machine the speed
of this one process drifts by tens of percent within minutes, so a fixed
reference kernel is timed after every job and every job's wall time is
scaled by REFERENCE_S over the median of the kernel's last four times (three
from before the job, one from right after it).  A timed-out
job counts at its (wall-clock) deadline.  The raw wall-clock figures are
printed alongside.

--trace 0 prints the end-to-end metrics.  --trace 1 first runs untraced for
half the time, then traced for the other half, and prints the per-layer
metrics with the tracing overhead.  The last line of output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import shutil
import signal
import statistics
import sys
import time
from collections import Counter, deque
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9
# Median time of reference_kernel() on a 2-vCPU x86-64 VM with CPython 3.11;
# it only sets the scale of the reported times.
REFERENCE_S = 0.00115
# Stop starting jobs after this long, so a run that hangs on every job still ends.
HARD_BUDGET_S = 140.0

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402


class JobTimeout(BaseException):
    """Raised by the alarm handler; a BaseException so afkit's handlers cannot swallow it."""


class Deadline:
    """Per-job deadline from a real-time interval timer, in this process and thread."""

    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            raise JobTimeout()

    def arm(self, seconds: float) -> None:
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.armed = False


def reference_kernel() -> int:
    """Fixed pure-Python integer work: Bareiss elimination on a 20 x 20 matrix.

    The exact divisions keep the entries near 80 bits, the size afkit's own
    matrices work with, so the kernel spends its time as afkit does: in the
    interpreter and in small-integer arithmetic.
    """
    n = 20
    a = [[(i * 7 + j * 13) % 31 - 15 + (5 if i == j else 0) for j in range(n)] for i in range(n)]
    prev = 1
    for k in range(n - 1):
        pivot = a[k][k] or 1
        row_k = a[k]
        for i in range(k + 1, n):
            f = a[i][k]
            a[i] = [(x * pivot - f * y) // prev for x, y in zip(a[i], row_k)]
        prev = pivot
    return a[n - 1][n - 1]


class SpeedGauge:
    """Median of the reference kernel's last few times.

    The speed of a shared machine changes within a second, so the kernel is
    timed between every two jobs and the window is short.  Over five runs of
    one seed of pipeline_ladder on a 2-vCPU VM, the summed job times spread
    by 19% unscaled and by 15% with a 15-sample window sampled at most every
    50 ms (first to third quartile, as a share of the median); with three
    samples from before the job and one from after it, jobs_per_s spread
    by 2%.
    """

    def __init__(self, window: int = 4):
        self.samples: deque = deque(maxlen=window)

    def sample(self) -> None:
        gc.disable()  # a collection would time the heap the last job left, not the machine
        try:
            start = time.perf_counter()
            reference_kernel()
            self.samples.append(time.perf_counter() - start)
        finally:
            gc.enable()

    def prime(self) -> None:
        """Fill the window before the first measurement."""
        while len(self.samples) < self.samples.maxlen:
            self.sample()

    def scale(self) -> float:
        """Factor that turns wall time now into time at the reference speed."""
        return REFERENCE_S / statistics.median(self.samples)


def import_afkit():
    """Import afkit from ./src, afresh: earlier imports are dropped first."""
    src = ROOT / "src"
    if not (src / "afkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no afkit sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "afkit" or n.startswith("afkit.")]:
        del sys.modules[name]
    cli = importlib.import_module("afkit.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: afkit was imported from {cli.__file__}, not {src}")
    return cli


def setup(workload: str, seed: int, workdir: Path):
    """The first round's inputs, their files and a fresh afkit import; returns (jobs, cli).

    Repeated set-ups rewrite the same files: on a shared virtual disk,
    creating a thousand files takes from 0.06 s to 0.9 s from one try to the
    next.
    """
    cli = import_afkit()
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = workloads.build_round(workload, seed, workdir, 0)
    return jobs, cli


def run_job(cli, job, deadline: Deadline, seconds: float):
    """One in-process CLI call; returns (latency_s, failure reason or None, detail)."""
    out = io.StringIO()
    reason = detail = None
    start = time.perf_counter()
    try:
        try:
            deadline.arm(seconds)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(job.argv)
        finally:
            deadline.disarm()
    except JobTimeout:
        reason, detail = "timeout", f"stopped at the {seconds:g} s deadline"
    except SystemExit as e:
        reason, detail = "nonzero_exit", f"SystemExit({e.code})"
    except Exception as e:  # the job's failure is recorded, the run goes on
        reason, detail = "exception", f"{type(e).__name__}: {e}"
    latency = time.perf_counter() - start
    if reason is None and code != 0:
        reason, detail = "nonzero_exit", f"exit code {code}"
    if reason is None:
        try:
            detail = job.check(json.loads(out.getvalue()))
        except (ValueError, KeyError, TypeError) as e:
            detail = f"malformed report: {type(e).__name__}: {e}"
        if detail is not None:
            reason = "wrong_answer"
    return latency, reason, detail


class Tally:
    """Outcomes of one measured phase: every latency, and counts by outcome.

    ``latencies`` are at the reference speed; ``raw`` holds wall times.
    """

    def __init__(self):
        self.latencies: list = []
        self.raw: list = []
        self.reasons: Counter = Counter()
        self.examples: dict = {}
        self.attempted = 0
        self.ok = 0
        self.rounds = 0

    def add(self, label, latency, reason, detail, raw=None):
        self.attempted += 1
        if reason is None:
            self.ok += 1
        else:
            self.reasons[reason] += 1
            self.examples.setdefault(reason, f"{label}: {detail}")
        if latency is not None:
            self.latencies.append(latency)
            self.raw.append(latency if raw is None else raw)

    def jobs_per_s(self) -> float:
        spent = sum(self.latencies)
        return self.ok / spent if spent else 0.0

    def ok_frac(self) -> float:
        return self.ok / self.attempted


def measure(cli, round_jobs, deadline_s, seconds, tally: Tally, gauge: SpeedGauge, started: float,
            recorder=None):
    """Whole rounds, ``round_jobs(k)`` for k = 0, 1, ..., until ``seconds`` of wall time have gone by."""
    deadline = Deadline()
    begin = time.perf_counter()
    while not tally.rounds or time.perf_counter() - begin < seconds:
        for job in round_jobs(tally.rounds):
            if time.perf_counter() - started > HARD_BUDGET_S:
                tally.add(job.label, None, "skipped", "run budget exhausted")
                continue
            if recorder is not None:
                recorder.job_id = tally.attempted
            # Outside the job's time, so that no job pays for the garbage of
            # the ones before it and its own collections fall at the same
            # points in every run.
            gc.collect()
            raw, reason, detail = run_job(cli, job, deadline, deadline_s)
            gauge.sample()
            latency = raw if reason == "timeout" else raw * gauge.scale()
            tally.add(job.label, latency, reason, detail, raw)
        tally.rounds += 1


def tail_rank(jobs_per_round: int) -> int:
    """1-based rank, in one round, of the highest percentile with at least ten jobs beyond it."""
    return max(1, jobs_per_round - 10)


def latency_summary(latencies, jobs_per_round: int) -> tuple:
    """(p50, tail, tail percentile) over all samples.

    The tail percentile is fixed by the size of one round, not by the
    sample count, so it is the same in every run of a workload.
    """
    ordered = sorted(latencies)
    pct = tail_rank(jobs_per_round) / jobs_per_round
    idx = max(0, min(len(ordered) - 1, int(round(pct * len(ordered))) - 1))
    return statistics.median(ordered), ordered[idx], 100.0 * pct


def end_to_end(tally: Tally, jobs_per_round: int, setup_times) -> dict:
    p50, tail, _ = latency_summary(tally.latencies, jobs_per_round)
    return {
        "jobs_per_s": (tally.jobs_per_s(), "1/s"),
        "job_p50_ms": (1000.0 * p50, "ms"),
        "job_tail_ms": (1000.0 * tail, "ms"),
        "ok_frac": (tally.ok_frac(), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def report_lines(workload, tally: Tally, jobs_per_round: int, deadline_s: float) -> list:
    _, _, pct = latency_summary(tally.latencies, jobs_per_round)
    fail = tally.attempted - tally.ok
    raw_p50, raw_tail, _ = latency_summary(tally.raw, jobs_per_round)
    lines = [
        f"workload {workload}: {jobs_per_round} jobs per round, "
        f"{tally.rounds} rounds, {tally.attempted} attempted, {fail} failed "
        f"(fail_frac {fail / tally.attempted:.4f}), deadline {deadline_s:g} s",
        f"job_tail_ms is p{pct:.2f} over {len(tally.latencies)} samples; wall clock: "
        f"p50 {1000 * raw_p50:.4g} ms, tail {1000 * raw_tail:.4g} ms, "
        f"{tally.ok / sum(tally.raw):.4g} ok jobs per busy second",
    ]
    for reason in ("timeout", "wrong_answer", "exception", "nonzero_exit", "skipped"):
        if tally.reasons[reason]:
            lines.append(f"failed {reason}: {tally.reasons[reason]}  e.g. {tally.examples[reason]}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    work_root = HERE / ".work"
    workdir = work_root / f"{args.workload}-s{args.seed}"
    setup_times = []
    gauge = SpeedGauge()
    gauge.prime()
    try:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            first, cli = setup(args.workload, args.seed, workdir)
            elapsed = time.perf_counter() - t0
            gauge.sample()
            setup_times.append(elapsed * gauge.scale())
        rounds = [first]

        def round_jobs(k):
            while len(rounds) <= k:
                rounds.append(workloads.build_round(args.workload, args.seed, workdir, len(rounds)))
            return rounds[k]

        deadline_s = workloads.DEADLINES[args.workload]
        untraced = Tally()
        half = args.seconds / 2 if args.trace else args.seconds
        measure(cli, round_jobs, deadline_s, half, untraced, gauge, started)
        tallies = [untraced]
        if args.trace:
            recorder = tracing.Recorder()
            traced = Tally()
            with tracing.Tracing(recorder):
                measure(cli, round_jobs, deadline_s, half, traced, gauge, started, recorder)
            tallies.append(traced)
            out_dir = HERE / "out"
            out_dir.mkdir(exist_ok=True)
            recorder.write(out_dir / f"spans-{args.workload}-s{args.seed}.csv.gz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()

    jobs_per_round = len(first)
    for tally in tallies:
        for line in report_lines(args.workload, tally, jobs_per_round, deadline_s):
            print(("traced " if tally is not untraced else "") + line)
    if args.trace:
        fast, slow = untraced.jobs_per_s(), traced.jobs_per_s()
        overhead = 1.0 - slow / fast if fast else 0.0
        values = tracing.per_layer_metrics(recorder, overhead)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in tracing.per_layer_spec()}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in end_to_end(untraced, jobs_per_round, setup_times).items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.attempted - t.ok for t in tallies)
    # correct: every job ran and every answer matched its reference.
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
