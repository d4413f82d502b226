"""Benchmark of the hilmod CLI: three seeded, closed-loop workloads.

    python3 perfbench/run.py --workload cli-session --seed 1 --seconds 20 --trace 0

Run from anywhere; the library is imported from ``src/`` next to this
directory.  A run builds the workload's queries from the seed, then
starts fresh interpreters one after another (bench_child.py): set-up
probes, then timed passes over the whole query set, as many as end
within ``--seconds`` and at least two.  Each pass drives
``hilmod.cli.main`` in-process with one caller waiting for each reply.
Every reply is checked against an oracle independent of the library
(bench_oracle.py).  End-to-end times are in reference seconds, scaled by
calibration bursts that run alongside (bench_clock.py), because the speed
of a shared host drifts.  ``--trace 1`` adds one traced pass and reports
per-layer metrics instead of the end-to-end ones.

Prints a table of every metric with its unit, then, as the last line, one
JSON object: correct, attempted, failed and metrics.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bench_clock
import bench_trace
import bench_workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_PASSES = 2
SETUP_PROBES = 3  # set-up only interpreters before each pass, besides the pass's own
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "latency_p50_ms": "ms", "latency_p99_ms": "ms",
    "peak_rss_mb": "MB", "decided_ratio": "ratio",
}


class ChildFailed(RuntimeError):
    pass


def nearest_rank(values: list, p: float):
    """The p-th percentile by nearest rank: the smallest sample with at
    least p% of the samples at or below it."""
    s = sorted(values)
    return s[max(0, math.ceil(p / 100 * len(s)) - 1)]


def samples_beyond(n: int, p: float) -> int:
    """Samples strictly above the nearest-rank p-th percentile of n."""
    return n - max(1, math.ceil(p / 100 * n))


def _expected_end(start: float, done: int) -> float:
    """Seconds since start at which one more pass would end, at the mean pace so far."""
    elapsed = time.perf_counter() - start
    return elapsed * (done + 1) / done


def run_child(mode: str, job: dict) -> dict:
    """One pass in a fresh interpreter; waits for it to end."""
    proc = subprocess.run([sys.executable, str(HERE / "bench_child.py"), str(SRC), mode],
                          input=json.dumps(job), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def judge(queries, passes) -> tuple[int, int, int, list]:
    """(attempted, failed, decided, reasons) over every reply of every pass.
    A reply fails when its exit code or output disagrees with the oracle or
    the call raised; it is undecided when the verdict is inconclusive or a
    root search ended exhausted."""
    attempted = failed = decided = 0
    reasons: list[str] = []
    seen: dict = {}
    for p in passes:
        for i, (code, out, error, _, _, exhausted) in enumerate(p["results"]):
            key = (i, code, out, error)
            if key not in seen:
                if error is not None:
                    seen[key] = (False, False, error)
                else:
                    try:
                        seen[key] = queries[i].check(code, out)
                    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
                        seen[key] = (False, False, f"malformed reply: {exc!r}")
            ok, dec, why = seen[key]
            attempted += 1
            failed += not ok
            decided += dec and not exhausted
            if not ok and len(reasons) < 5:
                reasons.append(f"{' '.join(queries[i].argv)}: {why}")
    return attempted, failed, decided, reasons


def setup_seconds(child: dict) -> float:
    return bench_clock.scale(child["setup_s"], child["setup_bursts"])


def pass_wall_s(p: dict) -> float:
    return bench_clock.reference_seconds(p["start"], p["end"], bench_clock.gaps(p["bursts"]))


def end_to_end(passes, setups) -> dict:
    """Medians across passes (set-ups for setup_s), in reference seconds;
    ``raw_wall_s`` is the median measured wall time, for comparison."""
    per_pass = []
    for p in passes:
        gaps = bench_clock.gaps(p["bursts"])
        lat_ms = [bench_clock.reference_seconds(r[3], r[4], gaps) * 1e3 for r in p["results"]]
        per_pass.append({"wall_s": pass_wall_s(p),
                         "latency_p50_ms": statistics.median(lat_ms),
                         "latency_p99_ms": nearest_rank(lat_ms, 99),
                         "peak_rss_mb": p["maxrss_kb"] / 1024,
                         "raw_wall_s": p["end"] - p["start"]})
    out = {"setup_s": statistics.median(setups)}
    for key in per_pass[0]:
        out[key] = statistics.median(v[key] for v in per_pass)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(bench_workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "hilmod" / "cli.py").is_file():
        print(f"error: no hilmod sources under {SRC}", file=sys.stderr)
        return 2

    build, field_names = bench_workloads.WORKLOADS[args.workload]
    queries = build(args.seed)
    job = {"fields": [bench_workloads.field_spec(name) for name in field_names],
           "queries": [q.job() for q in queries]}
    try:
        run_child("setup", job)  # writes bytecode caches; not measured
        setups, passes = [], []
        start = time.perf_counter()
        while len(passes) < MIN_PASSES or _expected_end(start, len(passes)) <= args.seconds:
            setups += [setup_seconds(run_child("setup", job)) for _ in range(SETUP_PROBES)]
            passes.append(run_child("timed", job))
        traced = None
        if args.trace:
            spans_dir = ROOT / ".perfbench"
            spans_dir.mkdir(exist_ok=True)
            job["spans_path"] = str(spans_dir / f"spans-{args.workload}-{args.seed}.jsonl")
            traced = run_child("traced", job)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    setups += [setup_seconds(p) for p in passes]
    attempted, failed, decided, reasons = judge(queries, passes)
    if traced:  # checked too, but its verdicts do not count towards decided_ratio
        t_attempted, t_failed, _, t_reasons = judge(queries, [traced])
        attempted, failed, reasons = attempted + t_attempted, failed + t_failed, reasons + t_reasons
    for reason in reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    e2e = end_to_end(passes, setups)
    e2e["decided_ratio"] = decided / (len(queries) * len(passes))
    n = len(queries)
    print(f"{args.workload} seed {args.seed}: {n} queries per pass, {len(passes)} passes, "
          f"{len(setups)} set-ups, one fresh interpreter each; closed loop, one caller")
    beyond = samples_beyond(n, 99)
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "latency_p99_ms": (f"nearest rank of {n} per pass, {beyond} beyond it" if beyond >= 10
                           else f"only {n} queries per pass: the slowest query"),
        "decided_ratio": f"{decided} of {n * len(passes)} timed replies certified",
        "wall_s": f"median of {len(passes)} passes; measured {e2e['raw_wall_s']:.4f} s",
    }
    print("  times in reference seconds (see bench_clock.py)")
    for key, unit in END_TO_END_UNITS.items():
        print(f"  {key:<16} {e2e[key]:>12.4f} {unit:<5} "
              f"{notes.get(key, f'median of {len(passes)} passes')}")
    print(f"  {'failed_ratio':<16} {failed / attempted:>12.4f} ratio {failed} of {attempted} "
          f"replies disagree with the oracle or raised")

    if traced:
        metrics = {name: {"value": traced["trace"][name], "unit": unit}
                   for name, unit in bench_trace.metric_names()}
        traced_wall_s = pass_wall_s(traced)
        metrics["trace.overhead_s"] = {"value": traced_wall_s - e2e["wall_s"], "unit": "s"}
        print(f"  traced pass: wall_s {traced_wall_s:.4f} s, overhead "
              f"{metrics['trace.overhead_s']['value']:.4f} s over the untraced median; "
              f"spans in {job['spans_path']}")
        if traced["missing"]:
            print(f"  not in the library, reported as 0: {', '.join(traced['missing'])}")
        for name, m in metrics.items():
            print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    else:
        metrics = {key: {"value": e2e[key], "unit": unit}
                   for key, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
