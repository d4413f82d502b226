"""One pass of a workload in a fresh interpreter.

Usage: bench_child.py <src dir> <setup|timed|traced>, with the job as
JSON on stdin: the field specs to build, the queries, and for a traced
pass the file the spans are written to.  Prints one JSON object.

The pass imports ``hilmod.cli`` and builds the fields (set-up), then runs
the queries one after the other through ``hilmod.cli.main`` in this
process, one caller waiting for each reply.  Only ``sys`` and ``time`` are
imported before set-up is timed, so the import cost a CLI user pays is
measured in full.  Calibration bursts (bench_clock.py) follow the set-up
and run on SIGALRM while the queries do.  In a traced pass each burst is a
span of its own, so its time is not counted as the open span's.
"""

import sys
import time


def _install_probe(hits: list) -> None:
    """Count SearchOutcome.exhausted results of the in-field root searches
    (the CLI does not show them for torsion-search).  No timing."""
    import bench_trace
    from hilmod import numfield

    for name in ("has_square_root", "contains_root_of"):
        orig = getattr(numfield, name)

        def probe(*args, _orig=orig, **kwargs):
            result = _orig(*args, **kwargs)
            if getattr(result, "exhausted", False):
                hits[0] += 1
            return result

        bench_trace.rebind(orig, probe, bench_trace.hilmod_modules())


def main() -> int:
    src, mode = sys.argv[1], sys.argv[2]
    raw = sys.stdin.read()
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import hilmod.cli
    from hilmod.numfield import NumberField
    import json

    job = json.loads(raw)
    if not hilmod.__file__.startswith(src):
        print(f"hilmod was imported from {hilmod.__file__}, not {src}", file=sys.stderr)
        return 3
    tracer = None
    if mode == "traced":
        import bench_trace
        tracer = bench_trace.Tracer()
        missing = tracer.install()
    for spec in job["fields"]:
        NumberField.from_json(spec)
    setup_s = time.perf_counter() - t0
    import bench_clock

    clock = bench_clock.Calibrator()
    for _ in range(bench_clock.SETUP_BURSTS):
        clock.burst()
    out = {"setup_s": setup_s, "setup_bursts": clock.bursts}
    if mode != "setup":
        import contextlib
        import io

        hits = [0]
        if tracer is None:
            _install_probe(hits)
        results = []
        clock = bench_clock.Calibrator(tracer.burst_span if tracer is not None else None)
        with clock.ticking():
            out["start"] = time.perf_counter()
            for i, query in enumerate(job["queries"]):
                if tracer is not None:
                    tracer.query = i
                sys.stdin = io.StringIO(query["stdin"] or "")
                stdout, stderr = io.StringIO(), io.StringIO()
                error = None
                hits[0] = 0
                t = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                        code = hilmod.cli.main(query["argv"])
                except SystemExit as exc:  # argparse usage error
                    code, error = exc.code, f"usage error: {stderr.getvalue().strip()}"
                except Exception as exc:  # a traceback a CLI user would see
                    code, error = None, repr(exc)
                results.append([code, stdout.getvalue(), error, t, time.perf_counter(), hits[0]])
            out["end"] = time.perf_counter()
        out["bursts"] = clock.bursts
        out["results"] = results
        if tracer is not None:
            out["trace"] = tracer.metrics()
            out["missing"] = missing
            tracer.dump(job["spans_path"])
    import resource
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
