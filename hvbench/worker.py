"""One pass of a workload in a fresh interpreter.

Usage: worker.py SPEC_JSON. The spec names the jobs (CLI argument
lists), whether to trace, and where to write the results. Jobs run one
at a time through `hatvol.cli.main(argv)` in the current directory,
which the caller makes a clean temporary one.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def run_job(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code
        except Exception:  # a traceback is a failed job, not a failed pass
            rc = "exception"
            err.write(traceback.format_exc())
    seconds = time.perf_counter() - started
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "seconds": seconds}


def main(spec_path):
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    import hatvol.cli as cli

    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install_hatvol(tracer)
    outputs = []
    started = time.perf_counter()
    for run, argv in enumerate(spec["jobs"]):
        if tracer is not None:
            tracer.run = run
        outputs.append(run_job(cli, argv))
    wall = time.perf_counter() - started
    report = {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": outputs,
    }
    if tracer is not None:
        report["layers"] = tracing.aggregate(tracer.spans)
        with open(spec["spans"], "w", encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span) + "\n")
    with open(spec["results"], "w", encoding="utf-8") as handle:
        json.dump(report, handle)


if __name__ == "__main__":
    main(sys.argv[1])
