"""Run one ``trcq`` CLI call in this fresh interpreter and report it as JSON.

Usage: ``python3 perfbench/worker.py [--trace] [--import-only] -- <trcq args>``
with ``src`` on ``PYTHONPATH``.  The last stdout line is a JSON object:

* ``import_s``: wall time of ``import trcq_kit.cli`` in this interpreter;
* ``main_s``: wall time of ``trcq_kit.cli.main(argv)``, interpreter start and
  import excluded;
* ``rc``: the exit code ``main`` returned, or ``null`` if it raised;
* ``maxrss_kib``: the process's peak resident set size;
* ``stdout``: what ``main`` printed (the CLI's echo lines);
* ``error``: the traceback if ``main`` raised;
* ``trace``: with ``--trace``, per-span ``calls``/``self_s``/``incl_s`` and
  the counts recorded at the layer boundaries.
"""

import time

_t0 = time.perf_counter()
import trcq_kit.cli  # noqa: E402  (timed: this is the set-up users pay per call)

IMPORT_S = time.perf_counter() - _t0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def main(args: "list[str]") -> int:
    sep = args.index("--") if "--" in args else len(args)
    flags, argv = args[:sep], args[sep + 1 :]
    out = {"import_s": IMPORT_S}
    if "--import-only" not in flags:
        rec = None
        if "--trace" in flags:
            import tracer

            rec = tracer.Recorder()
            tracer.install(rec)
        captured = io.StringIO()
        rc, error = None, None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured):
                rc = trcq_kit.cli.main(argv)
        except Exception:  # a crash is a failed call, reported with its cause
            error = traceback.format_exc()
        out["main_s"] = time.perf_counter() - start
        out["rc"] = rc
        out["error"] = error
        out["stdout"] = captured.getvalue()
        if rec is not None:
            out["trace"] = {"spans": tracer.summarize(rec.spans), "counts": dict(rec.counts)}
    out["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
