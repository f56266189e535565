"""One pass of a workload in a fresh process.

Reads a JSON request on stdin and writes one JSON object on stdout:

    {"src": ".../src", "ops": [[argv], ...], "validate": true, "run": true,
     "trace": false}

With `validate`, set-up is timed first: importing polywalk plus one
`--validate-only` call of every operation.  Then every operation runs once
in order through `polywalk.cli.main(argv)`, with its stdout captured and
its latency measured; `"run": false` stops after set-up.  With `trace`,
spans are installed after set-up, so set-up is never traced.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def run_op(cli, argv):
    """(exit code, seconds, stdout, stderr) of one CLI call.  An exception
    that escapes `main` is an operation that failed, not a failed pass: it
    reads as exit code -1 with the traceback on stderr."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except Exception:
            traceback.print_exc()
            rc = -1
    return rc, time.perf_counter() - start, out.getvalue(), err.getvalue()


def main() -> int:
    request = json.load(sys.stdin)
    src = Path(request["src"]).resolve()
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import polywalk.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"polywalk imported from {cli.__file__}, not {src}")
    import_s = time.perf_counter() - start

    reply = {"import_s": import_s, "validate_s": 0.0, "validate_errors": []}
    if request["validate"]:
        start = time.perf_counter()
        for argv in request["ops"]:
            rc, _, out, err = run_op(cli, list(argv) + ["--validate-only"])
            if rc != 0 or out.strip() != "ok":
                reply["validate_errors"].append(f"{argv[0]}: rc={rc} {err.strip()}")
        reply["validate_s"] = time.perf_counter() - start

    tracer = None
    if request["trace"]:
        import tracer as tracing
        tracer = tracing.install()

    reply["results"] = []
    for argv in request["ops"] if request["run"] else ():
        rc, seconds, out, err = run_op(cli, argv)
        reply["results"].append({"rc": rc, "s": seconds, "out": out, "err": err})
    reply["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        reply["trace"] = tracer.metrics()
    json.dump(reply, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
