"""One CLI request in a fresh process.

    request.py OUT 0 ARGV...   runs cobordlab.cli as __main__, as `python -m cobordlab.cli ARGV` does
    request.py OUT 1 ARGV...   imports cobordlab.cli, installs the tracer, calls cli.main(ARGV)

Kept apart from worker.py so the request process imports little beyond the
package.  Writes to OUT a JSON document with the process's peak RSS and,
traced, its CPU readings: `start_s` before the import (interpreter
start-up), `import_s` for the import, `cpu` at the end, and the tracer's
summary; spans go to OUT.spans.json.  The parent scales the CPU readings
(refclock.py).
"""

from __future__ import annotations

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)


def main() -> int:
    import json
    import runpy

    from rss import peak_rss_mb

    out, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    doc: dict = {}
    if not trace:
        sys.argv = [os.path.join(SRC, "cobordlab", "cli.py")] + argv
        try:
            runpy.run_module("cobordlab.cli", run_name="__main__", alter_sys=True)
            code = 0
        except SystemExit as exc:
            code = exc.code
    else:
        t0 = time.process_time()
        import cobordlab.cli as cli

        t1 = time.process_time()
        import tracer as tr

        tracer = tr.Tracer()
        tr.install(tracer)
        code = cli.main(argv)
        sys.stdout.flush()
        tracer.write(out + ".spans.json")
        doc.update(start_s=t0, import_s=t1 - t0, cpu=time.process_time(), layers=tracer.summary())
    sys.stdout.flush()
    where = os.path.realpath(sys.modules["cobordlab"].__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"cobordlab imported from {where}, not from {SRC}")
    doc["peak_rss_mb"] = peak_rss_mb()
    with open(out, "w") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
