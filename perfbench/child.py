"""Run one qdiv command in a fresh interpreter and report what it cost.

Usage: child.py REPORT TRACE [QDIV_ARG ...]

Imports numpy, then ``qdiv.cli``, timing each, and records the monotonic
clock at the moment ``qdiv.cli`` is imported so the parent can measure
set-up from the moment it spawned this process. With no QDIV_ARG the
process stops there (a set-up probe). Otherwise it calls
``qdiv.cli.main`` with the arguments, with spans installed when TRACE is
1, and writes a JSON report to REPORT. The command's own stdout is left
untouched; the exit code is the command's.
"""

import sys
import time


def main() -> int:
    report_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    start = time.monotonic()
    import numpy

    numpy_done = time.monotonic()
    import qdiv.cli

    imported_at = time.monotonic()

    import json

    report = {
        "imported_at": imported_at,
        "numpy_import_s": numpy_done - start,
        "qdiv_import_s": imported_at - numpy_done,
        "numpy_version": numpy.__version__,
        "qdiv_file": qdiv.cli.__file__,
    }
    code = 0
    if argv:
        tracer = None
        if trace:
            import spans

            tracer = spans.Tracer()
            tracer.install()
        begin = time.monotonic()
        code = qdiv.cli.main(argv)
        report["main_s"] = time.monotonic() - begin
        sys.stdout.flush()
        if tracer is not None:
            report["trace"] = tracer.summary()
    report["exit_code"] = code
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
