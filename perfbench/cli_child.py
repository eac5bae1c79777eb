"""A `gl3weights` CLI process with layer tracing, for traced cli-mix passes.

Usage: python cli_child.py ARGS... (with PYTHONPATH=src).  It installs
the span wrappers, runs the command exactly as the console entry point
would, and appends one line `spans.TRACE_MARK {json}` to stderr with
the tracer summary.  Standard output and the exit code are the command's
own.  When PERFBENCH_SPANS names a file, the spans are appended to it,
stamped with the operation id in PERFBENCH_OP.
"""

import json
import os
import sys

import gl3weights.cli

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import spans  # noqa: E402


def main() -> int:
    tracer = spans.Tracer()
    tracer.op = int(os.environ.get("PERFBENCH_OP", "0"))
    spans.install(tracer, spans.package_modules(import_all=True))
    try:
        code = gl3weights.cli.run(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
    sys.stdout.flush()
    if os.environ.get("PERFBENCH_SPANS"):
        tracer.dump(os.environ["PERFBENCH_SPANS"], mode="a")
    sys.stderr.write(spans.TRACE_MARK + json.dumps(tracer.summary()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
