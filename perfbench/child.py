"""One benchmarked command, run in a fresh interpreter.

    python3 child.py <result.json> <trace: 0|1> <run id> [abqlab args...]

Imports the CLI the way the `abqlab` entry point does, notes the
CLOCK_MONOTONIC time just before the first call into it (the parent took
the same clock when it started this process, so the difference is the
set-up time), runs `abqlab.cli.main(args)` and writes the times and the
exit code to <result.json>. With no abqlab arguments it stops after the
import, which measures set-up alone. With trace 1 every layer is wrapped
first (see tracing.py) and the spans go to <result.json>.spans.
"""

import json
import os
import sys
import time


def main(argv):
    result_path, trace, run_id, args = argv[0], argv[1] == "1", argv[2], argv[3:]
    import abqlab.cli

    src = os.environ["PERFBENCH_SRC"]
    if not os.path.abspath(abqlab.cli.__file__).startswith(src + os.sep):
        print(f"abqlab imported from {abqlab.cli.__file__}, not from {src}",
              file=sys.stderr)
        return 4
    tracer = None
    bindings = []
    if trace:
        import tracing

        tracer, bindings = tracing.install(run_id)
    ready = time.monotonic()
    rc = abqlab.cli.main(args) if args else 0
    done = time.monotonic()
    if tracer is not None:
        tracer.write(result_path + ".spans")
    with open(result_path, "w") as fh:
        json.dump({"ready": ready, "done": done, "rc": rc, "bindings": bindings}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
