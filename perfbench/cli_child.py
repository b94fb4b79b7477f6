"""Run one chainops CLI command in this process and record its phases.

    python3 perfbench/cli_child.py {time|trace} STAMP.json ARGS...

Writes to STAMP.json the CLOCK_MONOTONIC times at which this script
started (the interpreter is up), chainops.cli was imported and main
returned, plus, in `trace` mode, the per-layer totals of layers.py.
Standard output and the exit code are those of the command.
"""

import time

started = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import sys  # noqa: E402


def main():
    mode, stamp, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import chainops.cli

    imported = time.clock_gettime(time.CLOCK_MONOTONIC)
    tracer = None
    if mode == "trace":
        import layers

        tracer = layers.Tracer()
        layers.install(tracer)
    code = 0
    try:
        chainops.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finished = time.clock_gettime(time.CLOCK_MONOTONIC)
    sys.stdout.flush()
    data = {"start": started, "import": imported, "main": finished,
            "trace": tracer.to_json() if tracer is not None else None}
    with open(stamp, "w") as fh:
        json.dump(data, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
