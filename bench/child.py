"""One benchmark repetition: `sparseguard run` in this fresh process.

Usage (from the root of a checkout, with PYTHONPATH=src):
    python3 bench/child.py RESULT_JSON TRACE -- <sparseguard run arguments>

It calls the public CLI entry point, stamps the moment `run_compression` is
entered and the moment the `run` command returns (CLOCK_MONOTONIC, which is
shared by all processes on Linux, so the parent can measure set-up time from
its spawn stamp), and writes those stamps, the exit code and the process
high-water mark to RESULT_JSON. With TRACE=1 it also installs the span
tracer first and adds its per-layer summary.
"""

import json
import os
import resource
import sys
import time


def main(argv) -> int:
    result_path, trace, sep, *run_args = argv
    if sep != "--" or trace not in ("0", "1"):
        print("usage: child.py RESULT_JSON 0|1 -- <run arguments>",
              file=sys.stderr)
        return 2
    from sparseguard import cli

    src = os.path.realpath("src") + os.sep
    if not os.path.realpath(cli.__file__).startswith(src):
        print(f"error: sparseguard was imported from {cli.__file__}, not "
              f"from {src}", file=sys.stderr)
        return 2

    tracer = None
    if trace == "1":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    stamps = {}
    inner = cli.run_compression

    def timed_run_compression(*args, **kwargs):
        stamps["enter"] = time.monotonic()
        return inner(*args, **kwargs)

    cli.run_compression = timed_run_compression
    code = cli.main(["run", *run_args])
    stamps["exit"] = time.monotonic()

    result = {"exit_code": code, **stamps,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        result["trace"] = tracer.summary()
        result["bindings"] = dict(tracer.hits)
        result["wrapped"] = sorted(tracer.wrapped)
        tracer.save_spans(os.path.splitext(result_path)[0] + "_spans.npz")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
