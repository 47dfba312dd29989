"""Run the ``spintorus`` command from the checkout's sources.

Equivalent to the installed console script (``spintorus.cli:main``).  Two
environment variables, set only by the benchmark's traced and allocation
passes, add measurement:

* ``PERFBENCH_TRACE=<file>``: install the span tracer around ``main`` and
  write the spans, trace id ``PERFBENCH_TRACE_ID``, to ``<file>`` at exit.
* ``PERFBENCH_ALLOC=<file>``: run ``main`` under ``tracemalloc`` and write
  its peak traced bytes to ``<file>``.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from spintorus import cli  # noqa: E402


def main() -> int:
    trace_out = os.environ.get("PERFBENCH_TRACE")
    alloc_out = os.environ.get("PERFBENCH_ALLOC")
    argv = sys.argv[1:]
    if trace_out:
        entered = time.time()  # startup ends here; tracer set-up is overhead
        import spans  # the script's own directory is on sys.path

        tracer = spans.Tracer({int(k): v for k, v in
                               json.loads(os.environ["PERFBENCH_RADII"]).items()})
        tracer.install()
        tracer.trace_id = int(os.environ.get("PERFBENCH_TRACE_ID", "0"))
        tracer.enabled = True
        code = cli.main(argv)
        tracer.enabled = False
        tracer.uninstall()
        with open(trace_out, "w") as fh:
            json.dump({"entered": entered, "spans": tracer.spans,
                       "absent": tracer.absent}, fh)
        return code
    if alloc_out:
        import tracemalloc

        tracemalloc.start()
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        with open(alloc_out, "w") as fh:
            json.dump({"peak_bytes": peak}, fh)
        return code
    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
