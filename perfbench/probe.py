"""Run one item of every input in a fresh process, so the workload's peak RSS can be read.

    python3 perfbench/probe.py WORKLOAD WORKDIR SIZE

WORKDIR holds the inputs an earlier setup wrote. Outputs are not checked
here; the measured run checks them. An item that fails is reported on
stderr and does not stop the others.
"""

import sys
from pathlib import Path

from spans import NullTracer
from workloads import WORKLOADS


def main() -> int:
    name, workdir, size = sys.argv[1:]
    workload = WORKLOADS[name](Path(workdir), size)
    for inp in workload.load_inputs():
        try:
            workload.run(inp, NullTracer())
        except Exception as exc:  # the measured run counts and reports failures
            print(f"{inp.path.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
