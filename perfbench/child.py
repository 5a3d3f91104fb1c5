"""Child processes of the benchmark; run.py starts them one at a time.

    child.py setup WORKLOAD SEED   fresh-interpreter set-up: import, make the
                                   inputs, print the clock when ready
    child.py import                print the clock at start and the time
                                   taken by ``import gradedbundles.cli``
    child.py cli FINE KEEP ARGS... run ``gradedbundles.cli.main(ARGS)`` under
                                   the tracer and write its totals, as JSON,
                                   to file descriptor 3

Clock values are ``time.monotonic()``, which on Linux is CLOCK_MONOTONIC and
so comparable with the parent's readings.
"""

import time

START = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def setup(workload, seed):
    import workloads

    if workload == "jets":
        workloads.jets_inputs(seed)
    elif workload == "towers":
        workloads.towers_inputs(seed)
    else:
        root = Path.cwd()
        workloads.cli_commands(seed, root, root / "perfbench" / "out" / f"probe-{seed}")
    print(json.dumps({"ready": time.monotonic()}))


def import_probe():
    t0 = time.monotonic()
    import gradedbundles.cli  # noqa: F401

    print(json.dumps({"start": START, "import_s": time.monotonic() - t0}))


def traced_cli(fine, keep, argv):
    import tracer

    t0 = time.monotonic()
    import gradedbundles.cli as cli

    import_s = time.monotonic() - t0
    tr = tracer.Tracer()
    tr.install()
    if fine:
        tr.count_allocations()
    tr.keep = keep
    with tr.task():
        code = cli.main(argv)
    sys.stdout.flush()
    tr.uninstall()
    out = dict(tr.summary(), start=START, import_s=import_s,
               spans=tr.spans if keep else [])
    with os.fdopen(3, "w") as fh:
        json.dump(out, fh)
    return code


def main():
    mode = sys.argv[1]
    if mode == "setup":
        setup(sys.argv[2], int(sys.argv[3]))
        return 0
    if mode == "import":
        import_probe()
        return 0
    if mode == "cli":
        return traced_cli(sys.argv[2] == "1", sys.argv[3] == "1", sys.argv[4:])
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
