#!/usr/bin/env python3
"""Run the complete reproduction and write REPORT.txt.

Executes every experiment in the registry (all tables, figures, appendices,
and extension experiments), prints each one's rendered rows/series, and
saves the combined output next to this script.  Equivalent to
``python -m repro run all`` with the output captured.

Run:  python examples/full_reproduction.py [--seed N] [--out PATH]
"""

import argparse
import io
import time
from contextlib import redirect_stdout

from repro.cli import main as repro_main
from repro.experiments import REGISTRY


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="REPORT.txt")
    args = parser.parse_args()

    buffer = io.StringIO()
    t0 = time.perf_counter()
    failures = []
    for name in sorted(REGISTRY):
        header = f"===== {name} ====="
        print(header)
        section = io.StringIO()
        try:
            with redirect_stdout(section):
                repro_main(["run", name, "--seed", str(args.seed),
                            "--no-cache"])
        except Exception as exc:  # record, keep going
            section.write(f"FAILED: {exc}\n")
            failures.append(name)
        text = section.getvalue()
        print(text)
        buffer.write(header + "\n" + text + "\n")
    elapsed = time.perf_counter() - t0

    summary = (
        f"\n{len(REGISTRY) - len(failures)}/{len(REGISTRY)} experiments "
        f"completed in {elapsed:.0f}s"
        + (f"; failed: {', '.join(failures)}" if failures else "")
    )
    print(summary)
    with open(args.out, "w") as fh:
        fh.write(buffer.getvalue() + summary + "\n")
    print(f"report written to {args.out}")


if __name__ == "__main__":
    main()
