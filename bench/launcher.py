"""Run `rollcall.cli.main` with the benchmark's span wrappers installed.

Usage: python3 bench/launcher.py TRACE_OUT <rollcall arguments...>

The traced live run starts the counter through this file instead of
`python -m rollcall.cli`; the spans are written to TRACE_OUT when `main`
returns (the counter returns on SIGTERM).
"""

from __future__ import annotations

import sys

import spans


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    import rollcall.cli

    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        return rollcall.cli.main(argv)
    finally:
        tracer.active = False
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main())
