"""``astore serve`` with the benchmark's tracer installed.

    python3 perfbench/serve_traced.py <spans.json> serve <archive> [options]

Runs the program's own CLI entry point unchanged after wrapping its layer
entry points (see :mod:`tracing`), and writes the spans out when the
server stops.
"""

import sys

import common
from tracing import Tracer, install

common.use_program_path()


def main(argv) -> int:
    tracer = install(Tracer())
    from repro.cli import main as cli_main

    try:
        return cli_main(argv[2:])
    finally:
        tracer.dump(argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
