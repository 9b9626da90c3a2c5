"""Run the qstaff command line with the benchmark's span recorder installed.

    python3 perfbench/launch.py SPANS_OUT <qstaff arguments...>

Installs the wrappers, calls qstaff.cli.main with the remaining
arguments, writes the spans to SPANS_OUT and exits with main's code.
"""
import sys

import tracing


def main():
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install(tracing.IN_PROCESS_POINTS + tracing.CLI_POINTS)
    from qstaff import cli
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
