"""Run one flipforge CLI command with every traced entry point wrapped.

Usage: python traced_cli.py TRACE_OUT.json <flipforge command and options>

The command runs in a root span ``cli.<command>``; the spans and counters are
written to TRACE_OUT.json after it returns.  The exit code is the command's.
"""

import sys

from tracer import Tracer


def main(argv):
    trace_out, command = argv[0], argv[1:]
    tracer = Tracer().install()
    from flipforge import cli

    code = tracer.span(f"cli.{command[0]}", cli.main, command)
    tracer.dump(trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
