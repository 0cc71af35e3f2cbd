"""A traced ``python -m uiokit`` child for cli-session's traced runs.

Usage: python cli_child.py SPANS_JSON <uiokit arguments...>

Installs the span wrappers of `tracing`, runs ``uiokit.cli.main`` on the
arguments, and writes the recorded spans and counts to SPANS_JSON before
exiting with the command's own exit code.
"""

import sys

from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from uiokit import cli
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.finish()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
