"""Traced stand-in for ``python -m infobounds.cli``, used by the traced ``cli-mix`` phase.

Usage: ``python launch.py SPANS_JSON CLI_ARGS...``.  It imports the package
(untraced; import time is measured separately), installs the timing
wrappers, calls ``infobounds.cli.main(CLI_ARGS)``, writes the spans to
SPANS_JSON and exits with the command's exit code.
"""

import sys

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import infobounds.cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        return infobounds.cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
