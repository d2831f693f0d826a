"""Run the polarlab CLI with the span tracer installed.

    python3 traced_cli.py SPANS_OUT ARGS...

behaves like `polarlab ARGS...` and writes the spans as a JSON list to
SPANS_OUT when the command exits.
"""

import json
import sys

import layers
import tracer as tracing


def main() -> None:
    out = sys.argv[1]
    tracer = tracing.Tracer().install()
    from polarlab import cli

    try:
        cli.main(sys.argv[2:], prog_name="polarlab")
    finally:
        tracer.uninstall()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump([layers.span_dict(sp) for sp in tracer.spans], fh)


if __name__ == "__main__":
    main()
