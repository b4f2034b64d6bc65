"""Traced ``repro serve``: install the span wrappers, then enter the
same ``repro.cli`` entry point the untraced runs use.

    python perfbench/trace_serve.py OUT.json.gz serve --port 0 ...

On shutdown (SIGINT) the spans, the self-time table and the per-layer
metrics measurable server-side are written to ``OUT.json.gz``.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import tracing  # noqa: E402


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    from repro import cli

    code = cli.main(cli_args)
    tracer.dump(out_path, {"metrics": tracing.derive(tracer)})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
