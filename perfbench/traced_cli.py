"""Run one `qfa_exact.cli` command with the layer tracer installed.

Usage: python3 perfbench/traced_cli.py SPANS_FILE [cli arguments...]

Used by the traced run of the `cli` workload in place of
`python -m qfa_exact.cli`; the spans and counters go to SPANS_FILE and
the command's stdout, stderr and exit code are passed through unchanged.
"""

import sys

import tracing


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    import qfa_exact.cli

    try:
        code = qfa_exact.cli.main(argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
