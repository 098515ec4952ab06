"""``chopin serve`` with the benchmark's span table installed.

    python benchmarks/e2e/serve_traced.py SPANS.jsonl [serve options...]

Installs :data:`spans.TABLE`, runs ``chopin serve`` in this process
until SIGTERM drains it, then writes every span as JSONL to the first
argument.
"""

from __future__ import annotations

import sys

import spans
from repro.harness.cli import main as chopin


def main(argv) -> int:
    out, serve_args = argv[0], argv[1:]
    tracer = spans.Tracer().install()
    try:
        return chopin(["serve", *serve_args])
    finally:
        tracer.uninstall()
        tracer.dump(out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
