"""Work that must happen in a fresh interpreter, run as a child process.

    python3 perfbench/probe.py setup <workload> <seed>
    python3 perfbench/probe.py cli <spans.jsonl> <simulate args...>

``setup`` times ``import blindsim`` plus building the workload's preset
configs.  ``cli`` calls
``cli.main([...], standalone_mode=False)`` with every traced name
wrapped, and appends the spans to the given file.  Either mode prints
one JSON object as its last line.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from workloads import WORKLOADS, timed_setup, use_checkout_source


def _setup(workload: str, seed: str) -> dict:
    return timed_setup(WORKLOADS[workload], int(seed))[1]


def _cli(spans_path: str, args: list[str]) -> dict:
    use_checkout_source()
    from blindsim import cli
    from tracing import Tracer

    tracer = Tracer()
    tracer.install_engine()
    tracer.install_presets()
    tracer.install_cli()
    try:
        cli.main(args, standalone_mode=False)
    finally:
        tracer.restore()
    tracer.write(Path(spans_path), "cli")
    return {"absent": sorted(tracer.absent)}


def main(argv: list[str]) -> None:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        out = _setup(*rest)
    elif mode == "cli":
        out = _cli(rest[0], rest[1:])
    else:
        raise SystemExit(f"unknown probe mode {mode!r}")
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
