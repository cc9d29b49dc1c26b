"""Set-up probe, run in a fresh interpreter by run.py.

    python3 perfbench/probe.py SRC_DIR simulate|sweep INPUT.json...

Imports malaria_dde.cli from SRC_DIR, parses every input file the way the
CLI does, then prints time.monotonic_ns(). The parent subtracts the time it
launched the interpreter, so the figure covers interpreter start, imports
and parsing, and not interpreter shutdown.
"""

import sys
import time


def main() -> None:
    src, command, *paths = sys.argv[1:]
    sys.path.insert(0, src)
    import malaria_dde.cli  # noqa: F401  (the import is what is measured)
    from malaria_dde.scenario import load_scenario, load_sweep

    load = load_scenario if command == "simulate" else load_sweep
    for path in paths:
        load(path)
    print(time.monotonic_ns())


if __name__ == "__main__":
    main()
