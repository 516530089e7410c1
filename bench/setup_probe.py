"""One set-up, timed from outside: import the CLI and build the inputs.

Run by ``run.py`` in a fresh interpreter as
``setup_probe.py <workload> <seed> <checkout root>``. Library workloads
build one full stratum cycle of pairs; ``cli_reports`` writes its corpus
into a temporary directory under the checkout and removes it.
"""

import itertools
import shutil
import sys
import tempfile

import agency.cli  # noqa: F401  (the import is part of what is timed)

import corpus
import gen
import workloads


def main() -> None:
    workload, seed, root = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    if workload == "cli_reports":
        directory = tempfile.mkdtemp(prefix=".bench-tmp-", dir=root)
        try:
            corpus.build(seed, 0, directory)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
    else:
        kind = workloads.LIBRARY[workload][0]
        list(itertools.islice(gen.pairs(seed, kind), gen.cycle_length(kind)))


if __name__ == "__main__":
    main()
