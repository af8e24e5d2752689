"""Record the reference outputs every benchmark operation is checked against.

    python3 perfbench/record.py

Runs each operation of every workload once per input seed and stores the
mc_risk CSV digest and, for each fit, the selected parameters and a
projection summary of the weights. It also stores the CSV digest of the
repository README's ``kmse benchmark`` command (``--reps 200 --seed 42``). Run it only at a commit whose outputs are
the intended ones: later commits are judged against this file.
"""

from __future__ import annotations

import json
import sys

import workloads as wl
from run import provenance

SIZE = "full"
SEEDS = 32  # run.py --seed s uses input seed s mod SEEDS


def main() -> int:
    kmse = wl.import_kmse()
    reference = wl.record(kmse.cli.main, SIZE, SEEDS, wl.WORK / "record")
    reference["provenance"] = provenance()
    wl.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
