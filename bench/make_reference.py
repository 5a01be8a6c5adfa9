"""Record the reference outputs that the benchmark compares against at
each workload's default seed: d estimates per replicate for the studies,
G and H for the sandwich, for every input of a run.

    PYTHONPATH=src python3 bench/make_reference.py

The committed ``reference.json`` was recorded from the commit that added
the benchmark; re-recording it discards that baseline.
"""

import json
import sys
from pathlib import Path

import workloads


def main() -> int:
    out = {}
    for name, wl in workloads.WORKLOADS.items():
        out[name] = [wl.reference_values(wl.call(wl.inputs(wl.default_seed, j)))
                     for j in range(wl.inputs_per_run)]
        print(f"{name}: {wl.inputs_per_run} inputs", file=sys.stderr,
              flush=True)
    path = Path(__file__).resolve().parent / "reference.json"
    with open(path, "w") as fh:
        json.dump({"workloads": out}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
