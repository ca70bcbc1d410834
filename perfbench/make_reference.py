"""Regenerate reference.json: the key report scalars of every workload input.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each named workload (default: all) once per input it can make (N_VARIANTS seeds for a seeded
workload, one otherwise) and stores the scalars run.py checks. Regenerate
only when a change is meant to move these numbers, and say by how much.
"""

import json
import sys
import time

from run import REFERENCE, WORKLOADS, N_VARIANTS, RUN_LIMIT_S, invoke


def main():
    names = sys.argv[1:] or sorted(WORKLOADS)
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for workload in names:
        wl = WORKLOADS[workload]
        reference[workload] = {}
        for pseed in range(N_VARIANTS if wl["seeded"] else 1):
            s = invoke(workload, pseed, False, time.monotonic() + RUN_LIMIT_S)
            if s["errors"]:
                print(f"{workload} seed {pseed}: {s['errors']}", file=sys.stderr)
                return 1
            reference[workload][str(pseed)] = {k: s["report"][k] for k in wl["checks"]}
            print(f"{workload} seed {pseed}: {reference[workload][str(pseed)]}")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
