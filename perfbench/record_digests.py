"""Record the SHA-256 of every serialized output in the default seed's
corpus prefix: the table behind the benchmark's digest check.

    python3 perfbench/record_digests.py

Run it only at a commit whose outputs are known to be right, since every
later output that differs counts as a failed problem. Every output must
also pass the invariant checks, or nothing is written.
"""

import json
import os
import sys

from run import DEFAULT_SEED, HERE, Ledger, _load_package

# Groups recorded per workload (None: the whole corpus). The fixed corpora
# are recorded whole, so their digests cover every seed; a 25 s run of
# `surfaces` uses about 600 groups.
GROUPS = {"surfaces": 700, "threefolds": None, "fourfold-step": None, "unnormalized": None}


def main():
    _load_package()
    import pipeline
    import workloads

    lib = pipeline.library()
    table = {}
    for name, w in workloads.WORKLOADS.items():
        ledger = Ledger(w)
        for problem in workloads.corpus(w, DEFAULT_SEED, GROUPS[name]):
            text, code, objects = pipeline.solve(lib, problem)
            ledger.record(problem, text, code, objects, None)
        if ledger.failed:
            sys.stderr.write(f"{name}: {len(ledger.failed)} outputs fail their checks\n")
            return 1
        table[name] = {key: value for key, value in ledger.digests.values()}
        print(f"{name}: {len(table[name])} digests", flush=True)
    with open(os.path.join(HERE, "digests.json"), "w") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
