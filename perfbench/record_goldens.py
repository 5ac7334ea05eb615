"""Rewrite perfbench/goldens.json from the code as it stands.

    python3 perfbench/record_goldens.py

Only for a change that is meant to alter campaign reports, exploration
verdicts or trace digests; the benchmark compares every run against the
recorded file.
"""

import json
import sys

from run import import_package

if __name__ == "__main__":
    import_package()
    from workloads import GOLDENS_PATH, record_goldens

    with open(GOLDENS_PATH, "w") as fh:
        json.dump(record_goldens(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.exit(0)
