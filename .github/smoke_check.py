"""Check the summary line that ends a `bench/run.py` output file.

Usage: python3 .github/smoke_check.py OUTPUT LABEL [METRIC ...]

Exits 1 unless the last line reports `correct` true and `failed` 0, and
every METRIC named reads above 0.
"""

import json
import sys

path, label, *metrics = sys.argv[1:]
with open(path) as output:
    last = json.loads(output.read().splitlines()[-1])
values = {name: last["metrics"][name]["value"] for name in metrics}
print(label, "correct:", last["correct"], "failed:", last["failed"], *values.items())
ok = last["correct"] is True and last["failed"] == 0 and all(v > 0 for v in values.values())
sys.exit(not ok)
