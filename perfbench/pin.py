"""Re-pin expected.json from the sources in this checkout.

    python3 perfbench/pin.py

Runs one pass of every workload under two seeds, requires the digests to be
seed-independent, and writes them to perfbench/expected.json. Pin only at a
commit whose outputs are known good: every later run is checked against it.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def digests(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "one_pass.py"), "--workload", workload,
           "--seed", str(seed), "--spawn-ns", str(time.monotonic_ns()), "--pin"]
    out = subprocess.run(cmd, cwd=HERE.parent, stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    return json.loads(out.strip().splitlines()[-1])["digests"]


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    pinned = {}
    for w in spec["workloads"]:
        first, second = digests(w["name"], 1), digests(w["name"], 2)
        if first != second:
            diff = sorted(k for k in first if first.get(k) != second.get(k))
            print(f"{w['name']}: digests depend on the seed: {diff}", file=sys.stderr)
            return 1
        pinned[w["name"]] = first
    (HERE / "expected.json").write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
