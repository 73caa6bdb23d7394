"""Write bench/reference.json: the result digests of one pass of every
workload at the default seed.

    python3 bench/make_reference.py

Run it only on a commit whose results are trusted; the timed runs count
any later difference from these digests as a failed request.  Every
result must pass its workload's independent check before it is written.
"""

from __future__ import annotations

import json
import sys

import workloads


def main() -> int:
    ref = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(workloads.DEFAULT_SEED)
        digests = []
        for req in wl.requests:
            out = wl.run(req)
            problem = wl.check(req, out)
            if problem is not None:
                print(f"{name}: {problem}", file=sys.stderr)
                return 1
            digests.append(wl.digest(req, out))
        if name == "certify":
            ref[name] = {req[0]: d for req, d in zip(wl.requests, digests)}
        elif name == "swell":
            if len(set(digests)) != 1:
                print("swell: ranks differ between deltas", file=sys.stderr)
                return 1
            ref[name] = digests[0]
        else:
            ref[name] = digests
        print(f"{name}: {len(digests)} digests", file=sys.stderr)
    ref["default_seed"] = workloads.DEFAULT_SEED
    workloads.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
