#!/usr/bin/env python3
"""Record the reference SHA-256 of every request's stdout into reference.json.

    python3 perfbench/record.py

Run it from the root of a checkout of the commit whose outputs are the
reference.  It makes one pass per workload; batch is recorded for seeds
0..BATCH_SEEDS-1, keeping the first HEX_DIGITS hex digits of each digest so
the file stays small.
"""

from __future__ import annotations

import json

from run import HERE, checks, workloads

BATCH_SEEDS = 16
HEX_DIGITS = 3


def digests(workload: str, seed: int) -> list[str]:
    requests = workloads.build(workload, seed)
    out = []
    for req in requests:
        rc, text = workloads.execute(req)
        if rc != 0:
            raise SystemExit(f"{workload} seed {seed}: {req.key} exited {rc}; not recording")
        out.append(checks.digest(text))
    return out


def main() -> None:
    ref = {}
    for workload in ("algebra", "groups"):
        requests = workloads.build(workload, 0)
        ref[workload] = dict(zip((r.key for r in requests), digests(workload, 0)))
    ref["batch"] = {
        "hex_digits": HEX_DIGITS,
        "digests": {str(s): "".join(d[:HEX_DIGITS] for d in digests("batch", s)) for s in range(BATCH_SEEDS)},
    }
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
