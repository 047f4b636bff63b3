"""Regenerate perfbench/reference_digests.json.

The chain workload compares the plan, update and witness target that
the command line writes against digests stored here for seeds 0-99.
The digests come from the public API alone, under the same BLAS pins
as a benchmark run. Regenerate them only for a change to smoa that is
meant to change those outputs, and say so in the change:

    python3 perfbench/make_reference.py
"""
from __future__ import annotations

import json
import os
import sys

import run

SEEDS = range(100)


def main() -> int:
    if not (run.SRC / "smoa" / "__init__.py").is_file():
        print(f"error: no smoa package under {run.SRC}", file=sys.stderr)
        return 2
    run.pin_environment()
    from workloads import REFERENCE, chain_reference

    scratch = run.OUT / f"reference-{os.getpid()}"
    table = {"openblas_coretype": os.environ.get("OPENBLAS_CORETYPE", "auto"),
             "chain": {str(seed): chain_reference(seed, scratch) for seed in SEEDS}}
    scratch.rmdir()
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(SEEDS)} chain references to {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
