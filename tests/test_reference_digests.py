"""The CLI chain still writes the plan, update and witness target whose
digests ``perfbench/reference_digests.json`` stores.

The chain runs in a fresh interpreter pinned the way ``perfbench/run.py``
pins a benchmark run (one BLAS thread, OpenBLAS's Haswell kernels on AVX2
hosts), because the stored digests hold only under those kernels. The
test reads ``perfbench/`` and writes only under its temporary directory.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEEDS = (0, 42)

# argv: perfbench directory, output directory, seeds; prints one JSON line
CHAIN = """
import json, sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])
import run

if "avx2" not in run.cpu_flags():
    print(json.dumps({"skip": "no AVX2: the stored digests hold only under Haswell kernels"}))
    sys.exit(0)
run.pin_environment()
from spans import NullTracer
from workloads import Chain

results = {}
for seed in map(int, sys.argv[3:]):
    chain = Chain(seed, Path(sys.argv[2]) / f"seed{seed}", NullTracer())
    chain.setup()
    chain.prepare_checks()
    checks = chain.check(chain.run_pass(0))
    results[seed] = {"source": chain.expected_source, "checks": checks}
print(json.dumps(results))
"""


def test_chain_matches_stored_digests(tmp_path):
    result = subprocess.run(
        [sys.executable, "-c", CHAIN, str(PERFBENCH), str(tmp_path), *map(str, SEEDS)],
        capture_output=True, text=True, cwd=tmp_path, timeout=600,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    if "skip" in report:
        pytest.skip(report["skip"])
    assert sorted(report) == sorted(map(str, SEEDS))
    for seed, outcome in report.items():
        assert outcome["source"] == "stored", seed
        commands = [cmd for cmd, _, _ in outcome["checks"]]
        assert {"plan", "update", "witness"} <= set(commands)
        failed = [(cmd, detail) for cmd, ok, detail in outcome["checks"] if not ok]
        assert failed == [], (seed, failed)
