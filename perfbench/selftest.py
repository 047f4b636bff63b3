"""Self-tests for the benchmark: wrong outputs must count as failures.

    python3 perfbench/selftest.py

Each test plants one fault the checks must catch (a perturbed reference
digest, a restart ladder too short for a hard witness, a corrupted sweep
row, a wrong spike count) and asserts that the workload reports a
failed operation. The last tests run ``run.py`` itself: its result line
must carry exactly the metrics BENCHMARK.json names, each with its unit,
and in a directory holding only the benchmark it must exit non-zero
without printing a result. Takes about half a minute.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def failed_ops(workload, raw) -> list[str]:
    return [name for name, ok, _ in workload.check(raw) if not ok]


def test_chain_digest_mismatch(workloads, out, null):
    chain = workloads.Chain(3, out, null)
    chain.prepare_checks()
    assert failed_ops(chain, chain.run_pass(0)) == [], "clean chain pass must not fail"
    digest = chain.expected["plan"]
    chain.expected = {**chain.expected, "plan": ("0" if digest[0] != "0" else "1") + digest[1:]}
    assert failed_ops(chain, chain.run_pass(1)) == ["plan"]


def test_descent_short_ladder(workloads, out, null):
    descent = workloads.Descent(3, out, null)
    descent.WITNESSES = (1,)  # needs a second start
    descent.LADDER = (0,)
    descent.setup()
    assert failed_ops(descent, descent.run_pass(0)) == ["witness1"]


def test_sweep_bad_row(workloads, out, null):
    sweep = workloads.Sweep(3, out, null)
    sweep.setup()
    raw = sweep.run_pass(0)
    path = out / "sweep0.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    smoa_row = next(i for i, line in enumerate(lines) if line.startswith("smoa,"))
    fields = lines[smoa_row].split(",")
    fields[-1] = "1e-3"  # exact-fit residual far from zero
    lines[smoa_row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert len(failed_ops(sweep, raw)) == 1


def test_spectral_wrong_spikes(workloads, out, null):
    spectral = workloads.Spectral(3, out, null)
    spectral.setup()
    spectral.SPIKES = workloads.Spectral.SPIKES + 1
    assert failed_ops(spectral, spectral.run_pass(0)) == ["report"]


def run_benchmark(cwd, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_result_lines(workloads, out, null):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = run_benchmark(run.ROOT, "--workload", "sweep", "--seed", "3",
                             "--seconds", "1", "--trace", str(trace))
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
        wanted = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
        for name, unit in wanted.items():
            assert any(line.startswith(f"{name} = ") and f" {unit}" in line for line in lines), name
        for line in lines[:-1]:
            if " = " in line and not line.startswith("#"):
                assert len(line.split(" = ", 1)[1].split()) >= 2, f"no unit: {line}"


def test_bare_directory(workloads, out, null):
    bare = out / "bare"
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    done = run_benchmark(bare, "--workload", "chain", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0 and done.stdout.strip() == "", done.stdout


TESTS = [test_chain_digest_mismatch, test_descent_short_ladder, test_sweep_bad_row,
         test_spectral_wrong_spikes, test_result_lines, test_bare_directory]


def main() -> int:
    run.pin_environment()
    import workloads
    from spans import NullTracer

    failures = 0
    for test in TESTS:
        out = run.OUT / f"selftest-{os.getpid()}"
        out.mkdir(parents=True)
        try:
            test(workloads, out, NullTracer())
            print(f"PASS {test.__name__}")
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {test.__name__}: {exc}")
        finally:
            shutil.rmtree(out, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
