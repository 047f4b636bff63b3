"""The four benchmark workloads.

Each workload builds its inputs from the run seed in ``setup``, does one
unit of timed work in ``run_pass`` and checks that unit's outputs in
``check``. Checks return one ``(operation, ok, detail)`` triple per
operation attempted; a failed check is a failed operation.

- ``chain``: the command line chain at d=256, in-process through
  ``smoa.cli.main``, one fresh output directory per pass.
- ``descent``: seeded witnesses solved to tolerance with a restart ladder.
- ``sweep``: ``smoa sweep`` over grids of small plans (d <= 64).
- ``spectral``: plan, ceiling, witness and full report at d=512.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

import smoa.cli
from smoa.adapters import AdapterInit, init_smoa, smoa_update
from smoa.capacity import lora_gap, make_witness, rank_ceiling, smoa_exact_fit
from smoa.diagnostics import ActivationSample, full_report, save_report
from smoa.fileutil import sha256_file
from smoa.gen import gaussian_matrix, spiked_matrix
from smoa.matio import matrix_digest
from smoa.matrices import Matrix
from smoa.preprocess import build_plan, load_plan, save_plan
from smoa.trainer import FitConfig, FitProblem, fit

REFERENCE = Path(__file__).with_name("reference_digests.json")


class Workload:
    """Shared shape of a workload; subclasses fill in the four hooks."""

    name = ""

    def __init__(self, seed: int, out: Path, tracer):
        self.seed = seed
        self.out = out
        self.tracer = tracer

    def setup(self) -> None:
        """Build the inputs; timed as part of ``setup_s``."""

    def prepare_checks(self) -> None:
        """Untimed work the checks need, such as reference digests."""

    def warm_up(self) -> list[tuple[str, bool, str]]:
        """Untimed, checked pass that lets lazy imports and caches settle."""
        return self.check(self.run_pass(-1))

    def run_pass(self, index: int):
        raise NotImplementedError

    def check(self, raw) -> list[tuple[str, bool, str]]:
        raise NotImplementedError

    def summary(self, raws: list, seconds: list[float]) -> dict[str, tuple[float, str]]:
        """Workload-specific end-to-end readings, name -> (value, unit)."""
        return {}


def spikes_found(report: dict, spikes: int) -> tuple[bool, str]:
    """Whether a spectral report finds exactly the planted spikes.

    The reported ``outlier_count`` counts every normalized singular value
    above the bulk edge, and the largest noise value crosses the edge by
    a Tracy-Widom fluctuation on about 2% of seeds (the repository's
    acceptance test allows one miss in twenty). So the check is: exactly
    ``spikes`` values lie 5% or more beyond the edge, and the count is
    the spikes or one more.
    """
    edge, count = report["bulk_edge"], report["outlier_count"]
    clear = sum(1 for v in report["normalized_values"] if v > 1.05 * edge)
    ok = clear == spikes and count in (spikes, spikes + 1)
    return ok, f"{clear} values clear of the edge, outlier_count {count}, {spikes} spikes planted"


# ---------------------------------------------------------------- chain


def chain_reference(seed: int, scratch: Path) -> dict[str, str]:
    """Digests of the plan, update and witness target that one chain pass
    at ``seed`` must write, computed through the public API alone."""
    c = Chain
    w0 = spiked_matrix(c.D, c.D, c.SPIKES, c.STRENGTH, seed)
    plan = build_plan(w0, c.K)
    scratch.mkdir(parents=True, exist_ok=True)
    plan_path = scratch / "reference_plan.json"
    save_plan(plan, plan_path, source_hash=matrix_digest(w0))
    plan_digest = sha256_file(plan_path)
    plan = load_plan(plan_path)
    plan_path.unlink()
    adapter = init_smoa(plan, c.R, AdapterInit("gaussian", seed=seed, scale=1.0))
    return {
        "plan": plan_digest,
        "update": matrix_digest(smoa_update(adapter)),
        "witness_target": matrix_digest(make_witness(plan, c.RHO, seed).target),
    }


class Chain(Workload):
    name = "chain"
    D, K, R, RHO = 256, 4, 16, 4
    SPIKES, STRENGTH = 4, 10.0
    SAMPLES = 512
    FIT_STEPS = 300

    def argv(self, out: Path) -> list[tuple[str, list[str]]]:
        s = str(self.seed)
        d, k, r = str(self.D), str(self.K), str(self.R)
        w0, acts, plan = str(out / "w0.mat"), str(out / "acts.mat"), str(out / "plan.json")
        steps = [
            ["gen", "--rows", d, "--cols", d, "--kind", "spiked", "--spikes", str(self.SPIKES),
             "--strength", str(self.STRENGTH), "--seed", s, "--name", "w0.mat"],
            ["gen", "--rows", d, "--cols", str(self.SAMPLES), "--kind", "gaussian",
             "--seed", str(self.seed + 1), "--name", "acts.mat"],
            ["plan", "--w0", w0, "--k", k],
            ["adapter", "--plan", plan, "--kind", "smoa", "--r", r, "--init", "gaussian",
             "--seed", s],
            ["update", "--adapter", str(out / "adapter.json")],
            ["rank", "--matrix", str(out / "update.mat")],
            ["ceiling", "--plan", plan, "--r", r],
            ["witness", "--plan", plan, "--rho", str(self.RHO), "--seed", s],
            ["gap", "--witness", str(out / "witness"), "--r", r],
            ["fit", "--target", str(out / "witness" / "target.mat"), "--kind", "smoa", "--r", r,
             "--plan", plan, "--init", "gaussian", "--seed", s, "--scale", "0.5",
             "--step-size", "0.01", "--max-steps", str(self.FIT_STEPS), "--grad-tol", "0"],
            ["diagnose", "--matrix", w0, "--activations", acts, "--seed", s],
        ]
        return [(a[0], a + ["--out", str(out), "--quiet"]) for a in steps]

    def prepare_checks(self) -> None:
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
        # stored digests hold only under the BLAS kernel family they were made with
        same_kernels = reference["openblas_coretype"] == os.environ.get("OPENBLAS_CORETYPE", "auto")
        stored = reference["chain"].get(str(self.seed)) if same_kernels else None
        self.expected = stored or chain_reference(self.seed, self.out)
        self.expected_source = "stored" if stored else "api"

    def run_pass(self, index: int):
        out = self.out / f"pass{index}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        calls = []
        for cmd, argv in self.argv(out):
            stdout, stderr = io.StringIO(), io.StringIO()
            with self.tracer.span(f"cli.{cmd}"):
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = smoa.cli.main(argv)
            calls.append((cmd, code, stdout.getvalue(), stderr.getvalue()))
        return out, calls

    def check(self, raw) -> list[tuple[str, bool, str]]:
        out, calls = raw
        results = []
        payloads = {}
        for cmd, code, stdout, stderr in calls:
            lines = stdout.splitlines()
            payload = None
            if code == 0 and len(lines) == 1:
                try:
                    payload = json.loads(lines[0])
                except json.JSONDecodeError:
                    payload = None
            if not isinstance(payload, dict):
                results.append((cmd, False, f"exit {code}, {len(lines)} stdout lines, {stderr.strip()[:200]}"))
                continue
            ok, detail = self._check_payload(cmd, payload, out, payloads)
            payloads[cmd] = payload
            results.append((cmd, ok, detail))
        shutil.rmtree(out, ignore_errors=True)
        return results

    def _check_payload(self, cmd, payload, out, earlier) -> tuple[bool, str]:
        want = self.expected
        if cmd == "plan":
            got = sha256_file(out / "plan.json")
            return got == want["plan"], f"plan digest {got[:12]} vs {self.expected_source} {want['plan'][:12]}"
        if cmd == "update":
            got = payload["hash"]
            return got == want["update"], f"update digest {got[:12]} vs {self.expected_source} {want['update'][:12]}"
        if cmd == "witness":
            got = sha256_file(out / "witness" / "target.mat")
            return (got == want["witness_target"],
                    f"target digest {got[:12]} vs {self.expected_source} {want['witness_target'][:12]}")
        if cmd == "rank":
            wanted = earlier.get("update", {}).get("achieved_rank")
            return payload["rank"] == wanted, f"rank {payload['rank']} vs update's {wanted}"
        if cmd == "ceiling":
            return payload["separated"] is True, f"total ceiling {payload['total_ceiling']}"
        if cmd == "gap":
            return payload["gap"] > 0, f"gap {payload['gap']}"
        if cmd == "fit":
            ok = payload["steps"] == self.FIT_STEPS and math.isfinite(payload["final_loss"])
            return ok, f"{payload['steps']} steps, relative loss {payload['relative_loss']}"
        if cmd == "diagnose":
            return spikes_found(json.loads((out / "report.json").read_text(encoding="utf-8")), self.SPIKES)
        return True, ""

    def summary(self, raws, seconds):
        return {"chain_s": (median(seconds), "s")}


# -------------------------------------------------------------- descent


class Descent(Workload):
    """Witnesses 0-2 of the descent acceptance suite, solved to tolerance.

    Witness j is built as in that suite: an 8x8 Gaussian w0 (seed
    1000 + j), a K=2 plan, a rho=2 witness (seed j), fit at r=4 from the
    seed ladder 0-9 until the relative loss drops below 1e-6. Witness 1
    needs a restart. The run seed relabels each w0's rows and columns:
    smoa sees new matrices, but the reordering recovers the same anchors,
    so the block problems and their step counts are the same for every
    seed and a change in time per solve is not drowned by a change in
    difficulty.
    """

    name = "descent"
    WITNESSES = (0, 1, 2)
    LADDER = tuple(range(10))
    CONFIG = FitConfig(step_size=0.05, max_steps=60000, grad_tol=1e-7, max_halvings=20)
    TOLERANCE = 1e-6

    def setup(self) -> None:
        self.w0s = []
        for j in self.WITNESSES:
            w0 = gaussian_matrix(8, 8, seed=1000 + j)
            rng = np.random.default_rng([self.seed, j])
            rows, cols = rng.permutation(w0.rows), rng.permutation(w0.cols)
            self.w0s.append(Matrix(w0.data[rows][:, cols]))

    def warm_up(self):
        plan = build_plan(self.w0s[0], 2)
        problem = FitProblem(make_witness(plan, 2, self.WITNESSES[0]).target, "smoa", 4, plan)
        fit(problem, AdapterInit("gaussian", seed=0, scale=0.5),
            FitConfig(step_size=0.05, max_steps=2000, grad_tol=1e-7, max_halvings=20))
        return []

    def run_pass(self, index: int):
        solves = []
        for j, w0 in zip(self.WITNESSES, self.w0s):
            started = perf_counter()
            plan = build_plan(w0, 2)
            witness = make_witness(plan, rho=2, seed=j)
            problem = FitProblem(witness.target, "smoa", 4, plan)
            best, fits, steps = math.inf, 0, 0
            for attempt in self.LADDER:
                trace = fit(problem, AdapterInit("gaussian", seed=attempt, scale=0.5), self.CONFIG)
                fits += 1
                steps += trace.step_count
                best = min(best, trace.relative_loss)
                if best < self.TOLERANCE:
                    break
            solves.append({"witness": j, "seconds": perf_counter() - started,
                           "relative_loss": best, "fits": fits, "steps": steps})
        return solves

    def check(self, raw):
        return [(f"witness{s['witness']}", s["relative_loss"] < self.TOLERANCE,
                 f"relative loss {s['relative_loss']:.3g} after {s['fits']} fits, {s['steps']} steps")
                for s in raw]

    def summary(self, raws, seconds):
        per_witness = {}
        for solves in raws:
            for s in solves:
                per_witness.setdefault(s["witness"], []).append(s["seconds"])
        solve = median([median(v) for v in per_witness.values()])
        return {
            "descent_s": (median(seconds), "s"),
            "solve_s": (solve, "s"),
            "steps_per_pass": (float(sum(s["steps"] for s in raws[0])), "count"),
            "fits_per_pass": (float(sum(s["fits"] for s in raws[0])), "count"),
        }


# ---------------------------------------------------------------- sweep


class Sweep(Workload):
    """Two ``smoa sweep`` grids per pass. Every r stays below every d so
    that each block adapter's rank must exceed its budget r."""

    name = "sweep"
    SPECS = (
        {"dims": [16, 32, 64], "ks": [2, 4, 8], "rs": [8], "trials": 3},
        {"dims": [32, 64], "ks": [2, 4, 8], "rs": [16, 24], "trials": 3},
    )

    def setup(self) -> None:
        self.specs = []
        for i, spec in enumerate(self.SPECS):
            path = self.out / f"spec{i}.json"
            path.write_text(json.dumps({**spec, "seed": 2 * self.seed + i}), encoding="utf-8")
            self.specs.append((path, spec))

    @property
    def trials_per_pass(self) -> int:
        return sum(len(s["dims"]) * len(s["ks"]) * len(s["rs"]) * s["trials"] for s in self.SPECS)

    def run_pass(self, index: int):
        calls = []
        for i, (path, _) in enumerate(self.specs):
            argv = ["sweep", "--spec", str(path), "--name", f"sweep{i}.csv",
                    "--out", str(self.out), "--quiet"]
            stdout, stderr = io.StringIO(), io.StringIO()
            with self.tracer.span("cli.sweep"):
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = smoa.cli.main(argv)
            calls.append((code, stdout.getvalue(), stderr.getvalue()))
        return calls

    def check(self, raw):
        results = []
        for i, ((code, stdout, stderr), (_, spec)) in enumerate(zip(raw, self.specs)):
            expected = [(d, k, r, t) for d in spec["dims"] for k in spec["ks"]
                        for r in spec["rs"] for t in range(spec["trials"])]
            rows = {}
            if code == 0 and len(stdout.splitlines()) == 1:
                lines = (self.out / f"sweep{i}.csv").read_text(encoding="utf-8").splitlines()
                for line in lines[1:]:
                    method, d, k, r, trial, _params, rank, ceiling, gap = line.split(",")
                    key = (int(d), int(k), int(r), int(trial))
                    rows[(method, key)] = (int(rank), int(ceiling), float(gap))
            for key in expected:
                results.append(self._check_trial(key, rows, code, stderr))
        return results

    @staticmethod
    def _check_trial(key, rows, code, stderr):
        name = "trial d={} k={} r={} #{}".format(*key)
        smoa_row, lora_row = rows.get(("smoa", key)), rows.get(("lora", key))
        if smoa_row is None or lora_row is None:
            return name, False, f"missing rows (sweep exit {code}: {stderr.strip()[:200]})"
        r = key[2]
        rank, ceiling, residual = smoa_row
        lora_rank, _, lora_gap_value = lora_row
        # the exact block fit reproduces the witness up to rounding, while
        # the best rank-r fit misses it by the witness's tail energy
        ok = (r < rank <= ceiling and lora_rank <= r
              and lora_gap_value > 0 and residual <= 1e-20 * lora_gap_value)
        return name, ok, f"smoa rank {rank} ceiling {ceiling} residual {residual:.3g}, lora gap {lora_gap_value:.3g}"

    def summary(self, raws, seconds):
        return {"sweep_trials_per_s": (self.trials_per_pass / median(seconds), "1/s")}


# ------------------------------------------------------------- spectral


class Spectral(Workload):
    name = "spectral"
    D, K, R, RHO = 512, 4, 16, 4
    SPIKES, STRENGTH = 4, 10.0
    SAMPLES = 1024

    def setup(self) -> None:
        self.w0 = spiked_matrix(self.D, self.D, self.SPIKES, self.STRENGTH, self.seed)
        self.acts = gaussian_matrix(self.D, self.SAMPLES, self.seed + 1)

    def run_pass(self, index: int):
        plan = build_plan(self.w0, self.K)
        ceiling = rank_ceiling(plan, self.R)
        witness = make_witness(plan, self.RHO, self.seed)
        gap = lora_gap(witness, self.R)
        exact = smoa_exact_fit(witness)
        # a fresh sample per pass: ActivationSample caches its eigensystem
        report = full_report(self.w0, ActivationSample(self.acts), seed=self.seed)
        report_path = self.out / "report.json"
        save_report(report, report_path, self.out / "nu_histogram.csv", self.out / "overlaps.csv")
        return plan, ceiling, witness, gap, exact, report, report_path

    def check(self, raw):
        plan, ceiling, witness, gap, exact, report, report_path = raw
        plan_path = self.out / "plan.json"
        save_plan(plan, plan_path)
        again = load_plan(plan_path)
        same = (again.k == plan.k and again.p_out == plan.p_out and again.p_in == plan.p_in
                and again.row_intervals == plan.row_intervals
                and again.col_intervals == plan.col_intervals
                and all(a.data.tobytes() == b.data.tobytes()
                        for a, b in zip(again.anchors, plan.anchors)))
        residual = float(np.sum((smoa_update(exact).data - witness.target.data) ** 2))
        target_energy = float(np.sum(witness.target.data ** 2))
        saved = json.loads(report_path.read_text(encoding="utf-8"))
        return [
            ("plan_roundtrip", same, "plan saved and loaded bit for bit" if same else "plan changed on reload"),
            ("ceiling", ceiling.separated, f"total ceiling {ceiling.total_ceiling} vs r={self.R}"),
            ("witness", gap > 0 and residual <= 1e-24 * target_energy,
             f"gap {gap:.4g}, exact-fit residual {residual:.3g} of {target_energy:.4g}"),
            ("report", *spikes_found(saved, self.SPIKES)),
        ]

    def summary(self, raws, seconds):
        return {"spectral_s": (median(seconds), "s")}


WORKLOADS = {w.name: w for w in (Chain, Descent, Sweep, Spectral)}
