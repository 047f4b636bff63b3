"""Command line behavior: payloads, artifacts, exit codes, determinism."""
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import smoa.capacity
import smoa.cli
from smoa import (AdapterInit, Matrix, NumericalError, build_plan, gaussian_matrix, init_lora,
                  init_smoa, load_adapter, load_matrix, load_plan, load_witness, lora_update,
                  make_witness, numerical_rank, rank_ceiling, save_matrix, smoa_update, tail_energy)
from smoa.cli import _COMMANDS, build_parser, main
from smoa.fileutil import sha256_file

from conftest import write_witness_bundle


def run(capsys, *argv):
    """Invoke the CLI in process; return (exit code, parsed stdout)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = None
    if captured.out.strip():
        lines = captured.out.strip().splitlines()
        assert len(lines) == 1, "stdout must carry exactly one JSON line"
        payload = json.loads(lines[0])
    return code, payload


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SMOA_OUT", raising=False)
    return tmp_path


@pytest.fixture
def seeded_matrix(workdir, capsys):
    code, payload = run(
        capsys, "gen", "--rows", "8", "--cols", "8",
        "--kind", "gaussian", "--seed", "5", "--quiet",
    )
    assert code == 0
    return payload["path"]


@pytest.fixture
def seeded_plan(workdir, seeded_matrix, capsys):
    code, payload = run(capsys, "plan", "--w0", seeded_matrix, "--k", "2", "--quiet")
    assert code == 0
    return payload["path"]


class TestGen:
    def test_gaussian_payload_and_file(self, workdir, capsys):
        code, payload = run(
            capsys, "gen", "--rows", "6", "--cols", "4",
            "--kind", "gaussian", "--seed", "1", "--quiet",
        )
        assert code == 0
        assert payload["rows"] == 6 and payload["cols"] == 4
        matrix = load_matrix(payload["path"])
        assert matrix.shape == (6, 4)
        assert payload["hash"] == sha256_file(payload["path"])

    def test_gen_is_byte_deterministic(self, workdir, capsys):
        args = ["gen", "--rows", "5", "--cols", "5", "--kind", "gaussian",
                "--seed", "9", "--quiet"]
        _, first = run(capsys, *args, "--name", "a.mat")
        _, second = run(capsys, *args, "--name", "b.mat")
        assert first["hash"] == second["hash"]

    def test_diagonal_needs_values(self, workdir, capsys):
        code, _ = run(
            capsys, "gen", "--rows", "4", "--cols", "4",
            "--kind", "diagonal", "--quiet",
        )
        assert code == 2

    def test_diagonal_values(self, workdir, capsys):
        code, payload = run(
            capsys, "gen", "--rows", "3", "--cols", "3",
            "--kind", "diagonal", "--values", "3,2,1", "--quiet",
        )
        assert code == 0
        matrix = load_matrix(payload["path"])
        assert np.array_equal(matrix.data, np.diag([3.0, 2.0, 1.0]))

    def test_spiked(self, workdir, capsys):
        code, payload = run(
            capsys, "gen", "--rows", "32", "--cols", "32", "--kind", "spiked",
            "--spikes", "2", "--strength", "8", "--seed", "3", "--quiet",
        )
        assert code == 0
        assert load_matrix(payload["path"]).shape == (32, 32)


class TestOutputDirectory:
    def test_out_flag_wins(self, workdir, capsys, monkeypatch):
        monkeypatch.setenv("SMOA_OUT", str(workdir / "env"))
        code, payload = run(
            capsys, "gen", "--rows", "2", "--cols", "2", "--kind", "gaussian",
            "--out", str(workdir / "flag"), "--quiet",
        )
        assert code == 0
        assert payload["path"].startswith(str(workdir / "flag"))
        assert (workdir / "flag" / "matrix.mat").exists()
        assert not (workdir / "env").exists()

    def test_env_fallback(self, workdir, capsys, monkeypatch):
        monkeypatch.setenv("SMOA_OUT", str(workdir / "env"))
        code, payload = run(
            capsys, "gen", "--rows", "2", "--cols", "2", "--kind", "gaussian", "--quiet",
        )
        assert code == 0
        assert (workdir / "env" / "matrix.mat").exists()

    def test_cwd_default(self, workdir, capsys):
        code, _ = run(
            capsys, "gen", "--rows", "2", "--cols", "2", "--kind", "gaussian", "--quiet",
        )
        assert code == 0
        assert (workdir / "matrix.mat").exists()


class TestPlanAndAdapter:
    def test_plan_payload(self, workdir, seeded_matrix, capsys):
        code, payload = run(capsys, "plan", "--w0", seeded_matrix, "--k", "2", "--quiet")
        assert code == 0
        assert payload["k"] == 2
        assert payload["block_rows"] == 4 and payload["block_cols"] == 4
        assert payload["source_hash"] == sha256_file(seeded_matrix)
        plan = load_plan(payload["path"])
        assert plan.k == 2

    def test_plan_divisibility_is_validation_error(self, workdir, seeded_matrix, capsys):
        code, _ = run(capsys, "plan", "--w0", seeded_matrix, "--k", "3", "--quiet")
        assert code == 2

    def test_adapter_smoa(self, workdir, seeded_plan, capsys):
        code, payload = run(
            capsys, "adapter", "--plan", seeded_plan, "--r", "4",
            "--init", "gaussian", "--seed", "2", "--quiet",
        )
        assert code == 0
        assert payload["kind"] == "smoa" and payload["rho"] == 2
        assert payload["params"] == 2 * (2 * 4 + 4 * 2)
        adapter = load_adapter(payload["path"])
        assert adapter.rho == 2

    def test_adapter_lora_half_params_at_k2(self, workdir, seeded_plan, capsys):
        _, smoa_payload = run(
            capsys, "adapter", "--plan", seeded_plan, "--r", "4", "--quiet",
        )
        code, lora_payload = run(
            capsys, "adapter", "--plan", seeded_plan, "--r", "4",
            "--kind", "lora", "--name", "lora.json", "--quiet",
        )
        assert code == 0
        assert lora_payload["params"] == 2 * smoa_payload["params"]

    @pytest.mark.parametrize("kind", ["smoa", "lora"])
    def test_adapter_stdout_restates_the_envelope(self, workdir, seeded_plan, capsys, kind):
        """The payload is the line that loading the written envelope back
        gives: the family, budget and blocks of the adapter and its plan pin."""
        code = main(["adapter", "--plan", seeded_plan, "--r", "2", "--kind", kind,
                     "--init", "gaussian", "--quiet"])
        line = capsys.readouterr().out
        assert code == 0
        with open(workdir / "adapter.json", encoding="utf-8") as handle:
            envelope = json.load(handle)
        adapter = load_adapter("adapter.json")
        block = kind == "smoa"
        expected = {"path": "adapter.json", "kind": kind, "r": adapter.r,
                    "k": adapter.plan.k if block else None,
                    "rho": adapter.rho if block else None,
                    "plan_hash": envelope["plan"] and envelope["plan"]["hash"],
                    "params": adapter.trainable_parameters}
        if block:
            assert expected["plan_hash"] == sha256_file(seeded_plan)
        assert line == json.dumps(expected, sort_keys=True) + "\n"

    def test_update_artifact(self, workdir, seeded_plan, capsys):
        _, adapter_payload = run(
            capsys, "adapter", "--plan", seeded_plan, "--r", "4",
            "--init", "gaussian", "--quiet",
        )
        code, payload = run(
            capsys, "update", "--adapter", adapter_payload["path"], "--quiet",
        )
        assert code == 0
        delta = load_matrix(payload["path"])
        assert delta.shape == (8, 8)
        assert payload["achieved_rank"] <= 8

    def test_stale_adapter_is_validation_error(self, workdir, seeded_matrix, seeded_plan, capsys):
        _, adapter_payload = run(
            capsys, "adapter", "--plan", seeded_plan, "--r", "2", "--quiet",
        )
        # rebuild the plan file from a different matrix: stored hash goes stale
        _, other = run(
            capsys, "gen", "--rows", "8", "--cols", "8", "--kind", "gaussian",
            "--seed", "77", "--name", "other.mat", "--quiet",
        )
        code, _ = run(capsys, "plan", "--w0", other["path"], "--k", "2", "--quiet")
        assert code == 0
        code, _ = run(capsys, "update", "--adapter", adapter_payload["path"], "--quiet")
        assert code == 2


class TestFileReads:
    # command, and the files it reads
    CHAIN = [
        (["gen", "--rows", "8", "--cols", "8", "--kind", "gaussian", "--seed", "5"], []),
        (["plan", "--w0", "matrix.mat", "--k", "2"], ["matrix.mat"]),
        (["adapter", "--plan", "plan.json", "--r", "2", "--init", "gaussian"], ["plan.json"]),
        (["update", "--adapter", "adapter.json"],
         ["adapter.json", "plan.json", "adapter.a.mat", "adapter.b.mat"]),
        (["witness", "--plan", "plan.json", "--rho", "1"], ["plan.json"]),
        (["gap", "--witness", "witness", "--r", "2"],
         ["witness/witness.json", "plan.json", "witness/target.mat"]),
        (["fit", "--target", "witness/target.mat", "--kind", "smoa", "--r", "2",
          "--plan", "plan.json", "--max-steps", "5"], ["witness/target.mat", "plan.json"]),
    ]

    def test_chain_reads_each_input_once(self, workdir, capsys, count_reads):
        """Each command opens each file it reads exactly once, hashing and
        decoding the same bytes, and never re-opens a file it wrote."""
        root = workdir.resolve()
        for argv, inputs in self.CHAIN:
            code, reads, written = count_reads(main, [*argv, "--quiet"])
            assert code == 0, capsys.readouterr().err
            reads = {str(path.relative_to(root)): n for path, n in reads.items()
                     if path.is_relative_to(root)}
            assert reads == dict.fromkeys(inputs, 1), argv[0]
            assert written and not written & {root / path for path in reads}, argv[0]

    def test_cli_uses_the_public_savers(self, workdir, seeded_plan, capsys, monkeypatch):
        """A command reads its plan with ``load_plan`` and writes its adapter or
        witness with ``save_adapter`` or ``save_witness``, each once."""
        calls = Counter()

        def counting(name):
            real = getattr(smoa.cli, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in ("load_plan", "save_adapter", "save_witness"):
            monkeypatch.setattr(smoa.cli, name, counting(name))
        plan = ["--plan", seeded_plan]
        for argv, expected in [
            (["adapter", *plan, "--r", "2"], {"load_plan": 1, "save_adapter": 1}),
            (["witness", *plan, "--rho", "1"], {"load_plan": 1, "save_witness": 1}),
            (["ceiling", *plan, "--r", "2"], {"load_plan": 1}),
            (["fit", "--target", "witness/target.mat", "--kind", "smoa", "--r", "2", *plan,
              "--max-steps", "5"], {"load_plan": 1, "save_adapter": 1}),
        ]:
            calls.clear()
            assert main([*argv, "--quiet"]) == 0, capsys.readouterr().err
            assert calls == expected, argv[0]


class TestRankCeilingGap:
    def test_rank_of_matrix(self, workdir, capsys):
        _, gen = run(
            capsys, "gen", "--rows", "6", "--cols", "6", "--kind", "diagonal",
            "--values", "5,4,3", "--quiet",
        )
        code, payload = run(capsys, "rank", "--matrix", gen["path"], "--quiet")
        assert code == 0
        assert payload["rank"] == 3
        report = json.loads((workdir / "rank.json").read_text())
        assert report["rank"] == 3

    def test_rank_csv_format(self, workdir, capsys):
        _, gen = run(
            capsys, "gen", "--rows", "4", "--cols", "4", "--kind", "gaussian", "--quiet",
        )
        code, payload = run(
            capsys, "rank", "--matrix", gen["path"], "--format", "csv", "--quiet",
        )
        assert code == 0
        assert payload["report_path"].endswith("rank.csv")
        lines = (workdir / "rank.csv").read_text().strip().splitlines()
        assert lines[0] == "rank,epsilon,rows,cols"
        assert lines[1].split(",")[0] == "4"

    def test_rank_epsilon_default_and_guard(self, workdir, seeded_matrix, capsys):
        from smoa import default_tolerance, singular_values

        matrix = load_matrix(seeded_matrix)
        code, payload = run(capsys, "rank", "--matrix", seeded_matrix, "--quiet")
        assert code == 0
        assert payload["epsilon"] == default_tolerance(matrix.shape, singular_values(matrix)[0])
        code, _ = run(capsys, "rank", "--matrix", seeded_matrix, "--epsilon", "-1", "--quiet")
        assert code == 2

    def test_rank_requires_exactly_one_source(self, workdir, seeded_matrix, capsys):
        code, _ = run(capsys, "rank", "--quiet")
        assert code == 2
        code, _ = run(
            capsys, "rank", "--matrix", seeded_matrix, "--adapter", "x.json", "--quiet",
        )
        assert code == 2

    @pytest.mark.parametrize("kind", ["smoa", "lora"])
    def test_rank_of_adapter_is_its_updates(self, workdir, seeded_plan, capsys, kind):
        """``rank --adapter`` reads the rank that ``update`` reports and that
        ``rank --matrix`` reads off the written update."""
        _, adapter = run(capsys, "adapter", "--plan", seeded_plan, "--r", "2", "--kind", kind,
                         "--init", "gaussian", "--quiet")
        _, written = run(capsys, "update", "--adapter", adapter["path"], "--quiet")
        code, by_adapter = run(capsys, "rank", "--adapter", adapter["path"], "--quiet")
        assert code == 0
        _, by_matrix = run(capsys, "rank", "--matrix", written["path"], "--quiet")
        assert by_adapter["source"] == adapter["path"]
        assert by_adapter["rank"] == written["achieved_rank"] == by_matrix["rank"]
        assert by_adapter["rank"] == {"smoa": 8, "lora": 2}[kind]

    def test_ceiling_payload(self, workdir, seeded_plan, capsys):
        code, payload = run(capsys, "ceiling", "--plan", seeded_plan, "--r", "4", "--quiet")
        assert code == 0
        assert payload["total_ceiling"] == 8
        assert payload["lora_ceiling"] == 4
        assert payload["separated"] is True
        assert len(payload["per_block"]) == 2
        assert payload["per_block"][0]["block"] == 1

    def test_witness_and_gap(self, workdir, seeded_plan, capsys):
        code, witness_payload = run(
            capsys, "witness", "--plan", seeded_plan, "--rho", "2",
            "--seed", "11", "--quiet",
        )
        assert code == 0
        witness = load_witness(witness_payload["dir"])
        assert witness.rho == 2 and witness.seed == 11
        code, gap_payload = run(
            capsys, "gap", "--witness", witness_payload["dir"], "--r", "4", "--quiet",
        )
        assert code == 0
        from smoa import lora_gap

        assert gap_payload["gap"] == pytest.approx(lora_gap(witness, 4), rel=1e-12)
        assert gap_payload["gap"] > 0.0

    def test_witness_in_the_plans_directory_keeps_the_plan(self, workdir, seeded_plan, capsys):
        """``--dir .`` next to the plan writes two files and leaves the plan,
        and so every adapter pinned to it, as they were."""
        _, adapter = run(capsys, "adapter", "--plan", seeded_plan, "--r", "2", "--quiet")
        pristine = Path(seeded_plan).read_bytes()
        before = set(os.listdir(workdir))
        code, payload = run(capsys, "witness", "--plan", seeded_plan, "--rho", "1", "--dir", ".",
                            "--quiet")
        assert code == 0
        assert set(os.listdir(workdir)) - before == {"witness.json", "target.mat"}
        assert Path(seeded_plan).read_bytes() == pristine
        with open(payload["manifest"], encoding="utf-8") as handle:
            assert json.load(handle)["plan"]["path"] == "plan.json"
        assert load_adapter(adapter["path"]).rho == 1
        assert run(capsys, "gap", "--witness", payload["dir"], "--r", "2", "--quiet")[0] == 0

    def test_gap_on_a_rebuilt_plan_is_stale(self, workdir, seeded_matrix, seeded_plan, capsys):
        _, witness = run(capsys, "witness", "--plan", seeded_plan, "--rho", "1", "--quiet")
        assert run(capsys, "plan", "--w0", seeded_matrix, "--k", "4", "--quiet")[0] == 0
        code = main(["gap", "--witness", witness["dir"], "--r", "2", "--quiet"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: stale pairing") and captured.err.count("\n") == 1

    def test_gap_without_its_plan_is_io_error(self, workdir, seeded_plan, capsys):
        _, witness = run(capsys, "witness", "--plan", seeded_plan, "--rho", "1", "--quiet")
        os.remove(seeded_plan)
        code = main(["gap", "--witness", witness["dir"], "--r", "2", "--quiet"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err.startswith("io error: ") and "Traceback" not in captured.err

    def test_witness_decomposes_target_once(self, workdir, seeded_plan, capsys,
                                            count_decompositions):
        code, calls = count_decompositions(
            main, ["witness", "--plan", seeded_plan, "--rho", "2", "--quiet"])
        assert code == 0
        assert calls == {"svdvals": 1}

    def test_witness_and_gap_draw_the_witness_once(self, workdir, seeded_plan, capsys,
                                                   monkeypatch):
        """``witness`` renders the target and its gaps, and ``gap`` checks the
        stored target and reads the gap, each from one kept factor draw."""
        draws = []
        real = smoa.capacity._rng
        monkeypatch.setattr(smoa.capacity, "_rng", lambda seed: draws.append(seed) or real(seed))
        _, witness = run(capsys, "witness", "--plan", seeded_plan, "--rho", "2", "--seed", "4",
                         "--quiet")
        assert draws == [4]
        assert run(capsys, "gap", "--witness", witness["dir"], "--r", "2", "--quiet")[0] == 0
        assert draws == [4, 4]

    def test_gap_decomposes_target_once(self, workdir, seeded_plan, capsys,
                                        count_decompositions):
        """Loading checks the target by its bytes, so the gap's values-only
        decomposition of the target's K blocks is the only one."""
        _, witness = run(capsys, "witness", "--plan", seeded_plan, "--rho", "2", "--quiet")
        code, calls = count_decompositions(
            main, ["gap", "--witness", witness["dir"], "--r", "2", "--quiet"])
        assert code == 0
        assert calls == {"svdvals": 1}
        assert count_decompositions.shapes == [("svdvals", (2, 4, 4))]

    @pytest.mark.parametrize("kind,shape", [("smoa", (2, 4, 4)), ("lora", (8, 8))])
    @pytest.mark.parametrize("command", ["update", "rank"])
    def test_update_rank_reads_its_blocks(self, workdir, seeded_plan, capsys,
                                          count_decompositions, kind, shape, command):
        """A block update's rank comes from one values-only decomposition of
        its K blocks, never of the scattered update; a global update's from
        the dense update."""
        _, adapter = run(capsys, "adapter", "--plan", seeded_plan, "--r", "2", "--kind", kind,
                         "--init", "gaussian", "--quiet")
        code, _ = count_decompositions(main, [command, "--adapter", adapter["path"], "--quiet"])
        assert code == 0
        assert count_decompositions.shapes == [("svdvals", shape)]

    def test_update_ranks_the_global_update_it_writes(self, workdir, seeded_plan, capsys,
                                                      monkeypatch):
        """``smoa update`` of a global adapter builds its dense update once:
        the rank is read off the update it writes."""
        built = []
        real = smoa.capacity.lora_update
        monkeypatch.setattr(smoa.capacity, "lora_update",
                            lambda adapter: built.append(adapter) or real(adapter))
        _, adapter = run(capsys, "adapter", "--plan", seeded_plan, "--r", "2", "--kind", "lora",
                         "--init", "gaussian", "--quiet")
        code, payload = run(capsys, "update", "--adapter", adapter["path"], "--quiet")
        assert code == 0 and built == []
        assert payload["achieved_rank"] == numerical_rank(load_matrix(payload["path"])) == 2

    @pytest.mark.parametrize("name,pin,version,plan,kept", [
        ("coefficients.mat", {}, 4, None, False),
        ("coefficients.mat", {"hash": "0" * 64}, 4, None, True),
        ("../coefficients.mat", {}, 4, None, True),
        ("other.mat", {}, 4, None, True),
        ("coefficients.mat", {}, 5, None, True),
        ("coefficients.mat", None, 4, None, True),
        ("plan.json", {}, 4, "plan.json", True),
        ("coefficients.mat", {}, 4, "coefficients.mat", True),
    ], ids=["pinned", "edited-since", "outside-the-bundle", "not-the-v4-name", "version-5",
            "not-pinned", "pins-the-plan", "plan-named-coefficients"])
    def test_witness_over_an_older_bundle(self, workdir, seeded_matrix, seeded_plan, capsys,
                                          name, pin, version, plan, kept):
        """Writing a bundle over a v4 one whose manifest pins ``coefficients.mat``
        in the bundle, as it still is, removes that file. Every other file
        stays: one pinned under another name, outside the bundle, edited since,
        by a version-5 manifest, or that is the plan the new bundle pins (the
        bundle then lies in the plan's directory, under ``plan``'s name)."""
        directory = "witness"
        if plan is not None:
            _, built = run(capsys, "plan", "--w0", seeded_matrix, "--k", "2", "--name", plan,
                           "--quiet")
            seeded_plan, directory = built["path"], "."
        _, first = run(capsys, "witness", "--plan", seeded_plan, "--rho", "1", "--dir", directory,
                       "--quiet")
        bundle = Path(first["dir"])
        pinned = bundle / name
        if plan is None:
            save_matrix(Matrix(np.eye(4)), pinned)
        (bundle / "notes.txt").write_text("not pinned")
        older = {"version": version}
        if pin is not None:
            older["coefficients"] = {"path": name, "hash": sha256_file(pinned), **pin}
        edit_json(first["manifest"], lambda doc: {**doc, **older})
        code, _ = run(capsys, "witness", "--plan", seeded_plan, "--rho", "2", "--dir", directory,
                      "--quiet")
        assert code == 0
        assert pinned.exists() == kept
        assert {"notes.txt", "target.mat", "witness.json"} <= set(os.listdir(bundle))
        assert load_witness(bundle).rho == 2


class TestFit:
    def test_lora_spectral_fit(self, workdir, seeded_matrix, capsys):
        code, payload = run(
            capsys, "fit", "--target", seeded_matrix, "--kind", "lora", "--r", "2",
            "--init", "spectral", "--max-steps", "50", "--quiet",
        )
        assert code == 0
        assert payload["final_loss"] == pytest.approx(payload["floor"], rel=1e-6)
        assert (workdir / "fit.trace.csv").exists()
        summary = json.loads((workdir / "fit.summary.json").read_text())
        assert summary["final_loss"] == payload["final_loss"]
        assert payload["stop_reason"] == summary["stop_reason"]
        assert payload["stop_reason"] in ("grad_tol", "max_steps", "stalled")
        adapter = load_adapter(workdir / "fit.adapter.json")
        assert adapter.r == 2

    def test_smoa_fit_on_witness(self, workdir, seeded_plan, capsys):
        _, witness_payload = run(
            capsys, "witness", "--plan", seeded_plan, "--rho", "1",
            "--seed", "7", "--quiet",
        )
        target = str(workdir / "witness" / "target.mat")
        code, payload = run(
            capsys, "fit", "--target", target, "--kind", "smoa", "--r", "2",
            "--plan", seeded_plan, "--seed", "7",
            "--step-size", "0.02", "--max-steps", "20000", "--quiet",
        )
        assert code == 0
        assert payload["relative_loss"] < 1e-6
        assert payload["floor"] is None

    def test_smoa_without_plan_is_validation_error(self, workdir, seeded_matrix, capsys):
        code, _ = run(
            capsys, "fit", "--target", seeded_matrix, "--kind", "smoa", "--r", "2", "--quiet",
        )
        assert code == 2

    @pytest.mark.parametrize("plan", ["absent.json", "matrix.mat"], ids=["missing", "a-matrix"])
    def test_lora_with_plan_is_refused_before_any_read(self, workdir, seeded_matrix, capsys,
                                                       count_reads, plan):
        """A global fit takes no plan: ``--plan`` with ``--kind lora`` exits 2
        before any file is read, so a missing plan file is no I/O error."""
        code, reads, written = count_reads(main, ["fit", "--target", seeded_matrix, "--kind",
                                                  "lora", "--r", "2", "--plan", plan, "--quiet"])
        captured = capsys.readouterr()
        assert (code, captured.out, written) == (2, "", set())
        assert not [path for path in reads if path.is_relative_to(workdir.resolve())]
        assert captured.err == "error: --plan applies to --kind smoa only\n"


class TestDiagnose:
    def test_artifacts_and_payload(self, workdir, capsys):
        _, gen = run(
            capsys, "gen", "--rows", "48", "--cols", "64", "--kind", "spiked",
            "--spikes", "2", "--strength", "9", "--seed", "13", "--quiet",
        )
        code, payload = run(
            capsys, "diagnose", "--matrix", gen["path"],
            "--noise-scale", "1.0", "--quiet",
        )
        assert code == 0
        assert payload["outlier_count"] == 2
        assert (workdir / "report.json").exists()
        hist = (workdir / "nu_histogram.csv").read_text().strip().splitlines()
        assert hist[0] == "bin_left,bin_right,count,mp_density"
        assert len(hist) == 51
        overlaps = (workdir / "overlaps.csv").read_text().strip().splitlines()
        assert overlaps == ["k,nu_k,score,bulk_mean,bulk_lo,bulk_hi"]

    def test_zero_bins_writes_nothing(self, workdir, capsys):
        _, gen = run(capsys, "gen", "--rows", "8", "--cols", "8", "--kind", "gaussian", "--quiet")
        code, _ = run(capsys, "diagnose", "--matrix", gen["path"], "--bins", "0", "--quiet")
        assert code == 2
        assert not (workdir / "report.json").exists()

    def test_with_activations(self, workdir, capsys):
        _, w = run(
            capsys, "gen", "--rows", "16", "--cols", "16", "--kind", "gaussian",
            "--seed", "1", "--name", "w.mat", "--quiet",
        )
        _, acts = run(
            capsys, "gen", "--rows", "16", "--cols", "128", "--kind", "gaussian",
            "--seed", "2", "--name", "acts.mat", "--quiet",
        )
        code, payload = run(
            capsys, "diagnose", "--matrix", w["path"],
            "--activations", acts["path"], "--noise-scale", "1.0", "--quiet",
        )
        assert code == 0
        overlaps = (workdir / "overlaps.csv").read_text().strip().splitlines()
        assert len(overlaps) == 17

    def test_far_out_spectrum(self, workdir, capsys):
        """A tiny noise scale puts every normalized value past 1e154, whose
        square overflows: the density there is 0.0, not an error."""
        _, gen = run(capsys, "gen", "--rows", "8", "--cols", "8", "--kind", "gaussian", "--quiet")
        code, payload = run(capsys, "diagnose", "--matrix", gen["path"],
                            "--noise-scale", "1e-160", "--quiet")
        assert (code, payload["outlier_count"]) == (0, 8)
        rows = (workdir / "nu_histogram.csv").read_text().strip().splitlines()[1:]
        assert float(rows[-1].split(",")[1]) > 1e154
        assert {row.split(",")[3] for row in rows} == {"0.0"}


class TestSweep:
    def test_grid_csv(self, workdir, capsys):
        spec = workdir / "spec.json"
        spec.write_text(json.dumps(
            {"dims": [8], "ks": [2], "rs": [2, 4], "trials": 2, "seed": 123}
        ))
        code, payload = run(capsys, "sweep", "--spec", str(spec), "--quiet")
        assert code == 0
        assert payload["cells"] == 2
        assert payload["rows"] == 2 * 2 * 2  # cells x trials x methods
        lines = (workdir / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "method,d,k,r,trial,params,achieved_rank,ceiling,gap"
        assert len(lines) == payload["rows"] + 1
        for line in lines[1:]:
            fields = line.split(",")
            method, d, k, r = fields[0], int(fields[1]), int(fields[2]), int(fields[3])
            params = int(fields[5])
            if method == "lora":
                assert params == r * 2 * d
            else:
                assert params * k == r * 2 * d

    def test_rank_and_ceiling_columns_are_the_dense_ones(self, workdir, capsys):
        """Each trial's ranks, recomputed from its seeds on the dense
        updates, and its ceiling match the CSV; the LoRA gap is the dense
        tail energy of the witness target to rel 1e-9, and the exact block
        fit's residual is exactly 0.0."""
        spec = workdir / "spec.json"
        spec.write_text(json.dumps({"dims": [8, 12], "ks": [2, 4], "rs": [4], "trials": 2,
                                    "seed": 5}))
        assert run(capsys, "sweep", "--spec", str(spec), "--quiet")[0] == 0
        rows = [line.split(",") for line in (workdir / "sweep.csv").read_text().splitlines()[1:]]
        cells = [(d, k, 4) for d in (8, 12) for k in (2, 4)]
        expected = []
        for cell, (d, k, r) in enumerate(cells):
            for trial in range(2):
                s_w0, s_witness, s_lora, s_smoa = smoa.cli._sweep_seeds(5, cell, trial)
                plan = build_plan(gaussian_matrix(d, d, s_w0), k)
                lora = init_lora(d, d, r, AdapterInit("gaussian", s_lora))
                smoa_adapter = init_smoa(plan, r, AdapterInit("gaussian", s_smoa))
                witness = make_witness(plan, r // k, s_witness)
                expected.append((["lora", d, k, r, trial], numerical_rank(lora_update(lora)), r,
                                 tail_energy(witness.target, r)))
                expected.append((["smoa", d, k, r, trial],
                                 numerical_rank(smoa_update(smoa_adapter)),
                                 rank_ceiling(plan, r).total_ceiling, None))
        assert len(rows) == len(expected)
        for row, (key, rank, ceiling, gap) in zip(rows, expected):
            assert [row[0], *map(int, row[1:5])] == key
            assert (int(row[6]), int(row[7])) == (rank, ceiling)
            if gap is None:
                assert float(row[8]) == 0.0
            else:
                assert float(row[8]) == pytest.approx(gap, rel=1e-9)

    def test_one_trial_decomposition_budget(self, workdir, capsys, count_decompositions):
        """One trial decomposes the weight (its plan), the anchor stack (the
        ceiling), the dense LoRA update, the witness blocks (the gap) and the
        block update, in that order; the exact fit and its residual none."""
        spec = workdir / "spec.json"
        spec.write_text(json.dumps({"dims": [8], "ks": [2], "rs": [4], "trials": 1, "seed": 3}))
        code, _ = count_decompositions(main, ["sweep", "--spec", str(spec), "--quiet"])
        assert code == 0
        assert count_decompositions.shapes == [
            ("svd", (8, 8)), ("svdvals", (2, 4, 4)), ("svdvals", (8, 8)), ("svdvals", (2, 4, 4)),
            ("svdvals", (2, 4, 4))]

    def test_each_trial_draws_its_witness_once(self, workdir, capsys, monkeypatch):
        """A trial's gap, exact fit and exact-fit residual all read one kept
        draw of its witness's factor stacks."""
        draws = Counter()
        real = smoa.capacity._rng
        monkeypatch.setattr(smoa.capacity, "_rng", lambda seed: draws.update([seed]) or real(seed))
        spec = workdir / "spec.json"
        spec.write_text(json.dumps({"dims": [8], "ks": [2], "rs": [2, 4], "trials": 2, "seed": 7}))
        assert run(capsys, "sweep", "--spec", str(spec), "--quiet")[0] == 0
        assert list(draws.values()) == [1, 1, 1, 1]  # cells x trials, one draw each

    def test_sweep_is_deterministic(self, workdir, capsys):
        spec = workdir / "spec.json"
        spec.write_text(json.dumps(
            {"dims": [8], "ks": [2], "rs": [2], "trials": 1, "seed": 9}
        ))
        run(capsys, "sweep", "--spec", str(spec), "--name", "a.csv", "--quiet")
        run(capsys, "sweep", "--spec", str(spec), "--name", "b.csv", "--quiet")
        assert (workdir / "a.csv").read_bytes() == (workdir / "b.csv").read_bytes()

    def test_bad_spec_is_validation_error(self, workdir, capsys):
        spec = workdir / "spec.json"
        spec.write_text(json.dumps({"dims": [8]}))
        code, _ = run(capsys, "sweep", "--spec", str(spec), "--quiet")
        assert code == 2

    def test_indivisible_grid_rejected_early(self, workdir, capsys):
        spec = workdir / "spec.json"
        spec.write_text(json.dumps(
            {"dims": [8], "ks": [3], "rs": [3], "trials": 1, "seed": 1}
        ))
        code, _ = run(capsys, "sweep", "--spec", str(spec), "--quiet")
        assert code == 2


def edit_json(path, edit):
    """Rewrite the JSON file at ``path`` as ``edit(document)``."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(edit(doc), handle)


HUGE = float("inf")  # what json reads for a literal such as 1e400


def without(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


def with_field(key, value):
    return lambda doc: {**doc, key: value}


def in_pin(key, edit):
    return lambda doc: {**doc, key: edit(doc[key])}


def repin(envelope, key):
    """Record in ``envelope`` the hash of the file its pin ``key`` names, as
    that file now is, so a load reads past the pin to the file's content."""
    base = Path(envelope).parent
    edit_json(envelope, in_pin(key, lambda entry: {
        **entry, "hash": sha256_file(base / entry["path"])}))


class TestMalformedInput:
    """Damaged artifacts and bad dimensions exit 2 with a one-line error."""

    @staticmethod
    def assert_rejected(capsys, *argv):
        code = main([*argv, "--quiet"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("edit", [
        without("k"),
        lambda doc: [doc],
        with_field("k", "two"),
        with_field("anchors", 3),
        with_field("row_intervals", [[1, 3], [4, 8]]),
        without("col_intervals"),
        with_field("k", "2"),
        with_field("k", 2.9),
        lambda doc: {**doc, "p_out": [x + 0.5 for x in doc["p_out"]]},
        lambda doc: {**doc, "anchors": [{"csv": 5}, *doc["anchors"][1:]]},
        lambda doc: {**doc, "anchors": [{"csv": ["1"]}, *doc["anchors"][1:]]},
        with_field("anchors", "ab"),
    ], ids=["missing-k", "json-list", "k-not-a-number", "anchors-not-a-list",
            "intervals-not-equal-split", "missing-col-intervals", "k-string", "k-float",
            "p-out-floats", "anchor-csv-int", "anchor-csv-list", "anchors-string"])
    def test_plan(self, workdir, seeded_plan, capsys, edit):
        edit_json(seeded_plan, edit)
        self.assert_rejected(capsys, "ceiling", "--plan", seeded_plan, "--r", "2")

    @pytest.mark.parametrize("payload", [b"\xff\xfe{", b'{"format": "SMOA-PLAN"'],
                             ids=["not-utf8", "truncated"])
    def test_plan_bytes(self, workdir, seeded_plan, capsys, payload):
        with open(seeded_plan, "wb") as handle:
            handle.write(payload)
        self.assert_rejected(capsys, "ceiling", "--plan", seeded_plan, "--r", "2")

    @pytest.mark.parametrize("edit", [
        without("rho"),
        lambda doc: [doc],
        with_field("rho", [2]),
        in_pin("plan", without("path")),
        in_pin("plan", with_field("hash", None)),
    ], ids=["missing-rho", "json-list", "rho-not-a-number", "missing-plan-path",
            "plan-hash-null"])
    def test_witness(self, workdir, seeded_plan, capsys, edit):
        _, payload = run(capsys, "witness", "--plan", seeded_plan, "--rho", "1", "--quiet")
        edit_json(payload["manifest"], edit)
        self.assert_rejected(capsys, "gap", "--witness", payload["dir"], "--r", "2")

    @pytest.mark.parametrize("field,value", [
        ("rho", 1), ("rho", 1.5), ("rho", True), ("rho", -1), ("rho", 5),
        ("seed", True), ("seed", 3.0), ("seed", -1),
    ], ids=["rho-below-coefficient-rank", "rho-float", "rho-bool", "rho-negative",
            "rho-above-block-side", "seed-bool", "seed-float", "seed-negative"])
    def test_witness_rho_and_seed(self, workdir, seeded_plan, capsys, field, value):
        """A rank-2 bundle on 4x4 blocks loads only with its own integer rho."""
        _, payload = run(capsys, "witness", "--plan", seeded_plan, "--rho", "2", "--quiet")
        edit_json(payload["manifest"], with_field(field, value))
        self.assert_rejected(capsys, "gap", "--witness", payload["dir"], "--r", "2")

    @pytest.mark.parametrize("command", [
        ["ceiling", "--plan", "{plan}", "--r", "2"],
        ["update", "--adapter", "{adapter}"],
        ["gap", "--witness", "{witness}", "--r", "2"],
    ], ids=["plan", "adapter", "witness-manifest"])
    def test_version_true(self, workdir, seeded_plan, capsys, command):
        """``true == 1`` in Python; a JSON true is not version 1."""
        _, adapter = run(capsys, "adapter", "--plan", seeded_plan, "--r", "2", "--quiet")
        _, witness = run(capsys, "witness", "--plan", seeded_plan, "--rho", "1", "--quiet")
        envelope = {"plan": seeded_plan, "adapter": adapter["path"],
                    "witness": witness["manifest"]}[command[1][2:]]
        edit_json(envelope, with_field("version", True))
        argv = [a.format(plan=seeded_plan, adapter=adapter["path"], witness=witness["dir"])
                for a in command]
        self.assert_rejected(capsys, *argv)

    @pytest.mark.parametrize("artifact", ["adapter", "lora", "witness"])
    def test_version_1_exits_two_on_one_line(self, workdir, seeded_plan, capsys, artifact):
        """Adapter files are version 4 and witness manifests version 5; a
        version 1 file is refused."""
        if artifact == "witness":
            _, payload = run(capsys, "witness", "--plan", seeded_plan, "--rho", "1", "--quiet")
            envelope, argv = payload["manifest"], ["gap", "--witness", payload["dir"], "--r", "2"]
        else:
            _, payload = run(capsys, "adapter", "--plan", seeded_plan, "--r", "2",
                             "--kind", "smoa" if artifact == "adapter" else "lora", "--quiet")
            envelope, argv = payload["path"], ["update", "--adapter", payload["path"]]
        edit_json(envelope, with_field("version", 1))
        code = main([*argv, "--out", "upd", "--quiet"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: unsupported ") and captured.err.count("\n") == 1
        assert "version 1" in captured.err and "Traceback" not in captured.err
        assert not (workdir / "upd").exists()

    def test_witness_version_2_exits_two_on_one_line(self, workdir, seeded_plan, capsys):
        """A version 2 manifest, which named a plan copy inside its bundle, is refused."""
        _, payload = run(capsys, "witness", "--plan", seeded_plan, "--rho", "1", "--quiet")
        edit_json(payload["manifest"], lambda doc: {**doc, "version": 2, "plan": "plan.json"})
        code = main(["gap", "--witness", payload["dir"], "--r", "2", "--quiet"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: unsupported ") and captured.err.count("\n") == 1
        assert "version 2" in captured.err

    @pytest.mark.parametrize("stack", ["adapter.a.mat", "adapter.b.mat"])
    def test_stack_rows_not_divisible_by_k(self, workdir, seeded_plan, capsys, stack):
        """A stack file whose row count the plan's K = 2 does not divide."""
        _, adapter = run(capsys, "adapter", "--plan", seeded_plan, "--r", "2", "--quiet")
        save_matrix(Matrix(np.ones((3, 4))), workdir / stack)
        repin(adapter["path"], stack.split(".")[1])
        code = main(["update", "--adapter", adapter["path"], "--quiet"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: {stack} holds 3 rows, not a stack of 2 equal blocks\n"

    def test_witness_target_replaced(self, workdir, seeded_plan, capsys):
        """A valid target.mat that is not the target its plan, rho and seed define is refused."""
        _, payload = run(capsys, "witness", "--plan", seeded_plan, "--rho", "1", "--quiet")
        target = Path(payload["dir"]) / "target.mat"
        save_matrix(Matrix(load_matrix(target).data * 2.0), target)
        repin(payload["manifest"], "target")
        code = main(["gap", "--witness", payload["dir"], "--r", "2", "--quiet"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.endswith("does not match its plan, rho and seed\n")

    @pytest.mark.parametrize("field,value", [("seed", 999), ("rho", 1)], ids=["seed", "rho"])
    def test_witness_edited_seed_or_rho(self, workdir, seeded_plan, capsys, field, value):
        """A rho = 2 bundle whose manifest names another seed or rho draws another target."""
        _, payload = run(capsys, "witness", "--plan", seeded_plan, "--rho", "2", "--quiet")
        edit_json(payload["manifest"], with_field(field, value))
        code = main(["gap", "--witness", payload["dir"], "--r", "2", "--quiet"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.err.endswith("does not match its plan, rho and seed\n")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("edit", [
        without("plan"),
        lambda doc: [doc],
        with_field("b", 4),
        with_field("plan", None),
        with_field("plan", "plan.json"),
        with_field("version", 3),
        in_pin("plan", with_field("hash", None)),
        with_field("a", "adapter.a.mat"),
    ], ids=["missing-plan", "json-list", "factor-pin-a-number", "block-plan-null",
            "plan-string", "version-3", "plan-hash-null", "factors-string"])
    def test_adapter(self, workdir, seeded_plan, capsys, edit):
        _, payload = run(capsys, "adapter", "--plan", seeded_plan, "--r", "2", "--quiet")
        edit_json(payload["path"], edit)
        self.assert_rejected(capsys, "update", "--adapter", payload["path"])

    @pytest.mark.parametrize("edit", [
        with_field("k", HUGE),
        lambda doc: {**doc, "p_out": [10**20, *doc["p_out"][1:]]},
    ], ids=["k-overflows", "p-out-entry-overflows"])
    def test_plan_overflow(self, workdir, seeded_plan, capsys, edit):
        edit_json(seeded_plan, edit)
        self.assert_rejected(capsys, "ceiling", "--plan", seeded_plan, "--r", "2")

    def test_sweep_spec_dims_overflow(self, workdir, capsys):
        spec = {"dims": [HUGE], "ks": [2], "rs": [2], "trials": 1, "seed": 1}
        (workdir / "spec.json").write_text(json.dumps(spec))
        self.assert_rejected(capsys, "sweep", "--spec", "spec.json")

    def test_sweep_spec_not_utf8(self, workdir, capsys):
        (workdir / "spec.json").write_bytes(b"\xff\xfe{")
        self.assert_rejected(capsys, "sweep", "--spec", "spec.json")

    @pytest.mark.parametrize("spec", [
        [{"dims": [8], "ks": [2], "rs": [2], "trials": 1, "seed": 1}],
        {"dims": [8], "ks": [2], "rs": [2], "seed": 1},
    ], ids=["json-list", "missing-trials"])
    def test_sweep_spec_shape(self, workdir, capsys, spec):
        (workdir / "spec.json").write_text(json.dumps(spec))
        self.assert_rejected(capsys, "sweep", "--spec", "spec.json")

    def test_negative_seed_diagnose_without_activations(self, workdir, seeded_matrix, capsys):
        self.assert_rejected(capsys, "diagnose", "--matrix", seeded_matrix, "--seed", "-1",
                             "--out", "diag")
        assert not (workdir / "diag" / "report.json").exists()

    @pytest.mark.parametrize("field,value", [
        ("ks", [0]), ("dims", [0]), ("rs", [-2]), ("seed", -1),
        ("dims", "64"), ("dims", [64.7]), ("trials", True), ("seed", 1.9), ("dims", {"16": 1}),
        ("rs", [3]), ("trials", 0),
    ], ids=["ks-zero", "dims-zero", "rs-negative", "seed-negative",
            "dims-string", "dims-float", "trials-bool", "seed-float", "dims-object",
            "rs-not-a-multiple-of-k", "trials-zero"])
    def test_sweep_spec_values(self, workdir, capsys, field, value):
        spec = {"dims": [8], "ks": [2], "rs": [2], "trials": 1, "seed": 1, field: value}
        (workdir / "spec.json").write_text(json.dumps(spec))
        self.assert_rejected(capsys, "sweep", "--spec", "spec.json")

    def test_sweep_cell_rho_above_block_side_runs_no_cell(self, workdir, capsys, monkeypatch):
        """The d=4 cell's rho = 8 / 2 exceeds its 2x2 blocks: refused before the
        d=64 cell runs."""
        drawn = []
        monkeypatch.setattr("smoa.cli.gaussian_matrix", lambda *args: drawn.append(args))
        spec = {"dims": [64, 4], "ks": [2], "rs": [8], "trials": 3, "seed": 1}
        (workdir / "spec.json").write_text(json.dumps(spec))
        code = main(["sweep", "--spec", "spec.json"])
        captured = capsys.readouterr()
        assert (code, captured.out, drawn) == (2, "", [])
        assert captured.err == "error: rho=4 out of range 0..2\n"
        assert not (workdir / "sweep.csv").exists()

    def test_adapter_rho_above_block_side(self, workdir, capsys):
        """A hand-saved rho = 3 adapter over 2x2 blocks is refused, as init_smoa
        refuses to make one."""
        _, w0 = run(capsys, "gen", "--rows", "4", "--cols", "4", "--kind", "gaussian", "--quiet")
        _, plan = run(capsys, "plan", "--w0", w0["path"], "--k", "2", "--quiet")
        _, payload = run(capsys, "adapter", "--plan", plan["path"], "--r", "4", "--quiet")
        # two blocks of A_k (rho x 2) and of B_k (2 x rho), each stacked by rows
        save_matrix(Matrix(np.ones((6, 2))), workdir / "adapter.a.mat")
        save_matrix(Matrix(np.ones((4, 3))), workdir / "adapter.b.mat")
        repin(payload["path"], "a")
        repin(payload["path"], "b")
        edit_json(payload["path"], lambda doc: {**doc, "r": 6, "rho": 3})
        self.assert_rejected(capsys, "update", "--adapter", payload["path"], "--out", "upd")
        assert not (workdir / "upd").exists()

    def test_ceiling_rho_above_block_side(self, workdir, capsys):
        """``ceiling --r 6`` over 2x2 blocks asks for rho = 3 and is refused with
        the bound ``adapter --r 6`` meets; no report is written."""
        _, w0 = run(capsys, "gen", "--rows", "4", "--cols", "4", "--kind", "gaussian", "--quiet")
        _, plan = run(capsys, "plan", "--w0", w0["path"], "--k", "2", "--quiet")
        for command in ("ceiling", "adapter"):
            code = main([command, "--plan", plan["path"], "--r", "6"])
            captured = capsys.readouterr()
            assert (code, captured.out) == (2, "")
            assert captured.err == "error: rho=3 out of range 0..2\n"
        assert not (workdir / "ceiling.json").exists()

    @pytest.mark.parametrize("command", [
        ["gen", "--rows", "{big}", "--cols", "{big}", "--kind", "gaussian"],
        ["sweep", "--spec", "spec.json"],
        ["adapter", "--plan", "{plan}", "--kind", "lora", "--r", "{big}"],
        ["fit", "--target", "{matrix}", "--kind", "lora", "--r", "{big}"],
        ["diagnose", "--matrix", "{matrix}", "--bins", "{big}"],
    ], ids=["gen", "sweep-dims", "adapter-lora-r", "fit-lora-r", "diagnose-bins"])
    def test_unaddressable_size(self, workdir, seeded_matrix, seeded_plan, capsys, command):
        """Sizes whose float64 array numpy cannot address are refused before
        any draw or write."""
        big = 2**62
        spec = {"dims": [big], "ks": [2], "rs": [2], "trials": 1, "seed": 1}
        (workdir / "spec.json").write_text(json.dumps(spec))
        argv = [a.format(big=big, plan=seeded_plan, matrix=seeded_matrix) for a in command]
        self.assert_rejected(capsys, *argv, "--out", "sized")
        assert not (workdir / "sized").exists() or not any((workdir / "sized").iterdir())

    @pytest.mark.parametrize("command", [
        ["gen", "--rows", "4", "--cols", "4", "--kind", "gaussian"],
        ["gen", "--rows", "4", "--cols", "4", "--kind", "spiked", "--spikes", "1"],
        ["gen", "--rows", "4", "--cols", "4", "--kind", "low-rank-plus-noise"],
        ["adapter", "--plan", "{plan}", "--r", "2"],
        ["witness", "--plan", "{plan}", "--rho", "1"],
        ["fit", "--target", "{matrix}", "--kind", "lora", "--r", "2"],
        ["diagnose", "--matrix", "{matrix}", "--activations", "{matrix}"],
    ], ids=["gen-gaussian", "gen-spiked", "gen-low-rank", "adapter", "witness", "fit",
            "diagnose"])
    def test_negative_seed(self, workdir, seeded_matrix, seeded_plan, capsys, command):
        argv = [a.format(plan=seeded_plan, matrix=seeded_matrix) for a in command]
        self.assert_rejected(capsys, *argv, "--seed", "-1")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command", [
        ["diagnose", "--matrix", "{matrix}", "--noise-scale"],
        ["diagnose", "--matrix", "{matrix}", "--epsilon"],
        ["rank", "--matrix", "{matrix}", "--epsilon"],
        ["update", "--adapter", "{adapter}", "--epsilon"],
        ["ceiling", "--plan", "{plan}", "--r", "2", "--epsilon"],
        ["gen", "--rows", "4", "--cols", "4", "--kind", "gaussian", "--scale"],
        ["gen", "--rows", "4", "--cols", "4", "--kind", "spiked", "--spikes", "1",
         "--strength"],
        ["gen", "--rows", "4", "--cols", "4", "--kind", "low-rank-plus-noise", "--noise"],
        ["adapter", "--plan", "{plan}", "--r", "2", "--scale"],
        ["fit", "--target", "{matrix}", "--kind", "lora", "--r", "2", "--scale"],
        ["fit", "--target", "{matrix}", "--kind", "lora", "--r", "2", "--step-size"],
        ["fit", "--target", "{matrix}", "--kind", "lora", "--r", "2", "--grad-tol"],
        ["gen", "--rows", "4", "--cols", "4", "--kind", "diagonal", "--values"],
    ], ids=["diagnose-noise-scale", "diagnose-epsilon", "rank-epsilon", "update-epsilon",
            "ceiling-epsilon", "gen-scale", "gen-strength", "gen-noise", "adapter-scale",
            "fit-scale", "fit-step-size", "fit-grad-tol", "gen-values"])
    def test_non_finite_flag(self, workdir, seeded_matrix, seeded_plan, capsys, command, value):
        _, adapter = run(capsys, "adapter", "--plan", seeded_plan, "--r", "2", "--quiet")
        argv = [a.format(plan=seeded_plan, matrix=seeded_matrix, adapter=adapter["path"])
                for a in command]
        self.assert_rejected(capsys, *argv, value)

    def test_fit_step_size_past_float_range(self, workdir, seeded_matrix, capsys):
        """step_size * 2**max_halvings caps the grown step; 1e306 * 2**10
        is no float, so the fit is refused before it starts."""
        self.assert_rejected(capsys, "fit", "--target", seeded_matrix, "--kind", "lora",
                             "--r", "2", "--step-size", "1e306")
        assert not (workdir / "fit.trace.csv").exists()

    @pytest.mark.parametrize("values", ["nan,1", "1e400", "1,-inf"])
    def test_non_finite_values_list(self, workdir, capsys, values):
        self.assert_rejected(
            capsys, "gen", "--rows", "4", "--cols", "4", "--kind", "diagonal", "--values", values,
        )
        assert not (workdir / "matrix.mat").exists()

    def test_spike_strength_past_float_range(self, workdir, capsys):
        """strength * sqrt(max(rows, cols)) is no float: a bad flag value,
        like ``--values 1e400``, refused before anything is drawn."""
        code = main(["gen", "--rows", "16", "--cols", "16", "--kind", "spiked", "--spikes", "1",
                     "--strength", "1e308", "--quiet"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: strength 1e+308 overflows")
        assert captured.err.count("\n") == 1
        assert not (workdir / "matrix.mat").exists()

    @pytest.mark.parametrize("values", ["1,x", "one"])
    def test_non_numeric_values_list(self, workdir, capsys, values):
        code = main(["gen", "--rows", "4", "--cols", "4", "--kind", "diagonal",
                     "--values", values, "--quiet"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: bad --values list {values!r}\n"
        assert not (workdir / "matrix.mat").exists()

    def test_rejected_update_writes_nothing(self, workdir, seeded_plan, capsys):
        _, adapter = run(capsys, "adapter", "--plan", seeded_plan, "--r", "2", "--quiet")
        self.assert_rejected(capsys, "update", "--adapter", adapter["path"], "--epsilon", "nan",
                             "--out", "updates")
        assert not (workdir / "updates" / "update.mat").exists()

    @pytest.mark.parametrize("command", [
        ["rank", "--matrix", "{matrix}"],
        ["plan", "--w0", "{matrix}", "--k", "2"],
        ["diagnose", "--matrix", "{matrix}"],
    ], ids=["rank", "plan", "diagnose"])
    def test_non_finite_matrix_file(self, workdir, seeded_matrix, capsys, command):
        with open(seeded_matrix, "r+b") as handle:
            handle.seek(-8, os.SEEK_END)
            handle.write(np.array([np.nan], dtype="<f8").tobytes())
        self.assert_rejected(capsys, *[a.format(matrix=seeded_matrix) for a in command])

    @pytest.mark.parametrize("token", ["nan", "1e999"])
    def test_non_finite_anchor_csv(self, workdir, seeded_plan, capsys, token):
        def damage(doc):
            header, first, *rest = doc["anchors"][0]["csv"].splitlines()
            first = ",".join([token, *first.split(",")[1:]])
            doc["anchors"][0]["csv"] = "\n".join([header, first, *rest])
            return doc

        edit_json(seeded_plan, damage)
        self.assert_rejected(capsys, "ceiling", "--plan", seeded_plan, "--r", "2")

    @pytest.mark.parametrize("rows,cols", [(-3, 4), (4, -3), (0, 4), (4, 0)])
    @pytest.mark.parametrize("kind", [
        ["gaussian"],
        ["diagonal", "--values", "1"],
        ["spiked", "--spikes", "1"],
        ["low-rank-plus-noise"],
    ], ids=lambda kind: kind[0])
    def test_gen_dimensions(self, workdir, capsys, rows, cols, kind):
        self.assert_rejected(
            capsys, "gen", "--rows", str(rows), "--cols", str(cols), "--kind", *kind,
        )


class TestScipyImport:
    """scipy serves only as the fallback driver of a full SVD that numpy's
    ``gesdd`` cannot converge on, so no command of the chain loads it."""

    SCRIPT = """
import json, sys
from smoa.cli import main

steps = [
    ["gen", "--rows", "8", "--cols", "8", "--kind", "gaussian", "--seed", "3", "--name", "g.mat"],
    ["adapter", "--plan", sys.argv[1], "--r", "2", "--init", "gaussian"],
    ["update", "--adapter", "adapter.json"],
    ["rank", "--matrix", "update.mat"],
    ["ceiling", "--plan", sys.argv[1], "--r", "2"],
    ["witness", "--plan", sys.argv[1], "--rho", "1"],
    ["gap", "--witness", "witness", "--r", "2"],
    ["plan", "--w0", "g.mat", "--k", "2", "--name", "p.json"],
]
codes = [main([*step, "--quiet"]) for step in steps]
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "loaded": loaded}))
"""

    def test_no_command_loads_scipy(self, workdir, seeded_plan):
        env = {**os.environ, "PYTHONPATH": str(Path(smoa.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, seeded_plan], capture_output=True, text=True,
            check=True, env=env, cwd=workdir,
        ).stdout
        result = json.loads(out.splitlines()[-1])
        assert result["codes"] == [0] * 8
        assert result["loaded"] == []


class TestExitCodes:
    def test_witness_numerical_failure_is_four(self, workdir, seeded_plan, capsys, monkeypatch):
        def fail(_):
            raise NumericalError("no convergence")

        monkeypatch.setattr(smoa.capacity, "singular_values", fail)
        code = main(["witness", "--plan", seeded_plan, "--rho", "1", "--quiet"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert not (workdir / "witness").exists() or not any((workdir / "witness").iterdir())

    def test_fit_unhashable_plan_writes_nothing(self, workdir, seeded_matrix, seeded_plan,
                                                capsys, monkeypatch):
        """The one read of the plan, whose bytes are both decoded and pinned, fails."""
        read_bytes = Path.read_bytes

        def fail(path):
            if str(path) == seeded_plan:
                raise OSError("plan unreadable")
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", fail)
        code = main(["fit", "--target", seeded_matrix, "--kind", "smoa", "--r", "2",
                     "--plan", seeded_plan, "--max-steps", "5", "--out", "fits", "--quiet"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert not (workdir / "fits").exists() or not any((workdir / "fits").iterdir())

    def test_memory_error_is_three(self, workdir, capsys, monkeypatch):
        def fail(*_):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr("smoa.cli.gaussian_matrix", fail)
        code = main(["gen", "--rows", "4", "--cols", "4", "--kind", "gaussian", "--quiet"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "error: Unable to allocate 7.28 TiB for an array\n"
        assert not (workdir / "matrix.mat").exists()

    def test_usage_error_is_one(self, workdir, capsys):
        assert main(["gen", "--rows", "4"]) == 1  # missing required args
        capsys.readouterr()
        assert main(["no-such-command"]) == 1
        capsys.readouterr()

    def test_missing_file_is_three(self, workdir, capsys):
        code, _ = run(capsys, "plan", "--w0", "absent.mat", "--k", "2", "--quiet")
        assert code == 3

    def test_validation_is_two(self, workdir, seeded_plan, capsys):
        code, _ = run(capsys, "ceiling", "--plan", seeded_plan, "--r", "3", "--quiet")
        assert code == 2

    def test_format_only_on_report_commands(self, workdir, capsys):
        code = main(["gen", "--rows", "4", "--cols", "4", "--kind", "gaussian",
                     "--format", "csv", "--quiet"])
        captured = capsys.readouterr()
        assert code == 1
        assert "unrecognized arguments: --format csv" in captured.err
        assert not (workdir / "matrix.mat").exists()

    def test_quiet_silences_stderr(self, workdir, capsys):
        main(["gen", "--rows", "2", "--cols", "2", "--kind", "gaussian", "--quiet"])
        captured = capsys.readouterr()
        assert captured.err == ""

    def test_notes_go_to_stderr_not_stdout(self, workdir, capsys):
        main(["gen", "--rows", "2", "--cols", "2", "--kind", "gaussian",
              "--name", "n.mat"])
        captured = capsys.readouterr()
        assert "wrote" in captured.err
        json.loads(captured.out)  # stdout still a single JSON document


class TestNonFiniteOutput:
    """A NaN or infinity never reaches a file or stdout: the command exits 4
    with a one-line error naming the floating-point operation that overflowed,
    or what it was writing, prints nothing else on stderr (no numpy warning),
    and writes nothing. Each command runs in a subprocess, as a user runs it."""

    @pytest.fixture
    def big(self, workdir, capsys):
        """A 1e200-scale weight, its plan and a witness bundle over it whose
        manifest is written by hand (``save_witness`` refuses its infinite
        gaps), plus an ordinary weight ``w.mat``, and a 1e10-scale weight with its
        plan ``plan10.json`` and a 1e150-scale target, whose fit has a finite
        loss but an overflowing gradient norm."""
        for name, scale, seed in (("big.mat", "1e200", "0"), ("w.mat", "1", "0"),
                                  ("w10.mat", "1e10", "0"), ("t150.mat", "1e150", "3")):
            assert main(["gen", "--rows", "16", "--cols", "16", "--kind", "gaussian",
                         "--scale", scale, "--seed", seed, "--name", name, "--quiet"]) == 0
        assert main(["plan", "--w0", "big.mat", "--k", "2", "--quiet"]) == 0
        assert main(["plan", "--w0", "w10.mat", "--k", "2", "--name", "plan10.json",
                     "--quiet"]) == 0
        capsys.readouterr()
        write_witness_bundle(workdir / "witness", workdir / "plan.json", 2, 0)
        return workdir

    # squared singular values above about 1.3e154 overflow in the tail curve
    # and the gaps, and a subnormal noise scale overflows the normalization
    @pytest.mark.parametrize("argv,names", [
        (["diagnose", "--matrix", "big.mat"], "overflow encountered in square"),
        (["witness", "--plan", "plan.json", "--rho", "2", "--dir", "w2"],
         "overflow encountered in square"),
        (["gap", "--witness", "witness", "--r", "2"], "overflow encountered in square"),
        (["gap", "--witness", "witness", "--r", "2", "--format", "csv"],
         "overflow encountered in square"),
        (["diagnose", "--matrix", "w.mat", "--noise-scale", "1e-320"],
         "overflow encountered in divide"),
        (["fit", "--target", "witness/target.mat", "--kind", "smoa", "--r", "4",
          "--plan", "plan.json"], "loss is non-finite at step 0"),
        (["fit", "--target", "t150.mat", "--kind", "smoa", "--r", "4", "--plan", "plan10.json",
          "--init", "gaussian", "--max-steps", "0"], "gradient norm is non-finite at step 0"),
    ], ids=["diagnose", "witness", "gap", "gap-csv", "diagnose-subnormal-noise", "fit",
            "fit-gradient-norm"])
    def test_refused_and_nothing_written(self, big, argv, names):
        before = sorted(big.rglob("*"))
        env = {**os.environ, "PYTHONPATH": str(Path(smoa.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-m", "smoa.cli", *argv, "--quiet"],
                                capture_output=True, text=True, env=env, cwd=big)
        assert (result.returncode, result.stdout) == (4, "")
        assert result.stderr.startswith("numerical error: ") and result.stderr.count("\n") == 1
        assert names in result.stderr
        assert sorted(big.rglob("*")) == before

    def test_stdout_line_refused(self, workdir, seeded_plan, capsys, monkeypatch):
        """The result line goes through the same renderer as the files."""
        _, witness = run(capsys, "witness", "--plan", seeded_plan, "--rho", "1", "--quiet")
        monkeypatch.setattr(smoa.cli, "lora_gap", lambda *_: float("inf"))
        monkeypatch.setattr(smoa.cli, "_write_report_artifact", lambda *_: "unwritten")
        code = main(["gap", "--witness", witness["dir"], "--r", "2", "--quiet"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (4, "")
        assert captured.err.startswith(
            "numerical error: the gap result line would hold a non-finite")
        assert captured.err.count("\n") == 1


class TestDecompositionBudgets:
    """Every command's LAPACK calls, in order, as ``(kind, input shape)``, at
    d = 16 and K = 2: a values-only call on a (2, 8, 8) stack reads the K
    blocks of a plan, a witness or a block update, and a (16, 16) one a dense
    matrix."""

    @pytest.fixture
    def inputs(self, workdir, capsys):
        steps = [
            ["gen", "--rows", "16", "--cols", "16", "--kind", "gaussian", "--seed", "7",
             "--name", "w0.mat"],
            ["gen", "--rows", "16", "--cols", "32", "--kind", "gaussian", "--seed", "8",
             "--name", "acts.mat"],
            ["plan", "--w0", "w0.mat", "--k", "2"],
            ["adapter", "--plan", "plan.json", "--r", "4", "--kind", "smoa", "--init", "gaussian",
             "--name", "smoa.json"],
            ["adapter", "--plan", "plan.json", "--r", "4", "--kind", "lora", "--init", "gaussian",
             "--name", "lora.json"],
            ["witness", "--plan", "plan.json", "--rho", "2"],
        ]
        for step in steps:
            assert main([*step, "--quiet"]) == 0
        (workdir / "spec.json").write_text(
            json.dumps({"dims": [16], "ks": [2], "rs": [4], "trials": 1, "seed": 3}))
        capsys.readouterr()
        return workdir

    BLOCKS, DENSE = ("svdvals", (2, 8, 8)), ("svdvals", (16, 16))
    SVD = ("svd", (16, 16))
    FIT = ["--max-steps", "5"]

    @pytest.mark.parametrize("argv,calls", [
        (["gen", "--rows", "16", "--cols", "16", "--kind", "gaussian", "--name", "g.mat"], []),
        (["plan", "--w0", "w0.mat", "--k", "2", "--name", "p.json"], [SVD]),
        (["adapter", "--plan", "plan.json", "--r", "4", "--kind", "smoa"], []),
        (["adapter", "--plan", "plan.json", "--r", "4", "--kind", "lora"], []),
        (["update", "--adapter", "smoa.json"], [BLOCKS]),
        (["update", "--adapter", "lora.json"], [DENSE]),
        (["rank", "--matrix", "w0.mat"], [DENSE]),
        (["rank", "--adapter", "smoa.json"], [BLOCKS]),
        (["rank", "--adapter", "lora.json"], [DENSE]),
        (["ceiling", "--plan", "plan.json", "--r", "4"], [BLOCKS]),
        (["witness", "--plan", "plan.json", "--rho", "2", "--dir", "w2"], [BLOCKS]),
        (["gap", "--witness", "witness", "--r", "4"], [BLOCKS]),
        (["fit", "--target", "witness/target.mat", "--kind", "smoa", "--r", "4",
          "--plan", "plan.json", *FIT], []),
        (["fit", "--target", "w0.mat", "--kind", "lora", "--r", "4", *FIT], [DENSE]),
        (["fit", "--target", "w0.mat", "--kind", "lora", "--r", "4", "--init", "spectral", *FIT],
         [SVD, DENSE]),
        (["diagnose", "--matrix", "w0.mat"], [SVD]),
        (["diagnose", "--matrix", "w0.mat", "--activations", "acts.mat"],
         [SVD, ("eigh", (16, 16))]),
        (["sweep", "--spec", "spec.json"], [SVD, BLOCKS, DENSE, BLOCKS, BLOCKS]),
    ], ids=["gen", "plan", "adapter-smoa", "adapter-lora", "update-smoa", "update-lora",
            "rank-matrix", "rank-adapter-smoa", "rank-adapter-lora", "ceiling", "witness", "gap",
            "fit-smoa", "fit-lora", "fit-lora-spectral", "diagnose", "diagnose-activations",
            "sweep"])
    def test_command_budget(self, inputs, capsys, count_decompositions, argv, calls):
        code, _ = count_decompositions(main, [*argv, "--quiet"])
        assert code == 0
        assert count_decompositions.shapes == calls


def _parse_only(parser, argv, capsys):
    """(exit code, stdout, stderr) of ``parser`` on ``argv``; 0 if it parses."""
    try:
        parser.parse_args(argv)
        code = 0
    except SystemExit as exc:
        code = int(exc.code or 0)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParserBuiltPerCommand:
    """``main`` gives only the command it runs its arguments; help, usage
    errors and exit codes are byte-equal to those of the full parser."""

    @pytest.mark.parametrize("argv", [
        ["--help"],
        *([command, "--help"] for command in _COMMANDS),
        *([command, "--no-such-flag"] for command in _COMMANDS),
        [],
        ["no-such-command"],
        ["--quiet", "gen"],
        ["gen", "--rows", "4"],
        ["gen", "--rows", "four", "--cols", "4", "--kind", "gaussian"],
        ["fit", "--target", "t.mat", "--kind", "dense", "--r", "2"],
        ["gen", "--rows", "4", "--cols", "4", "--kind", "gaussian", "--format", "csv"],
        ["gap", "plan"],
    ], ids=" ".join)
    def test_output_and_exit_code_match_full_parser(self, workdir, capsys, argv):
        expected = _parse_only(build_parser(), argv, capsys)
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == expected
        assert code in (0, 1) and captured.out + captured.err
        assert not any(workdir.iterdir())
