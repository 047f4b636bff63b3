"""Command line front end.

Every subcommand prints exactly one JSON object on stdout on success
and writes its artifacts under the output directory (``--out``, else
the ``SMOA_OUT`` environment variable, else the working directory).
Progress notes go to stderr and are silenced by ``--quiet``. All file
writes are atomic (temp file plus rename).

Exit codes: 0 success, 1 usage, 2 validation (shapes, divisibility,
malformed or stale artifacts, sizes too large to address), 3 file I/O or
memory exhausted, 4 numerical failure: a NaN or infinity bound for a file
or stdout, or a floating-point overflow, division by zero or invalid
operation, which every command raises where it happens.
"""
from __future__ import annotations

import argparse
import itertools
import os
import sys
from pathlib import Path

import numpy as np

from .adapters import AdapterInit, init_lora, init_smoa, load_adapter, save_adapter, update
from .capacity import (_exact_fit_residual, _update_rank, _update_spectrum, load_witness, lora_gap,
                       make_witness, rank_ceiling, save_witness)
from .diagnostics import ActivationSample, full_report, save_report
from .errors import ConfigurationError, DimensionError, FormatError, NumericalError, RangeError
from .fileutil import field, json_text, read_json, sha256_bytes, write_csv, write_json
from .gen import (_check_seed, _check_shape, diagonal_matrix, gaussian_matrix,
                  low_rank_plus_noise, spiked_matrix)
from .matio import decode_matrix, load_matrix, save_matrix
from .preprocess import _block_rank, _check_rho, _check_split, build_plan, load_plan, save_plan
from .spectrum import _rank_from_values, singular_values
from .trainer import FitConfig, FitProblem, fit, save_trace

__all__ = ["main"]

EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _note(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _out_dir(args) -> Path:
    target = args.out or os.environ.get("SMOA_OUT") or "."
    path = Path(target)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _parse_values(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigurationError(f"bad --values list {text!r}") from exc
    if not np.isfinite(values).all():
        raise ConfigurationError(f"--values must be finite, got {text!r}")
    return values


def _write_report_artifact(args, name: str, payload: dict, csv_header: list[str], csv_rows: list[list]) -> str:
    out = _out_dir(args)
    if args.format == "csv":
        path = out / f"{name}.csv"
        write_csv(path, csv_header, csv_rows)
    else:
        path = out / f"{name}.json"
        write_json(path, payload)
    return str(path)


def cmd_gen(args) -> dict:
    kind = args.kind
    if kind == "gaussian":
        matrix = gaussian_matrix(args.rows, args.cols, args.seed, args.scale)
    elif kind == "diagonal":
        if args.values is None:
            raise ConfigurationError("kind=diagonal needs --values")
        matrix = diagonal_matrix(args.rows, args.cols, _parse_values(args.values))
    elif kind == "spiked":
        matrix = spiked_matrix(args.rows, args.cols, args.spikes, args.strength, args.seed)
    else:  # low-rank-plus-noise
        matrix = low_rank_plus_noise(args.rows, args.cols, args.rank, args.noise, args.seed)
    path = _out_dir(args) / args.name
    payload = save_matrix(matrix, path)
    _note(args, f"wrote {path}")
    return {
        "path": str(path),
        "rows": matrix.rows,
        "cols": matrix.cols,
        "kind": kind,
        "seed": args.seed,
        "hash": sha256_bytes(payload),
    }


def cmd_plan(args) -> dict:
    payload = Path(args.w0).read_bytes()
    plan = build_plan(decode_matrix(payload), args.k)
    source_hash = sha256_bytes(payload)
    path = _out_dir(args) / args.name
    save_plan(plan, path, source_hash=source_hash)
    _note(args, f"wrote {path}")
    return {
        "path": str(path),
        "k": plan.k,
        "d_out": plan.d_out,
        "d_in": plan.d_in,
        "block_rows": plan.block_shape[0],
        "block_cols": plan.block_shape[1],
        "source_hash": source_hash,
    }


def cmd_adapter(args) -> dict:
    plan = load_plan(args.plan)
    init = AdapterInit(scheme=args.init, seed=args.seed, scale=args.scale)
    if args.kind == "smoa":
        adapter = init_smoa(plan, args.r, init)
        blocks = {"k": plan.k, "rho": adapter.rho, "plan_hash": plan.file[1]}
    else:
        adapter = init_lora(plan.d_out, plan.d_in, args.r, init)
        blocks = {"k": None, "rho": None, "plan_hash": None}
    path = _out_dir(args) / args.name
    written = save_adapter(adapter, path, init=init)
    _note(args, f"wrote {len(written)} files under {path.parent}")
    return {
        "path": str(path),
        "kind": args.kind,
        "r": adapter.r,
        **blocks,
        "params": adapter.trainable_parameters,
    }


def cmd_update(args) -> dict:
    adapter = load_adapter(args.adapter)
    delta = update(adapter)
    rank = _update_rank(adapter, args.epsilon, delta)
    path = _out_dir(args) / args.name
    payload = save_matrix(delta, path)
    _note(args, f"wrote {path}")
    return {
        "path": str(path),
        "rows": delta.rows,
        "cols": delta.cols,
        "achieved_rank": rank,
        "hash": sha256_bytes(payload),
    }


def cmd_rank(args) -> dict:
    if (args.matrix is None) == (args.adapter is None):
        raise ConfigurationError("pass exactly one of --matrix or --adapter")
    if args.matrix is not None:
        matrix = load_matrix(args.matrix)
        source, values, (rows, cols) = str(args.matrix), singular_values(matrix), matrix.shape
    else:
        source = str(args.adapter)
        values, (rows, cols) = _update_spectrum(load_adapter(args.adapter))
    rank, epsilon = _rank_from_values(values, (rows, cols), args.epsilon)
    payload = {
        "source": source,
        "rows": rows,
        "cols": cols,
        "rank": rank,
        "epsilon": epsilon,
    }
    payload["report_path"] = _write_report_artifact(
        args, "rank",
        payload,
        ["rank", "epsilon", "rows", "cols"],
        [[rank, float(epsilon), rows, cols]],
    )
    return payload


def cmd_ceiling(args) -> dict:
    plan = load_plan(args.plan)
    report = rank_ceiling(plan, args.r, args.epsilon)
    per_block = [
        {"block": g + 1, "s_k": b.s_k, "anchor_rank": b.anchor_rank, "block_ceiling": b.block_ceiling}
        for g, b in enumerate(report.per_block)
    ]
    payload = {
        "per_block": per_block,
        "total_ceiling": report.total_ceiling,
        "lora_ceiling": report.lora_ceiling,
        "separated": report.separated,
        "epsilon": report.epsilon,
    }
    payload["report_path"] = _write_report_artifact(
        args, "ceiling",
        payload,
        ["block", "s_k", "anchor_rank", "block_ceiling"],
        [[b["block"], b["s_k"], b["anchor_rank"], b["block_ceiling"]] for b in per_block],
    )
    return payload


def cmd_witness(args) -> dict:
    witness = make_witness(load_plan(args.plan), args.rho, args.seed)
    directory = _out_dir(args) / args.dir
    manifest = save_witness(witness, directory)
    _note(args, f"wrote witness bundle under {directory}")
    return {
        "dir": str(directory),
        "manifest": str(manifest),
        "rho": witness.rho,
        "seed": witness.seed,
        "reordered_target_rank": witness.reordered_target_rank,
    }


def cmd_gap(args) -> dict:
    witness = load_witness(args.witness)
    value = lora_gap(witness, args.r)
    payload = {
        "witness": str(args.witness),
        "r": args.r,
        "gap": value,
        "reordered_target_rank": witness.reordered_target_rank,
    }
    payload["report_path"] = _write_report_artifact(
        args, "gap", payload, ["r", "gap"], [[args.r, value]]
    )
    return payload


def cmd_fit(args) -> dict:
    """Fit, then write the trace and summary, both rendered before either
    is written, and then the adapter: a non-finite number in the trace or
    summary leaves no file."""
    if args.kind == "lora" and args.plan is not None:
        raise ConfigurationError("--plan applies to --kind smoa only")
    target = load_matrix(args.target)
    plan = load_plan(args.plan) if args.plan is not None else None
    problem = FitProblem(target=target, kind=args.kind, r=args.r, plan=plan)
    init = AdapterInit(scheme=args.init, seed=args.seed, scale=args.scale)
    config = FitConfig(step_size=args.step_size, max_steps=args.max_steps, grad_tol=args.grad_tol)
    trace = fit(problem, init, config)
    out = _out_dir(args)
    trace_path = out / f"{args.prefix}.trace.csv"
    summary_path = out / f"{args.prefix}.summary.json"
    adapter_path = out / f"{args.prefix}.adapter.json"
    save_trace(trace, trace_path, summary_path)
    save_adapter(trace.adapter, adapter_path, init=init)
    _note(args, f"fit finished after {trace.step_count} steps")
    return {
        "kind": args.kind,
        "r": args.r,
        "final_loss": trace.final_loss,
        "relative_loss": trace.relative_loss,
        "floor": trace.floor,
        "converged": trace.converged,
        "stop_reason": trace.stop_reason,
        "steps": trace.step_count,
        "trace_path": str(trace_path),
        "summary_path": str(summary_path),
        "adapter_path": str(adapter_path),
    }


def cmd_diagnose(args) -> dict:
    matrix = load_matrix(args.matrix)
    activations = None
    if args.activations is not None:
        activations = ActivationSample(load_matrix(args.activations))
    report = full_report(
        matrix,
        activations,
        epsilon=args.epsilon,
        noise_scale=args.noise_scale,
        seed=args.seed,
    )
    out = _out_dir(args)
    json_path = out / "report.json"
    hist_path = out / "nu_histogram.csv"
    overlaps_path = out / "overlaps.csv"
    save_report(report, json_path, hist_path, overlaps_path, bins=args.bins)
    _note(args, f"wrote {json_path}, {hist_path}, {overlaps_path}")
    return {
        "rows": report.rows,
        "cols": report.cols,
        "numerical_rank": report.numerical_rank,
        "outlier_count": report.outlier_count,
        "bulk_edge": report.bulk_edge,
        "noise_scale": report.noise_scale,
        "report_path": str(json_path),
        "histogram_path": str(hist_path),
        "overlaps_path": str(overlaps_path),
    }


def _sweep_seeds(master: int, cell: int, trial: int) -> list[int]:
    state = np.random.SeedSequence([master, cell, trial]).generate_state(4)
    return [int(x) for x in state]


def cmd_sweep(args) -> dict:
    what = f"sweep spec {args.spec}"
    spec = read_json(Path(args.spec).read_bytes(), what)
    dims, ks, rs = (field(spec, key, list, what, int) for key in ("dims", "ks", "rs"))
    trials, master = field(spec, "trials", int, what), field(spec, "seed", int, what)
    if trials < 1:
        raise ConfigurationError(f"trials must be positive, got {trials}")
    _check_seed(master)
    cells = list(itertools.product(dims, ks, rs))
    for d, k, r in cells:
        _check_split(k, d, d)
        _check_rho(_block_rank(k, r), (d // k, d // k))
        _check_shape(d, d)
    rows: list[list] = []
    for cell, (d, k, r) in enumerate(cells):
        for trial in range(trials):
            s_w0, s_witness, s_lora, s_smoa = _sweep_seeds(master, cell, trial)
            w0 = gaussian_matrix(d, d, s_w0)
            plan = build_plan(w0, k)
            witness = make_witness(plan, r // k, s_witness)
            ceiling = rank_ceiling(plan, r, args.epsilon)
            lora = init_lora(d, d, r, AdapterInit("gaussian", s_lora))
            smoa = init_smoa(plan, r, AdapterInit("gaussian", s_smoa))
            rows.append([
                "lora", d, k, r, trial,
                lora.trainable_parameters,
                _update_rank(lora, args.epsilon),
                r,
                lora_gap(witness, r),
            ])
            rows.append([
                "smoa", d, k, r, trial,
                smoa.trainable_parameters,
                _update_rank(smoa, args.epsilon),
                ceiling.total_ceiling,
                _exact_fit_residual(witness),
            ])
        _note(args, f"cell d={d} k={k} r={r} done")
    path = _out_dir(args) / args.name
    write_csv(path, ["method", "d", "k", "r", "trial", "params", "achieved_rank", "ceiling", "gap"],
              rows)
    return {
        "path": str(path),
        "rows": len(rows),
        "cells": len(cells),
        "trials": trials,
        "seed": master,
    }


def _gen_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--kind", choices=["gaussian", "diagonal", "spiked", "low-rank-plus-noise"],
                   required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=float, default=1.0, help="gaussian entry scale")
    p.add_argument("--values", help="diagonal values, comma separated")
    p.add_argument("--spikes", type=int, default=0)
    p.add_argument("--strength", type=float, default=10.0,
                   help="spike size in bulk-edge units")
    p.add_argument("--rank", type=int, default=1, help="signal rank")
    p.add_argument("--noise", type=float, default=1.0, help="noise level")
    p.add_argument("--name", default="matrix.mat")


def _plan_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--w0", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--name", default="plan.json")


def _adapter_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--plan", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--kind", choices=["smoa", "lora"], default="smoa")
    p.add_argument("--init", choices=["zero-update", "gaussian"], default="zero-update")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--name", default="adapter.json")


def _update_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--adapter", required=True)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--name", default="update.mat")


def _rank_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--matrix")
    p.add_argument("--adapter")
    p.add_argument("--epsilon", type=float, default=None)


def _ceiling_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--plan", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=None)


def _witness_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--plan", required=True)
    p.add_argument("--rho", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dir", default="witness")


def _gap_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--witness", required=True, help="witness bundle directory")
    p.add_argument("--r", type=int, required=True)


def _fit_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--target", required=True)
    p.add_argument("--kind", choices=["lora", "smoa"], required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--plan")
    p.add_argument("--init", choices=["zero-update", "gaussian", "spectral"],
                   default="zero-update")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--step-size", type=float, default=1e-2)
    p.add_argument("--max-steps", type=int, default=50000)
    p.add_argument("--grad-tol", type=float, default=1e-9)
    p.add_argument("--prefix", default="fit")


def _diagnose_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--matrix", required=True)
    p.add_argument("--activations")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--noise-scale", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bins", type=int, default=50)


def _sweep_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", required=True, help="JSON with dims/ks/rs/trials/seed")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--name", default="sweep.csv")


# command -> (help text, argument builder, handler, whether it takes --format)
_COMMANDS = {
    "gen": ("generate a seeded test matrix", _gen_arguments, cmd_gen, False),
    "plan": ("build a block plan from a weight matrix", _plan_arguments, cmd_plan, False),
    "adapter": ("initialize an adapter over a plan", _adapter_arguments, cmd_adapter, False),
    "update": ("materialize an adapter's weight update", _update_arguments, cmd_update, False),
    "rank": ("numerical rank of a matrix or adapter update", _rank_arguments, cmd_rank, True),
    "ceiling": ("rank ceiling of a plan at budget r", _ceiling_arguments, cmd_ceiling, True),
    "witness": ("build a separation witness bundle", _witness_arguments, cmd_witness, False),
    "gap": ("best rank-r approximation gap of a witness", _gap_arguments, cmd_gap, True),
    "fit": ("gradient-descent fit of a target", _fit_arguments, cmd_fit, False),
    "diagnose": ("spectral diagnostics report", _diagnose_arguments, cmd_diagnose, False),
    "sweep": ("grid comparison of both adapter families", _sweep_arguments, cmd_sweep, False),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``smoa`` parser. Every command is registered with its help text,
    but when ``command`` names one, only that one gets its arguments: it is
    the only one argparse will read. Otherwise every command gets them,
    each followed by ``--out``, ``--format`` for the report commands, and
    ``--quiet``."""
    parser = _Parser(prog="smoa", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (help_text, add_arguments, handler, report) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if command not in _COMMANDS or command == name:
            add_arguments(p)
            p.add_argument("--out", help="output directory (default: $SMOA_OUT or .)")
            if report:
                p.add_argument("--format", choices=["json", "csv"], default="json",
                               help="format of the small report artifact")
            p.add_argument("--quiet", action="store_true", help="suppress stderr notes")
            p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            line = json_text(args.handler(args), f"the {args.command} result line")
    except (ConfigurationError, DimensionError, RangeError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericalError, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_IO
    sys.stdout.write(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
