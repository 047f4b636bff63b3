"""Property test: inputs scaled by 10^e and extreme finite float flags never
make the CLI warn, crash or write a non-finite number.

For each e in {-300, 0, 150, 200, 300, 307} one set of 16 x 16 inputs is built
once: a weight, an activation sample and a fit target drawn at scale 10^e,
the weight's K = 2 plan, block and global adapters whose factors are drawn
at scale 10^e, a witness bundle over the plan and a small sweep spec. Each
example runs one subcommand over one set, with its float flags drawn from
extreme finite values, in process through ``main``. It must exit 0, 2 or 4
and raise no warning. On 0 it prints one line that a strict JSON parser
reads, and every file it writes is strict JSON, CSV whose numbers are
finite, or a matrix file that decodes. On 2 or 4 it prints one error line
on stderr and writes no file.
"""
import contextlib
import csv
import io
import json
import math
import shutil
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoa.cli import main
from smoa.matio import decode_matrix

from conftest import write_witness_bundle

EXPONENTS = [-300, 0, 150, 200, 300, 307]
MAX = 1.7976931348623157e308
EXTREMES = [5e-324, 1e-320, 2.2250738585072014e-308, 1e-300, 1e-150, 0.0, 1.0, 1e150, 1e300,
            MAX, -MAX, -1e-300]


def quiet_main(argv):
    """``main(argv)`` with stdout, stderr and warnings captured."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


@pytest.fixture(scope="module")
def roots(tmp_path_factory):
    """Exponent e -> the directory holding the inputs scaled by 10^e."""
    roots = {}
    for e in EXPONENTS:
        root = roots[e] = tmp_path_factory.mktemp(f"scale{e}")
        scale = f"1e{e}"
        for argv in (
            ["gen", "--rows", "16", "--cols", "16", "--kind", "gaussian", "--seed", "1",
             f"--scale={scale}", "--name", "w0.mat"],
            ["gen", "--rows", "16", "--cols", "40", "--kind", "gaussian", "--seed", "2",
             f"--scale={scale}", "--name", "acts.mat"],
            ["gen", "--rows", "16", "--cols", "16", "--kind", "gaussian", "--seed", "3",
             f"--scale={scale}", "--name", "t.mat"],
            ["plan", "--w0", str(root / "w0.mat"), "--k", "2"],
            ["adapter", "--plan", str(root / "plan.json"), "--r", "4", "--init", "gaussian",
             f"--scale={scale}"],
            ["adapter", "--plan", str(root / "plan.json"), "--r", "4", "--kind", "lora",
             "--init", "gaussian", f"--scale={scale}", "--name", "lora.json"],
        ):
            code, _, err, caught = quiet_main([*argv, "--out", str(root), "--quiet"])
            assert (code, err, caught) == (0, "", []), argv
        write_witness_bundle(root / "witness", root / "plan.json", 2, 0)
        (root / "spec.json").write_text(
            json.dumps({"dims": [8], "ks": [2], "rs": [2, 4], "trials": 1, "seed": 1}))
    return roots


flags = st.one_of(st.sampled_from(EXTREMES), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def commands(draw):
    """One subcommand's argv over the inputs in ``{root}``; each float flag
    is given as ``--flag=value``, so a negative value reads as a value."""

    def flag(name):
        return [f"--{name}={draw(flags)!r}"]

    def optional(name):
        return flag(name) if draw(st.booleans()) else []

    def report():
        return ["--format", draw(st.sampled_from(["json", "csv"]))]

    kind = draw(st.sampled_from(["gen", "plan", "adapter", "update", "rank", "ceiling",
                                 "witness", "gap", "fit", "diagnose", "sweep"]))
    if kind == "gen":
        shape = ["gen", "--rows", "16", "--cols", "16", "--kind"]
        family = draw(st.sampled_from(["gaussian", "spiked", "low-rank-plus-noise", "diagonal"]))
        if family == "gaussian":
            return [*shape, family, *flag("scale")]
        if family == "spiked":
            return [*shape, family, "--spikes", str(draw(st.integers(0, 2))), *flag("strength")]
        if family == "low-rank-plus-noise":
            return [*shape, family, "--rank", "2", *flag("noise")]
        return [*shape, family, f"--values={draw(flags)!r},{draw(flags)!r}"]
    if kind == "plan":
        return ["plan", "--w0", "{root}/w0.mat", "--k", "2"]
    if kind == "adapter":
        return ["adapter", "--plan", "{root}/plan.json", "--r", "4",
                "--kind", draw(st.sampled_from(["smoa", "lora"])),
                "--init", draw(st.sampled_from(["zero-update", "gaussian"])), *flag("scale")]
    adapter = draw(st.sampled_from(["{root}/adapter.json", "{root}/lora.json"]))
    if kind == "update":
        return ["update", "--adapter", adapter, *optional("epsilon")]
    if kind == "rank":
        source = draw(st.sampled_from([["--matrix", "{root}/w0.mat"], ["--adapter", adapter]]))
        return ["rank", *source, *optional("epsilon"), *report()]
    if kind == "ceiling":
        return ["ceiling", "--plan", "{root}/plan.json", "--r", "4", *optional("epsilon"),
                *report()]
    if kind == "witness":
        return ["witness", "--plan", "{root}/plan.json", "--rho", "2"]
    if kind == "gap":
        return ["gap", "--witness", "{root}/witness", "--r", str(draw(st.integers(1, 8))),
                *report()]
    if kind == "fit":
        family = draw(st.sampled_from(["lora", "smoa"]))
        schemes = ["zero-update", "gaussian"] + (["spectral"] if family == "lora" else [])
        plan = ["--plan", "{root}/plan.json"] if family == "smoa" else []
        return ["fit", "--target", "{root}/t.mat", "--kind", family, "--r", "4", *plan,
                "--init", draw(st.sampled_from(schemes)), *flag("scale"), *flag("step-size"),
                *flag("grad-tol"), "--max-steps", str(draw(st.integers(0, 20)))]
    if kind == "diagnose":
        activations = ["--activations", "{root}/acts.mat"] if draw(st.booleans()) else []
        return ["diagnose", "--matrix", "{root}/w0.mat", *activations, *optional("epsilon"),
                *optional("noise-scale"), "--bins", str(draw(st.integers(1, 50)))]
    return ["sweep", "--spec", "{root}/spec.json", *optional("epsilon")]


def _strict_json(text: str):
    def refuse(name):
        raise ValueError(f"{name} is not a JSON number")

    return json.loads(text, parse_constant=refuse)


def _check_written(path: Path) -> None:
    """A written file parses strictly: JSON, CSV with finite numbers, or a
    matrix file."""
    if path.suffix == ".json":
        _strict_json(path.read_text())
    elif path.suffix == ".csv":
        rows = list(csv.reader(io.StringIO(path.read_text())))
        assert rows and all(len(row) == len(rows[0]) for row in rows), path
        for cell in (cell for row in rows[1:] for cell in row):
            try:
                number = float(cell)
            except ValueError:
                continue  # a label such as a sweep row's method
            assert math.isfinite(number), (path, cell)
    else:
        assert path.suffix == ".mat", path
        decode_matrix(path.read_bytes())


class TestExtremeScales:
    @settings(deadline=None, max_examples=150)
    @given(st.sampled_from(EXPONENTS), commands())
    def test_exits_cleanly_and_writes_only_finite_numbers(self, roots, e, command):
        root = roots[e]
        scratch = Path(tempfile.mkdtemp(dir=root))
        try:
            out = scratch / "out"
            argv = [a.format(root=root) for a in command] + ["--out", str(out), "--quiet"]
            code, stdout, stderr, caught = quiet_main(argv)
            written = sorted(p for p in out.rglob("*") if p.is_file()) if out.exists() else []
            assert caught == [], caught
            assert code in (0, 2, 4), stderr
            assert "Traceback" not in stderr
            if code == 0:
                assert stderr == "" and stdout.count("\n") == 1 and stdout.endswith("\n")
                assert type(_strict_json(stdout)) is dict
                for path in written:
                    _check_written(path)
            else:
                assert stdout == "" and written == []
                prefix = "error: " if code == 2 else "numerical error: "
                assert stderr.startswith(prefix) and stderr.count("\n") == 1, stderr
        finally:
            shutil.rmtree(scratch)
