"""Property tests: damaged artifacts and sweep specs never crash the CLI.

A pristine set of artifacts (weight matrix, plan, block and global adapter
envelopes, adapter factor, witness bundle, sweep spec) is built once. Each example damages one file,
drives ``main`` in process on it, and restores the file. The plan is damaged twice over: as
read by ``ceiling``, and as the plan that the block adapter's hash pins, read by ``update``.
"""
import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from smoa.cli import main

# file under the root, command that reads it, and the fields that command reads
ARTIFACTS = {
    "plan": ("plan.json", ["ceiling", "--plan", "{root}/plan.json", "--r", "2"],
             ("format", "version", "k", "p_out", "p_in", "anchors", "row_intervals",
              "col_intervals")),
    "pinned-plan": ("plan.json", ["update", "--adapter", "{root}/adapter.json"],
                    ("format", "version", "k", "p_out", "p_in", "anchors", "row_intervals",
                     "col_intervals")),
    "smoa-adapter": ("adapter.json", ["update", "--adapter", "{root}/adapter.json"],
                     ("format", "version", "factors", "kind", "plan_path", "plan_hash",
                      "r", "k", "rho", "d_out", "d_in")),
    "lora-adapter": ("lora.json", ["update", "--adapter", "{root}/lora.json"],
                     ("format", "version", "factors", "kind", "r", "k", "rho", "d_out", "d_in")),
    "witness-manifest": ("witness/witness.json", ["gap", "--witness", "{root}/witness", "--r", "2"],
                         ("format", "version", "plan", "target", "coefficients", "rho", "seed")),
    "sweep-spec": ("spec.json", ["sweep", "--spec", "{root}/spec.json"],
                   ("dims", "ks", "rs", "trials", "seed")),
    # binary matrix files: damaged bytes only
    "weight-matrix": ("w0.mat", ["plan", "--w0", "{root}/w0.mat", "--k", "2"], ()),
    "adapter-factor": ("adapter.a.mat", ["update", "--adapter", "{root}/adapter.json"], ()),
    "witness-coefficient": ("witness/coefficients.mat",
                            ["gap", "--witness", "{root}/witness", "--r", "2"], ()),
}

# written for the record but never read back
PROVENANCE = [("plan", "source_hash"), ("smoa-adapter", "seed"), ("smoa-adapter", "init"),
              ("witness-manifest", "gaps"), ("witness-manifest", "target_rank"),
              ("witness-manifest", "reordered_target_rank")]

# integer fields, or lists of them whose first entry is replaced, that a huge
# value must not get past; huge trials and seeds are valid, and would run long
HUGE_FIELDS = [("plan", "k"), ("plan", "p_out"), ("witness-manifest", "rho"),
               ("sweep-spec", "dims"), ("sweep-spec", "ks"),
               *(("smoa-adapter", key) for key in ("r", "k", "rho", "d_out", "d_in"))]
HUGE_INTS = [2**63, -2**63, 2**70]

DROP = object()
NON_UTF8 = [b"\xff", b"\xc3", b"\x80\x80", b"\xed\xa0\x80"]


def quiet_main(argv):
    """``main(argv)`` with stdout and stderr captured: (code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    root = tmp_path_factory.mktemp("artifacts")
    for argv in (
        ["gen", "--rows", "8", "--cols", "8", "--kind", "gaussian", "--seed", "5",
         "--name", "w0.mat"],
        ["plan", "--w0", str(root / "w0.mat"), "--k", "2"],
        ["adapter", "--plan", str(root / "plan.json"), "--r", "2", "--init", "gaussian"],
        ["adapter", "--plan", str(root / "plan.json"), "--r", "2", "--kind", "lora",
         "--name", "lora.json"],
        ["witness", "--plan", str(root / "plan.json"), "--rho", "1"],
    ):
        assert quiet_main([*argv, "--out", str(root), "--quiet"])[0] == 0
    (root / "spec.json").write_text(
        json.dumps({"dims": [4], "ks": [2], "rs": [2], "trials": 1, "seed": 1}))
    return root


def run_damaged(root, name, payload):
    """Run the command that reads artifact ``name`` with its file holding
    ``payload``; return (code, stdout, stderr, files left under --out)."""
    rel, argv, _ = ARTIFACTS[name]
    path = root / rel
    pristine = path.read_bytes()
    scratch = Path(tempfile.mkdtemp(dir=root))
    try:
        path.write_bytes(payload)
        out = scratch / "out"
        code, stdout, stderr = quiet_main(
            [a.format(root=root) for a in argv] + ["--out", str(out), "--quiet"])
        written = sorted(p.name for p in out.rglob("*")) if out.exists() else []
        return code, stdout, stderr, written
    finally:
        path.write_bytes(pristine)
        shutil.rmtree(scratch)


@st.composite
def field_edits(draw):
    """An artifact, a field its command reads, and that field dropped
    (``DROP``) or replaced by a value of another JSON type."""
    name = draw(st.sampled_from([name for name in sorted(ARTIFACTS) if ARTIFACTS[name][2]]))
    key = draw(st.sampled_from(ARTIFACTS[name][2]))
    value = draw(st.one_of(
        st.just(DROP), st.booleans(), st.floats(), st.text(max_size=4), st.none(),
        st.lists(st.integers(0, 9), max_size=3),
    ))
    return name, key, value


class TestDamagedArtifacts:
    @settings(deadline=None, max_examples=80)
    @given(field_edits())
    def test_dropped_or_retyped_field_exits_two(self, root, edit):
        name, key, value = edit
        doc = json.loads((root / ARTIFACTS[name][0]).read_text())
        assume(value is DROP or type(value) is not type(doc[key]))  # else not a retype
        doc = {k: v for k, v in doc.items() if k != key}
        if value is not DROP:
            doc[key] = value
        code, stdout, stderr, written = run_damaged(root, name, json.dumps(doc).encode())
        assert (code, stdout, written) == (2, "", [])
        assert stderr.startswith("error: ") and "Traceback" not in stderr

    @settings(deadline=None, max_examples=30)
    @given(st.sampled_from(HUGE_FIELDS), st.sampled_from(HUGE_INTS))
    def test_huge_integer_exits_two(self, root, target, value):
        name, key = target
        doc = json.loads((root / ARTIFACTS[name][0]).read_text())
        doc[key] = [value, *doc[key][1:]] if type(doc[key]) is list else value
        code, stdout, stderr, written = run_damaged(root, name, json.dumps(doc).encode())
        assert (code, stdout, written) == (2, "", [])
        assert stderr.startswith("error: ") and "Traceback" not in stderr

    @pytest.mark.parametrize("name,key", PROVENANCE, ids=[f"{n}-{k}" for n, k in PROVENANCE])
    def test_retyped_provenance_field_still_loads(self, root, name, key):
        doc = json.loads((root / ARTIFACTS[name][0]).read_text())
        doc[key] = [True]
        code, stdout, stderr, _ = run_damaged(root, name, json.dumps(doc).encode())
        assert code == 0, stderr
        json.loads(stdout)

    @settings(deadline=None, max_examples=80)
    @given(st.sampled_from(sorted(ARTIFACTS)), st.sampled_from(["truncate", "flip", "insert"]),
           st.data())
    def test_damaged_bytes_never_crash(self, root, name, op, data):
        """A truncation, byte flip or non-UTF-8 insert at one offset."""
        payload = (root / ARTIFACTS[name][0]).read_bytes()
        pos = data.draw(st.integers(0, len(payload) - 1))
        if op == "truncate":
            payload = payload[:pos]
        elif op == "flip":
            payload = payload[:pos] + bytes([payload[pos] ^ data.draw(st.integers(1, 255))]) \
                + payload[pos + 1:]
        else:
            payload = payload[:pos] + data.draw(st.sampled_from(NON_UTF8)) + payload[pos:]
        code, stdout, stderr, _ = run_damaged(root, name, payload)
        assert code in (0, 2, 3), stderr
        assert "Traceback" not in stderr
        if code:
            assert stdout == ""

    @settings(deadline=None, max_examples=30)
    @given(st.data())
    def test_edited_pinned_plan_is_stale(self, root, data):
        """Any other bytes in the plan a block adapter's hash pins, a valid plan
        or not, are a stale pairing: a cut, a changed byte or an insert."""
        pristine = (root / "plan.json").read_bytes()
        pos = data.draw(st.integers(0, len(pristine) - 1))
        payload = pristine[:pos] + data.draw(st.binary(max_size=4)) + pristine[pos + 1:]
        assume(payload != pristine)
        code, stdout, stderr, written = run_damaged(root, "pinned-plan", payload)
        assert (code, stdout, written) == (2, "", [])
        assert stderr.startswith("error: stale pairing") and stderr.count("\n") == 1
