"""Property tests: damaged artifacts and sweep specs never crash the CLI.

A pristine set of artifacts (weight matrix, plan, block and global adapter
envelopes, adapter factor, witness bundle, sweep spec) is built once, with a sibling of each
pinned file. Each example damages one file, drives ``main`` in process on it, and restores the
file. The plan is damaged three times over: as read by ``ceiling``, as the plan that the block
adapter's pin names, read by ``update``, and as the plan that the witness manifest's pin names,
read by ``gap``. Damaged bytes or fields in a pinned plan, factor or coefficient file are
re-pinned, so they reach the decoder; the same edit left unpinned, or a valid sibling swapped
in, is a stale pairing.
"""
import contextlib
import hashlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from smoa.cli import main

PLAN_FIELDS = ("format", "version", "k", "p_out", "p_in", "anchors", "row_intervals",
               "col_intervals")

# file under the root, command that reads it, and the fields that command reads
ARTIFACTS = {
    "plan": ("plan.json", ["ceiling", "--plan", "{root}/plan.json", "--r", "2"], PLAN_FIELDS),
    "pinned-plan": ("plan.json", ["update", "--adapter", "{root}/adapter.json"], PLAN_FIELDS),
    "witness-pinned-plan": ("plan.json", ["gap", "--witness", "{root}/witness", "--r", "2"],
                            PLAN_FIELDS),
    "smoa-adapter": ("adapter.json", ["update", "--adapter", "{root}/adapter.json"],
                     ("format", "version", "a", "b", "kind", "plan", "r", "k", "rho", "d_out",
                      "d_in")),
    "lora-adapter": ("lora.json", ["update", "--adapter", "{root}/lora.json"],
                     ("format", "version", "a", "b", "kind", "r", "k", "rho", "d_out", "d_in")),
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

# pinned files whose damaged bytes get re-pinned: the envelope and its pin key
REPINNED = {"pinned-plan": ("adapter.json", "plan"),
            "witness-pinned-plan": ("witness/witness.json", "plan"),
            "adapter-factor": ("adapter.json", "a"),
            "witness-coefficient": ("witness/witness.json", "coefficients")}

UPDATE = ["update", "--adapter", "{root}/adapter.json"]
GAP = ["gap", "--witness", "{root}/witness", "--r", "2"]

# pinned file, a valid same-shape sibling from another artifact, and the command that reads the pin
SWAPS = {
    "smoa-a": ("adapter.a.mat", "two.a.mat", UPDATE),
    "smoa-b": ("adapter.b.mat", "two.b.mat", UPDATE),
    "lora-a": ("lora.a.mat", "lora2.a.mat", ["update", "--adapter", "{root}/lora.json"]),
    "lora-b": ("lora.b.mat", "lora2.b.mat", ["update", "--adapter", "{root}/lora.json"]),
    "witness-target": ("witness/target.mat", "witness2/target.mat", GAP),
    "witness-coefficients": ("witness/coefficients.mat", "witness2/coefficients.mat", GAP),
    "adapter-plan": ("plan.json", "plan2.json", UPDATE),
    "witness-plan": ("plan.json", "plan2.json", GAP),
}

# written for the record but never read back
PROVENANCE = [("plan", "source_hash"), ("smoa-adapter", "init"),
              ("witness-manifest", "gaps"), ("witness-manifest", "reordered_target_rank")]

# integer fields, or lists of them whose first entry is replaced, that a huge
# value must not get past; huge trials and seeds are valid, and would run long
HUGE_FIELDS = [("plan", "k"), ("plan", "p_out"), ("pinned-plan", "k"),
               ("witness-manifest", "rho"), ("sweep-spec", "dims"), ("sweep-spec", "ks"),
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
        # siblings: same shapes, other seeds
        ["gen", "--rows", "8", "--cols", "8", "--kind", "gaussian", "--seed", "6",
         "--name", "w2.mat"],
        ["plan", "--w0", str(root / "w2.mat"), "--k", "2", "--name", "plan2.json"],
        ["adapter", "--plan", str(root / "plan.json"), "--r", "2", "--init", "gaussian",
         "--seed", "1", "--name", "two.json"],
        ["adapter", "--plan", str(root / "plan.json"), "--r", "2", "--kind", "lora",
         "--init", "gaussian", "--seed", "1", "--name", "lora2.json"],
        ["witness", "--plan", str(root / "plan.json"), "--rho", "1", "--seed", "1",
         "--dir", "witness2"],
    ):
        assert quiet_main([*argv, "--out", str(root), "--quiet"])[0] == 0
    (root / "spec.json").write_text(
        json.dumps({"dims": [4], "ks": [2], "rs": [2], "trials": 1, "seed": 1}))
    return root


def run_with(root, rel, argv, payload, repin=None):
    """Run ``argv`` with file ``rel`` under ``root`` holding ``payload``; with
    ``repin = (envelope, key)``, that envelope's pin ``key`` records the hash of
    ``payload``. Return (code, stdout, stderr, files left under --out)."""
    edits = {root / rel: payload}
    if repin is not None:
        envelope, key = root / repin[0], repin[1]
        doc = json.loads(envelope.read_text())
        doc[key]["hash"] = hashlib.sha256(payload).hexdigest()
        edits[envelope] = json.dumps(doc).encode()
    pristine = {path: path.read_bytes() for path in edits}
    scratch = Path(tempfile.mkdtemp(dir=root))
    try:
        for path, data in edits.items():
            path.write_bytes(data)
        out = scratch / "out"
        code, stdout, stderr = quiet_main(
            [a.format(root=root) for a in argv] + ["--out", str(out), "--quiet"])
        written = sorted(p.name for p in out.rglob("*")) if out.exists() else []
        return code, stdout, stderr, written
    finally:
        for path, data in pristine.items():
            path.write_bytes(data)
        shutil.rmtree(scratch)


def run_damaged(root, name, payload):
    """Run the command that reads artifact ``name`` with its file holding
    ``payload``, re-pinned if ``name`` is in ``REPINNED``."""
    rel, argv, _ = ARTIFACTS[name]
    return run_with(root, rel, argv, payload, REPINNED.get(name))


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
        assert "stale pairing" not in stderr  # the edit reached the decoder

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
        """Any other bytes in the plan that a block adapter's or a witness
        manifest's hash pins, a valid plan or not, are a stale pairing: a cut,
        a changed byte or an insert."""
        pristine = (root / "plan.json").read_bytes()
        pos = data.draw(st.integers(0, len(pristine) - 1))
        payload = pristine[:pos] + data.draw(st.binary(max_size=4)) + pristine[pos + 1:]
        assume(payload != pristine)
        pinned = data.draw(st.sampled_from(["pinned-plan", "witness-pinned-plan"]))
        code, stdout, stderr, written = run_with(root, "plan.json", ARTIFACTS[pinned][1], payload)
        assert (code, stdout, written) == (2, "", [])
        assert stderr.startswith("error: stale pairing") and stderr.count("\n") == 1

    @pytest.mark.parametrize("name", sorted(SWAPS))
    def test_swapped_in_valid_file_is_stale(self, root, name):
        """A valid file of the right shape from a sibling artifact, copied over
        a pinned file, is a stale pairing."""
        rel, sibling, argv = SWAPS[name]
        code, stdout, stderr, written = run_with(root, rel, argv, (root / sibling).read_bytes())
        assert (code, stdout, written) == (2, "", [])
        assert stderr.startswith("error: stale pairing") and stderr.count("\n") == 1
