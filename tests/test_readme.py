"""The README's Python examples run, in order, against the public API, its
command-line example prints what its comments say, its exit-code sentence
lists the codes the CLI defines, and it names every artifact format with its
version."""
import contextlib
import importlib
import io
import json
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import smoa.cli
import smoa.matio

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    namespace: dict = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    lines = out.getvalue().splitlines()
    assert lines[:2] == ["128 params vs 512 global", "32 <= 32 vs global cap 8"]


def sh_steps(text: str) -> list[tuple[list[str], dict]]:
    """Each line of the README's ``sh`` block after its ``export``, split as
    the shell splits it, with the ``# {...}`` comment below it (``{}`` if
    none) read as JSON once its ``...`` placeholders for omitted keys go."""
    block = re.search(r"```sh\nexport SMOA_OUT=\$PWD\n(.*?)```", text, re.S).group(1)
    steps: list[tuple[list[str], dict]] = []
    for line in filter(None, block.splitlines()):
        if line.startswith("# "):
            steps[-1][1].update(json.loads(re.sub(r",\s*\.\.\.(?=\s*})", "", line[2:])))
        else:
            steps.append((shlex.split(line), {}))
    return steps


def matches(expected, got) -> bool:
    """A string ending in ``...`` is a prefix and one starting with it a
    suffix; a float agrees to 1e-12 relative, since its last bits depend on
    the BLAS kernels; anything else is equal."""
    if isinstance(expected, str) and expected.endswith("..."):
        return isinstance(got, str) and got.startswith(expected[:-3])
    if isinstance(expected, str) and expected.startswith("..."):
        return isinstance(got, str) and got.endswith(expected[3:])
    if type(expected) is float:
        return type(got) is float and got == pytest.approx(expected, rel=1e-12)
    return type(got) is type(expected) and got == expected


def test_sh_block_prints_what_its_comments_say(tmp_path, monkeypatch, capsys):
    """Every ``smoa ...`` line runs through ``main`` in a fresh directory that
    ``SMOA_OUT`` names, and every key of the comment below it is printed with
    that value; the ``echo ... > file`` line writes its file."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SMOA_OUT", str(tmp_path))
    steps = sh_steps(README.read_text(encoding="utf-8"))
    assert [argv[1] for argv, _ in steps if argv[0] == "smoa"] == [
        "gen", "plan", "adapter", "update", "ceiling", "witness", "gap", "fit", "diagnose",
        "sweep"]
    for argv, expected in steps:
        if argv[0] == "echo":
            assert argv[2] == ">" and len(argv) == 4, argv
            (tmp_path / argv[3]).write_text(argv[1] + "\n", encoding="utf-8")
            continue
        assert argv[0] == "smoa", argv
        assert smoa.cli.main(argv[1:]) == 0, argv
        printed = json.loads(capsys.readouterr().out)
        wrong = {key: printed.get(key) for key, value in expected.items()
                 if key not in printed or not matches(value, printed[key])}
        assert wrong == {}, argv


def exit_codes(text: str) -> list[int]:
    """The integers in the sentence that starts with 'Exit codes:'."""
    sentence = re.search(r"Exit codes:(.*?)\.", text, re.S).group(1)
    return sorted(int(code) for code in re.findall(r"\b\d+\b", sentence))


def test_exit_codes_listed_once_each():
    defined = sorted({0, *(value for name, value in vars(smoa.cli).items()
                           if name.startswith("EXIT_"))})
    assert exit_codes(README.read_text(encoding="utf-8")) == defined
    assert exit_codes(smoa.cli.__doc__) == defined


def test_every_format_named_with_its_version():
    """Each ``<NAME>_FORMAT`` constant in ``src/`` with its ``<NAME>_VERSION``,
    and the matrix file's ``MAGIC`` with its ``VERSION``, as ``<FORMAT> v<VERSION>``."""
    formats = {f"{smoa.matio.MAGIC.decode()} v{smoa.matio.VERSION}"}
    for info in pkgutil.iter_modules(smoa.__path__):
        constants = vars(importlib.import_module(f"smoa.{info.name}"))
        formats |= {f"{value} v{constants[name[:-len('FORMAT')] + 'VERSION']}"
                    for name, value in constants.items() if name.endswith("_FORMAT")}
    text = README.read_text(encoding="utf-8")
    assert len(formats) == 4
    assert sorted(name for name in formats if name not in text) == []
