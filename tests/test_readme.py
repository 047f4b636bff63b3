"""The README's Python examples run, in order, against the public API, its
exit-code sentence lists the codes the CLI defines, and it names every
artifact format with its version."""
import contextlib
import importlib
import io
import pkgutil
import re
from pathlib import Path

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
