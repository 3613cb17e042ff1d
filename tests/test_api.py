"""The public surface: every exported name resolves and the README's code runs."""

import re
from pathlib import Path

import triequiv

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    namespace = {}
    exec("from triequiv import *", namespace)
    assert set(triequiv.__all__) <= namespace.keys()


def test_readme_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
