"""Golden outputs: CLI reports, the README quick start and the demos, byte for byte.

``tests/golden/commands.json`` lists a fixed command set (certify,
nakayama, ore and superpotential on the problem documents next to it,
in both formats; catalog cases with fixed parameters; the README
command-line examples).  The README's example problem document is
``readme.json``.  Each command is replayed through
``orenaka.cli.main`` and its stdout compared with
``tests/golden/<name>.out``.  The README's library quick start and the
demo scripts are run in-process, and their printed output compared
with ``readme_quickstart.out`` and ``demo_<script>.out``.

To rewrite the stored outputs after a deliberate change of output:

    PYTHONPATH=src python3 tests/test_golden.py --write
"""

import contextlib
import io
import json
import re
import runpy
import sys
from pathlib import Path

import pytest

from orenaka.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
COMMANDS = json.loads((GOLDEN / "commands.json").read_text())
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(argv) -> tuple[int, str]:
    argv = [a.replace("{golden}", str(GOLDEN)) for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _quickstart() -> str:
    """The first python block of the README, run with stdout captured."""
    code = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    return out.getvalue()


def _demo(path: Path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    return out.getvalue()


@pytest.mark.parametrize("cmd", COMMANDS, ids=lambda c: c["name"])
def test_cli_golden(cmd):
    code, out = _run(cmd["argv"])
    assert code == 0
    assert out == (GOLDEN / f"{cmd['name']}.out").read_text()


def test_readme_document_is_golden():
    """The README's example problem document is the one the golden
    commands run, so the two cannot drift apart."""
    block = re.search(r"```json\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)
    assert json.loads(block) == json.loads((GOLDEN / "readme.json").read_text())


def test_readme_quickstart_golden():
    assert _quickstart() == (GOLDEN / "readme_quickstart.out").read_text()


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_golden(demo):
    assert _demo(demo) == (GOLDEN / f"demo_{demo.stem}.out").read_text()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    for cmd in COMMANDS:
        code, out = _run(cmd["argv"])
        if code != 0:
            sys.exit(f"{cmd['name']}: exit {code}")
        (GOLDEN / f"{cmd['name']}.out").write_text(out)
    (GOLDEN / "readme_quickstart.out").write_text(_quickstart())
    for demo in DEMOS:
        (GOLDEN / f"demo_{demo.stem}.out").write_text(_demo(demo))
