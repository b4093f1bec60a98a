"""The README's examples run as written.

Every ``nhspectrum ...`` line of its ``sh`` blocks runs in process, through
``cli.build_parser`` and ``cli.run``, and must exit 0 with some stdout.  The
``python`` block of the Library section runs statement by statement, and a
statement whose trailing comment is a Python literal must evaluate to it.
"""

import ast
import io
import re
import shlex
import tokenize
from pathlib import Path

import pytest

from nhspectrum import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(text: str, language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", text, flags=re.M | re.S)


def cli_lines() -> list[str]:
    return [line for block in _blocks(README.read_text(), "sh")
            for line in block.splitlines() if line.startswith("nhspectrum ")]


def library_block() -> str:
    (library,) = re.findall(r"^## Library\n(.*?)(?=^## |\Z)", README.read_text(),
                            flags=re.M | re.S)
    return _blocks(library, "python")[0]


def _literal_comments(source: str) -> dict[int, object]:
    """line number -> the literal its trailing comment spells, where it spells one."""
    literals = {}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            try:
                literals[tok.start[0]] = ast.literal_eval(tok.string.lstrip("#").strip())
            except (ValueError, SyntaxError):
                pass
    return literals


def test_readme_has_examples():
    assert len(cli_lines()) >= 5
    assert _literal_comments(library_block())


@pytest.mark.parametrize("line", cli_lines())
def test_cli_example_runs(line):
    argv = shlex.split(line, comments=True)[1:]
    config = cli.RunConfig(**vars(cli.build_parser().parse_args(argv)))
    out, err = io.StringIO(), io.StringIO()
    assert cli.run(config, out, err) == 0, err.getvalue()
    assert out.getvalue()


def test_library_example_gives_its_commented_values():
    source = library_block()
    literals = _literal_comments(source)
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
            targets = getattr(stmt, "targets", [])
            value = namespace[targets[0].id] if len(targets) == 1 else None
        if stmt.end_lineno in literals:
            assert value == literals[stmt.end_lineno], ast.get_source_segment(source, stmt)
            checked += 1
    assert checked == len(literals)
