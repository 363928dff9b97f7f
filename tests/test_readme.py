"""README's examples run as written: the library example with its printed
values, and every `jamgame` line of the CLI usage block on its JSON config."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

from jamgame.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text()


def _section(title: str) -> str:
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _blocks(text: str, lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", text, flags=re.S)


def test_readme_examples_run(tmp_path):
    example = _blocks(_section("Library usage"), "python")[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, "README.md", "exec"), {})  # includes `assert report.ok`
    # "print(x)  # 4.5 2.0    the two water levels": the value, then a gloss
    expected = [
        re.split(r"\s{2,}", line.split("# ", 1)[1])[0]
        for line in example.splitlines()
        if line.startswith("print(")
    ]
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected)
    for got, want in zip(printed, expected):
        if want.endswith("..."):
            assert got.startswith(want[:-3]), (got, want)
        else:
            assert got == want

    cli = _section("CLI usage")
    config = tmp_path / "game.json"
    config.write_text(json.dumps(json.loads(_blocks(cli, "json")[0])))
    commands = set()
    for line in _blocks(cli, "sh")[0].splitlines():
        if not line.startswith("jamgame "):
            continue
        argv = [str(config) if a == "game.json" else a for a in shlex.split(line)[1:]]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, line
        commands.add(argv[0])
    assert commands == {"nash", "best-response", "oracle", "dynamics", "sweep"}
