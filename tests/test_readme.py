"""README's examples run as written: the Library snippet and every CLI line."""

import contextlib
import re
import shlex
from pathlib import Path

from tristream import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(heading: str, lang: str) -> str:
    """The first ``lang`` code block under the level-2 ``heading``."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


CLI_LINES = [line for line in _block("CLI", "sh").splitlines() if line.startswith("tristream ")]


def test_library_snippet_runs(capsys):
    exec(compile(_block("Library", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_cli_block_runs_in_order(tmp_path, monkeypatch):
    """Each line runs through ``cli.main`` in one directory, ``> file`` included."""
    assert CLI_LINES
    monkeypatch.chdir(tmp_path)
    for line in CLI_LINES:
        words, target = shlex.split(line)[1:], "stdout.txt"
        if ">" in words:
            at = words.index(">")
            words, target = words[:at], words[at + 1]
        with open(target, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
            code = cli.main(words)
        assert code == 0, (line, Path(target).read_text(encoding="utf-8"))
