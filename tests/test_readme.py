"""The README's examples run as written."""

import json
import re
from pathlib import Path

from yangian import cli

README = (Path(__file__).resolve().parent.parent
          / "README.md").read_text(encoding="utf-8")


def _block(section: str, lang: str) -> str:
    """The first fenced `lang` block under the `## section` heading."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


def test_library_example_runs():
    exec(compile(_block("Library example", "python"), "README.md", "exec"),
         {})


def test_command_line_example_config_passes(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(_block("Command line", "json"))
    out = tmp_path / "r.json"
    assert cli.main(["--config", str(config), "--output", str(out)]) == 0
    assert json.loads(out.read_text())["status"] == "pass"
    capsys.readouterr()
