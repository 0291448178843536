"""README.md is checked against the code: its Quick start runs, and every
`rlra ...` command it shows parses, so a removed suite, flag or API name
cannot stay documented."""

import re
import shlex
from pathlib import Path

from rlra import cli, core, fileio

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.S | re.M)


def test_quick_start_runs(tmp_path, monkeypatch):
    section = README.split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, flags=re.S).group(1)
    monkeypatch.chdir(tmp_path)
    fileio.write_rlra("big.rlm", core.gaussian(0, 120, 80))
    exec(compile(code, "README.md (Quick start)", "exec"), {})


def test_command_lines_parse():
    lines = [line for block in fenced_blocks("sh") for line in block.splitlines()
             if line.startswith("rlra ")]
    assert len(lines) >= 8
    parser = cli.build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line, comments=True)[1:])
        assert callable(args.func), line
