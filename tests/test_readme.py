"""The README's `## Library` example runs and prints what its comments say, and
its `## CLI` examples exit 0."""

import os
import re
import shlex

from brieskorn.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_library_example_prints_its_comments(capsys):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    section = readme.split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    stated = [line.split("#", 1)[1].strip() for line in code.splitlines() if line.startswith("print(")]
    assert stated == ["[Fraction(-1, 6), Fraction(1, 6)]", "1"]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == stated


def test_cli_examples_exit_zero(tmp_path, monkeypatch, capsys):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    lines = [
        line
        for block in re.findall(r"```sh\n(.*?)```", section, re.S)
        for line in block.splitlines()
        if line.startswith("brieskorn ")
    ]
    assert len(lines) == 10
    # in a scratch directory, so the replay pair's report.json stays out of the checkout
    (tmp_path / "problems").symlink_to(os.path.join(ROOT, "problems"))
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line, comments=True)[1:]) == 0, line
        capsys.readouterr()
