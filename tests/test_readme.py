"""The README's `## Library` example runs and prints what its comments say."""

import os
import re

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
