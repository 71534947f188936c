import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    """The ``python`` block under "## Library" in README.md runs as written
    and prints its two result lines."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.match(r"\s*```python\n(.*?)\n```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README.name} (## Library)", "exec"), {"__name__": "readme"})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("kept ") and lines[1].startswith("path: ")
