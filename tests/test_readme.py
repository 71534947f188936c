import re
from pathlib import Path

from soct import errors

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


def test_readme_lists_every_error_category():
    """README's "categories:" list is every ``SoctError`` category plus the
    two the CLI prints itself, ``no-path`` and ``io``."""
    text = " ".join(README.read_text(encoding="utf-8").split())
    listed = re.search(r"\(categories: (.*?)\)", text).group(1)
    documented = re.findall(r"`([a-z-]+)`", listed)
    assert len(documented) == len(set(documented))
    categories = {k.category for k in vars(errors).values()
                  if isinstance(k, type) and issubclass(k, errors.SoctError)
                  and k is not errors.SoctError}
    assert set(documented) == categories | {"no-path", "io"}
