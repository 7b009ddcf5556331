"""The README's quick example runs as printed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_example_runs(capsys):
    text = README.read_text()
    section = text[text.index("### Quick example"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README}:quick-example", "exec"), {})
    fields = capsys.readouterr().out.split()
    assert len(fields) == 3
    x, tangle_value, s_value = (float(f) for f in fields)
    assert abs(x - 0.801) < 0.05
    assert 0.0 <= tangle_value <= 1.0
    assert abs(s_value) <= 2.0 * 2.0**0.5
