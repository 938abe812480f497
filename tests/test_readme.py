import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    verdict, min_eigenvalue = capsys.readouterr().out.split()
    assert verdict in ("pass", "inconclusive")
    assert float(min_eigenvalue) >= -1e-10
