"""The public surface: the README's Library example runs as written, and
every ``lf.<name>`` the README mentions is exported by ``labelforge``."""

import contextlib
import io
import re
from pathlib import Path

import labelforge
from labelforge import SyntheticSpec, generate_synthetic, write_dataset

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def library_block() -> str:
    section = README.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_example_runs(tmp_path, monkeypatch):
    spec = SyntheticSpec(m=5, n=400, accuracy=(0.9, 0.8, 0.7, 0.85, 0.6), coverage=0.5, seed=7)
    write_dataset(tmp_path / "data.csv", generate_synthetic(spec))
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_block(), "README.md", "exec"), {})
    f1, coverage, confusion = out.getvalue().split(" ", 2)
    assert 0.5 < float(f1) <= 1.0
    assert 0.0 < float(coverage) <= 1.0
    assert confusion.startswith("(")


def test_readme_names_are_public():
    named = set(re.findall(r"\blf\.(\w+)", README))
    assert "fit" in named  # the pattern finds the Library section's names
    assert named <= set(labelforge.__all__), sorted(named - set(labelforge.__all__))
