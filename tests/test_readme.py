import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("nn", "scoring", "corpus", "dataset", "dsp", "audio", "synth", "cli")


def test_every_module_name_in_the_readme_resolves():
    """Each backticked `module.name` in the README names an attribute of that syllascore module."""
    pattern = re.compile(rf"`({'|'.join(MODULES)})\.([A-Za-z_]\w*)")
    names = {(module, name) for module, name in pattern.findall(README.read_text(encoding="utf-8"))
             if name != "py"}  # `scoring.py` is a file
    assert len(names) >= 20
    missing = [f"{module}.{name}" for module, name in sorted(names)
               if not hasattr(importlib.import_module(f"syllascore.{module}"), name)]
    assert missing == []
