"""The package root exports the names README's Library section lists, and
nothing else: internals are imported from their modules."""

import re
import types
from pathlib import Path

import admmattack

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_root_names() -> list[str]:
    """The backquoted names of the first bullet list in README's Library
    section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    section = section.split("\n#", 1)[0]
    bullets = re.search(r"(?m)^- .*(?:\n(?:- |  ).*)*", section).group(0)
    return re.findall(r"`(\w+)`", bullets)


def test_the_root_exports_the_names_readme_lists_and_nothing_else():
    listed = readme_root_names()
    assert len(listed) == len(set(listed)) == 22
    assert len(admmattack.__all__) == len(set(admmattack.__all__))
    assert set(admmattack.__all__) == set(listed)

    namespace = {}
    exec("from admmattack import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(admmattack.__all__)

    for name in admmattack.__all__:
        assert getattr(admmattack, name) is not None, name
    # a submodule is bound on the package once imported; it is no re-export
    public = {name for name, value in vars(admmattack).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(admmattack.__all__)
