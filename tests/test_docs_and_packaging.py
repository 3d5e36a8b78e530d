"""Documentation and packaging hygiene.

The documentation deliverable includes doc comments on every public
item; these meta-tests keep that true as the codebase evolves, and check
the packaging markers downstream users rely on.
"""

import glob
import importlib
import inspect
import os
import pkgutil
import re

import pytest

import repro

_SKIP_MEMBERS = {"__main__"}


def _public_modules():
    """Every repro module, recursively."""
    modules = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.split(".")[-1] in _SKIP_MEMBERS:
            continue
        modules.append(info.name)
    return modules


@pytest.mark.parametrize("module_name", _public_modules())
def test_every_module_has_a_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), module_name


@pytest.mark.parametrize("module_name", _public_modules())
def test_public_classes_and_functions_documented(module_name):
    module = importlib.import_module(module_name)
    for name, member in vars(module).items():
        if name.startswith("_"):
            continue
        if getattr(member, "__module__", None) != module_name:
            continue  # re-exports are documented at their home
        if inspect.isclass(member) or inspect.isfunction(member):
            assert member.__doc__ and member.__doc__.strip(), (
                f"{module_name}.{name} lacks a docstring"
            )


def test_public_api_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_py_typed_marker_shipped():
    package_dir = os.path.dirname(repro.__file__)
    assert os.path.exists(os.path.join(package_dir, "py.typed"))


def test_version_is_a_string():
    assert isinstance(repro.__version__, str)
    assert repro.__version__.count(".") == 2


def test_repository_docs_exist():
    root = os.path.dirname(os.path.dirname(repro.__file__))
    repo_root = os.path.dirname(root)
    for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
        assert os.path.exists(os.path.join(repo_root, doc)), doc


def _named_repro_paths(text):
    """Every ``repro/…`` path a document names, without trailing
    punctuation."""
    return {
        match.rstrip(".,:;)")
        for match in re.findall(r"repro/[A-Za-z0-9_./]*", text)
    }


def test_named_repro_paths_exist():
    """Every ``repro/…`` path named in DESIGN.md, README.md and
    ``docs/*.md`` exists under ``src/`` — except build output the
    ``.gitignore`` lists, which the first run makes."""
    repo_root = os.path.dirname(os.path.dirname(os.path.dirname(repro.__file__)))
    with open(os.path.join(repo_root, ".gitignore"), encoding="utf-8") as handle:
        ignored = [
            line.strip().rstrip("/")
            for line in handle
            if line.strip().startswith("src/repro/")
        ]
    docs = [os.path.join(repo_root, name) for name in ("DESIGN.md", "README.md")]
    docs += glob.glob(os.path.join(repo_root, "docs", "*.md"))
    missing = []
    checked = 0
    for doc in docs:
        with open(doc, encoding="utf-8") as handle:
            named = _named_repro_paths(handle.read())
        checked += len(named)
        for path in sorted(named):
            relative = "src/" + path.rstrip("/")
            if any(relative == entry or relative.startswith(entry + "/") for entry in ignored):
                continue
            if not os.path.exists(os.path.join(repo_root, relative)):
                missing.append(f"{os.path.basename(doc)}: {path}")
    assert checked > 30
    assert not missing, missing

