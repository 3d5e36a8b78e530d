"""The guard that nothing in ``src/repro`` forks a process."""

import ast

from repro.analysis.lint import package_root

#: Modules whose import means a process pool or a forked child.
_FORKING_MODULES = ("multiprocessing", "concurrent.futures.process")
#: Names whose use means a process pool or a shared-memory segment.
_FORKING_NAMES = {"ProcessPoolExecutor", "shared_memory"}
#: ``os`` functions that fork or hook a fork.
_OS_FORK_CALLS = {"fork", "register_at_fork"}


def _is_forking_module(name):
    return any(
        name == module or name.startswith(module + ".")
        for module in _FORKING_MODULES
    )


def _fork_points(tree):
    """``(line, what)`` for every fork point in one module's AST."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _is_forking_module(alias.name):
                    yield node.lineno, f"import {alias.name}"
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            for alias in node.names:
                if (
                    _is_forking_module(module)
                    or _is_forking_module(f"{module}.{alias.name}")
                    or alias.name in _FORKING_NAMES
                    or (module == "os" and alias.name in _OS_FORK_CALLS)
                ):
                    yield node.lineno, f"from {module} import {alias.name}"
        elif isinstance(node, ast.Name) and node.id in _FORKING_NAMES:
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            if node.attr in _FORKING_NAMES:
                yield node.lineno, node.attr
            elif (
                node.attr in _OS_FORK_CALLS
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
            ):
                yield node.lineno, f"os.{node.attr}"


def test_fork_points_are_recognised():
    source = (
        "import os\n"
        "import multiprocessing.pool\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "from concurrent.futures import process\n"
        "from multiprocessing import shared_memory\n"
        "from os import register_at_fork\n"
        "os.fork()\n"
        "os.register_at_fork(after_in_child=print)\n"
        "import subprocess, threading\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
    )
    lines = [line for line, _ in _fork_points(ast.parse(source))]
    assert sorted(set(lines)) == [2, 3, 4, 5, 6, 7, 8]


def test_src_has_no_fork_point():
    """Nothing in ``src/repro`` forks a Python child: no process pool,
    no shared-memory segment, no ``os.fork`` and no fork hook. Every
    lock therefore lives in one process, and none needs re-creating in
    a child."""
    root = package_root()
    found = [
        f"{path.relative_to(root).as_posix()}:{line}: {what}"
        for path in sorted(root.rglob("*.py"))
        for line, what in _fork_points(
            ast.parse(path.read_text(encoding="utf-8"))
        )
    ]
    assert found == []
