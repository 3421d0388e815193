"""pytest plugin: list the package's function lines that no in-process test runs.

From the repository root:

    PYTHONPATH=src:scripts python -m pytest -p line_trace [pytest arguments]

The plugin traces the `matchentropy` package with `sys.settrace` (standard
library only; frames of other code are not traced line by line).  After the
run it prints `file:line: source` for each executable line inside a function
of the package that no traced call reached.  Module and class bodies run at
import and are not listed.  A test that runs the package in a subprocess is
not traced, so a line that only such a test reaches is listed too.
"""

from __future__ import annotations

import dis
import importlib.util
import inspect
import os
import sys
import types
from pathlib import Path

import pytest

PACKAGE = "matchentropy"
_KEY = pytest.StashKey["LineTrace"]()


def function_lines(path: Path) -> list[tuple[tuple, int, str]]:
    """(function key, line, text) of every executable line of every function
    body in one module, in line order.  The key (first line, name) tells a
    lambda or comprehension from the function whose line it shares."""
    source = path.read_text()
    text = source.splitlines()
    found = set()
    stack = [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
        if not code.co_flags & inspect.CO_NEWLOCALS:
            continue  # a module or class body, which runs at import
        key = (code.co_firstlineno, code.co_name)
        lines = {line for _, line in dis.findlinestarts(code) if line is not None}
        if len(lines) > 1:
            lines.discard(code.co_firstlineno)  # the def (or decorator) line
        found.update((key, line) for line in lines)
    return [(key, line, text[line - 1].strip())
            for key, line in sorted(found, key=lambda item: (item[1], item[0]))]


class LineTrace:
    """Records the package lines run while installed, per function."""

    def __init__(self, files):
        self.files = set(files)
        self.hits: set[tuple] = set()

    def _call(self, frame, event, arg):
        code = frame.f_code
        if code.co_filename not in self.files:
            return None
        # a one-line function runs its only line, which may raise no line event
        self.hits.add((code.co_filename, code.co_firstlineno, code.co_name,
                       code.co_firstlineno))
        return self._line

    def _line(self, frame, event, arg):
        if event == "line":
            code = frame.f_code
            self.hits.add((code.co_filename, code.co_firstlineno, code.co_name,
                           frame.f_lineno))
        return self._line

    def install(self):
        sys.settrace(self._call)

    def uninstall(self):
        sys.settrace(None)

    def unrun(self):
        """(file, line, source) of every function line not run, in file order;
        a line shared by several functions is listed once."""
        for name in sorted(self.files):
            listed = set()
            for key, line, source in function_lines(Path(name)):
                if (name, *key, line) not in self.hits and line not in listed:
                    listed.add(line)
                    yield name, line, source


def _package_files():
    spec = importlib.util.find_spec(PACKAGE)  # finds the package without importing it
    return [str(path) for path in sorted(Path(spec.origin).parent.glob("*.py"))]


def pytest_configure(config):
    tracer = LineTrace(_package_files())
    config.stash[_KEY] = tracer
    tracer.install()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    tracer = config.stash[_KEY]
    tracer.uninstall()
    unrun = list(tracer.unrun())
    terminalreporter.section("line_trace")
    terminalreporter.write_line(
        f"{len(unrun)} lines in functions of {PACKAGE} that no in-process test ran "
        "(tests that run the package in a subprocess are not traced):")
    for name, line, source in unrun:
        terminalreporter.write_line(f"{os.path.relpath(name)}:{line}: {source}")

