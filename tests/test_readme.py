"""The names README.md cites exist: every backticked test name, freqboot
``module.NAME`` and ``BENCH_*.json`` file."""

import ast
import importlib
import os
import re

import freqboot

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TESTS = os.path.join(ROOT, "tests")


def _readme_spans() -> list[str]:
    """README.md's inline code spans, outside fenced blocks, with any line
    break inside a span read as a space."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = re.sub(r"```.*?```", "", fh.read(), flags=re.S)
    return [" ".join(span.split()) for span in re.findall(r"`([^`]+)`", text)]


def _test_names() -> set[str]:
    """Every test function and test class of ``tests/``, each test method
    also as ``Class::method``."""
    names = set()
    for entry in sorted(os.listdir(TESTS)):
        if not entry.endswith(".py"):
            continue
        with open(os.path.join(TESTS, entry), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_"):
                names.add(node.name)
            elif isinstance(node, ast.ClassDef) and node.name.startswith("Test"):
                names.add(node.name)
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and item.name.startswith("test_")):
                        names.update((item.name, f"{node.name}::{item.name}"))
    return names


def _owner(name: str):
    """The freqboot module or public class called ``name``, or None."""
    try:
        return importlib.import_module(f"freqboot.{name}")
    except ImportError:
        return getattr(freqboot, name, None) if name[0].isupper() else None


def test_readme_names_exist():
    spans = _readme_spans()
    tests = [s for s in spans
             if re.fullmatch(r"(Test\w+(::test_\w+)?|test_\w+)(\[[^\]]*\])?", s)]
    known = _test_names()
    missing = [s for s in tests if s.split("[")[0] not in known]
    assert not missing, f"README names tests that do not exist: {missing}"

    dotted = [(s, _owner(s.split(".")[0])) for s in spans
              if re.fullmatch(r"[A-Za-z_]\w*\.[A-Za-z_]\w*", s)]
    dotted = [(s, owner) for s, owner in dotted if owner is not None]
    missing = [s for s, owner in dotted
               if not hasattr(owner, s.split(".")[1])]
    assert not missing, f"README names attributes that do not exist: {missing}"

    benches = [s for s in spans if re.fullmatch(r"BENCH_\w+\.json", s)]
    missing = [s for s in benches if not os.path.isfile(os.path.join(ROOT, s))]
    assert not missing, f"README names bench files that do not exist: {missing}"

    # the patterns still find what the README cites
    assert len(tests) >= 20 and len(benches) >= 7
    assert {"bootstrap._THREAD_ROW", "simulate.DENSE_LIMIT"} <= {
        s for s, _ in dotted}
