"""Package hygiene: every global a function reads is defined, and no import cycle bites."""

import builtins
import importlib.util
import subprocess
import symtable
import sys
from pathlib import Path

import pytest

PACKAGE = Path(importlib.util.find_spec("nsdial").origin).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _undefined_globals(path: Path) -> list[str]:
    """module/function/name for each global a function refers to that nothing defines."""
    top = symtable.symtable(path.read_text(), str(path), "exec")
    defined = {s.get_name() for s in top.get_symbols() if s.is_assigned() or s.is_imported()}
    defined |= set(dir(builtins)) | {"__file__", "__name__", "__doc__"}
    out = []

    def walk(table: symtable.SymbolTable) -> None:
        for child in table.get_children():
            if child.get_type() == "function":
                for sym in child.get_symbols():
                    if sym.is_global() and sym.get_name() not in defined:
                        out.append(f"{path.stem}/{child.get_name()}/{sym.get_name()}")
            walk(child)

    walk(top)
    return out


def test_functions_refer_only_to_defined_globals():
    found = [name for p in sorted(PACKAGE.glob("*.py")) for name in _undefined_globals(p)]
    assert found == []


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first_in_fresh_interpreter(module):
    # a bare package object skips __init__, so this module is the first one loaded
    code = (
        "import importlib, sys, types\n"
        "pkg = types.ModuleType('nsdial')\n"
        f"pkg.__path__ = [{str(PACKAGE)!r}]\n"
        "sys.modules['nsdial'] = pkg\n"
        f"importlib.import_module('nsdial.{module}')\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr


def test_package_imports_in_fresh_interpreter():
    code = f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import nsdial"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
