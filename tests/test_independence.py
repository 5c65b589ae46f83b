"""The two routes stay independent: a check of the package's own imports.

Every cross-check pits the closed forms and the exponential map against the
scanning oracle, so neither side may reach into the other.  ``closedform``
imports only ``units`` and ``electrostatics.SheetArray``; ``oracle`` imports
neither ``closedform`` nor any function of the map.  The check reads the
source with :mod:`ast`, so an import inside a function counts too.
"""

import ast
from pathlib import Path

import sheetcrystal

PACKAGE = Path(sheetcrystal.__file__).parent
MAP_FUNCTIONS = {"ground_state_from_electrostatics", "to_quantum", "check_normalizable"}


def _imports(source):
    """(module, name) of every package-internal import; name is None for a whole module.

    ``module`` is relative to the package, and ``"__init__"`` stands for the
    package itself.
    """
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "sheetcrystal":
                    found.add((rest or "__init__", None))
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                head, _, rest = (node.module or "").partition(".")
                if head != "sheetcrystal":
                    continue
                module = rest or "__init__"
            else:
                module = node.module
            for alias in node.names:
                found.add((module, alias.name) if module else (alias.name, None))
    return found


def _module_imports(module):
    return _imports((PACKAGE / f"{module}.py").read_text())


def test_import_scan_sees_every_form():
    source = (
        "import numpy\nimport sheetcrystal\nimport sheetcrystal.oracle\n"
        "from . import duality\nfrom .units import UnitSystem\n"
        "from sheetcrystal import to_quantum\nfrom sheetcrystal.closedform import psi\n"
        "def f():\n    from .duality import check_normalizable\n"
    )
    assert _imports(source) == {
        ("__init__", None),
        ("oracle", None),
        ("duality", None),
        ("units", "UnitSystem"),
        ("__init__", "to_quantum"),
        ("closedform", "psi"),
        ("duality", "check_normalizable"),
    }


def test_closedform_imports_only_units_and_the_sheet_array():
    imports = _module_imports("closedform")
    assert ("electrostatics", "SheetArray") in imports
    for module, name in imports:
        assert module == "units" or (module, name) == ("electrostatics", "SheetArray"), (module, name)


def test_oracle_reaches_neither_closedform_nor_the_map():
    imports = _module_imports("oracle")
    assert imports  # the scan saw the oracle's own imports
    for module, name in imports:
        assert module != "closedform", (module, name)
        assert name not in MAP_FUNCTIONS, (module, name)
        # a whole module or the package would put the map functions in reach
        assert not (name is None and module in {"duality", "__init__"}), (module, name)
