"""Every import in src/vplab is used, checked with the compiler's symbol tables.

A name counts as used where its own scope references it, or where a nested
scope references it as a global or free name. A parameter or local of the
same name in a nested scope shadows it, so a text search would count that
as a use while this check does not. Names listed in a module's `__all__`
are re-exports and count as used.

Importing the package and its CLI does not load scipy, and neither does any
command: vplab runs on numpy alone.

The modules form layers, and each imports only the layers below it.
"""

import ast
import importlib
import json
import subprocess
import symtable
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "vplab"
LAYERS = ("grid", "macroscopic", "collision", "lineardecay", "solver", "weyl", "cli")


def _outer_uses(table):
    """Names the scopes nested in `table` reference from outside themselves."""
    names = set()
    for child in table.get_children():
        names |= {s.get_name() for s in child.get_symbols()
                  if s.is_referenced() and (s.is_global() or s.is_free())}
        names |= _outer_uses(child)
    return names


def unused_imports(table, exported=()):
    """(scope name, imported name) pairs of `table` and its nested scopes never used."""
    used = ({s.get_name() for s in table.get_symbols() if s.is_referenced()}
            | _outer_uses(table) | set(exported))
    out = [(table.get_name(), s.get_name()) for s in table.get_symbols()
           if s.is_imported() and s.get_name() not in used]
    for child in table.get_children():
        out += unused_imports(child)
    return out


def test_no_unused_imports_in_package():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module("vplab" if path.stem == "__init__"
                                         else f"vplab.{path.stem}")
        table = symtable.symtable(path.read_text(encoding="utf-8"), str(path), "exec")
        bad = unused_imports(table, getattr(module, "__all__", ()))
        if bad:
            found[path.name] = bad
    assert found == {}


def test_package_import_leaves_scipy_linalg_unloaded():
    # the velocity operators are 1-D factors and every solve is numpy's, so
    # importing the package or the CLI loads no scipy module at all
    code = ("import sys, vplab, vplab.cli; "
            "assert 'scipy.linalg' not in sys.modules, sorted(sys.modules); "
            "assert 'scipy' not in sys.modules, sorted(sys.modules)")
    subprocess.run([sys.executable, "-c", code], check=True)


def test_propagator_commands_leave_scipy_linalg_unloaded(tmp_path):
    # the propagators are inverted and the coercivity probe solved with
    # numpy: scipy.linalg would add 8 MB to the peak RSS of every run that
    # builds propagators, and 20 MB to collision-check's
    cfg = tmp_path / "decay.json"
    cfg.write_text(json.dumps({"grid": {"nv": 8, "nx": 8}, "decay": {
        "n_y": 4, "t_end": 20.0, "fit_lo": 5.0, "fit_hi": 20.0}}))
    runs = [["simulate", "--nv", "8", "--nx", "16"], ["decay", "--config", str(cfg)],
            ["moments-check", "--nv", "8", "--nx", "4"], ["collision-check", "--nv", "8"],
            ["energy-report", "--nv", "8", "--nx", "8", "--t-end", "0.75"], ["symbols-check"]]
    code = ("import sys; from vplab.cli import main; "
            f"rcs = [main(a + ['--out', {str(tmp_path)!r} + '/' + a[0]]) for a in {runs!r}]; "
            # moments-check at nv 8 runs to its report and then misses its thresholds
            "assert rcs == [0, 0, 1, 0, 0, 0], rcs; "
            "assert 'scipy.linalg' not in sys.modules, 'scipy.linalg loaded'; "
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)")
    r = subprocess.run([sys.executable, "-W", "ignore", "-c", code],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "moments-check" / "moments_report.json").exists()
    assert (tmp_path / "energy-report" / "inequality_report.json").exists()


def test_parameter_shadowing_an_import_is_not_a_use():
    src = ("from dataclasses import field\n"
           "import numpy as np\n\n"
           "def f(field):\n"
           "    return np.asarray(field)\n")
    assert unused_imports(symtable.symtable(src, "m.py", "exec")) == [("top", "field")]


def relative_imports(source):
    """Modules of the package that `source` imports, at module level or in
    any function: `from .m import x` names m, `from . import m` names m."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {a.name for a in node.names}
    return found


def test_each_module_imports_only_lower_layers():
    modules = {path.stem for path in SRC.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)
    imports = {mod: relative_imports((SRC / f"{mod}.py").read_text(encoding="utf-8"))
               for mod in LAYERS}
    # nested and package imports count: weyl's function-local
    # `from .solver import PsiWeight`, cli's `from . import weyl`
    assert "solver" in imports["weyl"] and "weyl" in imports["cli"]
    upward = {(mod, dep) for mod, deps in imports.items() for dep in deps
              if LAYERS.index(dep) >= LAYERS.index(mod)}
    assert upward == set()
