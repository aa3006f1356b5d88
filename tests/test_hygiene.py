"""Static checks on the package source: no unused module-level import, no
private module-level function or class that nothing references, no
module-level function with a parameter its body never reads, no RunConfig
field and no module-level constant that nothing reads, no import of the
max-min solver or of scipy by the oracles that judge it, one lockstep
Newton loop and one modified inverse, in newton.py, no CLI flag that README
documents but the parser lacks, or the other way round, no stack-only
method X_many beside a method X, no module-level import of a scipy
subpackage (a plain `import scipy` is allowed), and no function in
`thermoflat.__all__` that neither the package nor its tests use.

There is no linter among the test dependencies, so this is the check that
keeps deleted code from coming back half-way (an import left behind, a
helper whose last caller is gone, or an argument nothing reads any more).
"""

import argparse
import ast
import inspect
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "thermoflat"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _imported_names(tree):
    """(bound name, line) for every import statement at module level."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.append((alias.asname or alias.name.split(".")[0],
                            node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out.append((alias.asname or alias.name, node.lineno))
    return out


def _references(node):
    """Names a subtree reads, as bare names or as attributes."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def test_package_has_modules():
    assert len(MODULES) > 5


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"],
    ids=lambda p: p.name,
)
def test_no_unused_module_level_import(path):
    tree = _tree(path)
    used = _references(tree)
    unused = [f"{path.name}:{line} {name}"
              for name, line in _imported_names(tree) if name not in used]
    assert not unused, f"unused imports: {unused}"


def test_no_unreferenced_private_definition():
    statements = [
        (path.name, stmt, _references(stmt))
        for path in MODULES for stmt in _tree(path).body
    ]
    unreferenced = []
    for module, node, _ in statements:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_") or node.name.startswith("__"):
            continue
        # a reference from inside its own body (recursion) does not count
        if not any(node.name in refs
                   for _, stmt, refs in statements if stmt is not node):
            unreferenced.append(f"{module}:{node.lineno} {node.name}")
    assert not unreferenced, f"private definitions never used: {unreferenced}"


def test_no_unused_parameter_of_module_level_function():
    # methods may ignore a parameter their interface passes (the abstract
    # ConvexSpec methods), and nested callbacks one their caller passes
    unused = []
    for path in MODULES:
        for node in _tree(path).body:
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            read = {sub.id for stmt in node.body for sub in ast.walk(stmt)
                    if isinstance(sub, ast.Name)}
            unused += [f"{path.name}:{node.lineno} {node.name}({a.arg})"
                       for a in params if a.arg not in read]
    assert not unused, f"parameters never read: {unused}"


def test_no_module_level_import_of_a_scipy_subpackage():
    # scipy loads a subpackage on first attribute access: `import scipy` is
    # cheap, `scipy.optimize` alone adds about 0.35 s to a cold start, and
    # most commands never call it
    eager = []
    for path in MODULES:
        for node in _tree(path).body:
            if isinstance(node, ast.Import):
                eager += [f"{path.name}:{node.lineno} import {alias.name}"
                          for alias in node.names
                          if alias.name.startswith("scipy.")]
            elif (isinstance(node, ast.ImportFrom) and node.module
                  and node.module.split(".")[0] == "scipy"):
                eager.append(f"{path.name}:{node.lineno} from {node.module}")
    assert not eager, f"module-level scipy subpackage imports: {eager}"


def _oracle_imports():
    """Each import of oracle.py as a list of its dotted parts."""
    imported = []
    for node in ast.walk(_tree(PACKAGE / "oracle.py")):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            imported += [module + [alias.name] for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name.split(".") for alias in node.names]
    return imported


def test_oracle_does_not_import_the_solver():
    # the oracles arbitrate the max-min solver: they climb with the same
    # Newton loop (newton.py), but their objective is their own, and every
    # value they return is the direct pressure of a real Gibbs measure, so
    # a fault of the loop can only read low; solving the bkl duals with the
    # solver's L-BFGS-B helper once overstated bkl
    imported = _oracle_imports()
    assert not [m for m in imported if "linearizer" in m], imported


def test_one_newton_loop_and_no_scipy_in_the_oracles():
    # the solver and both oracles climb with the one lockstep loop and its
    # one modified inverse; a second copy drifts (the oracles' own inverse
    # dropped the small eigenvalues that the solver's floors), and with no
    # L-BFGS-B fallback left the oracles need no scipy
    defined = {(path.name, node.name) for path in MODULES
               for node in ast.walk(_tree(path))
               if isinstance(node, ast.FunctionDef)
               and node.name in ("_newton", "_modified_inverse")}
    assert defined == {("newton.py", "_newton"), ("newton.py", "_modified_inverse")}
    imported = _oracle_imports()
    assert not [m for m in imported if "scipy" in m], imported


def test_every_run_config_field_is_read():
    # a setting nothing reads only changes the echoed config of a report;
    # the CLI copying its flag `args.<field>` into the config is no read
    fields = [stmt.target.id
              for node in _tree(PACKAGE / "config.py").body
              if isinstance(node, ast.ClassDef) and node.name == "RunConfig"
              for stmt in node.body if isinstance(stmt, ast.AnnAssign)]
    read = {sub.attr for path in MODULES if path.name != "config.py"
            for sub in ast.walk(_tree(path))
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
            and not (isinstance(sub.value, ast.Name) and sub.value.id == "args")}
    unread = [f for f in fields if f not in read]
    assert fields and not unread, f"RunConfig fields nothing reads: {unread}"


def test_every_module_constant_is_read():
    # an UPPER_CASE module-level name is a tolerance or a stage setting; one
    # nothing loads outlived the code it tuned
    constants = [
        (path.name, node.lineno, target.id)
        for path in MODULES for node in _tree(path).body
        if isinstance(node, ast.Assign) for target in node.targets
        if isinstance(target, ast.Name) and target.id.isupper()
    ]
    read = {sub.id if isinstance(sub, ast.Name) else sub.attr
            for path in MODULES for sub in ast.walk(_tree(path))
            if isinstance(sub, (ast.Name, ast.Attribute))
            and isinstance(sub.ctx, ast.Load)}
    unread = [f"{module}:{line} {name}"
              for module, line, name in constants if name not in read]
    assert constants and not unread, f"constants nothing reads: {unread}"


def test_readme_documents_exactly_the_cli_flags():
    # a flag removed from the parser must not stay documented, and a new
    # one must be documented
    from thermoflat import cli

    section = (ROOT / "README.md").read_text().split("\n## CLI\n")[1]
    documented = set(re.findall(r"--[a-z][a-z-]*", section.split("\n## ")[0]))
    parsers = [cli._build_parser()]
    for action in parsers[0]._actions:
        if isinstance(action, argparse._SubParsersAction):
            parsers += action.choices.values()
    options = {flag for parser in parsers for action in parser._actions
               for flag in action.option_strings} - {"-h", "--help"}
    assert documented == options


def test_no_method_has_a_many_twin():
    # value, conjugate and gradient each take a point or a stack of points
    # in one method; a stack-only X_many beside X lets the two forms drift
    # (a grid's value_many once skipped the range check of its value)
    classes = [node for path in MODULES for node in ast.walk(_tree(path))
               if isinstance(node, ast.ClassDef)]
    methods = {f.name for cls in classes for f in cls.body
               if isinstance(f, ast.FunctionDef)}
    twins = [f"{cls.name}.{f.name}" for cls in classes for f in cls.body
             if isinstance(f, ast.FunctionDef) and f.name.endswith("_many")
             and f.name[: -len("_many")] in methods]
    assert not twins, f"stack-only twins of point methods: {twins}"


def test_every_exported_function_is_used():
    # a function in thermoflat.__all__ that no module of the package and no
    # test imports, or reads as an attribute of a thermoflat module, is
    # surface nothing exercises; classes are exempt, as they also name the
    # types the package returns (GameSolution, RPFData)
    import thermoflat

    used, stems = set(), {p.stem for p in MODULES}
    paths = [p for p in MODULES if p.name != "__init__.py"]
    for path in paths + sorted((ROOT / "tests").glob("*.py")):
        tree = _tree(path)
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update(alias.asname or alias.name.split(".")[0]
                               for alias in node.names
                               if alias.name.split(".")[0] == "thermoflat")
            elif isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("thermoflat")):
                used.update(alias.name for alias in node.names)
                modules.update(alias.asname or alias.name for alias in node.names
                               if alias.name in stems)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                head = node.value
                while isinstance(head, ast.Attribute):
                    head = head.value
                if isinstance(head, ast.Name) and head.id in modules:
                    used.add(node.attr)
    unused = [name for name in thermoflat.__all__
              if inspect.isfunction(getattr(thermoflat, name))
              and name not in used]
    assert not unused, f"exported functions nothing uses: {unused}"
