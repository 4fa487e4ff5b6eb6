"""Package surface: what ``import hyplab`` loads and what it exports."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hyplab

MODULES = [
    "appendixcheck", "chebconnect", "cli", "core", "dual", "families",
    "linearization", "measures", "quadrature", "verify",
]


def test_import_leaves_scipy_unloaded():
    # scipy is imported only inside the functions that need it, which keeps
    # it out of the start-up cost of every command
    src = str(Path(hyplab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, hyplab; print(sorted(m for m in sys.modules "
         "if m == 'scipy' or m.startswith('scipy.')))"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"hyplab.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing


def test_package_imports_resolve_to_their_modules():
    # every name hyplab/__init__.py takes from a submodule is public there
    tree = ast.parse(Path(hyplab.__file__).read_text())
    for node in tree.body:
        if not (isinstance(node, ast.ImportFrom) and node.level):
            continue
        module = importlib.import_module(f"hyplab.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, (node.module, alias.name)
            assert getattr(hyplab, alias.name) is getattr(module, alias.name)


def test_no_assert_statements_in_the_package():
    # assert statements vanish under python -O; runtime checks must raise
    found = []
    for path in sorted(Path(hyplab.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found


def test_core_imports_no_other_hyplab_module():
    # core is the substrate every family fills; it may not know of one,
    # not even for type checking
    core = Path(hyplab.__file__).resolve().parent / "core.py"
    found = []
    for node in ast.walk(ast.parse(core.read_text())):
        if isinstance(node, ast.ImportFrom):
            names = ["hyplab" if node.level else node.module]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        if any(name.split(".")[0] == "hyplab" for name in names):
            found.append(f"core.py:{node.lineno}")
    assert not found


def test_no_module_reads_a_backbone_attribute():
    # families fill the sequence's columns; no layer reaches past them
    found = []
    for path in sorted(Path(hyplab.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "backbone":
                found.append(f"{path.name}:{node.lineno}")
    assert not found


def test_only_dual_names_its_profile_kernel():
    # every other layer reads the profile through max_abs_profile and the
    # verdicts through DualEstimate, so no second coverage rule grows
    found = []
    for path in sorted(Path(hyplab.__file__).resolve().parent.glob("*.py")):
        if path.name == "dual.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias)
                    else None)
            if name == "_profile":
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    assert not found


def test_only_families_builds_a_sequence():
    # every other layer takes its sequences from make_family, so the
    # construction of a family, the convex one included, lives in one place
    builders = {"CoeffSequence", "ConvexSeqSpec", "_ConvexSequence"}
    found = []
    for path in sorted(Path(hyplab.__file__).resolve().parent.glob("*.py")):
        if path.name == "families.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in builders:
                found.append(f"{path.name}:{node.lineno}")
    assert not found


def _reads_tag(expr, bound) -> bool:
    return any(
        (isinstance(n, ast.Attribute) and n.attr == "family_tag")
        or (isinstance(n, ast.Name) and n.id in bound)
        for n in ast.walk(expr)
    )


def test_no_module_dispatches_on_the_family_tag():
    # each family's builder fills c(n), h(n) and the measure; outside
    # families.py no layer branches on the tag, on a name bound from it,
    # or reads a parameter by name
    found = []
    for path in sorted(Path(hyplab.__file__).resolve().parent.glob("*.py")):
        if path.name == "families.py":
            continue
        tree = ast.parse(path.read_text())
        bound = {
            target.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign) and _reads_tag(node.value, ())
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                branches = any(_reads_tag(e, bound) for e in (node.left, *node.comparators))
            elif isinstance(node, ast.Match):
                branches = _reads_tag(node.subject, bound)
            elif isinstance(node, ast.Subscript):
                branches = _reads_tag(node.slice, bound) or (
                    isinstance(node.value, ast.Attribute) and node.value.attr == "params"
                )
            else:
                continue
            if branches:
                found.append(f"{path.name}:{node.lineno}")
    assert not found


def _defaulted_parameters():
    """(callee, parameter, call position or None) per defaulted parameter
    of a public function; a public method is called by its own name and
    ``__init__`` by its class's, both without ``self``."""
    for name in MODULES:
        module = importlib.import_module(f"hyplab.{name}")
        tree = ast.parse(Path(module.__file__).read_text())
        for node in tree.body:
            if getattr(node, "name", None) not in module.__all__:
                continue
            if isinstance(node, ast.FunctionDef):
                yield from _defaults_of(node.name, node, 0)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef):
                        continue
                    if item.name == "__init__":
                        yield from _defaults_of(node.name, item, 1)
                    elif not item.name.startswith("_"):
                        yield from _defaults_of(item.name, item, 1)


def _defaults_of(callee, fn, skip):
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], start=first):
        yield callee, arg.arg, i - skip
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield callee, arg.arg, None


# ROADMAP's "test-only exports" keep this option for the tests of the closed
# forms: modified=False is the walk polynomial K_n the paper starts from
TEST_ONLY_OPTIONS = {"km_special_closed_forms(modified)"}


def test_every_default_is_set_by_some_caller():
    # a parameter that every production call leaves at its default is a
    # constant in disguise: tests and demos do not count as callers.  A
    # call with *args or **kwargs counts as setting all of them
    root = Path(__file__).resolve().parent.parent
    calls = {}
    for path in (
        *Path(hyplab.__file__).resolve().parent.glob("*.py"),
        *(root / "benchmarks").glob("*.py"),
    ):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            calls.setdefault(name, []).append((
                float("inf") if starred else len(node.args),
                {k.arg for k in node.keywords},
            ))
    unset = [
        f"{callee}({param})"
        for callee, param, pos in _defaulted_parameters()
        if not any(
            param in kws or None in kws or (pos is not None and npos > pos)
            for npos, kws in calls.get(callee, ())
        )
    ]
    assert sorted(unset) == sorted(TEST_ONLY_OPTIONS)


# public names that no module or benchmark reads, each kept for a reason of
# its own; a name leaves the list when it gains a reader or is deleted
UNREAD_ALLOWED = {
    "monic_coeffs": "the monic sigma_n of the paper's appendix, as coefficients",
    "linearize": "one row g(m, n; .) without a table, the product formula",
    "h1_lt_2_region": "the paper's region of (alpha, beta) where h(1) < 2",
    "haar_term_estimate": "the paper's quadratic that keeps each Haar factor >= 1",
    "km_special_closed_forms": "the paper's alpha = 2 Karlin-McGregor closed forms",
    "exclusion_bound": "the paper's degree-2 band that no dual point enters",
    "translate": "l1(h) operation; a criterion for it waits for ROADMAP item 5",
    "convolve": "l1(h) operation; a criterion for it waits for ROADMAP item 5",
    "l1h_norm": "l1(h) operation; a criterion for it waits for ROADMAP item 5",
    "szwarc_criterion": "l1(h) positivity test; a criterion waits for ROADMAP item 5",
    "connection_row_checks": "ROADMAP item 17's coverage certificate is to read it",
}


def _reads() -> set:
    """(module, name) for each read in the package and the benchmarks: a
    name loaded in its own module outside its own definition, a ``from``
    import, or ``<module alias>.<name>``.  ``__init__.py`` does not count."""
    pkg = Path(hyplab.__file__).resolve().parent
    root = pkg.parent.parent
    reads = set()
    for path in (*pkg.glob("*.py"), *(root / "benchmarks").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        aliases = {}
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            source = f"hyplab.{node.module}" if node.level and node.module else (
                "hyplab" if node.level else node.module)
            for alias in node.names:
                if source == "hyplab" and alias.name in MODULES:
                    aliases[alias.asname or alias.name] = alias.name
                elif source and source.startswith("hyplab."):
                    reads.add((source.partition(".")[2], alias.name))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                reads.add((aliases[node.value.id], node.attr))
        if path.parent != pkg:
            continue
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            reads.update(
                (path.stem, node.id) for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                and node.id != own
            )
    return reads


def test_every_public_function_has_a_reader():
    # a public function or class that no command, criterion or benchmark
    # reads is either on the allowance list or gone; tests and demos are
    # not readers
    reads = _reads()
    unread = set()
    for name in MODULES:
        module = importlib.import_module(f"hyplab.{name}")
        unread.update(
            node.name for node in ast.parse(Path(module.__file__).read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name in module.__all__ and (name, node.name) not in reads
        )
    # (unread and not allowed, allowed but read or gone)
    assert (sorted(unread - set(UNREAD_ALLOWED)),
            sorted(set(UNREAD_ALLOWED) - unread)) == ([], [])


def test_only_haar_values_reads_the_haar_cache():
    # a family that supplies its own h(n) needs one reader of the cache
    found = []
    for path in sorted(Path(hyplab.__file__).resolve().parent.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if any(isinstance(node, ast.Attribute) and node.attr == "_h_cache"
                   for node in ast.walk(stmt)):
                found.append(f"{path.stem}.{getattr(stmt, 'name', stmt.lineno)}")
    assert found == ["core.haar_values"]
