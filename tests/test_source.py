"""Properties of the library source itself, checked by parsing it."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "superext"
TESTS = ROOT / "tests"


def test_no_assert_in_library_code():
    # `python -O` strips assert statements: an internal check must raise instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert list(SRC.glob("*.py")), SRC
    assert found == []


def _used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, including those inside string annotations."""
    used, annotations = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in filter(None, annotations):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


def test_no_unused_imports_from_sibling_modules():
    # a deletion must not leave behind the imports of what it deleted
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        used = _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    name = alias.asname or alias.name
                    if name not in used:
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def _third_party_imports_of_tests() -> set[str]:
    """Top-level modules imported by tests/*.py that are neither stdlib nor local."""
    local = {p.stem for p in TESTS.glob("*.py")} | {"superext"}
    found = set()
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return {m for m in found if m not in sys.stdlib_module_names and m not in local}


def test_test_dependencies_are_declared():
    # the `test` extra and the CI install step name every tool the suite
    # imports; pyproject.toml is read as text (no tomllib on Python 3.10)
    needed = _third_party_imports_of_tests()
    assert "pytest" in needed
    extra = re.search(r"^test = \[(.*)\]$", (ROOT / "pyproject.toml").read_text(), re.M)
    ci = re.search(r"name: Install the test tools\n\s+run: python -m pip install (.*)",
                   (ROOT / ".github" / "workflows" / "tests.yml").read_text())
    assert extra and ci
    assert needed - set(re.findall(r'"([^"]+)"', extra.group(1))) == set()
    assert needed - set(ci.group(1).split()) == set()



def test_delta_stencil_has_one_caller():
    # one differential assembler: a filter on its rows or columns must not
    # fork a second one, so `_delta_stencil` is read only in `differential_matrix`
    found = []

    def visit(node, where, name):
        for child in ast.iter_child_nodes(node):
            if (getattr(child, "id", None) or getattr(child, "attr", None)) == "_delta_stencil":
                found.append(f"{name}:{where}")
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else where, name)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), "<module>", path.name)
    assert found == ["cochains.py:differential_matrix"]


def test_leibniz_rule_and_block_table_written_once():
    # the graded Leibniz residual and the h (+) g block table each have one
    # writer, read by exactly the two jobs that need them
    assert _references("_leibniz_terms") == {
        "superlie.py:is_derivation", "superlie.py:_derivation_basis_of_parity.leibniz_rows"}
    assert _references("_block_sum") == {
        "superlie.py:direct_sum", "extensions.py:raw_extension_algebra"}


def _references(name: str) -> set[str]:
    """"file:enclosing def" for every read of `name`, as a name or an attribute, under src/."""
    found = set()

    def visit(node, where, path):
        for child in ast.iter_child_nodes(node):
            if (getattr(child, "id", None) or getattr(child, "attr", None)) == name:
                found.add(f"{path.name}:{'.'.join(where) or '<module>'}")
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, where + (child.name,) if is_def else where, path)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), (), path)
    return found


def test_one_structure_view():
    # an algebra stores its structure constants once, as the integer
    # `structure` that `make_algebra` writes; the dense `brackets` is its one
    # cached view, read only for output, and nothing clears the constants
    # again per call: lcm is taken only where a scale is made
    tree = ast.parse((SRC / "superlie.py").read_text(encoding="utf-8"))
    cls = next(n for n in tree.body if getattr(n, "name", None) == "SuperLieAlgebra")
    fields = [n.target.id for n in cls.body if isinstance(n, ast.AnnAssign)]
    cached = [n.name for n in cls.body if isinstance(n, ast.FunctionDef)
              and any(getattr(d, "id", None) == "cached_property" for d in n.decorator_list)]
    assert fields == ["space", "structure"]
    assert cached == ["brackets"]
    assert _references("nonzeros") == set()
    assert {s for s in _references("lcm") if not s.startswith("gvs.py:")} == {
        "superlie.py:make_algebra", "cohomology.py:_torus", "cochains.py:differential_matrix"}
    readers = {path.name for path in SRC.glob("*.py")
               for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(n, ast.Attribute) and n.attr == "brackets"}
    assert readers == {"formats.py", "cli.py"}


def test_one_map_view():
    # a map stores its nonzero entries once, as the sparse `columns` that
    # its constructors write; the dense `matrix` is its one cached view, read
    # only for output, and the dense helpers it replaced are gone
    tree = ast.parse((SRC / "gvs.py").read_text(encoding="utf-8"))
    cls = next(n for n in tree.body if getattr(n, "name", None) == "GradedLinearMap")
    fields = [n.target.id for n in cls.body if isinstance(n, ast.AnnAssign)]
    cached = [n.name for n in cls.body if isinstance(n, ast.FunctionDef)
              and any(getattr(d, "id", None) == "cached_property" for d in n.decorator_list)]
    assert fields == ["domain", "codomain", "degree", "columns"]
    assert cached == ["matrix"]
    readers = {path.name for path in SRC.glob("*.py")
               for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(n, ast.Attribute) and n.attr == "matrix"}
    assert readers == {"formats.py", "cli.py"}
    defined = {n.name for path in SRC.glob("*.py")
               for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    assert defined & {"_square", "from_columns", "mat_mul", "mat_vec"} == set()


def test_one_cohomology_path():
    # cohomology eliminates one block, of torus weight 0 (the whole complex
    # when there is no torus), on one path; a report holds what that
    # elimination computed, `basis` is listed where it is read, and
    # `representatives` is its one cached view
    tree = ast.parse((SRC / "cohomology.py").read_text(encoding="utf-8"))
    top = {getattr(n, "name", None): n for n in tree.body}
    branches = [n for n in ast.walk(top["_weight_cohomology"]) if isinstance(n, (ast.If, ast.IfExp))
                and "torus" in {x.id for x in ast.walk(n.test) if isinstance(x, ast.Name)}]
    assert branches == []
    cls = top["WeightReport"]
    fields = [n.target.id for n in cls.body if isinstance(n, ast.AnnAssign)]
    cached = [n.name for n in cls.body if isinstance(n, ast.FunctionDef)
              and any(getattr(d, "id", None) == "cached_property" for d in n.decorator_list)]
    plain = [n.name for n in cls.body if isinstance(n, ast.FunctionDef)
             and any(getattr(d, "id", None) == "property" for d in n.decorator_list)]
    assert fields == ["module", "arity", "weight", "dim_cocycles", "dim_coboundaries",
                      "representative_coords"]
    assert "basis" in plain
    assert cached == ["representatives"]
    assert not [n for n in ast.walk(tree) if isinstance(n, ast.Call)
                and getattr(n.func, "id", None) == "vars"]
    assert {"delta_matrix", "_obstruction_class"} & set(top) == set()


def test_one_derivation_record():
    # der(h) is one record that carries out(h): its eliminated basis and
    # out(h)'s brackets are its cached views, and no wrapper record or
    # builder of out(h) sits beside it
    tree = ast.parse((SRC / "superlie.py").read_text(encoding="utf-8"))
    cls = next(n for n in tree.body if getattr(n, "name", None) == "DerivationSpace")
    cached = [n.name for n in cls.body if isinstance(n, ast.FunctionDef)
              and any(getattr(d, "id", None) == "cached_property" for d in n.decorator_list)]
    assert cached == ["_coordinates", "out"]
    defined = {n.name for path in SRC.glob("*.py")
               for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    assert defined & {"OuterAlgebra", "outer_algebra"} == set()


LAYERS = ("gvs", "superlie", "catalog", "cochains", "extensions", "cohomology", "formats", "cli")


def test_layers_import_downward():
    # every import of a sibling, at the top or inside a function, names a
    # lower layer, so no import cycle needs a deferred import to break it;
    # `from . import x` names x, or the package itself for a plain attribute
    assert sorted(LAYERS) == sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
    rank = {name: k for k, name in enumerate(("__init__",) + LAYERS)}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for name in [node.module] if node.module else [a.name for a in node.names]:
                    target = name if name in rank else "__init__"
                    if rank[target] >= rank[path.stem]:
                        found.append(f"{path.name}:{node.lineno} imports {target}")
    assert found == []


def test_cli_makes_each_decision_once():
    # one table declares the subcommands, one helper reads map files, and
    # `main` dispatches every command the same way
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    called = [getattr(n.func, "attr", None) or getattr(n.func, "id", None)
              for n in ast.walk(tree) if isinstance(n, ast.Call)]
    assert called.count("add_parser") == 1
    assert called.count("parse_map") == 1
    main = next(n for n in tree.body if getattr(n, "name", None) == "main")
    assert not {n.id for n in ast.walk(main) if isinstance(n, ast.Name) and n.id.startswith("cmd_")}


def test_mutant_catalog_is_not_stale():
    # every snippet of the mutation catalog occurs once in its file: a
    # refactor that deletes a mutant's target fails here, not only in the
    # slow run of the catalog itself
    from mutants import stale_entries

    assert stale_entries() == []
