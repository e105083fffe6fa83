"""Static rules on the source of `src/pforge`, read with `ast` and `re`.

Each rule fails with the file, line and name that break it.
"""

import ast
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "pforge"
SOURCES = sorted(SRC.glob("*.py"))


def _trees():
    return {path: ast.parse(path.read_text(), str(path)) for path in SOURCES}


def _grep(pattern, skip=()):
    """"path:line: text" of every source line matching pattern."""
    return ["%s:%d: %s" % (path, k, line)
            for path in SOURCES if path.name not in skip
            for k, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(pattern, line)]


def test_sources_are_found():
    assert SRC / "ratpoly.py" in SOURCES


def test_no_float_in_the_exact_kernel():
    # pforge is exact over int and Fraction; any use of float fails
    assert _grep(r"\bfloat\b") == []


def test_no_fraction_zero_or_one_outside_ratpoly():
    # pforge stores integral values as int, so a Fraction zero or one
    # brings back Fraction arithmetic; only ratpoly's Poly.eval
    # accumulates in Fraction(0), by design
    assert _grep(r"Fraction\((0|1)\)", skip={"ratpoly.py"}) == []


def test_no_unused_imports():
    # a name that a module imports and never reads makes it look
    # coupled to a module it does not use
    unused = []
    for path, tree in _trees().items():
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read:
                        unused.append("%s:%d: %s" % (path, node.lineno, name))
    assert unused == []


def test_no_dead_private_helpers():
    # a module-level _name that nothing in src/pforge reads outside its
    # own definition is left over from a deleted route
    trees = _trees()
    refs = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.append((path, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                refs.append((path, node.lineno, node.attr))
            elif isinstance(node, ast.alias):
                refs.append((path, node.lineno, node.name))
    dead = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if not name.startswith("_") or name.startswith("__"):
                    continue
                if not any(n == name and not (p == path and node.lineno
                                              <= line <= node.end_lineno)
                           for p, line, n in refs):
                    dead.append("%s:%d: %s" % (path, node.lineno, name))
    assert dead == []


def test_in_place_elimination_only_from_the_dimension_tables():
    # linalg._pivots_in_place updates the rows it is given, so only
    # homology._dims, which builds its columns fresh and reads them no
    # more, may hand rows to it
    uses = []
    for path, tree in _trees().items():
        if path.name in ("linalg.py", "homology.py"):
            continue
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias)
                    else node.value if isinstance(node, ast.Constant)
                    else None)
            if name == "_pivots_in_place":
                uses.append("%s:%d: _pivots_in_place" % (path, node.lineno))
    assert uses == []


def test_no_dense_operator_products_in_l4():
    # every operator product of ncalg and superalg reads only nonzero
    # entries, through ncalg._product; a dense linalg.mat_mul there
    # brings back the products that dominated Der(A)'s closure check
    uses = []
    for path, tree in _trees().items():
        if path.name not in ("ncalg.py", "superalg.py"):
            continue
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias)
                    else None)
            if name == "mat_mul":
                uses.append("%s:%d: mat_mul" % (path, node.lineno))
    assert uses == []


_MUTABLE = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
            ast.SetComp)
_CONTAINERS = {"dict", "list", "set", "defaultdict", "OrderedDict",
               "Counter", "deque"}


def _name(node):
    """The called or decorating name of node: `f` of f, m.f and f(...)."""
    if isinstance(node, ast.Call):
        node = node.func
    return (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else None)


def _mutable(node):
    return isinstance(node, _MUTABLE) or (isinstance(node, ast.Call)
                                          and _name(node) in _CONTAINERS)


def _read_only(node, parent):
    """Whether the load of a name node only reads its container: an
    item read, the iterable of a loop, or the right side of `in`."""
    return (isinstance(parent, ast.Subscript) and parent.value is node
            and isinstance(parent.ctx, ast.Load)
            or isinstance(parent, (ast.For, ast.comprehension))
            and parent.iter is node
            or isinstance(parent, ast.Compare) and node in parent.comparators
            and all(isinstance(op, (ast.In, ast.NotIn)) for op in parent.ops))


def test_no_process_wide_caches():
    # a memo that outlives one call makes a run of many in-process jobs
    # cheaper than the CLI invocations it stands for; only the argparse
    # parser (`cli.build_parser`, @cache) and per-instance
    # cached_property may be kept, and memos such as the parser's
    # monomial texts are handed from call to call.  A module-level
    # container may only be read item by item, never changed, aliased
    # or handed on
    found = []
    for path, tree in _trees().items():
        def bad(node, what):
            found.append("%s:%d: %s" % (path, node.lineno, what))
        shared = {t.id for node in tree.body if isinstance(node, ast.Assign)
                  and _mutable(node.value)
                  for t in node.targets if isinstance(t, ast.Name)}
        parents = {id(child): node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for f in c.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                bad(node, "global " + ", ".join(node.names))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.Assign) and _mutable(item.value):
                        bad(item, "class-level container")
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                for d in node.args.defaults + node.args.kw_defaults:
                    if isinstance(d, _MUTABLE + (ast.Call,)):
                        bad(d, "default argument %s" % ast.unparse(d))
            if isinstance(node, ast.FunctionDef):
                for dec in map(_name, node.decorator_list):
                    if dec in ("cache", "lru_cache") and not (
                            path.name == "cli.py"
                            and node.name == "build_parser"):
                        bad(node, "@%s on %s" % (dec, node.name))
                    if dec == "cached_property" and id(node) not in methods:
                        bad(node, "@cached_property on %s" % node.name)
            if isinstance(node, ast.Name) and node.id in shared and \
                    isinstance(node.ctx, ast.Load) and \
                    not _read_only(node, parents[id(node)]):
                bad(node, "module-level %s used other than read" % node.id)
    assert found == []


def test_results_are_printed_only_by_serialize():
    # every result goes through serialize's one-pass writer; json.dumps
    # with an indent runs the pure-Python encoder that the writer
    # replaced, and a second printer elsewhere could drift from it
    assert _grep(r"\bjson\.dumps?\b", skip={"serialize.py"}) == []
    assert _grep(r"\bindent\s*=") == []
