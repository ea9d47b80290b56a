import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hypermaps"


def test_no_assert_statements_in_src():
    """Verification in the package raises real exceptions: an assert
    statement is stripped under python -O."""
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_one_rational_backend():
    """Only rational.py imports a rational type; every other module takes
    Q from it."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "rational.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] in ("fractions", "gmpy2")
                   for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_oracle_imports_no_other_engine():
    """The crosscheck is worth something only because its three engines
    are independent: the oracle borrows nothing from another module of
    the package (no characters from `partitions` or `tau`, nothing from
    `recursion`)."""
    path = SRC / "oracle.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = ["." * node.level + (node.module or "")]
        else:
            continue
        if any(name.startswith(".") or name.split(".")[0] == "hypermaps"
               for name in names):
            found.append(f"oracle.py:{node.lineno}")
    assert found == []


def test_no_unused_imports_in_src():
    """Every name a module imports is read in that module (package
    __init__ re-exports and __future__ imports aside)."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.split(".")[0]
                         for alias in node.names]
            elif isinstance(node, ast.ImportFrom) \
                    and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}"
                      for name in names if name not in read]
    assert found == []


def _broad(handler):
    """Whether an except clause catches every exception."""
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) \
        else [handler.type]
    return any(t is None or isinstance(t, ast.Name)
               and t.id in ("Exception", "BaseException") for t in types)


def test_one_broad_except_in_src():
    """The only broad `except Exception` is the one in `run_crosscheck`'s
    check loop, which turns each check's exception into that check's error
    record; another one could hide a check's neighbours behind one
    record."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            found += [f"{path.name}:{getattr(top, 'name', top.lineno)}"
                      for node in ast.walk(top)
                      if isinstance(node, ast.ExceptHandler) and _broad(node)]
    assert found == ["checks.py:run_crosscheck"]



def _name(node):
    """The name a Name or an Attribute node reads, else None."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def test_one_order_check():
    """N >= 2 is `rational.need_order` alone; the oracle, which imports
    nothing from the package, keeps its own copy in `Profile`.  A bound
    is an ordering comparison of N (or n) with 2; polar's `N == 2`, the
    degenerate base N - 1 = 1, is a case and not a bound.  The
    self-checks read divisibility by N from `oracle.Profile`, so
    checks.py takes nothing modulo N."""
    bounds = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("rational.py", "oracle.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Compare):
                continue
            sides = [node.left] + node.comparators
            found += [f"{path.name}:{node.lineno}"
                      for op, a, b in zip(node.ops, sides, sides[1:])
                      if isinstance(op, bounds)
                      for x, y in ((a, b), (b, a))
                      if _name(x) in ("N", "n")
                      and isinstance(y, ast.Constant) and y.value == 2]
    path = SRC / "checks.py"
    found += [f"checks.py:{node.lineno}: % N"
              for node in ast.walk(ast.parse(path.read_text(), str(path)))
              if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
              and _name(node.right) == "N"]
    assert found == []


def test_one_zn_completion():
    """The Z_N rotation completes a tensor in one place: `Recursion._rotate`
    is read only inside `Recursion._complete`, and both `_compute` and the
    cache's `_load_cached` return through `_complete`."""
    found, callers = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        inside = set()
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and cls.name == "Recursion":
                for fn in cls.body:
                    if not isinstance(fn, ast.FunctionDef):
                        continue
                    if fn.name == "_complete":
                        inside = {id(node) for node in ast.walk(fn)}
                    if any(isinstance(node, ast.Call)
                           and _name(node.func) == "_complete"
                           for node in ast.walk(fn)):
                        callers.add(fn.name)
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr == "_rotate" and id(node) not in inside]
    assert found == []
    assert callers == {"_compute", "_load_cached"}


def _owners(tree):
    """The name of the innermost function around each node, by id: ast.walk
    visits an enclosing function before the functions it holds."""
    owner = {}
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                owner[id(node)] = fn.name
    return owner


def test_one_pole_order():
    """The pole order 6g - 4 + 2n of omega_{g,n} is written once, in
    `recursion.pole_order`: the expansion order M, the `omega` guard and
    `_compute`'s bound read it."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = _owners(tree)
        found += [(path.name, owner.get(id(node)))
                  for node in ast.walk(tree)
                  if isinstance(node, ast.BinOp)
                  and re.fullmatch(r"6 \* \w+ - 4 \+ 2 \* \w+",
                                   ast.unparse(node))]
    assert found == [("recursion.py", "pole_order")]


def test_one_decision_rule():
    """The genus bound has one owner: `max_genus` is read only in
    oracle.py, where `Profile.decided` joins it with divisibility, and
    `decided` is read only by `cli._cmd_rhm`, before it picks an
    engine."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = _owners(tree)
        found += [(path.name, node.attr, owner.get(id(node)))
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr in ("max_genus", "decided")]
    assert found == [("cli.py", "decided", "_cmd_rhm"),
                     ("oracle.py", "max_genus", "decided")]


def test_one_zero_rule():
    """A series drops a zero coefficient in one place: in series.py a
    coefficient ring's `is_zero(v)` is called only in `_stored`, which
    every UniSeries is built through, and a series is allocated by
    `__new__` only in its class's `_new`, which filters zeros too."""
    tree = ast.parse((SRC / "series.py").read_text())
    owner = _owners(tree)
    classes = {id(node): cls.name for cls in tree.body
               if isinstance(cls, ast.ClassDef) for node in ast.walk(cls)}
    zero_tests = [(owner.get(id(node)), node.lineno)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and node.args
                  and _name(node.func) == "is_zero"]
    assert [fn for fn, _ in zero_tests] == ["_stored", "_stored"], zero_tests
    allocations = sorted((classes.get(id(node)), owner.get(id(node)),
                          node.lineno)
                         for node in ast.walk(tree)
                         if isinstance(node, ast.Attribute)
                         and node.attr == "__new__")
    assert [(cls, fn) for cls, fn, _ in allocations] == [
        ("MultiSeries", "_new"), ("UniSeries", "_new")], allocations


def test_one_product_precision():
    """A product is truncated where it is formed, by `UniSeries.mul`'s
    precision: no line of the package truncates a `*` product it has
    just formed, and `pow` truncates only its result."""
    product_then_cut = re.compile(r"(?<!\*)\*(?!\*).*\)\.truncated\(")
    found = [f"{path.name}:{i}"
             for path in sorted(SRC.glob("*.py"))
             for i, line in enumerate(path.read_text().splitlines(), 1)
             if product_then_cut.search(line)]
    assert found == []
    tree = ast.parse((SRC / "series.py").read_text())
    pow_fn = next(node for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "pow")
    returns = {id(node) for ret in ast.walk(pow_fn)
               if isinstance(ret, ast.Return) for node in ast.walk(ret)}
    cuts = [node.lineno for node in ast.walk(pow_fn)
            if isinstance(node, ast.Attribute) and node.attr == "truncated"
            and id(node) not in returns]
    assert cuts == []


# what every class body defines, whatever its methods
_CLASS_MACHINERY = {"__module__", "__qualname__", "__doc__", "__slots__",
                    "__firstlineno__", "__static_attributes__"}


def test_tau_series_hold_only_what_src_reads():
    """The tau side's series types define only what the package computes
    with, plus the two products the benchmark's tracer wraps: no rational
    promotion and no MultiSeries sums, which live in the tests'
    references."""
    from hypermaps import series

    def defined(cls):
        return set(vars(cls)) - _CLASS_MACHINERY - set(cls.__slots__)

    assert defined(series.EpsLaurent) == {
        "__init__", "const", "__bool__", "__mul__", "to_json"}
    assert defined(series.MultiSeries) == {
        "__init__", "coeff", "_new", "__mul__", "log", "__repr__"}
    tree = ast.parse((SRC / "series.py").read_text())
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)
                and node.name == "_lift"]
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and any(a.name == "is_rational" for a in node.names)]


def test_exact_types_hold_only_what_src_reads():
    """A series and a field element each have one constructor: both
    coefficient rings provide only the series ring interface, with no
    promotion of a rational, `UniSeries` has no second name for its
    constructor, and the arithmetic that only the tests read (a field
    element's power, the curve's generator) lives in their
    references."""
    from hypermaps import numfield, recursion, series

    for ring in (series.QRING, numfield.NumberField.cyclotomic_field(3)):
        for name in ("zero", "one", "inv", "is_zero", "dot"):
            assert hasattr(ring, name), (ring, name)
    for cls in (series._RatRing, numfield.NumberField):
        assert "coerce" not in vars(cls), cls
    assert not {"monomial", "zero"} & set(vars(series.UniSeries))
    assert "pow" not in vars(numfield.NFElem)
    assert not hasattr(recursion.Curve(3), "zeta")
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "coerce"]
    assert found == []
