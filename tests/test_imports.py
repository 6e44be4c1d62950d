"""The package and its tests import only what CI installs: sympy may be
present locally, but the workflow does not install it. The package itself
has no runtime dependencies, so it imports from the standard library and
from itself only, and every command, a fresh process, starts without the
slow-to-import standard modules it does not need."""

import ast
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DYNAMIC = {"import_module", "importorskip", "__import__"}
PACKAGE = sorted((ROOT / "src").rglob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").rglob("*.py"))


def imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.module
        elif (isinstance(node, ast.Call) and node.args
              and getattr(node.func, "attr", getattr(node.func, "id", None)) in DYNAMIC
              and isinstance(node.args[0], ast.Constant)):
            yield str(node.args[0].value)  # importlib.import_module("x") and the like


def test_sources_are_found():
    assert any(path.name == "series.py" for path in SOURCES)
    assert any(path.name == "test_imports.py" for path in SOURCES)
    assert any(path.name == "cli.py" for path in PACKAGE)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_sympy_import(path):
    found = [name for name in imported_modules(path) if name.split(".")[0] == "sympy"]
    assert not found, f"{path.name} imports {found}"


def outside_stdlib(path):
    allowed = sys.stdlib_module_names | {"wzeta"}
    return [name for name in imported_modules(path) if name.split(".")[0] not in allowed]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_package_imports_only_the_standard_library(path):
    found = outside_stdlib(path)
    assert not found, f"{path.name} imports {found}"


def test_a_third_party_import_is_caught(tmp_path):
    path = tmp_path / "leaky.py"
    path.write_text("import math\nfrom fractions import Fraction\nimport mpmath.libmp\n")
    assert outside_stdlib(path) == ["mpmath.libmp"]


def unused_imports(path):
    """The names that the imports of path bind, in function bodies and
    under TYPE_CHECKING too, and that nothing else in it reads: a name is
    read where it is loaded, bare or as the head of an attribute, or named
    in a quoted annotation; a dotted import binds its first part, and a
    __future__ import binds nothing."""
    tree = ast.parse(path.read_text(), str(path))
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    annotations = [getattr(node, field) for node in ast.walk(tree)
                   for field in ("annotation", "returns") if getattr(node, field, None)]
    quoted = [ast.parse(node.value, mode="eval") for annotation in annotations
              for node in ast.walk(annotation)
              if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    read = {node.id for root in [tree, *quoted] for node in ast.walk(root)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_package_imports_only_names_it_reads(path):
    found = unused_imports(path)
    assert not found, f"{path.name} imports {found} and never reads them"


def test_an_unused_import_is_caught(tmp_path):
    path = tmp_path / "unused.py"
    path.write_text("from __future__ import annotations\n"
                    "import os.path\nimport math\nfrom typing import TYPE_CHECKING\n"
                    "from fractions import Fraction as F\n"
                    "if TYPE_CHECKING:\n    from decimal import Decimal, Context\n"
                    "def f(x: \"Decimal\") -> int:\n    import json\n"
                    "    return math.floor(x) + os.path.sep.count(F)\n")
    assert sorted(unused_imports(path)) == ["Context", "json"]


def assigns_args(path):
    """The lines of path that assign to an attribute named args, as
    `exc.args = ...` rewrites an error's message."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
            for target in getattr(node, "targets", [getattr(node, "target", None)])
            if isinstance(target, ast.Attribute) and target.attr == "args"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_only_errors_rewrites_an_error_message(path):
    # errors.naming is the one place that prefixes a re-raised error
    if path.name != "errors.py":
        assert not assigns_args(path), f"{path.name} assigns .args"


def test_an_args_assignment_is_caught(tmp_path):
    path = tmp_path / "rewrites.py"
    path.write_text("try:\n    pass\nexcept Exception as exc:\n"
                    "    exc.args = ('x',)\n    exc.args += ('y',)\n    args = ()\n    raise\n")
    assert assigns_args(path) == [4, 5]


# every command compiles the modules it imports (nothing relies on cached
# bytecode), and CPython 3.11's parser doubles its token array past 4,096
# tokens: compile() of `x = 1` lines peaks at 1.48 MB at 4,093 tokens and
# at 1.70 MB at 4,097 (tracemalloc, Python 3.11.7), which raises a short
# command's peak RSS. Tokens are counted as 3.11 reads them on every
# version: from 3.12 on, tokenize (and the parser) split each f-string
# into its parts, so 3.12's counts run higher
MAX_TOKENS = 4_096
UNHELD = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
FSTRING_START = getattr(tokenize, "FSTRING_START", None)  # 3.12 on
FSTRING_END = getattr(tokenize, "FSTRING_END", None)


def parser_tokens(path):
    """The tokens of path that CPython 3.11's parser holds: none for
    comments, blank lines and the encoding, and one for each f-string,
    which 3.11 reads as one string token."""
    count = depth = 0  # depth: how many f-strings the token is inside
    with path.open("rb") as source:
        for token in tokenize.tokenize(source.readline):
            if token.type == FSTRING_START:
                count += depth == 0
                depth += 1
            elif token.type == FSTRING_END:
                depth -= 1
            elif depth == 0 and token.type not in UNHELD:
                count += 1
    return count


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_a_module_fits_the_parsers_first_token_array(path):
    assert parser_tokens(path) <= MAX_TOKENS, f"{path.name}: {parser_tokens(path)} tokens"


def test_a_long_module_is_caught(tmp_path):
    path = tmp_path / "long.py"
    path.write_text("# a comment\n\n" + "x = 1\n" * 1024 + """y = f"{x!r:>{x}}" f"{f'{x}'}"\n""")
    # name, =, number or f-string, newline (the two f-strings are two
    # string tokens); the end marker
    assert parser_tokens(path) == 4 * 1025 + 2


# dataclasses pulls in inspect, and inspect ast, dis and tokenize: about
# 20 ms of every command's start-up; statistics serves only `rate`
KEPT_OUT_OF_START_UP = ("dataclasses", "inspect", "ast", "dis", "tokenize", "statistics")


def run_fresh(code):
    """The stdout of code, run in a fresh process that imports wzeta from
    src/; -S: no site module, so nothing but what code imports is loaded."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r})\n{code}"
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          timeout=30)
    assert (done.returncode, done.stderr) == (0, "")
    return done.stdout


def test_start_up_leaves_the_slow_modules_unloaded():
    loaded = run_fresh(f"import wzeta.cli; "
                       f"print(' '.join(m for m in {KEPT_OUT_OF_START_UP!r} if m in sys.modules))")
    assert loaded.split() == []


# the summation engine: a pair check runs none of it, and `list` reads
# each series' rate from its term's factorials, without the engine or the
# verifier; a sum proves no pair, so `digits` and `rate` never load wz
ENGINE = ("wzeta.series",)
VERIFIER = ("wzeta.wz",)


@pytest.mark.parametrize("argv,unloaded", [
    (["verify", "--pair", "s1", "--nmax", "5"], ENGINE),
    (["verify", "--pair", "s2", "--symbolic"], ENGINE),
    (["list"], ENGINE + VERIFIER),
    (["digits", "--series", "s1", "--digits", "10"], VERIFIER),
    (["rate", "--series", "s3", "--lo", "0", "--hi", "5"], VERIFIER),
], ids=["verify-grid", "verify-symbolic", "list", "digits", "rate"])
def test_a_command_loads_only_the_modules_it_runs(argv, unloaded):
    out = run_fresh(f"import contextlib, io\n"
                    f"from wzeta.cli import main\n"
                    f"with contextlib.redirect_stdout(io.StringIO()):\n"
                    f"    code = main({argv!r})\n"
                    f"print(code, *(m for m in {unloaded!r} if m in sys.modules))")
    assert out.split() == ["0"]


PUBLIC = {
    "ALTERNATING", "Catalog", "CatalogError", "Domain", "DomainError", "EvalReport",
    "HyperTerm", "IncompatibleTerms", "LinearForm", "MonotonicityViolation", "NonAlternating",
    "POSITIVE", "ParseError", "Polynomial", "RationalFunction", "SeriesSpec", "SingularGrid",
    "StructureError", "TailBoundError", "VerifyReport", "WZPair", "WZetaError", "accelerate",
    "certificate", "cross_ratio", "lhs_series", "load_catalog",
    "measure_rate", "parse_term", "render_term", "sum_to_digits", "two_sided_gap",
    "truncated_decimal", "verify_grid", "verify_symbolic",
}


def test_the_public_names_resolve_on_first_access():
    # `import wzeta` loads no module of its own; each public name then
    # resolves to its defining module's object, and a star import binds
    # every one of them
    out = run_fresh("import wzeta\n"
                    "print(sorted(m for m in sys.modules if m.startswith('wzeta.')))\n"
                    "names = {}\n"
                    "exec('from wzeta import *', names)\n"
                    "print(sorted(set(names) - {'__builtins__'}))\n"
                    "print(sorted(name for name in wzeta.__all__ if getattr(wzeta, name) is not "
                    "getattr(sys.modules[f'wzeta.{wzeta._HOME[name]}'], name)))\n"
                    "print(sorted(wzeta.__all__))")
    loaded, starred, misplaced, public = out.splitlines()
    assert loaded == "[]"
    assert starred == public == str(sorted(PUBLIC))
    assert misplaced == "[]"


def test_an_unknown_attribute_raises_attribute_error():
    import wzeta

    with pytest.raises(AttributeError, match="^module 'wzeta' has no attribute 'sum_digits'$"):
        wzeta.sum_digits
    assert not hasattr(wzeta, "no_such_name")
