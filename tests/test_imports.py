"""Static hygiene of the package sources, checked with the standard library."""

import ast
import importlib
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import blowlab
from blowlab.config import RunConfig

SRC = Path(blowlab.__file__).resolve().parent
# the program: the package and the benchmark harness that drives it
PROGRAM = (SRC, SRC.parent.parent / "perfbench")
# every place a definition in the package may be read from
READERS = PROGRAM + (Path(__file__).resolve().parent,)
README = SRC.parent.parent / "README.md"


def _unused_imports(tree: ast.Module) -> list:
    """Names bound by an import statement that the module never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        unused += [f"{path.name}:{line}: {name}" for line, name in _unused_imports(tree)]
    assert not unused, "imported but never used:\n" + "\n".join(unused)


def test_no_import_inside_a_function():
    # an import in a function body hides a module cycle: config once
    # imported flow inside RunConfig.validate, while flow imports config
    nested = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested |= {f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                           if isinstance(node, (ast.Import, ast.ImportFrom))}
    assert not nested, "imports inside a function:\n" + "\n".join(sorted(nested))


# methods that change a list, dict, set or deque in place
MUTATORS = {"append", "appendleft", "extend", "extendleft", "insert", "update",
            "setdefault", "pop", "popitem", "popleft", "clear", "add", "discard",
            "remove", "sort", "reverse", "__setitem__", "__delitem__"}
# functools decorators that keep a cache beside the module
CACHE_DECORATORS = {"cache", "lru_cache"}


def _module_state_writes(tree: ast.Module) -> list:
    """(line, what) for each place a function stores into or mutates a name
    bound at the top level of the module (x[k] = v, x[k] += v, del x[k],
    x.append(v), x.setdefault(k, v), ...), declares one `global`, or wears
    a functools cache decorator.  A name the function binds itself, as a
    parameter or a local, is its own."""
    module_names = {name for node in tree.body for name in _bound_names(node)}
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for deco in fn.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            name = getattr(target, "attr", getattr(target, "id", None))
            if name in CACHE_DECORATORS:
                found.append((deco.lineno, f"@{name} on {fn.name}"))
        args = fn.args
        own = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        own |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
        own |= {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)
                and isinstance(n.ctx, ast.Store)}
        shared = module_names - own
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                found.append((node.lineno, "global " + ", ".join(node.names)))
            elif (isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load)
                  and isinstance(node.value, ast.Name) and node.value.id in shared):
                found.append((node.lineno, f"{node.value.id}[...] stored in {fn.name}"))
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in MUTATORS and isinstance(node.func.value, ast.Name)
                  and node.func.value.id in shared):
                found.append((node.lineno, f"{node.func.value.id}.{node.func.attr} in {fn.name}"))
    return found


def test_no_function_keeps_state_at_module_level():
    # a cache lives on what it caches for, a grid or a ProfileCache, and
    # dies with it: a frame dict at module level, keyed by grid, kept every
    # grid's frame alive and grew a benchmark run's peak RSS by about 10 MB
    probe = ast.parse("FRAMES = {}\nSEEN = []\n@functools.lru_cache\ndef frame(grid):\n"
                      "    FRAMES[id(grid)] = grid\n    SEEN.append(grid)\n"
                      "    own = []\n    own.append(grid)\n")
    assert [what for _, what in _module_state_writes(probe)] == [
        "@lru_cache on frame", "FRAMES[...] stored in frame", "SEEN.append in frame"]
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}: {what}" for line, what in _module_state_writes(tree)]
    assert not found, "module-level state written by a function:\n" + "\n".join(found)


def _references(node: ast.AST) -> tuple:
    """(bare, qualified) names a node reads.  Bare names are identifiers,
    which another module's code resolves in its own namespace.  Qualified
    names reach a definition from anywhere: attributes, imported names and
    the dotted parts of string constants (patch targets such as
    "Class.method")."""
    bare, qualified = set(), set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            bare.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            qualified.add(sub.attr)
        elif isinstance(sub, ast.alias):
            qualified.update(sub.name.split("."))
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            qualified.update(sub.value.split("."))
    return bare, qualified


def _bound_names(node: ast.stmt) -> list:
    """Names a top-level statement defines: a function, a class or the
    targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _unread_definitions(readers: tuple, kinds: tuple = (ast.stmt,)) -> list:
    """(file name, line, name) of each name that a top-level statement of
    one of `kinds` in the package defines and that nothing in `readers`
    reads other than its own definition: by name in its own module, by
    attribute, import or string anywhere.  Likewise each member of such a
    class that is one of `kinds`, named "Class.member": a method or
    property (dunders aside) or an annotated field that nothing but its own
    definition reads, by attribute or string; a read in another member of
    its class counts, as a field that only a method such as `to_json_dict`
    reads is still read."""
    parts = []  # (path, top-level statement, the names it reads)
    for root in readers:
        for path in sorted(root.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            parts += [(path, node, _references(node)) for node in tree.body]
    unread = []
    for path, node, _ in parts:
        if path.parent != SRC or not isinstance(node, kinds):
            continue
        for name in _bound_names(node):
            if not any(name in qualified or (where == path and name in bare)
                       for where, other, (bare, qualified) in parts if other is not node):
                unread.append((path.name, node.lineno, name))
        if not isinstance(node, ast.ClassDef):
            continue
        for member in node.body:
            if not isinstance(member, kinds):
                continue
            if isinstance(member, ast.FunctionDef) and not member.name.startswith("__"):
                name = member.name
            elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                name = member.target.id
            else:
                continue
            # the class's own reads, its member aside
            own = [_references(sub) for sub in node.body + node.bases
                   + node.decorator_list if sub is not member]
            if not any(name in qualified for _, qualified in
                       own + [refs for _, other, refs in parts if other is not node]):
                unread.append((path.name, member.lineno, f"{node.name}.{name}"))
    return unread


def test_no_unread_definitions():
    # each top-level function, class, method, field or assigned name of the
    # package is read somewhere, tests included
    unread = _unread_definitions(READERS)
    assert not unread, "defined but never read:\n" + "\n".join(
        f"{f}:{line}: {name}" for f, line, name in unread)


def test_program_reads_every_function_and_class():
    # a function, class, method or property that only its own tests call
    # is code no command runs, and a field that only tests read is a value
    # no command needs; a reference that only tests read belongs in
    # tests/conftest.py
    unread = _unread_definitions(PROGRAM, (ast.FunctionDef, ast.ClassDef, ast.AnnAssign))
    test_only = [f"{f}:{line}: {name}" for f, line, name in unread]
    assert not test_only, "read by tests alone:\n" + "\n".join(test_only)


def test_program_reads_every_module_constant():
    # a module-level name that only tests read is a value the program does
    # not follow: a tuple of output keys that tests check while the writers
    # spell the keys a second time
    unread = _unread_definitions(PROGRAM, (ast.Assign,))
    test_only = [f"{f}:{line}: {name}" for f, line, name in unread]
    assert not test_only, "read by tests alone:\n" + "\n".join(test_only)


def test_every_setting_is_read():
    # a RunConfig field that no program module reads is a setting that does
    # nothing; config.py itself only declares, validates and serializes
    read = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name != "config.py":
            tree = ast.parse(path.read_text(), filename=str(path))
            read |= {node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f.name for f in fields(RunConfig) if f.name not in read]
    assert not unread, "settings no program module reads: " + ", ".join(unread)


# Defaulted parameters that may keep a default no call sets, each with its reason.
UNSET_DEFAULTS_ALLOWED = set()

# Defaulted parameters that only tests may set, each with its reason.
PROGRAM_UNSET_DEFAULTS_ALLOWED = UNSET_DEFAULTS_ALLOWED | {
    # tests drive the CLI through main(argv); the console script passes none
    ("main", "argv"),
    # tests share one ProfileCache between shoots; a command builds its own
    ("shoot", "cache"),
}


def _defaulted_parameters(tree: ast.Module) -> list:
    """(function name, parameter, positional index or None, line) for every
    defaulted parameter of a function, method or nested function.  A method
    is called by its name, __init__ by its class's; no call passes self or
    cls by position."""
    owner = {id(f): cls.name for cls in ast.walk(tree)
             if isinstance(cls, ast.ClassDef) for f in cls.body}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        a = node.args
        positional = a.posonlyargs + a.args
        bound = id(node) in owner
        name = owner[id(node)] if node.name == "__init__" else node.name
        first = len(positional) - len(a.defaults)
        for k in range(first, len(positional)):
            out.append((name, positional[k].arg, k - bound, node.lineno))
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                out.append((name, arg.arg, None, node.lineno))
    return out


def _calls(tree: ast.Module) -> list:
    """(callee name, positional count, keyword names) for every call, matched
    to definitions by name alone; a starred argument counts as every
    position, ** as every keyword (None)."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            out.append((name, float("inf") if starred else len(node.args),
                        {k.arg for k in node.keywords}))
    return out


def _defaults_and_calls(callers: tuple) -> tuple:
    """The package's defaulted parameters, as (file name, function,
    parameter, positional index or None, line), and every call in `callers`."""
    defaults, calls = [], []
    for root in callers:
        for path in sorted(root.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            calls += _calls(tree)
            if path.parent == SRC:
                defaults += [(path.name, *d) for d in _defaulted_parameters(tree)]
    return defaults, calls


def _unset_defaults(callers: tuple, allowed: set) -> list:
    """Each defaulted parameter that no call in `callers` sets, outside
    `allowed`, and each entry of `allowed` that is not such a parameter."""
    defaults, calls = _defaults_and_calls(callers)
    unset, excused = [], set()
    for fname, func, param, index, line in defaults:
        if any(name == func and (param in kw or None in kw
                                 or (index is not None and n_pos > index))
               for name, n_pos, kw in calls):
            continue
        if (func, param) in allowed:
            excused.add((func, param))
        else:
            unset.append(f"{fname}:{line}: {func}({param})")
    return unset + [f"stale allowance: {func}({param})"
                    for func, param in sorted(allowed - excused)]


def test_no_unset_defaults():
    # a default that no call overrides is a constant in disguise
    unset = _unset_defaults(READERS, UNSET_DEFAULTS_ALLOWED)
    assert not unset, "defaulted parameters no call sets:\n" + "\n".join(unset)


def test_program_sets_every_default():
    # a default that only tests override is a setting no command reaches
    unset = _unset_defaults(PROGRAM, PROGRAM_UNSET_DEFAULTS_ALLOWED)
    assert not unset, "defaulted parameters only tests set:\n" + "\n".join(unset)


def test_no_defaults_every_call_sets():
    # a default that every call overrides is a fallback that never runs
    defaults, calls = _defaults_and_calls(READERS)
    always = [f"{fname}:{line}: {func}({param})"
              for fname, func, param, index, line in defaults
              if not any(name == func and param not in kw and None not in kw
                         and (index is None or n_pos <= index)
                         for name, n_pos, kw in calls)]
    assert not always, "defaulted parameters every call sets:\n" + "\n".join(always)


# numpy's extended-precision types, by type name and alias
EXTENDED_PRECISION = {"longdouble", "clongdouble", "float128", "complex256"}


def test_extended_precision_stays_in_cumulative_integral():
    # the running integrals are the one sum that needs more than float64,
    # and cumulative_integral accumulates them all: the program reads an
    # extended-precision type there (by attribute, name or string) and
    # nowhere else
    inside, outside = 0, []
    for root in PROGRAM:
        for path in sorted(root.glob("*.py")):
            for top in ast.parse(path.read_text(), filename=str(path)).body:
                home = (path == SRC / "radial.py" and isinstance(top, ast.FunctionDef)
                        and top.name == "cumulative_integral")
                for node in ast.walk(top):
                    name = (node.attr if isinstance(node, ast.Attribute)
                            else node.id if isinstance(node, ast.Name)
                            else node.value if isinstance(node, ast.Constant) else None)
                    if name in EXTENDED_PRECISION:
                        if home:
                            inside += 1
                        else:
                            outside.append(f"{path.name}:{node.lineno}: {name}")
    assert inside > 0 and not outside, "extended precision outside cumulative_integral:\n" + \
        "\n".join(outside)


def test_cli_import_leaves_scipy_interpolate_out():
    # scipy.interpolate pulls in scipy.optimize, about 0.3 s of every start
    code = "import sys, blowlab.cli; print('scipy.interpolate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)},
                         check=True)
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_scipy_special_out():
    # scipy.special took 35-45 ms and about 3 MB of every start for one Ei;
    # modulation sums its integrals by Gauss-Legendre panels instead
    code = "import sys, blowlab.cli; print('scipy.special' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)},
                         check=True)
    assert out.stdout.strip() == "False"


def test_package_imports_scipy_only_where_it_needs_it():
    # radial takes its LAPACK routines from scipy.linalg.lapack; any other
    # scipy module would add to every start (setup time) without a reader.
    # The routines are one factorization and its substitution for each kind
    # of tridiagonal, general (gttrf, gttrs) and positive definite (pttrf,
    # pttrs), so a second solve path cannot come back
    allowed = {("radial.py", "scipy.linalg.lapack")}
    found = set()
    routines = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
                if node.module == "scipy.linalg.lapack":
                    routines |= {(path.name, alias.name) for alias in node.names}
            else:
                continue
            found |= {(path.name, mod) for mod in modules if mod.split(".")[0] == "scipy"}
    assert found <= allowed, sorted(found - allowed)
    assert routines == {("radial.py", name) for name in ("dgttrf", "dgttrs", "dpttrf", "dpttrs")}


def test_readme_names_resolve():
    # each inline-code span of the README that starts with a package
    # module's dotted name, `module.name` or `blowlab.module.name` (a call
    # or assignment may follow), names an attribute the package has, so
    # no paragraph describes a function that is gone
    modules = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
    name = re.compile(r"(?:blowlab\.)?(%s)\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)"
                      % "|".join(modules))
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    refs = [m.groups() for span in re.findall(r"`([^`]+)`", text)
            if (m := name.match(span))]
    missing = []
    for module, path in refs:
        obj = importlib.import_module(f"blowlab.{module}")
        for part in path.split("."):
            obj = getattr(obj, part, missing)
        if obj is missing:
            missing.append(f"{module}.{path}")
    assert refs and not missing, "README names the package lacks: " + ", ".join(missing)
