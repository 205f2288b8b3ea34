"""Package layout guards: no per-process memo, a lean CLI start, a
bounded compile for each module, no import cycle, one copy of each shared
helper, no assert statement, one error base class, one check of a dessin
where it enters, one catalog read path, no public definition that no
entry point reaches."""

import ast
import importlib
import inspect
import pkgutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import modk3
from modk3 import catalog, cli, errors

SRC = str(Path(modk3.__file__).resolve().parents[1])
MODULES = {path.stem for path in Path(modk3.__file__).parent.glob("*.py")}


def test_no_empty_module_containers():
    # an empty module-level dict, list or set is how a memo starts out; a
    # fresh interpreter sees it before any other test has filled it
    code = ("import importlib, pkgutil, modk3\n"
            "for info in pkgutil.iter_modules(modk3.__path__):\n"
            "    mod = importlib.import_module('modk3.' + info.name)\n"
            "    for name, value in vars(mod).items():\n"
            "        if type(value) in (dict, list, set) and not value:\n"
            "            print(mod.__name__ + '.' + name)\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=SRC,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == ""


def test_cli_start_loads_only_what_every_command_needs():
    # every command that runs loads the CLI and the catalog; the matrix
    # words and the closed-form counts are imported by the commands that
    # use them, and the records are named tuples, since dataclasses pulls
    # in inspect, ast and dis
    code = ("import sys, modk3.cli, modk3.catalog\n"
            "for name in ('fractions', 'decimal', 'dataclasses', 'inspect',\n"
            "             'modk3.slwords', 'modk3.counts'):\n"
            "    if name in sys.modules:\n"
            "        print(name)\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=SRC,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == ""


def test_cli_help_loads_only_the_cli_and_its_errors():
    # `--help` and the usage errors exit in parse_args, before main imports
    # the catalog, so they compile none of the package's other modules
    code = ("import sys\n"
            "from modk3 import cli\n"
            "try:\n"
            "    cli.main(['--help'])\n"
            "except SystemExit:\n"
            "    pass\n"
            "print(sorted(m for m in sys.modules if m.startswith('modk3')),\n"
            "      'json' in sys.modules, file=sys.stderr)\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=SRC,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage: modk3")
    assert out.stderr == "['modk3', 'modk3.cli', 'modk3.errors'] False\n"


def test_each_module_compiles_within_one_mebibyte():
    # with no cached bytecode (PYTHONDONTWRITEBYTECODE), every command
    # compiles each module it imports, and the largest compile's transient
    # memory sets a floor under the command's peak; a module past the
    # budget is split at a seam, since two halves compiled one after the
    # other peak no higher than the larger half
    peaks = {}
    for path in sorted(Path(modk3.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        tracemalloc.start()
        try:
            compile(source, str(path), "exec")
            peaks[path.name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert {name: peak for name, peak in peaks.items()
            if peak > 1 << 20} == {}


def test_package_imports_form_no_cycle():
    # the relative imports at module level, which run while a module
    # loads, form a DAG: reports imports nothing of catalog, which imports
    # it; an import inside a function runs once both have loaded
    imports = {}
    for path in sorted(Path(modk3.__file__).parent.glob("*.py")):
        deps = set()
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ImportFrom) and node.level:
                if node.module:
                    deps.add(node.module.split(".")[0])
                else:
                    deps.update(alias.name for alias in node.names)
        imports[path.stem] = deps
    assert imports["catalog"] >= {"reports"}
    left = dict(imports)
    while left:
        leaves = [name for name, deps in left.items() if not deps & left.keys()]
        assert leaves, f"an import cycle among {sorted(left)}"
        for name in leaves:
            del left[name]


def test_cli_tables_are_the_reports():
    # the --table choices are spelled out so that parsing needs no catalog
    assert cli.TABLES == tuple(sorted(catalog.REPORTS))


def test_one_transitivity_walk_and_one_tf_index():
    mods = [importlib.import_module(f"modk3.{info.name}")
            for info in pkgutil.iter_modules(modk3.__path__)]
    names = [f"{mod.__name__}.{name}"
             for mod in mods for name, fn in vars(mod).items()
             if inspect.isfunction(fn) and fn.__module__ == mod.__name__]
    assert [n for n in names if "transitive" in n or "reach" in n] == \
        ["modk3.hypermap._reach_order"]
    assert [n for n in names if "tf_index" in n] == ["modk3.lifts.tf_index"]


def test_no_assert_statements():
    # invariants raise typed errors, so python -O cannot change a result
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(modk3.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_every_error_has_one_base():
    classes = [value for value in vars(errors).values()
               if isinstance(value, type) and issubclass(value, Exception)]
    assert len(classes) == 10
    assert all(issubclass(cls, errors.Modk3Error) for cls in classes)
    assert cli._ERRORS == (errors.Modk3Error, OSError, ValueError)


def test_only_validate_and_cycles_refuse_a_pair():
    # a pair is checked once, where it enters: the walks trust their input,
    # so no other definition raises the errors of a pair that is no dessin
    refusals = {"OrderViolation", "NotTransitive"}
    found = set()
    for path in sorted(Path(modk3.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Raise):
                    continue
                exc = getattr(node.exc, "func", node.exc)   # raise E(...) or E
                if isinstance(exc, ast.Name) and exc.id in refusals:
                    found.add(f"{path.stem}.{top.name}")
    assert found == {"hypermap.validate", "hypermap.cycles"}


def _users(names):
    """{name: the module.definition names of package code that use it},
    as a bare name or as an attribute of a modk3 module."""
    users = {name: set() for name in names}
    for path in sorted(Path(modk3.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif (isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name)
                      and node.value.id in MODULES):
                    name = node.attr
                else:
                    continue
                if name in users:
                    where = getattr(top, "name", "<module>")
                    users[name].add(f"{path.stem}.{where}")
    return users


def test_a_dessin_is_validated_only_where_it_enters():
    # validate runs in the three public hypermap entries and in the read's
    # validate_record; package code builds on dessins checked there, so it
    # calls neither validate nor an entry that would check them again
    entries = {"subgroup_type", "canonical_code", "automorphism_group"}
    callers = _users(entries | {"validate"})
    assert callers.pop("validate") == \
        {f"hypermap.{name}" for name in entries} | {"catalog.validate_record"}
    assert callers == {name: set() for name in entries}


def test_the_lift_rules_run_only_where_the_counts_are_made_or_read():
    # lifts writes the pair and the read proves a stored pair equal to the
    # rule table's; the reports and totals read the stored counts
    assert _users({"lift_profile"}) == {
        "lift_profile": {"catalog.validate_record", "catalog.add_lift_fields"}}


def test_only_the_reports_count_the_stored_lifts():
    # lifts.totals only checks that a catalog is complete; the tables that
    # print lift counts read the stored pairs themselves
    assert _users({"stored_lifts"}) == {"stored_lifts": {
        "reports.report_k6", "reports.report_k12", "reports.report_totals"}}


def test_one_tie_loop_and_one_walk_per_root_rule():
    # the roots other than 0 are held against a code in one loop, which
    # the read's proof and the search's leaf test share, and only hypermap
    # and the search's root 0 walk a root: no other module loops over
    # roots against a code
    assert _users({"_ties"}) == {
        "_ties": {"hypermap._canonical_ties", "generate._classes_at"}}
    assert _users({"_root_code"}) == {"_root_code": {
        "hypermap.canonical_form", "hypermap._ties", "hypermap._is_walk_code",
        "generate._classes_at"}}


def test_one_listing_of_orbit_representatives():
    # expansion and star placement list their Aut-orbits through one helper
    found = set()
    for path in sorted(Path(modk3.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.alias) and node.name == "product"
                        or isinstance(node, ast.Attribute)
                        and node.attr == "product"
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "itertools"):
                    found.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert found == {"torsion.orbit_representatives"}


def test_cli_uses_only_public_catalog_names():
    # a private catalog helper in the CLI is how a second read path starts
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    private = [node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)
               and isinstance(node.value, ast.Name) and node.value.id == "catalog"
               and node.attr.startswith("_")]
    assert private == []


ROOT = Path(__file__).resolve().parents[1]


def _used_names(tree, strict=True):
    """Bare names a tree uses, the names it imports and the attributes it
    takes of a modk3 module (catalog.REPORTS), so a record field such as
    rec.loop_count reaches no function of that name.  With strict=False
    every attribute name and every identifier spelled as a string count
    too: bench/tracer.py names its layers as strings and binds them with
    getattr.  Docstrings are never identifiers, so they add nothing."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Attribute):
            if (not strict or isinstance(node.value, ast.Name)
                    and node.value.id in MODULES):
                out.add(node.attr)
        elif (not strict and isinstance(node, ast.Constant)
              and isinstance(node.value, str) and node.value.isidentifier()):
            out.add(node.value)
    return out


def _python_api_block():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Python API", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_every_public_definition_is_reached():
    # start from the CLI entry point, the package's own imports, the README
    # API example and what the benchmark binds, and follow every name used
    # in a reached top-level definition; a public function, class or
    # module-level name that nothing reaches is test-only code and belongs
    # beside the tests
    defs = {}        # top-level name -> [(module, node)]
    for path in sorted(Path(modk3.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                defs.setdefault(name, []).append((path.stem, node))

    init = ast.parse(Path(modk3.__file__).read_text(encoding="utf-8"))
    todo = {"main"} | _used_names(init)
    todo |= _used_names(ast.parse(_python_api_block()))
    todo |= _used_names(ast.parse((ROOT / "bench" / "tracer.py").read_text(
        encoding="utf-8")), strict=False)
    reached = set()
    while todo:
        name = todo.pop()
        for mod, node in defs.get(name, ()):
            if (mod, name) not in reached:
                reached.add((mod, name))
                todo |= _used_names(node)

    unreached = sorted(f"{mod}.{name}" for name, found in defs.items()
                       for mod, _ in found
                       if not name.startswith("_") and (mod, name) not in reached)
    assert unreached == []
