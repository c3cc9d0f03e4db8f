"""The public surface: every name in `edgemarket.__all__` is read by the
package's own code or says in README why it is public."""

import ast
import re
from pathlib import Path

import edgemarket

PACKAGE = Path(edgemarket.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"
LIST_HEADING = "### Public names"
NO_CALLER = "no caller in `src/`"


def _local_names(fn: ast.AST) -> set[str]:
    """A function's parameters and every name it assigns: a read of one of
    them is not a read of the module-level name."""
    args = fn.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    names |= {node.id for node in ast.walk(fn)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    return names


def code_users() -> dict[str, set[str]]:
    """For each `__all__` name, the `module.definition` (outermost def or
    class) whose code reads it, by bare name or as `module.name`. A read
    inside the name's own definition, a shadowing local, a docstring or a
    comment does not count."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    users = {name: set() for name in edgemarket.__all__}

    def walk(node, module, owners, shadowed):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owners, shadowed = owners + (node.name,), shadowed | _local_names(node)
        elif isinstance(node, ast.ClassDef):
            owners = owners + (node.name,)
        name = None
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                and node.id not in shadowed):
            name = node.id
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            name = node.attr
        if name in users and name not in owners and owners:
            users[name].add(f"{module}.{owners[0]}")
        for child in ast.iter_child_nodes(node):
            walk(child, module, owners, shadowed)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.stem, (), frozenset())
    return users


def readme_entries() -> dict[str, str]:
    """README's public-name list: name -> the text of its bullet."""
    text = README.read_text(encoding="utf-8")
    section = text.split(LIST_HEADING, 1)[1]
    section = re.split(r"^#", section, maxsplit=1, flags=re.MULTILINE)[0]
    entries = {}
    for bullet in re.split(r"^- ", section, flags=re.MULTILINE)[1:]:
        match = re.match(r"`(\w+)`: ", bullet)
        assert match, f"README bullet does not start with a name: {bullet[:60]!r}"
        assert match[1] not in entries, f"README lists {match[1]} twice"
        entries[match[1]] = " ".join(bullet.split())
    return entries


def test_readme_lists_every_public_name_once():
    assert sorted(readme_entries()) == sorted(edgemarket.__all__)


def test_every_public_name_has_a_caller_or_a_stated_reason():
    entries = readme_entries()
    for name, users in code_users().items():
        bullet = entries[name]
        if users:
            named = set(re.findall(r"`(\w+\.\w+)", bullet))
            assert named & users, (
                f"README's line for {name} names none of its callers {sorted(users)}"
            )
        else:
            assert NO_CALLER in bullet, (
                f"{name} has no caller in src/, and README's line does not say "
                "why it is public"
            )


def test_the_surface_check_sees_callers_and_their_absence():
    users = code_users()
    assert "cli.cmd_solve" in users["run_fixed_point"]
    # Read only as a parameter or a dataclass field elsewhere, and called by
    # name in `matching_totals`.
    assert users["capacities"] >= {"cli.cmd_solve", "benchmarks.run_gsmc"}
    assert "market.project_matching" not in users["capacities"]
    assert users["social_welfare"] == {"market.matching_totals"}
    assert users["default_scenario"] == set()
