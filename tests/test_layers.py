"""The import order of ``src/repro``: every import goes down the tiers.

The paper states one algorithm and bills it in three models, so the code
reads bottom up: tracing, hashing, graphs and seed search; then the round
ledger and the three cost models; then the algorithms; then the front
door, the batch runtime, the service, the analysis tools and the CLI.
:data:`TIERS` declares that order, lowest first.  A module may import
from its own package and from any package in a lower tier; an import from
a higher tier, or from another package in its own tier, is a cycle
waiting to happen and fails here.

Every import statement counts, at module level or inside a function, since
a deferred import that goes up still ties the two packages together.
Blocks under ``if TYPE_CHECKING:`` run no code and are skipped.  The
package root ``repro/__init__.py`` re-exports from every tier and is
exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

#: Top-level packages (and modules) of ``repro``, lowest tier first.
TIERS: tuple[tuple[str, ...], ...] = (
    ("obs",),
    ("hashing",),
    ("graphs",),
    ("derand", "baselines", "verify"),
    ("models",),
    ("mpc", "cclique", "congest"),
    ("core",),
    ("api",),
    ("runtime",),
    ("serve",),
    ("analysis",),
    ("__main__",),
)

TIER_OF = {name: level for level, names in enumerate(TIERS) for name in names}

#: Read from the checkout, never imported: a planted cycle would fail the
#: import before the check could name it.
SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def top_level_names(root: Path) -> set[str]:
    """The packages and modules directly under ``root``, minus ``__init__``."""
    names = {p.name for p in root.iterdir() if (p / "__init__.py").is_file()}
    names |= {p.stem for p in root.glob("*.py") if p.stem != "__init__"}
    return names


TOP_LEVEL = top_level_names(SRC)


def _runs_code(node: ast.If) -> bool:
    """False for ``if TYPE_CHECKING:`` (or ``typing.TYPE_CHECKING``)."""
    test = node.test
    name = test.attr if isinstance(test, ast.Attribute) else getattr(test, "id", None)
    return name != "TYPE_CHECKING"


def _imports(tree: ast.AST):
    """Every import statement that can run, with ``TYPE_CHECKING`` bodies cut."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If) and not _runs_code(node):
            stack.extend(node.orelse)
            continue
        stack.extend(ast.iter_child_nodes(node))


def imported_modules(node: ast.Import | ast.ImportFrom, package: str) -> list[str]:
    """Dotted names ``node`` imports, relative imports resolved in ``package``."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = node.module or ""
    if node.level:
        parts = package.split(".")
        parts = parts[: len(parts) - node.level + 1]
        base = ".".join(parts + ([node.module] if node.module else []))
    if base == "repro":
        # ``from .. import api`` names a subpackage; ``from . import
        # __version__`` reads the package root, which has no tier.
        return [
            f"repro.{alias.name}" if alias.name in TOP_LEVEL else base
            for alias in node.names
        ]
    return [base]


def upward_imports(source: str, module: str, is_package: bool = False) -> list[str]:
    """One ``line: message`` per import in ``source`` that breaks :data:`TIERS`.

    ``module`` is the dotted name of the module the source belongs to
    (``repro.graphs.graph``); ``is_package`` marks an ``__init__`` file.
    """
    own = module.split(".")[1]
    package = module if is_package else module.rpartition(".")[0]
    problems = []
    for node in sorted(_imports(ast.parse(source)), key=lambda n: n.lineno):
        for target in imported_modules(node, package):
            parts = target.split(".")
            if parts[0] != "repro" or len(parts) < 2 or parts[1] == own:
                continue
            other = parts[1]
            if other not in TIER_OF:
                problems.append(f"{node.lineno}: imports {target}, which has no tier")
            elif TIER_OF[other] >= TIER_OF[own]:
                problems.append(
                    f"{node.lineno}: {own} (tier {TIER_OF[own]}) imports {target}"
                    f" (tier {TIER_OF[other]})"
                )
    return problems


def test_every_top_level_package_has_a_tier():
    assert TOP_LEVEL == set(TIER_OF), (
        "TIERS must list exactly the top-level packages under src/repro"
    )


def test_imports_go_down_the_tiers():
    problems = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC.parent)
        if rel == Path("repro", "__init__.py"):
            continue
        parts = list(rel.with_suffix("").parts)
        is_package = parts[-1] == "__init__"
        if is_package:
            parts.pop()
        source = path.read_text(encoding="utf-8")
        for problem in upward_imports(source, ".".join(parts), is_package):
            problems.append(f"src/{rel.as_posix()}:{problem}")
    assert not problems, "imports against the tier order:\n" + "\n".join(problems)


def test_checker_sees_deferred_and_relative_imports():
    source = (
        "from typing import TYPE_CHECKING\n"
        "from ..obs import span\n"  # down: fine
        "from . import kernels\n"  # own package: fine
        "from ..api import solve\n"  # up, module level
        "if TYPE_CHECKING:\n"
        "    from ..core import Params\n"  # runs no code: skipped
        "def f():\n"
        "    import repro.runtime.spec\n"  # up, deferred
        "    from .. import serve\n"  # up, through the package root
        "    from ..hashing import primes\n"  # down, deferred: fine
    )
    problems = upward_imports(source, "repro.graphs.graph")
    assert [p.split(":")[0] for p in problems] == ["4", "8", "9"]
    # Another package of the same tier is refused too.
    assert upward_imports("from ..baselines import greedy\n", "repro.derand.x")
