"""Import hygiene, by AST scan.

Every imported name in ``src/`` and ``tests/`` is used: a name bound by
``import``/``from … import`` must be read somewhere in its module, as a
name, the root of an attribute chain, an entry of ``__all__`` or inside
a string annotation. An import line that carries ``# noqa: F401`` is
exempt.

The layers below the workload generator never import it, the NN
stack takes plan tensors only from the encoders' pair batches and takes
no node mask, node rows travel as slots and never as a dense node
matrix, one layout carries packed trees and only ``pack_encs`` lays
rows out into slots, only the AV turns a ``RuntimeError`` into a
verdict, and the cascade's stages take plans apart only through their
plan records."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _bound(tree: ast.Module, lines: list[str]):
    """(name, line) of every name an import binds, noqa lines skipped."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        span = lines[node.lineno - 1 : node.end_lineno]
        if any("noqa: F401" in line for line in span):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name != "*":
                yield name, node.lineno


def _strings(tree: ast.Module):
    """String constants that may name an import: annotations, and the
    entries of ``__all__``."""
    for node in ast.walk(tree):
        roots = []
        if isinstance(node, ast.arg):
            roots = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            roots = [node.returns]
        elif isinstance(node, ast.AnnAssign):
            roots = [node.annotation]
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            roots = [node.value]
        for root in filter(None, roots):
            for sub in ast.walk(root):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    yield sub.value


def _used(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for text in _strings(tree):
        try:
            used |= {n.id for n in ast.walk(ast.parse(text, mode="eval"))
                     if isinstance(n, ast.Name)}
        except SyntaxError:
            pass
    return used


def test_no_unused_imports():
    unused = []
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")]):
        text = path.read_text()
        tree = ast.parse(text)
        used = _used(tree)
        unused += [
            f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in _bound(tree, text.splitlines())
            if name not in used
        ]
    assert not unused, "unused imports:\n" + "\n".join(unused)


# The plan IR, the solver, the verifier, the encoders and the filters:
# the fuzzer and the rewrites build on these, never the reverse.
LOWER_LAYERS = ("core", "solver", "verifier", "encoding", "filters")


def _imported_names(tree: ast.Module):
    """(dotted name, line) of every absolute import; ``from a import b``
    reads as ``a.b``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((a.name, node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield from ((f"{node.module}.{a.name}", node.lineno) for a in node.names)


def test_lower_layers_do_not_import_the_workload():
    bad = [
        f"{path.relative_to(ROOT)}:{line}: {module}"
        for layer in LOWER_LAYERS
        for path in sorted((ROOT / "src" / "repro" / layer).rglob("*.py"))
        for module, line in _imported_names(ast.parse(path.read_text()))
        if module == "repro.workload" or module.startswith("repro.workload.")
    ]
    assert not bad, "lower layers import repro.workload:\n" + "\n".join(bad)


# Plan → tensor work stays in repro.encoding: the NN stack reads the
# converter's pair batches, never a plan walk or a direct encoder.
PLAN_ENCODERS = (
    "repro.encoding.instance.encode_tree",
    "repro.encoding.agnostic.encode_pair_agnostic",
    "repro.encoding.agnostic.encode_group_agnostic",
)


def test_nn_does_not_encode_plans():
    bad = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted((ROOT / "src" / "repro" / "nn").rglob("*.py"))
        for name, line in _imported_names(ast.parse(path.read_text()))
        if any(name == m or name.startswith(m + ".") for m in PLAN_ENCODERS)
    ]
    assert not bad, "repro.nn encodes plans itself:\n" + "\n".join(bad)


# The AV answers unknown itself (``Verifier.equivalent`` → None); no
# caller guards a check against a raise.
RUNTIME_ERROR_HANDLER = Path("src/repro/verifier/av.py")


def _catches_runtime_error(node: ast.AST) -> bool:
    """``node`` is an ``except`` clause that lists ``RuntimeError``."""
    return isinstance(node, ast.ExceptHandler) and node.type is not None and any(
        isinstance(n, ast.Name) and n.id == "RuntimeError" for n in ast.walk(node.type)
    )


def test_only_the_verifier_handles_runtime_error():
    bad = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
        if path.relative_to(ROOT) != RUNTIME_ERROR_HANDLER
        for node in ast.walk(ast.parse(path.read_text()))
        if _catches_runtime_error(node)
    ]
    assert not bad, "except RuntimeError outside the AV:\n" + "\n".join(bad)


# The EMF runs on packed trees only: a node mask is how a padded layout
# would come back, so no function in repro.nn takes one.
def test_nn_takes_no_mask():
    bad = [
        f"{path.relative_to(ROOT)}:{node.lineno}: {arg.arg}"
        for path in sorted((ROOT / "src" / "repro" / "nn").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for arg in ast.walk(node.args)
        if isinstance(arg, ast.arg) and "mask" in arg.arg.lower()
    ]
    assert not bad, "repro.nn takes a mask:\n" + "\n".join(bad)


# Node rows travel as their non-zero slots from the encoder to the first
# conv layer. A dense node matrix is how the dense path would come back:
# Packed carries none, and no encoder or NN function sizes an array by
# |NV| except densify, the flat baselines' and the tests' helper.
def test_packed_carries_no_dense_node_matrix():
    from repro.encoding.instance import Packed

    assert Packed._fields == ("starts", "cols", "vals", "left", "right")


ARRAY_MAKERS = ("zeros", "empty", "ones", "full")
DENSIFIERS = ("densify",)


def _array_calls(tree: ast.AST, fn: str = ""):
    """(call, innermost enclosing function) of every ``np.<maker>(...)``."""
    for node in ast.iter_child_nodes(tree):
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ARRAY_MAKERS):
            yield node, fn
        yield from _array_calls(node, inner)


def test_no_array_is_sized_by_nv_size():
    bad = [
        f"{path.relative_to(ROOT)}:{call.lineno}: {fn or '<module>'}"
        for part in ("encoding", "nn")
        for path in sorted((ROOT / "src" / "repro" / part).rglob("*.py"))
        for call, fn in _array_calls(ast.parse(path.read_text()))
        if fn not in DENSIFIERS
        and any(isinstance(n, ast.Attribute) and n.attr == "nv_size"
                or isinstance(n, ast.Name) and n.id == "nv_size" for n in ast.walk(call))
    ]
    assert not bad, "arrays sized by nv_size:\n" + "\n".join(bad)


# One packed-tree layout from the encoder to the model: an instance
# group is its trees as one Packed plus the masks, and only pack_encs
# lays rows out into slots (every other function gathers Packed rows).
SLOT_MAKERS = ("pack_encs",)


def test_one_packed_tree_layout():
    from dataclasses import fields

    from repro.encoding.agnostic import InstanceGroup

    assert tuple(f.name for f in fields(InstanceGroup)) == ("vocab", "trees", "t_mask", "c_mask")
    bad = [
        f"{path.relative_to(ROOT)}:{call.lineno}: {fn or '<module>'}"
        for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
        for call, fn in _array_calls(ast.parse(path.read_text()))
        if call.func.attr == "full" and fn not in SLOT_MAKERS
        and any(isinstance(n, ast.Name) and n.id == "SENTINEL"
                or isinstance(n, ast.Attribute) and n.attr == "SENTINEL" for n in ast.walk(call))
    ]
    assert not bad, "slot arrays made outside pack_encs:\n" + "\n".join(bad)


# The cascade's stages read each plan's record (repro.core.record): none
# of them takes a plan apart or lowers a predicate itself.
RECORD_READERS = ("encoding", "verifier", "filters", "core/pipeline.py")


def test_only_the_record_decomposes_and_lowers():
    paths = []
    for part in RECORD_READERS:
        path = ROOT / "src" / "repro" / part
        paths += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    bad = [
        f"{path.relative_to(ROOT)}:{node.lineno}: {name}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text()))
        for name in [
            node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute)
            else node.name if isinstance(node, ast.alias)
            else None
        ]
        if name in ("decompose", "to_constraint")
    ]
    assert not bad, "decomposed or lowered outside the record:\n" + "\n".join(bad)


# The AV keeps no state but its solver count: it reads the plan records
# its caller holds, so no record map or context manager installs them.
def test_verifier_keeps_only_its_solver_count():
    from dataclasses import fields

    from repro.verifier.av import Verifier

    assert tuple(f.name for f in fields(Verifier)) == ("solver_calls",)
    av = ast.parse((ROOT / "src" / "repro" / "verifier" / "av.py").read_text())
    assert "contextlib" not in {name.split(".")[0] for name, _ in _imported_names(av)}
