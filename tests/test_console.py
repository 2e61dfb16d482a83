"""The console script end to end, and five lint rules on the library.

Each row runs `python -m nashtoric <command>` on one JSON document, with
PYTHONPATH set to this checkout's src/ and a 60 s limit, and pins the exit
code and the SHA-256 of stdout. The 4D root is cone_rays e1, e2, e3,
(3,5,7,11), whose semigroup has 33 minimal generators. A seeded digest pins
what `mingen` answers, errors included, on 600 small random documents.
"""

import ast
import hashlib
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from nashtoric import cli

SRC = Path(__file__).resolve().parents[1] / "src"

ROOT_4D_P0 = '{"dimension": 4, "characteristic": 0, "cone_rays": [[1,0,0,0],[0,1,0,0],[0,0,1,0],[3,5,7,11]]}'
ROOT_4D_P2 = '{"dimension": 4, "characteristic": 2, "cone_rays": [[1,0,0,0],[0,1,0,0],[0,0,1,0],[3,5,7,11]]}'
ROOT_3D_P2 = '{"dimension": 3, "characteristic": 2, "cone_rays": [[1,0,0],[0,1,0],[4,7,11]]}'
DUAL_3D_P0 = '{"dimension": 3, "characteristic": 0, "dual_cone_rays": [[1,0,0],[0,1,0],[2,5,7]]}'
STALL_2D_P2 = '{"dimension": 2, "characteristic": 2, "semigroup_generators": [[2,0],[3,0],[0,1]]}'

# (id, command, document, exit code, SHA-256 of stdout)
CONSOLE = (
    # the full normalized resolution of the 4D root
    ("resolve-4d-p0", "resolve", ROOT_4D_P0, 0,
     "dd0bfcceb02aeece2fc558c8433f7ecc8ccb234d1c26b1e01a0e5b99316ff707"),
    # C(33, 4) subsets
    ("logjac-4d-p2", "logjac", ROOT_4D_P2, 0,
     "858ba9e9e6acd715e3ba4446bbcc06b5f8388c22db24d4dfc56b41a08a07a935"),
    # 4584 raw exponents, the largest minimal-set sweep here
    ("logjac-4d-6-3-7-11-p0", "logjac",
     '{"dimension": 4, "characteristic": 0, "cone_rays": [[1,0,0,0],[0,1,0,0],[0,0,1,0],[6,3,7,11]]}',
     0, "a996c3cc2155622b6fad97c861d6c55d75b3eddd4314eece26e64e5ad993d975"),
    ("newton-4d-p2", "newton", ROOT_4D_P2, 0,
     "7abd3980e76d8f3a8d67aa8d44e418422e609cdf8a4c7dbd16871b46fb5f332f"),
    # one blowup step by enumeration, both chart kinds
    ("blowup-4d-p0", "blowup", ROOT_4D_P0, 0,
     "f2cef3a4dd3b3cc145e9af37bfbca660fc87758208d6baa5ed2fec84f86cf2cb"),
    ("blowup-4d-p2", "blowup", ROOT_4D_P2, 0,
     "d66ac3fa5d4a47e342ef39d6e46e23466c9c0317e289fe5bdc7d388ea8708e03"),
    ("blowup-unnormalized-4d-p0", "blowup --no-normalize", ROOT_4D_P0, 0,
     "7a555d3cf9f29a0253a5f303363ba9faa2eba1f6d4a54971436512181ab3824f"),
    ("blowup-unnormalized-4d-p2", "blowup --no-normalize", ROOT_4D_P2, 0,
     "9324a42494ff31ad106746065ee9f7b56b086790a22c3d6d92440256acdf2d78"),
    # 6 charts from the 3D enumeration, characteristic set on the command line
    ("blowup-unnormalized-3d-p2", "blowup --no-normalize --char 2", DUAL_3D_P0, 0,
     "e579b85fcb7ed342aa567e0d09766e68206b280d94738b1eeda25e61f1183de4"),
    # unnormalized resolutions: a depth cap (exit 3) and trivial stalls (exit 4)
    ("resolve-unnormalized-3d-p0", "resolve",
     '{"dimension": 3, "characteristic": 0, "dual_cone_rays": [[1,0,0],[0,1,0],[2,5,7]], "normalize": false, "max_depth": 3}',
     3, "ee49a2a3c384b10c2e11fe2850597d148a884bc3eea86f675278861717c58b04"),
    ("resolve-unnormalized-3d-p2", "resolve",
     '{"dimension": 3, "characteristic": 2, "dual_cone_rays": [[1,0,0],[0,1,0],[2,5,7]], "normalize": false, "max_depth": 3}',
     4, "5bbce1dd8e87647b56820d5983b1854b3e5419c26ca92018bedc3d162d288d09"),
    # 23 nodes, walk bases with unexchanged generators
    ("resolve-unnormalized-2d-p3", "resolve",
     '{"dimension": 2, "characteristic": 3, "dual_cone_rays": [[1,0],[4,5]], "normalize": false, "max_depth": 6}',
     4, "0a5174a8ed69c33fdc9683b72eca060ec67c6489b01b075771ee3f621e1b9279"),
    # 153 nodes from 32 blowups, many expanded from their lattice class:
    # their stall tests read residues, not their image cones
    ("resolve-unnormalized-2d-15-14-p0", "resolve",
     '{"dimension": 2, "characteristic": 0, "dual_cone_rays": [[15,14],[12,18]], "normalize": false, "max_depth": 6}',
     3, "298a77653b7635263048c324e7e793d246a5355a7af463b4ba0621382f7f0aaa"),
    # <(2,0), (3,0), (0,1)> stalls in p = 2: one chart at (3,1) equal to
    # the root, so `blowup` reports a trivial step and `resolve` one node
    ("blowup-unnormalized-stall-2d-p2", "blowup --no-normalize", STALL_2D_P2, 4,
     "929a676a1170b8c370fc992259908e31c89e4c48c400f68f529420b4a5ee15cf"),
    ("resolve-unnormalized-stall-2d-p2", "resolve --no-normalize", STALL_2D_P2, 4,
     "211c33e37e0d691982fe1c282d65cfbb54e0a7a9f61f70218adbfdf86bb69e43"),
    # the Hilbert basis of cone((20,19), (4,13)) and one sum: a normal
    # surface given by generators, certified saturated when first read, so
    # it and its saturated charts take the closed form and the (n, q) key
    ("resolve-unnormalized-generators-2d-p0", "resolve",
     '{"dimension": 2, "characteristic": 0, "semigroup_generators": [[20,19],[1,1],[1,2],[1,3],[4,13],[21,20]], "normalize": false, "max_depth": 6}',
     3, "dd59da04f4b19c3348ab6056492a4a443146024cd12d831b0a099d078563630a"),
    # 2x2 and 3x3 cofactor adjugates
    ("resolve-2d-p2", "resolve",
     '{"dimension": 2, "characteristic": 2, "dual_cone_rays": [[1,0],[47,50]]}',
     0, "90e0ba0c5b5b881c6f56c0d86077bae4f9483db07f7d2b27b68405e8001229f2"),
    # 71 nodes, 11 blowups: most nodes are expanded from a class met before
    ("resolve-2d-33-16-p5", "resolve",
     '{"dimension": 2, "characteristic": 5, "dual_cone_rays": [[33,16],[16,49]]}',
     0, "c44e100ad74a5230efd4f844974200d34ea7da16962c592ada51e319aab81bff"),
    ("resolve-3d-p2", "resolve", ROOT_3D_P2, 0,
     "5eea79a255507dd1052078c22f7c1df3329d3b7adf349f43ff5bccc47099838d"),
    # the text and DOT renderers
    ("resolve-text-3d-p2", "resolve --format text", ROOT_3D_P2, 0,
     "9faad3c079a72319508b0fcfa9f4f159cd76536464f7f5ca246397a317afd9df"),
    ("resolve-dot-3d-p2", "resolve --format dot", ROOT_3D_P2, 0,
     "2ce8815777c9fa7162dcc38f2c027a172166862e3d0b2dd0959c7e1f65fd5672"),
    # p = 0, 2, 3, 5; the Newton vertices in p = 2 differ from those in p = 0
    ("compare-3d", "compare", DUAL_3D_P0, 0,
     "c8087817b7f697fb80170a9c0fafc45606d7ccd8a33ea17e78ff0e32fa5b471d"),
    ("compare-text-3d", "compare --format text", DUAL_3D_P0, 0,
     "784b18f191ad42ea5e7e43c71e2c3e29ee513580f070871d472d45441be0e931"),
    ("check-text-3d", "check --format text", DUAL_3D_P0, 0,
     "9dbbe64be8c3cd88d63de38eb28f864afe5fe37b9756742b69a4e80718d29d78"),
    # the minimal-generator sweep of an unsaturated semigroup: 14
    # generators, 5 of them redundant, (0, 1, 0) in the cone but not in it
    ("mingen-unsaturated-3d", "mingen",
     '{"dimension": 3, "characteristic": 0, "semigroup_generators": [[3,0,0],[0,4,0],[0,0,5],[1,1,1],[2,1,0],[4,2,0],[3,2,1],[0,5,3],[6,4,2],[5,5,5],[7,1,2],[1,8,0],[2,9,4],[3,3,8]]}',
     0, "138f36ab24a3d7996aab3a5571a3e89c13a943c9d3ad6f2f1c60ffd818873315"),
    # 11^4 parallelepiped points, then a dual cone in 3 simplicial pieces
    ("saturate-5d-simplicial", "saturate",
     '{"dimension": 5, "characteristic": 0, "cone_rays": [[1,0,0,0,0],[0,1,0,0,0],[0,0,1,0,0],[0,0,0,1,0],[2,3,5,7,11]]}',
     0, "e55b3eac926d3bf60937a38e6bd086e6e294367855ad014a3a133a77fe137940"),
    ("saturate-5d-dual-6-rays", "saturate",
     '{"dimension": 5, "characteristic": 0, "dual_cone_rays": [[1,0,0,0,0],[0,1,0,0,0],[0,0,1,0,0],[0,0,0,1,0],[1,2,3,4,7],[3,1,4,1,5]]}',
     0, "8b476940258a3a73b9cf4d5ce8aa19548114586941ea9dceb6cc7d0873a9e6fa"),
)


@pytest.mark.parametrize(
    "command, document, code, digest",
    [pytest.param(*row[1:], id=row[0]) for row in CONSOLE],
)
def test_console_output_digest(command, document, code, digest):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "nashtoric", *command.split()],
        input=document.encode(),
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == code, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


# SHA-256 of the JSON list of (exit code, stdout, stderr) below
MINGEN_ERROR_DIGEST = "8141df3e158819ff5c325172ea9866386b24552577f7dd6773c28c3437818bff"


def test_mingen_error_contract_digest(tmp_path, capsys):
    # random documents, most of them rejected: every field's cone and
    # semigroup errors, in the order they are reported, are pinned
    rng = random.Random(36)
    path = tmp_path / "doc.json"
    results = []
    for _ in range(600):
        dim = rng.randint(1, 4)
        field = rng.choice(("semigroup_generators", "dual_cone_rays", "cone_rays"))
        vectors = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(rng.randint(1, 5))]
        path.write_text(json.dumps({"dimension": dim, "characteristic": 0, field: vectors}))
        code = cli.main(["mingen", str(path)])
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    errors = [json.loads(err)["error"] for code, _, err in results if code]
    for kind in ("non-pointed", "not-full-dimensional", "not-full-lattice"):
        assert errors.count(kind) >= 100, (kind, errors.count(kind))
    assert len(errors) <= len(results) - 100
    digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()
    assert digest == MINGEN_ERROR_DIGEST


def test_no_assert_statements_in_the_library():
    # python -O strips asserts, so invariants raise real errors
    pattern = re.compile(r"^\s*assert\b")
    found = [
        f"{path}:{n}: {line}"
        for path in sorted(SRC.rglob("*.py"))
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)
    ]
    assert not found, "\n".join(found)


def test_no_orphans_in_the_library():
    # every name a module imports is used in it, __init__'s by __all__, and
    # every private (single-underscore) function, class, method or
    # module-level constant is read somewhere in the package outside its
    # own definition; dunder names are exempt
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((SRC / "nashtoric").glob("*.py"))
    }
    orphans = []
    reads = {}
    for path, tree in trees.items():
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used |= {e.value for e in node.value.elts}
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                reads.setdefault(getattr(node, "id", None) or node.attr, []).append(node)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        orphans.append(f"{path}:{node.lineno}: {name} is imported but never used")

    definitions = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((path, node, node.name))
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                definitions += [(path, node, t.id) for t in targets if isinstance(t, ast.Name)]
    for path, definition, name in definitions:
        if not name.startswith("_") or name.startswith("__") and name.endswith("__"):
            continue
        inside = {id(node) for node in ast.walk(definition)}
        if all(id(node) in inside for node in reads.get(name, ())):
            orphans.append(f"{path}:{definition.lineno}: {name} is never read outside its definition")
    assert not orphans, "\n".join(orphans)


def test_library_imports_only_the_standard_library():
    # the library has no dependencies (pyproject lists none): every absolute
    # import names a top-level module of the standard library
    foreign = []
    for path in sorted((SRC / "nashtoric").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign += [
                f"{path}:{node.lineno}: {name} is not in the standard library"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert not foreign, "\n".join(foreign)


def test_only_cones_builds_a_cone_directly():
    # every other module builds a Cone through from_rays or dual, so every
    # cone is pointed and full-dimensional
    found = [
        f"{path}:{node.lineno}: calls Cone(...)"
        for path in sorted((SRC / "nashtoric").glob("*.py"))
        if path.name != "cones.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Name) and node.func.id == "Cone"
            or isinstance(node.func, ast.Attribute) and node.func.attr == "Cone"
        )
    ]
    assert not found, "\n".join(found)


def test_no_self_referencing_closures_in_the_library():
    # a nested function that names itself reaches itself through its
    # closure cell: every call of the enclosing function leaves a cycle
    # for the cyclic garbage collector, unless that function dels the name
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)

    def own_nodes(fn):
        # the nodes of fn's body outside its nested functions, which are
        # yielded but not entered
        todo = list(fn.body)
        while todo:
            node = todo.pop()
            yield node
            if not isinstance(node, functions):
                todo.extend(ast.iter_child_nodes(node))

    found = []
    for path in sorted((SRC / "nashtoric").glob("*.py")):
        for outer in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(outer, functions):
                continue
            nodes = list(own_nodes(outer))
            deleted = {
                t.id
                for node in nodes
                if isinstance(node, ast.Delete)
                for t in node.targets
                if isinstance(t, ast.Name)
            }
            found += [
                f"{path}:{inner.lineno}: {outer.name}.{inner.name} names itself"
                for inner in nodes
                if isinstance(inner, functions)
                and inner.name not in deleted
                and any(isinstance(n, ast.Name) and n.id == inner.name for n in ast.walk(inner))
            ]
    assert not found, "\n".join(found)
