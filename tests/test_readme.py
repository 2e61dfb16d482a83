"""The README's examples run as written."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_values():
    # every expression line of the block ends in "# value", and the value
    # runs to the first double space; the statements run in order
    block = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace = {}
    checked = []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
            expected = ast.literal_eval(comment.split("  ")[0])
            got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert got == expected, (ast.unparse(stmt), got)
            checked.append(expected)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert checked == [((2,), (3,)), ((3,),), 2, ["expanded", "smooth-leaf"]]
