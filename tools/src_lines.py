"""Print the size and dispatch-site counts of the library's source.

    python3 tools/src_lines.py

Prints the non-blank lines of each module under ``src/volterra_feller`` and
their total, then two dispatch-site counts over all modules: comparisons of
a ``family`` name or attribute by ``==``, ``!=``, ``in`` or ``not in``,
and ``isinstance`` calls whose class names a kernel (a name ending in
``Kernel``) or whose object is named ``kernel``.
"""

import ast
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "volterra_feller")


def _name(node):
    # the identifier of a name or attribute node, else None
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _family_branch(node):
    return (isinstance(node, ast.Compare)
            and any(isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)) for op in node.ops)
            and any(_name(side) == "family" for side in (node.left, *node.comparators)))


def _kernel_isinstance(node):
    if not (isinstance(node, ast.Call) and _name(node.func) == "isinstance"
            and len(node.args) == 2):
        return False
    obj, cls = node.args
    classes = cls.elts if isinstance(cls, ast.Tuple) else [cls]
    return _name(obj) == "kernel" or any(str(_name(c)).endswith("Kernel") for c in classes)


def main():
    total = family = kernel = 0
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name), encoding="utf-8") as f:
            text = f.read()
        lines = sum(1 for line in text.splitlines() if line.strip())
        total += lines
        nodes = list(ast.walk(ast.parse(text)))
        family += sum(map(_family_branch, nodes))
        kernel += sum(map(_kernel_isinstance, nodes))
        print(f"{lines:6d}  {name}")
    print(f"{total:6d}  total non-blank lines")
    print(f"{family:6d}  family == branches")
    print(f"{kernel:6d}  kernel isinstance checks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
