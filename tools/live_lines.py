"""Print each line of src/selcls that no output_digest.py run reaches:

    python tools/live_lines.py

Runs ``output_digest.digests()`` in a temporary directory under
``sys.settrace``, with ``os.sched_getaffinity`` reporting one CPU so that
the grid's cells run in this process. Per module it counts the lines with
bytecode that never ran, and how many of them belong to ``raise``
statements: error handling that no run triggers. Each other never-run
line is printed as ``<line>: <source>``: code that only tests reach, or
a branch that no run takes."""

import ast
import os
import sys
import tempfile

TOOLS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TOOLS), "src", "selcls")


def code_lines(code) -> set:
    """Lines with instructions in ``code`` or a code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def raise_lines(tree) -> set:
    """Lines spanned by the ``raise`` statements of a parsed module."""
    return {line for node in ast.walk(tree) if isinstance(node, ast.Raise)
            for line in range(node.lineno, node.end_lineno + 1)}


def main() -> None:
    sys.path[:0] = [TOOLS, os.path.dirname(SRC)]
    import output_digest  # imports no selcls module, so imports are traced

    ran = {}

    def trace(frame, event, arg):
        if not frame.f_code.co_filename.startswith(SRC):
            return None
        seen = ran.setdefault(frame.f_code.co_filename, set())

        def line(frame, event, arg):
            seen.add(frame.f_lineno)
            return line
        return line

    os.sched_getaffinity = lambda pid: {0}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        sys.settrace(trace)
        try:
            output_digest.digests()
        finally:
            sys.settrace(None)
            os.chdir(cwd)
    for name in sorted(n for n in os.listdir(SRC) if n.endswith(".py")):
        path = os.path.join(SRC, name)
        with open(path) as f:
            source = f.read()
        dead = code_lines(compile(source, path, "exec")) - ran.get(path, set())
        raising = dead & raise_lines(ast.parse(source))
        print(f"src/selcls/{name}: {len(dead)} lines never ran, "
              f"{len(raising)} of them in raise statements")
        for n in sorted(dead - raising):
            print(f"  {n}: {source.splitlines()[n - 1].strip()}")


if __name__ == "__main__":
    main()
