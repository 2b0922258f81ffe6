"""Print each line of src/selcls that no output_digest.py run reaches:

    python tools/live_lines.py

Runs ``output_digest.digests()`` in a temporary directory under
``sys.settrace``, with ``os.sched_getaffinity`` reporting one CPU so that
the grid's cells run in this process. A line with bytecode that never ran
is printed per module as ``<line>: <source>``: code that only tests
reach, and error handling that no run triggers."""

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
        dead = sorted(code_lines(compile(source, path, "exec"))
                      - ran.get(path, set()))
        print(f"src/selcls/{name}: {len(dead)} lines never ran")
        for n in dead:
            print(f"  {n}: {source.splitlines()[n - 1].strip()}")


if __name__ == "__main__":
    main()
