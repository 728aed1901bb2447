"""Print the raw and code-only line counts of every hopscope module, and their totals.

    python tools/loc.py [--src PATH/TO/src]

The code-only count drops blank lines, lines that hold only a ``#``
comment, and every line of a module, class or function docstring (found
through ``ast``). Uses only the standard library.
"""

import argparse
import ast
from pathlib import Path


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def counts(path: Path) -> tuple[int, int]:
    """``(raw, code-only)`` line counts of one Python file."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    skip = docstring_lines(ast.parse(text))
    code = sum(1 for i, line in enumerate(lines, start=1)
               if i not in skip and line.strip() and not line.strip().startswith("#"))
    return len(lines), code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="the source root that holds hopscope (default: this checkout's src)")
    args = parser.parse_args(argv)
    total_raw = total_code = 0
    print(f"{'module':<20} {'raw':>6} {'code':>6}")
    for path in sorted((Path(args.src) / "hopscope").glob("*.py")):
        raw, code = counts(path)
        total_raw += raw
        total_code += code
        print(f"{path.name:<20} {raw:>6} {code:>6}")
    print(f"{'total':<20} {total_raw:>6} {total_code:>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
