"""Print the size of taskdec's public surface: its line count and its options.

The line count is that of ``cat src/taskdec/*.py | wc -l``.  A public
option is an optional parameter of a module-level function in
``src/taskdec/*.py`` whose name does not start with ``_``, or a field of
``testkit.GenParams``.  The options are read from the source text, so
nothing is imported.  ``tests/test_surface.py`` pins the list: a new knob
fails that test until the pinned list is edited on purpose.

Run from the repository root:

    python scripts/surface.py
"""
from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "taskdec"


def line_count(src: Path = SRC) -> int:
    return sum(len(path.read_text().splitlines()) for path in sorted(src.glob("*.py")))


def public_options(src: Path = SRC) -> list[str]:
    """``module.function(parameter)`` for each option, ``GenParams.field`` for each field."""
    options = []
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                args = node.args
                positional = args.posonlyargs + args.args
                optional = positional[len(positional) - len(args.defaults):] + [
                    arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                    if default is not None
                ]
                options += [f"{path.stem}.{node.name}({arg.arg})" for arg in optional]
            elif isinstance(node, ast.ClassDef) and node.name == "GenParams":
                options += [
                    f"GenParams.{field.target.id}"
                    for field in node.body
                    if isinstance(field, ast.AnnAssign)
                ]
    return options


def main() -> None:
    options = public_options()
    print(f"src/taskdec/*.py: {line_count()} lines")
    print(f"public options: {len(options)}")
    for option in options:
        print(f"  {option}")


if __name__ == "__main__":
    main()
