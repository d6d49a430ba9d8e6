"""One harness per evaluation table.

Each ``repro.experiments.<table>.run`` holds the table's canonical
parameters as its defaults, and :func:`write_result` is the one writer
of ``results/<name>.md``: the benchmarks and ``jobs/run_table.py`` both
call the harness at its defaults and write through it.
"""
from __future__ import annotations

import os

from repro.nn.pretrained import results_dir


def write_result(name: str, markdown: str) -> str:
    """Write a table's ``markdown()`` to ``<results_dir()>/<name>.md``
    and return the path."""
    out_dir = results_dir()
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}.md")
    with open(path, "w") as f:
        f.write(markdown + "\n")
    return path
