"""The one regenerator behind the three cross-commit golden files.

``test_sim_golden.py``, ``test_vectorized_golden.py`` and
``test_serve_limiter_golden.py`` each pin what the code computed at one
commit in a ``GOLDEN`` table. Run as a script, each prints that table's
entries for the ``src`` on ``PYTHONPATH`` through :func:`regenerate`, so
"regenerate on the parent, reproduce on the change" is one ``diff`` of
the same file run against two source trees::

    diff <(PYTHONPATH=<parent>/src python tests/test_vectorized_golden.py) \\
         <(PYTHONPATH=src python tests/test_vectorized_golden.py)
"""

from typing import Callable, Mapping, Sequence, Union


def regenerate(
    cells: Union[Mapping[str, object], Sequence[tuple]], fingerprint: Callable
) -> None:
    """Print one ``GOLDEN`` entry per cell, in the cells' order.

    A mapping names its cells (``"name": fingerprint(cell)``); a sequence
    of argument tuples is keyed by the tuple (``cell: fingerprint(*cell)``).
    """
    if isinstance(cells, Mapping):
        for name, cell in cells.items():
            print(f'    "{name}": {fingerprint(cell)!r},')
    else:
        for cell in cells:
            print(f"    {cell!r}: {fingerprint(*cell)!r},")
