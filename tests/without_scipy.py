"""Run the `noonring` command in an interpreter where scipy cannot be imported.

    PYTHONPATH=src python tests/without_scipy.py protocol2 --grid 4 --out results

A meta-path finder refuses every import of the `scipy` package and of its
submodules, so a module that imports scipy at import time, or while the
experiment runs, fails the command.  Exits with the command's exit code.
"""

import sys


class BlockScipy:
    """Meta-path finder that raises ImportError for scipy and scipy.*."""

    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
        return None


if __name__ == "__main__":
    sys.meta_path.insert(0, BlockScipy())
    from noonring.cli import main

    sys.exit(main(sys.argv[1:]))
