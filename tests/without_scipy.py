"""Run the `noonring` command in an interpreter where scipy's subpackages cannot be imported.

    PYTHONPATH=src python tests/without_scipy.py protocol2 --grid 4 --out results

A meta-path finder refuses every import of the BLOCKED subpackages (and of
their submodules), so a module that imports one of them at import time, or
while the experiment runs, fails the command.  The bare `scipy` package
stays importable: the manifest records its version.  Exits with the
command's exit code.
"""

import sys

BLOCKED = ("linalg", "optimize", "integrate", "special", "sparse", "constants")


class BlockScipySubpackages:
    """Meta-path finder that raises ImportError for scipy.<BLOCKED>[.*]."""

    def find_spec(self, name, path=None, target=None):
        parts = name.split(".")
        if parts[0] == "scipy" and len(parts) > 1 and parts[1] in BLOCKED:
            raise ImportError(f"{name} is blocked")
        return None


if __name__ == "__main__":
    sys.meta_path.insert(0, BlockScipySubpackages())
    from noonring.cli import main

    sys.exit(main(sys.argv[1:]))
