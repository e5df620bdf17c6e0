"""Loading the program under test from the checkout and calling its CLI in-process."""

from __future__ import annotations

import contextlib
import importlib
import io
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"


class ProgramMissing(RuntimeError):
    """The checkout holds no opmeans source to benchmark."""


def load_cli():
    """Import ``opmeans.cli`` from the checkout's ``src`` and nowhere else."""
    package = SOURCE / "opmeans" / "__init__.py"
    if not package.is_file():
        raise ProgramMissing(f"no opmeans source under {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    cli = importlib.import_module("opmeans.cli")
    origin = Path(cli.__file__).resolve()
    if SOURCE.resolve() not in origin.parents:
        raise ProgramMissing(f"opmeans was imported from {origin}, not from {SOURCE}")
    return cli


def run_command(cli, argv):
    """Call ``cli.main(argv)`` with its console output swallowed; returns (exit code, seconds)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(list(argv))
        elapsed = time.perf_counter() - start
    return code, elapsed
