"""How the benchmark starts Python interpreters: its workers, CLI processes and probes."""

import os
import sys

# -S leaves out the host's site-packages set-up (.pth hooks), which neither
# the package nor the benchmark needs and which varies between machines.
PYTHON = [sys.executable, "-S"]


def child_env(**extra: str) -> dict[str, str]:
    """The parent's environment with bytecode caching on.

    An installed package is imported from cached bytecode; with
    PYTHONDONTWRITEBYTECODE set, every start would compile it again.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(extra)
    return env
