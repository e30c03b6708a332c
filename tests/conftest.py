import hashlib
import os
from pathlib import Path

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def make_rng(*key):
    """Deterministic generator keyed by a mixed tuple, so tests never share
    streams; strings are hashed down to ints for SeedSequence."""
    ints = [
        k if isinstance(k, int)
        else int.from_bytes(hashlib.sha256(str(k).encode()).digest()[:8], "big")
        for k in key
    ]
    return np.random.default_rng(np.random.SeedSequence(ints))


class _KeepsNothing(dict):
    """Stands in for qsim's step store and for each oracle's entry in it:
    it stays empty, and setdefault hands back this dict itself."""

    def __setitem__(self, key, value):
        pass

    def setdefault(self, key, default=None):
        return self


def store_free(run, *args):
    """run(*args) with qsim's step store swapped out for one that keeps
    nothing, so every interpreter it builds computes each of its ops: the
    reference a run that reads kept steps back is checked against."""
    from shufflesim import qsim

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qsim, "_steps", _KeepsNothing())
        return run(*args)


def cli_env(extra=None):
    """Environment for a `python -m shufflesim` child process.

    The directory holding the imported `shufflesim` package goes first on
    PYTHONPATH as an absolute path, so the child runs the package under test
    from any working directory (a relative `PYTHONPATH=src` does not resolve
    inside `tmp_path`) and ahead of any copy installed in site-packages.
    Inherited `SHUFFLESIM_*` variables are dropped so they cannot change the
    child's defaults; `extra` is applied last."""
    import shufflesim

    env = {k: v for k, v in os.environ.items() if not k.startswith("SHUFFLESIM_")}
    src = str(Path(shufflesim.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    if extra:
        env.update(extra)
    return env
