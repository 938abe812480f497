import numpy as np
import pytest


@pytest.fixture
def count_linalg(monkeypatch):
    """Start recording (routine, argument shape) for each call of the named numpy.linalg routines."""

    def start(names=("eigh", "eigvalsh", "cholesky", "inv"), calls=None):
        calls = [] if calls is None else calls
        for name in names:
            def counted(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
                calls.append((_name, np.shape(a)))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return calls

    return start
