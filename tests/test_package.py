"""The public namespace: every exported name resolves."""

import qsim


def test_every_public_name_resolves():
    missing = [name for name in qsim.__all__ if not hasattr(qsim, name)]
    assert missing == []
    namespace: dict = {}
    exec("from qsim import *", namespace)
    assert set(qsim.__all__) <= set(namespace)
