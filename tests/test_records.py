"""The records are named tuples that check their fields on every build:
the constructor, ``_replace``, ``_make``, pickle and copy all raise the
constructor's message on a bad field, and each keeps its keyword
signature with the defaults."""

import copy
import inspect
import pickle
import re

import numpy as np
import pytest

from qrepeater.bell import BellDiagonalState
from qrepeater.channel import LinkParams
from qrepeater.exact import DensityMatrix
from qrepeater.ops import NoiseParams
from qrepeater.protocol import ProtocolConfig
from qrepeater.timing import Duration

#: (a valid record, fields that make it invalid)
BAD_CHANGES = {
    "state": (BellDiagonalState(0.7, 0.1, 0.1, 0.1), {"w_psi_minus": 0.9}),
    "noise": (NoiseParams(0.99, 0.99), {"p": 0.0}),
    "link": (LinkParams(), {"l0_km": -1.0}),
    "duration": (Duration(1.0, 0.5), {"var": -1.0}),
    "protocol config": (ProtocolConfig(LinkParams(), NoiseParams()), {"target_span": 4}),
    "density matrix": (DensityMatrix(np.eye(2) / 2), {"matrix": np.eye(2)}),
}


@pytest.mark.parametrize("good, changes", BAD_CHANGES.values(), ids=BAD_CHANGES)
def test_bad_replace_raises_the_constructors_message(good, changes):
    with pytest.raises(ValueError) as built:
        type(good)(**{**good._asdict(), **changes})
    message = re.escape(str(built.value))
    with pytest.raises(ValueError, match=f"^{message}$"):
        good._replace(**changes)
    with pytest.raises(ValueError, match=f"^{message}$"):
        type(good)._make({**good._asdict(), **changes}.values())


@pytest.mark.parametrize("good, changes", BAD_CHANGES.values(), ids=BAD_CHANGES)
def test_pickle_and_copy_build_through_the_constructor(good, changes, monkeypatch):
    for clone in (pickle.loads(pickle.dumps(good)), copy.copy(good), copy.deepcopy(good)):
        assert type(clone) is type(good) and repr(clone) == repr(good)
    # Bad fields handed back on the way in reach the constructor's check.
    bad_args = tuple({**good._asdict(), **changes}.values())
    monkeypatch.setattr(type(good), "__getnewargs__", lambda self: bad_args)
    for rebuild in (lambda: pickle.loads(pickle.dumps(good)), lambda: copy.copy(good)):
        with pytest.raises(ValueError):
            rebuild()


def test_signatures_keep_the_fields_and_defaults():
    def params(cls):
        return [(p.name, p.default) for p in inspect.signature(cls).parameters.values()]

    assert params(LinkParams) == [
        ("l0_km", 20.0), ("attenuation_db_per_km", 0.2), ("p_em", 0.05),
        ("eps_local", 1.0), ("t0_s", 1e-6), ("tc_s", None),
    ]
    assert params(NoiseParams) == [("p", 1.0), ("eta", 1.0), ("upsilon", 0.0)]
    assert params(Duration) == [("mean", inspect.Parameter.empty), ("var", 0.0)]
    assert [name for name, _ in params(ProtocolConfig)] == [*ProtocolConfig._fields]
    assert params(ProtocolConfig)[2:] == [("m", 3), ("target_span", 15), ("f0", None)]


def test_density_matrix_freezes_a_copy_not_the_callers_array():
    given = np.eye(2, dtype=complex) / 2
    record = DensityMatrix(given)
    assert given.flags.writeable
    assert not record.matrix.flags.writeable
    given[0, 0] = 1.0  # the record keeps the values it was built from
    assert record.matrix[0, 0] == 0.5
