"""The records are named tuples that check their fields on every build:
the constructor, ``_replace``, ``_make``, pickle and copy all raise the
constructor's message on a bad field, and each keeps its keyword
signature with the defaults.  Their cached values are not fields."""

import contextlib
import copy
import inspect
import io
import pickle
import re

import numpy as np
import pytest

from test_analysis import make_config

from qrepeater import cli
from qrepeater.bell import BellDiagonalState
from qrepeater.channel import LinkParams
from qrepeater.exact import DensityMatrix
from qrepeater.ops import NoiseParams, purify_weights, swap_weights
from qrepeater.protocol import Ladder, ProtocolConfig
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


def snapshot(obj):
    return obj, hash(obj), repr(obj), obj._fields, tuple(obj)


class TestCachesAreNotFields:
    """``NoiseParams`` keeps its kernel constants and ``ProtocolConfig`` its
    elementary state outside the tuple: equality, hashing, repr and the
    printed config do not see them, and a replaced record computes its own."""

    def test_noise_params(self):
        noise = NoiseParams(0.97, 0.98, 0.1)
        before = snapshot(noise)
        noise.purify_coefficients, noise.swap_constants
        after = snapshot(noise)
        assert after == before and after[0] == NoiseParams(0.97, 0.98, 0.1)
        assert hash(noise) == hash(NoiseParams(0.97, 0.98, 0.1))
        assert noise._fields == ("p", "eta", "upsilon")

    @pytest.mark.parametrize("f0", [None, 0.97])
    def test_protocol_config(self, f0):
        cfg = make_config(f0=f0)
        before = snapshot(cfg)
        cfg.elementary_state, cfg.noise.purify_coefficients
        Ladder(cfg).time(cfg.depth)
        assert snapshot(cfg) == before
        assert cfg == make_config(f0=f0) and hash(cfg) == hash(make_config(f0=f0))
        assert cfg._fields == ("link", "noise", "m", "target_span", "f0")

    @pytest.mark.parametrize("command", ["simulate", "headline"])
    def test_print_config(self, command):
        def run(*argv):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert cli.main([command, *argv]) == 0
            return out.getvalue()

        printed = run("--print-config")
        run()  # reads every cache on the configs it builds
        assert run("--print-config") == printed

    def test_replaced_noise_purifies_with_its_own_p(self):
        noise = NoiseParams(0.97, 0.97)
        a, b = (0.9, 0.05, 0.03, 0.02), (0.85, 0.1, 0.03, 0.02)
        before = purify_weights(a, b, noise)
        changed = noise._replace(p=0.9)
        assert changed.purify_coefficients[0] == 0.9**2
        fresh = NoiseParams(0.9, 0.97)
        assert purify_weights(a, b, changed) == purify_weights(a, b, fresh) != before
        assert swap_weights(a, b, changed) == swap_weights(a, b, fresh)
        assert purify_weights(a, b, noise) == before

    def test_replaced_config_has_its_own_elementary_state(self):
        cfg = make_config(f0=0.97)
        assert cfg.elementary_state.w_psi_minus == 0.97
        assert cfg._replace(f0=0.9).elementary_state.w_psi_minus == 0.9
        derived = cfg._replace(f0=None).elementary_state
        assert derived == make_config().elementary_state != cfg.elementary_state
