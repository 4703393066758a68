"""Purification and swapping: closed forms, the exact-matrix oracle, and
the invariants tying them together."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from qrepeater.bell import ATOL, BellDiagonalState, fidelity, from_fidelity
from qrepeater.exact import (
    BELL_VECTORS,
    bell_offdiagonal_norm,
    cnot,
    noisy_gate,
    partial_trace,
    purify_oracle,
    purify_oracle_matrix,
    swap_oracle,
    swap_oracle_matrix,
    to_density,
)
from qrepeater.ops import (
    MIN_SUCCESS_PROB,
    NoiseParams,
    _xor_convolve,
    connect_chain,
    purify,
    swap,
)

TOL = 1e-12


def random_states(count, seed=0):
    rng = np.random.default_rng(seed)
    return [BellDiagonalState.from_weights(rng.random(4)) for _ in range(count)]


def dejmps_phase_only(f1, f2):
    """Closed-form surviving fidelity and acceptance probability for two
    phase-only pairs under perfect operations."""
    accept = f1 * f2 + (1 - f1) * (1 - f2)
    return f1 * f2 / accept, accept


def chain_phase_only(f, n):
    """Closed-form fidelity of swapping n phase-only pairs of fidelity f."""
    return (1 + (2 * f - 1) ** n) / 2


class TestNoisyGate:
    def setup_method(self):
        singlet = to_density(BellDiagonalState(1, 0, 0, 0)).matrix
        self.rho = np.kron(singlet, singlet)

    def test_p_one_is_ideal_conjugation(self):
        u = cnot(0, 2, 4)
        out = noisy_gate(self.rho, u, (0, 2), 1.0)
        assert np.max(np.abs(out - u @ self.rho @ u.conj().T)) < TOL

    def test_p_zero_depolarises_node_pair(self):
        out = noisy_gate(self.rho, np.eye(16, dtype=complex), (0, 2), 0.0)
        assert np.trace(out).real == pytest.approx(1.0, abs=TOL)
        node = partial_trace(out, (0, 2), 4)
        assert np.max(np.abs(node - np.eye(4) / 4)) < TOL

    def test_identity_gate_marginal_fidelity(self):
        # p = 0.995 identity gate: first-pair fidelity 0.995*1 + 0.005*0.25
        out = noisy_gate(self.rho, np.eye(16, dtype=complex), (0, 2), 0.995)
        pair1 = partial_trace(out, (0, 1), 4)
        f = np.real(BELL_VECTORS[0].conj() @ pair1 @ BELL_VECTORS[0])
        assert f == pytest.approx(0.995 + 0.005 * 0.25, abs=TOL)


class TestPurify:
    def test_perfect_inputs_perfect_ops(self):
        s = BellDiagonalState(1, 0, 0, 0)
        out = purify(s, s, NoiseParams(1.0, 1.0))
        assert out.success_prob == pytest.approx(1.0, abs=TOL)
        assert np.max(np.abs(out.state.weights - [1, 0, 0, 0])) < TOL

    @pytest.mark.parametrize("f", [0.9, 0.95])
    def test_phase_only_closed_form(self, f):
        expected_f, expected_p = dejmps_phase_only(f, f)
        s = from_fidelity(f, 0.0)
        out = purify(s, s, NoiseParams(1.0, 1.0))
        assert fidelity(out.state) == pytest.approx(expected_f, abs=TOL)
        assert out.success_prob == pytest.approx(expected_p, abs=TOL)
        oracle = purify_oracle(s, s, NoiseParams(1.0, 1.0))
        assert fidelity(oracle.state) == pytest.approx(expected_f, abs=TOL)

    def test_noisy_case_matches_oracle(self):
        s = from_fidelity(0.9, 0.25)
        noise = NoiseParams(0.99, 0.99)
        fast = purify(s, s, noise)
        oracle = purify_oracle(s, s, noise)
        assert fast.success_prob == pytest.approx(oracle.success_prob, abs=TOL)
        assert np.max(np.abs(fast.state.weights - oracle.state.weights)) < TOL

    def test_gain_above_half(self):
        for f in [0.55, 0.7, 0.9, 0.99]:
            s = from_fidelity(f, 0.0)
            out = purify(s, s, NoiseParams(1.0, 1.0))
            assert fidelity(out.state) > f

    def test_symmetric_success_prob(self):
        a, b = random_states(2, seed=5)
        for p, eta in [(1.0, 1.0), (0.99, 0.97), (0.95, 0.9)]:
            noise = NoiseParams(p, eta)
            assert purify(a, b, noise).success_prob == pytest.approx(
                purify(b, a, noise).success_prob, abs=TOL
            )

    def test_symmetric_state_with_ideal_measurement(self):
        # the conditioned state map commutes in its arguments as long as
        # the accept decision is never misreported
        a, b = random_states(2, seed=6)
        for p in [1.0, 0.999, 0.99, 0.95]:
            noise = NoiseParams(p, 1.0)
            ab, ba = purify(a, b, noise), purify(b, a, noise)
            assert np.max(np.abs(ab.state.weights - ba.state.weights)) < TOL


class TestSwap:
    def test_perfect_singlets(self):
        s = BellDiagonalState(1, 0, 0, 0)
        out = swap(s, s, NoiseParams(1.0, 1.0))
        assert np.max(np.abs(out.weights - [1, 0, 0, 0])) < TOL

    def test_phase_only_closed_form(self):
        s = from_fidelity(0.99, 0.0)
        out = swap(s, s, NoiseParams(1.0, 1.0))
        assert out.w_psi_minus == pytest.approx(0.99**2 + 0.01**2, abs=TOL)
        assert out.w_psi_plus == pytest.approx(2 * 0.99 * 0.01, abs=TOL)

    def test_werner_composition(self):
        werner = from_fidelity(0.95, 1.0 / 3.0)
        out = swap(werner, werner, NoiseParams(1.0, 1.0))
        x = (4 * 0.95 - 1) / 3
        assert fidelity(out) == pytest.approx((1 + 3 * x * x) / 4, abs=TOL)

    def test_symmetry(self):
        a, b = random_states(2, seed=7)
        for p, eta in [(1.0, 1.0), (0.99, 0.95), (0.95, 0.99)]:
            noise = NoiseParams(p, eta)
            assert np.max(np.abs(swap(a, b, noise).weights - swap(b, a, noise).weights)) < TOL

    def test_degrades_phase_only_inputs(self):
        for f1, f2 in [(0.9, 0.9), (0.8, 0.95), (0.6, 0.99), (0.5, 0.7)]:
            out = swap(from_fidelity(f1, 0.0), from_fidelity(f2, 0.0), NoiseParams(1.0, 1.0))
            assert fidelity(out) <= min(f1, f2) + TOL


class TestConnectChain:
    def test_single_pair_identity(self):
        s = from_fidelity(0.9, 0.2)
        out = connect_chain([s], NoiseParams(1.0, 1.0))
        assert np.max(np.abs(out.weights - s.weights)) < TOL

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            connect_chain([], NoiseParams(1.0, 1.0))

    def test_four_pair_phase_only_chain(self):
        s = from_fidelity(0.99, 0.0)
        out = connect_chain([s] * 4, NoiseParams(1.0, 1.0))
        assert fidelity(out) == pytest.approx(chain_phase_only(0.99, 4), abs=TOL)

    def test_two_perfect_singlets(self):
        s = BellDiagonalState(1, 0, 0, 0)
        out = connect_chain([s, s], NoiseParams(1.0, 1.0))
        assert np.max(np.abs(out.weights - [1, 0, 0, 0])) < TOL


class TestOracleEquivalence:
    GRID = [1.0, 0.999, 0.99, 0.95]

    def test_purify_and_swap_match_oracle(self):
        # smaller sibling of the acceptance criterion run
        states = random_states(40, seed=11)
        pairs = list(zip(states[:20], states[20:]))
        worst = 0.0
        for (a, b), p, eta in itertools.product(pairs, self.GRID, self.GRID):
            noise = NoiseParams(p, eta)
            fast = purify(a, b, noise)
            oracle = purify_oracle(a, b, noise)
            worst = max(worst, abs(fast.success_prob - oracle.success_prob))
            worst = max(worst, float(np.max(np.abs(fast.state.weights - oracle.state.weights))))
            worst = max(
                worst,
                float(np.max(np.abs(swap(a, b, noise).weights - swap_oracle(a, b, noise).weights))),
            )
        assert worst < TOL

    def test_oracle_outputs_stay_bell_diagonal(self):
        states = random_states(10, seed=13)
        for a, b in zip(states[:5], states[5:]):
            for p, eta in [(1.0, 1.0), (0.99, 0.95)]:
                noise = NoiseParams(p, eta)
                kept, _ = purify_oracle_matrix(a, b, noise)
                assert bell_offdiagonal_norm(kept) < TOL
                assert bell_offdiagonal_norm(swap_oracle_matrix(a, b, noise)) < TOL


class TestNoiseMonotonicity:
    GRID = [1.0, 0.999, 0.995, 0.99]

    @staticmethod
    def _pump_fixed_point(c_state, noise):
        state = c_state
        prev = fidelity(state)
        for _ in range(10_000):
            out = purify(state, c_state, noise)
            state = out.state
            f = fidelity(state)
            if abs(f - prev) <= 1e-13:
                break
            prev = f
        return fidelity(state)

    def test_swap_fidelity_nonincreasing_in_noise(self):
        a = from_fidelity(0.95, 0.1)
        for eta in self.GRID:
            fids = [fidelity(swap(a, a, NoiseParams(p, eta))) for p in self.GRID]
            assert all(f1 + TOL >= f2 for f1, f2 in zip(fids, fids[1:]))
        for p in self.GRID:
            fids = [fidelity(swap(a, a, NoiseParams(p, eta))) for eta in self.GRID]
            assert all(f1 + TOL >= f2 for f1, f2 in zip(fids, fids[1:]))

    def test_pump_fixed_point_nonincreasing_in_noise(self):
        c = from_fidelity(0.9, 0.1)
        for eta in self.GRID:
            fps = [self._pump_fixed_point(c, NoiseParams(p, eta)) for p in self.GRID]
            assert all(f1 + 1e-9 >= f2 for f1, f2 in zip(fps, fps[1:]))
        for p in self.GRID:
            fps = [self._pump_fixed_point(c, NoiseParams(p, eta)) for eta in self.GRID]
            assert all(f1 + 1e-9 >= f2 for f1, f2 in zip(fps, fps[1:]))


class TestUnpurifiable:
    def test_zero_success_flagged(self):
        # orthogonal parity classes under perfect ops never accept
        a = BellDiagonalState(1, 0, 0, 0)
        b = BellDiagonalState(0, 1, 0, 0)
        out = purify(a, b, NoiseParams(1.0, 1.0))
        assert not out.purifiable
        assert out.state is None


def bell_states():
    return st.lists(
        st.floats(min_value=0.0, max_value=1.0), min_size=4, max_size=4
    ).filter(lambda w: sum(w) > 1e-6).map(BellDiagonalState.from_weights)


reliabilities = st.floats(min_value=1e-3, max_value=1.0)


def assert_normalised(state):
    w = state.weights
    assert np.all(w >= 0.0) and np.all(w <= 1.0)
    assert abs(w.sum() - 1.0) <= TOL


class TestKernelProperties:
    @given(a=bell_states(), b=bell_states(), p=reliabilities, eta=reliabilities)
    def test_purify_normalised_with_probability_in_unit_interval(self, a, b, p, eta):
        out = purify(a, b, NoiseParams(p, eta))
        assert 0.0 <= out.success_prob <= 1.0
        if out.purifiable:
            assert_normalised(out.state)

    @given(s=bell_states(), p=reliabilities, eta=reliabilities)
    def test_purifying_two_copies_accepts_at_least_half(self, s, p, eta):
        # Agreeing parities weigh (w0+w2)^2 + (w1+w3)^2 >= 1/2, and a
        # faithful report is at least as likely as a false one.  The sum
        # can land one ulp below 1/2 (weights (0, 0, 1/2, 1/2) at eta = 0.97 do).
        assert purify(s, s, NoiseParams(p, eta)).success_prob >= 0.5 - TOL

    @given(a=bell_states(), b=bell_states(), p=reliabilities, eta=reliabilities)
    def test_swap_normalised(self, a, b, p, eta):
        assert_normalised(swap(a, b, NoiseParams(p, eta)))

    @given(length=st.integers(min_value=1, max_value=8))
    def test_identity_on_singlets_with_perfect_operations(self, length):
        singlet = BellDiagonalState(1.0, 0.0, 0.0, 0.0)
        perfect = NoiseParams(1.0, 1.0)
        out = purify(singlet, singlet, perfect)
        assert out.success_prob == 1.0
        assert out.state == singlet
        assert swap(singlet, singlet, perfect) == singlet
        assert connect_chain([singlet] * length, perfect) == singlet


# Test-only references: the numpy bodies of ``from_weights``, ``purify`` and
# ``swap`` before the kernels moved to plain floats.  The kernels must
# reproduce them bit for bit: the 1e-12 oracle checks cannot see a change in
# the order four weights are added, but the last printed digit can.

_REF_BITS = ((1, 1), (1, 0), (0, 0), (0, 1))
_REF_BIT_INDEX = {bits: k for k, bits in enumerate(_REF_BITS)}
_REF_XOR = np.array(
    [[_REF_BIT_INDEX[(a1 ^ a2, z1 ^ z2)] for (a2, z2) in _REF_BITS] for (a1, z1) in _REF_BITS]
)


def reference_from_weights(w):
    w = np.asarray(w, dtype=float)
    if w.shape != (4,):
        raise ValueError(f"expected 4 Bell weights, got shape {w.shape}")
    if np.any(w < -ATOL):
        raise ValueError(f"Bell weights must be nonnegative, got {w.tolist()}")
    total = float(w.sum())
    if total <= 0.0:
        raise ValueError("Bell weights sum to zero; state undefined")
    w = np.clip(w / total, 0.0, 1.0)
    w = w / w.sum()
    return BellDiagonalState(*w.tolist())


def reference_xor_convolve(u, v):
    out = np.zeros(4)
    for i in range(4):
        out[_REF_XOR[i]] += u[i] * v
    return out


def reference_purify(a, b, noise):
    wa, wb = a.weights, b.weights
    a0, a1, a2, a3 = wa
    b0, b1, b2, b3 = wb
    same = np.array(
        [a0 * b0 + a2 * b2, a0 * b2 + a2 * b0, a1 * b3 + a3 * b1, a1 * b1 + a3 * b3]
    )
    cross = np.array(
        [a0 * b3 + a2 * b1, a0 * b1 + a2 * b3, a1 * b0 + a3 * b2, a1 * b2 + a3 * b0]
    )
    p2 = noise.p**2
    eta = noise.eta
    g_same = eta**2 + (1.0 - eta) ** 2
    g_cross = 2.0 * eta * (1.0 - eta)
    unnorm = p2 * (g_same * same + g_cross * cross) + (1.0 - p2) / 8.0
    success = min(float(unnorm.sum()), 1.0)
    if success < MIN_SUCCESS_PROB:
        return None, success
    return reference_from_weights(unnorm / success), success


def reference_swap(a, b, noise):
    eta = noise.eta
    meas_err = np.zeros(4)
    for (ea, ez), k in _REF_BIT_INDEX.items():
        meas_err[k] = (1.0 - eta if ea else eta) * (1.0 - eta if ez else eta)
    ideal = reference_xor_convolve(reference_xor_convolve(a.weights, b.weights), meas_err)
    ideal = ideal[_REF_XOR[_REF_BIT_INDEX[(1, 1)]]]
    out = noise.p * ideal + (1.0 - noise.p) / 4.0
    return reference_from_weights(out)


def bits(state):
    """The four weights as exact hex strings (tells -0.0 from 0.0)."""
    return None if state is None else [float(x).hex() for x in state.weights.tolist()]


def raw_weights():
    """Length-4 vectors from_weights accepts or rejects by sign or zero sum,
    including the small negatives it clips."""
    return st.lists(
        st.one_of(
            st.floats(min_value=0.0, max_value=1.0),
            st.floats(min_value=-1e-12, max_value=1e-12),
            st.floats(min_value=0.0, max_value=1e6),
            st.sampled_from([0.0, -0.0, -2e-12]),
        ),
        min_size=4,
        max_size=4,
    )


def from_weights_outcome(build, w):
    """Weight bits of ``build(w)``, or the type and message it raised."""
    try:
        return bits(build(w))
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


#: Inputs of the wrong shape or kind, each built fresh (a generator is
#: consumed by its first use).
MALFORMED_WEIGHTS = {
    "column (4, 1)": lambda: np.full((4, 1), 0.25),
    "nested list (4, 1)": lambda: [[0.25], [0.25], [0.25], [0.25]],
    "matrix (2, 2)": lambda: [[0.5, 0.0], [0.0, 0.5]],
    "length 3": lambda: [0.5, 0.25, 0.25],
    "length 5": lambda: [0.2] * 5,
    "empty": lambda: [],
    "generator": lambda: (x for x in [0.25] * 4),
}


@st.composite
def edge_states(draw):
    """States built directly, bypassing from_weights: at least one weight is
    +0.0, -0.0 or a small negative in [-1e-12, 0), which the constructor
    accepts and which sends the kernels' from_weights down its clip branch."""
    edges = draw(st.lists(
        st.one_of(
            st.sampled_from([0.0, -0.0]),
            st.floats(min_value=-1e-12, max_value=0.0, exclude_max=True),
        ),
        min_size=1, max_size=3,
    ))
    rest = draw(st.lists(
        st.floats(min_value=1e-3, max_value=1.0), min_size=4 - len(edges), max_size=4 - len(edges)
    ))
    scale = (1.0 - sum(edges)) / sum(rest)
    weights = draw(st.permutations(edges + [x * scale for x in rest]))
    try:
        return BellDiagonalState(*weights)
    except ValueError:
        assume(False)


#: Fixed edge cases of the above, so every run sees both signs of zero and
#: a negative weight where a product keeps it negative.
EDGE_STATES = [
    BellDiagonalState(1.0, 0.0, -0.0, 0.0),
    BellDiagonalState(1.0, -0.0, -0.0, -0.0),
    BellDiagonalState(0.5, 0.5, -0.0, 0.0),
    BellDiagonalState(1.0, 0.0, -1e-13, 1e-13),
    BellDiagonalState(0.9, 0.1 + 5e-13, -5e-13, 0.0),
    BellDiagonalState(-1e-12, 0.5, 0.5 + 1e-12, 0.0),
]

kernel_states = st.one_of(bell_states(), edge_states(), st.sampled_from(EDGE_STATES))


def kernel_outcome(kernel, *args):
    """Weight bits of a kernel's state, with the acceptance probability for
    purify, or the type and message of the error it raised."""
    try:
        out = kernel(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    if type(out) is tuple:  # the reference purify; a state is a tuple subclass
        return bits(out[0]), out[1]
    if hasattr(out, "success_prob"):
        return bits(out.state), out.success_prob
    return bits(out)


class TestKernelsMatchNumpyReference:
    @given(
        u=st.lists(st.floats(-1.0, 1.0) | st.sampled_from([0.0, -0.0]), min_size=4, max_size=4),
        v=st.lists(st.floats(-1.0, 1.0) | st.sampled_from([0.0, -0.0]), min_size=4, max_size=4),
    )
    def test_xor_convolve_sums_in_i_order(self, u, v):
        expected = []
        for k in range(4):
            total = 0.0
            for i in range(4):
                total += u[i] * v[_REF_XOR[i][k]]
            expected.append(total.hex())
        assert [x.hex() for x in _xor_convolve(u, v)] == expected

    @given(w=raw_weights())
    def test_from_weights(self, w):
        try:
            expected = bits(reference_from_weights(w))
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                BellDiagonalState.from_weights(w)
            assert str(raised.value) == str(exc)
        else:
            assert bits(BellDiagonalState.from_weights(w)) == expected
            assert bits(BellDiagonalState.from_weights(np.array(w))) == expected

    @given(
        w=st.one_of(raw_weights(), st.lists(st.integers(-2, 9), min_size=4, max_size=4)),
        form=st.sampled_from([list, tuple, np.array, lambda w: [np.float64(x) for x in w]]),
    )
    def test_from_weights_input_forms(self, w, form):
        # Only a list of four Python floats skips np.asarray; every other
        # form must give the reference's bits or its error.
        expected = from_weights_outcome(reference_from_weights, form(w))
        assert from_weights_outcome(BellDiagonalState.from_weights, form(w)) == expected

    @pytest.mark.parametrize("make", MALFORMED_WEIGHTS.values(), ids=MALFORMED_WEIGHTS)
    def test_from_weights_malformed_inputs(self, make):
        expected = from_weights_outcome(reference_from_weights, make())
        assert from_weights_outcome(BellDiagonalState.from_weights, make()) == expected

    @given(a=kernel_states, b=kernel_states, p=reliabilities, eta=reliabilities)
    def test_purify(self, a, b, p, eta):
        noise = NoiseParams(p, eta)
        expected = kernel_outcome(reference_purify, a, b, noise)
        assert kernel_outcome(purify, a, b, noise) == expected

    @given(a=kernel_states, b=kernel_states, p=reliabilities, eta=reliabilities)
    def test_swap(self, a, b, p, eta):
        noise = NoiseParams(p, eta)
        assert kernel_outcome(swap, a, b, noise) == kernel_outcome(reference_swap, a, b, noise)

    @pytest.mark.parametrize("p", [1.0, 0.97])
    @pytest.mark.parametrize("a", EDGE_STATES)
    def test_edge_states_take_both_branches(self, a, p):
        noise = NoiseParams(p, 1.0)
        for b in EDGE_STATES:
            expected = kernel_outcome(reference_purify, a, b, noise)
            assert kernel_outcome(purify, a, b, noise) == expected
            assert kernel_outcome(swap, a, b, noise) == kernel_outcome(reference_swap, a, b, noise)

    @pytest.mark.parametrize("p", [1.0, 0.999, 0.995, 0.97])
    @pytest.mark.parametrize("f0", [1.0, 0.98, 0.9])
    @pytest.mark.parametrize("upsilon", [0.0, 0.3])
    def test_chained_like_a_ladder(self, p, f0, upsilon):
        # Near-singlet states fed back into the kernels, as the ladder does.
        noise = NoiseParams(p, p, upsilon)
        new = ref = from_fidelity(f0, upsilon)
        for _ in range(12):
            new, ref = swap(new, new, noise), reference_swap(ref, ref, noise)
            assert bits(new) == bits(ref)
            out, (ref, success) = purify(new, new, noise), reference_purify(ref, ref, noise)
            assert out.success_prob == success
            new = out.state
            assert bits(new) == bits(ref)
