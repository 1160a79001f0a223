"""Unit tests for the state-vector layer."""
import math

import pytest
from hypothesis import assume, given, strategies as st

from tqsim import (
    Observable,
    PrePostEnsemble,
    SpacetimePoint,
    StateVector,
    abl_probability,
    complete_weights,
    confirm,
    cuts,
    inner_product,
    normalize,
    rebase,
)

SQ = math.sqrt(0.5)


class TestStateVector:
    def test_basic_construction(self):
        s = StateVector(("R", "L"), (complex(SQ), complex(SQ)))
        assert s.amp("R") == complex(SQ)
        assert s.amp("L") == complex(SQ)
        assert s.is_normalized()

    def test_from_amplitudes_preserves_order(self):
        s = StateVector.from_amplitudes({"b": 0.6, "a": 0.8j})
        assert s.labels == ("b", "a")
        assert s.amps == (0.6 + 0j, 0.8j)

    def test_unknown_label(self):
        s = StateVector(("R",), (1.0,))
        with pytest.raises(KeyError):
            s.amp("L")

    def test_empty_basis_rejected(self):
        with pytest.raises(ValueError, match="empty basis"):
            StateVector((), ())

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="differ in length"):
            StateVector(("R", "L"), (1.0,))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate basis labels"):
            StateVector(("R", "R"), (1.0, 0.0))

    def test_non_finite_amplitude_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            StateVector(("R",), (complex("inf"),))

    def test_norm2(self):
        s = StateVector(("A", "B"), (0.6, 0.8j))
        assert s.norm2() == pytest.approx(1.0, abs=1e-15)


class TestNormalize:
    def test_three_four_becomes_unit(self):
        s = normalize(StateVector(("A", "B"), (3.0, 4.0j)))
        assert s.amps == (0.6 + 0j, 0.8j)

    def test_already_unit_returned_untouched(self):
        s = StateVector(("A", "B"), (1.0, 0.0))
        assert normalize(s) is s

    def test_idempotent(self):
        once = normalize(StateVector(("A", "B"), (1.0, 1.0)))
        assert normalize(once).amps == once.amps

    def test_null_state_rejected(self):
        with pytest.raises(ValueError, match="null state"):
            normalize(StateVector(("A", "B"), (0.0, 0.0)))

    @pytest.mark.parametrize("amp", [1e200, 1.3e154, 1e200j])
    def test_overflowing_norm_rejected(self, amp):
        # 1e200 squares to inf; 1.3e154 squares finitely, but the sum overflows.
        state = StateVector(("A", "B"), (amp, amp))
        assert state.norm2() == math.inf
        with pytest.raises(ValueError, match="^squared norm overflows$"):
            normalize(state)


class TestInnerProduct:
    def test_self_overlap_is_norm(self):
        s = StateVector(("A", "B"), (complex(SQ), complex(SQ)))
        assert inner_product(s, s) == pytest.approx(1.0, abs=1e-15)

    def test_left_argument_conjugated(self):
        a = StateVector(("A",), (1j,))
        b = StateVector(("A",), (1.0,))
        assert inner_product(a, b) == -1j

    def test_orthogonal(self):
        up = StateVector(("u", "d"), (1.0, 0.0))
        down = StateVector(("u", "d"), (0.0, 1.0))
        assert inner_product(up, down) == 0j

    def test_basis_mismatch(self):
        with pytest.raises(ValueError, match="basis mismatch"):
            inner_product(StateVector(("A",), (1.0,)), StateVector(("B",), (1.0,)))


class TestObservable:
    def test_per_label(self):
        obs = Observable.per_label(("R", "L"))
        assert obs.names == ("R", "L")
        assert obs.group("R") == ("R",)

    def test_from_groups(self):
        obs = Observable.from_groups({"near": ("a",), "far": ("b", "c")})
        assert obs.group("far") == ("b", "c")
        assert obs.covered_labels() == {"a", "b", "c"}

    def test_unknown_group(self):
        with pytest.raises(KeyError, match="unknown outcome group"):
            Observable.per_label(("R",)).group("L")

    def test_overlapping_groups_rejected(self):
        with pytest.raises(ValueError, match="more than one group"):
            Observable.from_groups({"g1": ("a", "b"), "g2": ("b",)})

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="empty outcome group"):
            Observable.from_groups({"g1": ()})


class TestBornWeight:
    def test_half_half(self):
        s = StateVector(("R", "L"), (complex(SQ), complex(SQ)))
        assert complete_weights(s, Observable.per_label(s.labels))["R"] == pytest.approx(0.5, abs=1e-12)

    def test_eigenstate(self):
        s = StateVector(("R", "L"), (1.0, 0.0))
        obs = Observable.per_label(s.labels)
        assert complete_weights(s, obs) == {"R": 1.0, "L": 0.0}

    def test_complex_amplitude(self):
        s = StateVector(("A", "B"), (0.6, 0.8j))
        assert complete_weights(s, Observable.per_label(s.labels))["B"] == pytest.approx(0.64, abs=1e-12)

    def test_group_weight_adds_members(self):
        s = normalize(StateVector(("a", "b", "c"), (1.0, 1.0, 1.0)))
        obs = Observable.from_groups({"ab": ("a", "b"), "c": ("c",)})
        assert complete_weights(s, obs)["ab"] == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_partition_must_cover_basis(self):
        s = StateVector(("A", "B"), (0.6, 0.8))
        with pytest.raises(ValueError, match="does not partition"):
            complete_weights(s, Observable.per_label(("A",)))

    def test_unnormalized_state_rejected(self):
        s = StateVector(("A", "B"), (1.0, 1.0))
        with pytest.raises(ValueError, match="not normalized"):
            complete_weights(s, Observable.per_label(s.labels))


class TestCompleteWeights:
    def test_three_channel(self):
        s = StateVector(("A", "B", "C"), (complex(SQ), 0.5, 0.5))
        w = complete_weights(s, Observable.per_label(s.labels))
        assert w["A"] == pytest.approx(0.5, abs=1e-12)
        assert w["B"] == pytest.approx(0.25, abs=1e-12)
        assert w["C"] == pytest.approx(0.25, abs=1e-12)
        assert math.fsum(w.values()) == pytest.approx(1.0, abs=1e-12)


class TestResidualProbability:
    # The mass no present absorber claims is the residual slice of the
    # sequential split over the candidates the state confirms.
    def residual(self, state, present):
        at = SpacetimePoint(1.0, 0.0)
        txs = confirm(SpacetimePoint(0.0, 0.0), state, [(ch, ch, at) for ch in present])
        return cuts("sequential", txs)[2]

    def test_partial_coverage(self):
        s = StateVector(("A", "B", "C"), (complex(SQ), 0.5, 0.5))
        assert self.residual(s, ("B", "C")) == pytest.approx(0.5, abs=1e-12)

    def test_full_coverage_leaves_nothing(self):
        s = StateVector(("A", "B"), (complex(SQ), complex(SQ)))
        assert self.residual(s, ("A", "B")) == 0.0

    def test_nobody_present(self):
        assert self.residual(StateVector(("A",), (1.0,)), ()) == 1.0


class TestAblProbability:
    # Qubit pre (1,0) with post (1,1)/sqrt(2), all in the computational basis.
    def pre(self):
        return StateVector(("up", "down"), (1.0, 0.0))

    def post(self):
        return StateVector(("up", "down"), (complex(SQ), complex(SQ)))

    def test_certain_intermediate_outcome(self):
        ens = PrePostEnsemble(self.pre(), self.post())
        obs = Observable.per_label(("up", "down"))
        assert abl_probability(ens, obs, "up") == 1.0
        assert abl_probability(ens, obs, "down") == 0.0

    def test_rotated_intermediate_is_even_odds(self):
        # Same ensemble viewed through a third, mutually unbiased partition.
        ybasis = {
            "+y": StateVector(("up", "down"), (complex(SQ), SQ * 1j)),
            "-y": StateVector(("up", "down"), (complex(SQ), -SQ * 1j)),
        }
        ens = PrePostEnsemble(rebase(self.pre(), ybasis), rebase(self.post(), ybasis))
        p = abl_probability(ens, Observable.per_label(("+y", "-y")), "+y")
        assert p == pytest.approx(0.5, abs=1e-12)

    def test_unknown_outcome(self):
        ens = PrePostEnsemble(self.pre(), self.post())
        with pytest.raises(KeyError, match="unknown outcome group"):
            abl_probability(ens, Observable.per_label(("up", "down")), "sideways")

    def test_orthogonal_ensemble_rejected(self):
        down = StateVector(("up", "down"), (0.0, 1.0))
        with pytest.raises(ValueError, match="vanishing pre/post overlap"):
            PrePostEnsemble(self.pre(), down)

    def test_mismatched_bases_rejected(self):
        other = StateVector(("l", "r"), (1.0, 0.0))
        with pytest.raises(ValueError, match="different bases"):
            PrePostEnsemble(self.pre(), other)


class TestRebase:
    def test_plus_z_in_x_basis(self):
        xbasis = {
            "+x": StateVector(("up", "down"), (complex(SQ), complex(SQ))),
            "-x": StateVector(("up", "down"), (complex(SQ), complex(-SQ))),
        }
        s = rebase(StateVector(("up", "down"), (1.0, 0.0)), xbasis)
        assert s.labels == ("+x", "-x")
        assert s.amp("+x") == pytest.approx(SQ, abs=1e-15)
        assert s.amp("-x") == pytest.approx(SQ, abs=1e-15)
        assert complete_weights(s, Observable.per_label(s.labels))["+x"] == pytest.approx(0.5, abs=1e-12)


# -- property-based checks ----------------------------------------------------

def states(dim):
    amp = st.tuples(
        st.floats(-1, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False)
    ).map(lambda p: complex(*p))
    labels = tuple(f"c{i}" for i in range(dim))

    def build(amps):
        raw = StateVector(labels, amps)
        assume(raw.norm2() > 1e-6)
        return normalize(raw)

    return st.tuples(*([amp] * dim)).map(build)


@given(st.integers(2, 6).flatmap(states))
def test_complete_weights_sum_to_one(state):
    w = complete_weights(state, Observable.per_label(state.labels))
    assert math.fsum(w.values()) == pytest.approx(1.0, abs=1e-9)
    assert all(v >= 0.0 for v in w.values())


@given(states(4))
def test_coarse_grouping_adds_fine_weights(state):
    fine = complete_weights(state, Observable.per_label(state.labels))
    coarse = Observable.from_groups(
        {"front": state.labels[:2], "back": state.labels[2:]}
    )
    front = complete_weights(state, coarse)["front"]
    assert front == pytest.approx(fine["c0"] + fine["c1"], abs=1e-12)


@given(states(2), states(2))
def test_abl_outcomes_sum_to_one(pre, post):
    assume(abs(inner_product(post, pre)) > 1e-3)
    ens = PrePostEnsemble(pre, post)
    obs = Observable.per_label(pre.labels)
    total = sum(abl_probability(ens, obs, name) for name in obs.names)
    assert total == pytest.approx(1.0, abs=1e-12)


@given(states(3))
def test_abl_with_equal_pre_and_post_squares_the_weights(state):
    # Independent oracle: with post = pre each numerator is the squared
    # Born weight, so P(g) = w_g^2 / sum_k w_k^2.
    w = complete_weights(state, Observable.per_label(state.labels))
    denom = math.fsum(v * v for v in w.values())
    assume(denom > 1e-9)
    ens = PrePostEnsemble(state, state)
    obs = Observable.per_label(state.labels)
    for name, v in w.items():
        assert abl_probability(ens, obs, name) == pytest.approx(v * v / denom, abs=1e-9)


@given(st.integers(2, 5).flatmap(states))
def test_normalize_is_idempotent(state):
    assert normalize(state).amps == state.amps
