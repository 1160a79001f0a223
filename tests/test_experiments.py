"""Experiment layouts, the JSON document form, validation, and single trials."""
import copy
import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import tqsim
from conftest import FakeRng
from tqsim import (
    DEGENERATE,
    AbsorberConfig,
    Always,
    BUILTIN_EXPERIMENTS,
    CoinOutcome,
    ContingencyRule,
    DceMode,
    DivertChannel,
    EventKind,
    ExperimentSpec,
    PlaceAbsorber,
    ResolutionStrategy,
    RunConfig,
    ScreenModel,
    SpacetimePoint,
    SpecError,
    StateVector,
    StrategyError,
    TransactionFailed,
    builtin_spec,
    check_bilking,
    dce_spec,
    initial_transactions,
    load_spec,
    maudlin_spec,
    miller_spec,
    resolve_hierarchy,
    run_experiment,
    run_payload,
    screen_amplitudes,
    screen_distribution,
    spec_to_document,
    validate_spec,
    visibility,
)
from tqsim.experiments import INTERFERENCE, WHICH_SLIT
from tqsim.program import Leaf, compile_program

ALL_BUILTINS = ("maudlin", "miller", "dce-keep", "dce-remove", "dce-coinflip")


# -- bundled arrangements -----------------------------------------------------

def test_builtin_registry_names():
    assert set(BUILTIN_EXPERIMENTS) == set(ALL_BUILTINS)
    for name in ALL_BUILTINS:
        assert builtin_spec(name).name == name


def test_builtin_unknown_name():
    with pytest.raises(SpecError, match="unknown experiment"):
        builtin_spec("nosuch")


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_builtins_validate_clean(name):
    assert validate_spec(builtin_spec(name)) == []


def test_maudlin_layout():
    spec = maudlin_spec()
    a, b = spec.absorbers
    assert (a.id, b.id) == ("A", "B")
    assert a.initially_present and not b.initially_present
    assert (a.channel, b.channel) == ("R", "L")
    rule = spec.rules[0]
    assert rule.trigger == TransactionFailed("A", 1.0)
    assert rule.action == PlaceAbsorber("B", "L", SpacetimePoint(2.0, -1.0))
    assert rule.time == 2.0


def test_maudlin_legs_are_timelike():
    txs = {t.absorber: t for t in initial_transactions(maudlin_spec())}
    assert set(txs) == {"A"}
    assert txs["A"].weight == pytest.approx(0.5, abs=1e-12)
    assert txs["A"].interval2 == pytest.approx(0.75, abs=1e-12)


def test_miller_legs_are_lightlike():
    spec = miller_spec()
    txs = initial_transactions(spec)
    assert {t.absorber for t in txs} == {"A", "B"}
    for t in txs:
        assert t.interval2 == 0.0
        assert t.weight == pytest.approx(0.5, abs=1e-12)
    # The divert target is lightlike too.
    (bp,) = [a for a in spec.absorbers if a.id == "B_prime"]
    assert bp.position.t ** 2 - bp.position.x ** 2 == 0.0


def test_miller_initial_competition_is_degenerate_without_tie_break():
    txs = initial_transactions(miller_spec())
    assert resolve_hierarchy(txs, FakeRng([0.5]), tie_break=False) == DEGENERATE


def test_dce_modes():
    keep = dce_spec(DceMode.ALWAYS_KEEP)
    remove = dce_spec("remove")
    flip = dce_spec("coinflip")
    assert (keep.name, remove.name, flip.name) == ("dce-keep", "dce-remove", "dce-coinflip")
    assert keep.rules == ()
    assert remove.rules[0].trigger == Always()
    assert remove.rules[0].time == 1.5
    assert flip.coin.labels == ("up", "down")
    assert flip.coin.flip_time == 1.5
    assert flip.rules[0].trigger == CoinOutcome("up")
    # Removal happens strictly after the flip.
    assert flip.rules[0].time > flip.coin.flip_time
    with pytest.raises(ValueError):
        dce_spec("sideways")


def test_dce_screen_bins_shadow_the_telescopes():
    spec = dce_spec("keep")
    txs = initial_transactions(spec)
    assert len(txs) == spec.screen.bins
    assert all(t.absorber.startswith("bin") for t in txs)
    assert math.fsum(t.weight for t in txs) == pytest.approx(1.0, abs=1e-9)
    assert all(t.interval2 == 0.0 for t in txs)


def test_bin_channels():
    assert maudlin_spec().bin_channels() == frozenset()
    bins = dce_spec("keep").bin_channels()
    assert len(bins) == 201
    assert "bin000" in bins


# -- screen model -------------------------------------------------------------

def test_screen_model_geometry():
    m = ScreenModel(2.0, 1.0, 100.0, 5, 10.0)
    assert m.bin_width == 2.0
    centers = m.bin_centers()
    assert list(centers) == [-4.0, -2.0, 0.0, 2.0, 4.0]
    assert m.bin_labels() == ("bin000", "bin001", "bin002", "bin003", "bin004")


@pytest.mark.parametrize("bins", [1, 4, 0])
def test_screen_model_rejects_bad_bin_counts(bins):
    with pytest.raises(ValueError, match="odd bin count"):
        ScreenModel(2.0, 1.0, 100.0, bins, 10.0)


def test_screen_model_rejects_nonpositive_lengths():
    with pytest.raises(ValueError, match="wavelength must be positive"):
        ScreenModel(2.0, -1.0, 100.0, 3, 10.0)
    with pytest.raises(ValueError, match="span must be positive"):
        ScreenModel(2.0, 1.0, 100.0, 3, 0.0)


@pytest.mark.parametrize("field", ["slit_separation", "wavelength", "distance", "span"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_screen_model_rejects_non_finite_lengths(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be positive and finite$"):
        replace(dce_spec("keep").screen, **{field: value})


def test_compile_locates_a_screen_whose_amplitudes_overflow():
    # Every field is finite and positive, so the screen model takes it; the
    # path over the wavelength overflows when the screen answers.
    spec = dce_spec("keep")
    spec = replace(spec, screen=replace(spec.screen, wavelength=1e-308))
    with pytest.raises(ValueError, match=r"^screen: geometry gives no finite bin basis \("):
        compile_program.__wrapped__(spec, "sequential")
    for mode in (INTERFERENCE, WHICH_SLIT):
        with pytest.raises(ValueError, match=r"^screen: geometry gives no finite bin basis \("):
            screen_distribution(spec.screen, mode)


def test_screen_amplitudes_normalized_with_central_peak():
    spec = dce_spec("keep")
    binned = screen_amplitudes(spec.screen, spec.initial_state)
    assert binned.is_normalized()
    probs = [abs(a) ** 2 for a in binned.amps]
    assert max(probs) == probs[spec.screen.bins // 2]


def test_screen_amplitudes_need_two_channels():
    s3 = StateVector(("a", "b", "c"), (1.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="two-channel state"):
        screen_amplitudes(ScreenModel(2.0, 1.0, 100.0, 3, 10.0), s3)


def test_half_wavelength_path_difference_cancels():
    # Place the outer bin centers exactly where the two path lengths differ
    # by half a wavelength; the equal-amplitude sum there must vanish.
    d, lam, L = 2.0, 1.0, 100.0

    def path_gap(x):
        return math.hypot(L, x + d / 2) - math.hypot(L, x - d / 2)

    lo, hi = 0.0, L
    for _ in range(200):
        mid = (lo + hi) / 2
        if path_gap(mid) < lam / 2:
            lo = mid
        else:
            hi = mid
    null_x = (lo + hi) / 2

    model = ScreenModel(d, lam, L, 3, 3 * null_x)
    probs = screen_distribution(model, INTERFERENCE)
    assert probs[0] <= 1e-9
    assert probs[2] <= 1e-9
    assert probs[1] == pytest.approx(1.0, abs=1e-9)


def test_screen_distribution_modes_normalized():
    model = dce_spec("keep").screen
    for mode in (INTERFERENCE, WHICH_SLIT):
        probs = screen_distribution(model, mode)
        assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)
        assert all(p >= 0 for p in probs)


def test_which_slit_profile_carries_no_fringes():
    model = dce_spec("keep").screen
    assert visibility(screen_distribution(model, WHICH_SLIT)) < 0.05
    assert visibility(screen_distribution(model, INTERFERENCE)) >= 0.99


def test_screen_distribution_unknown_mode():
    with pytest.raises(ValueError, match="unknown screen mode"):
        screen_distribution(dce_spec("keep").screen, "sideways")


# -- JSON document form -------------------------------------------------------

@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_document_round_trip(name):
    spec = builtin_spec(name)
    doc = spec_to_document(spec)
    again = load_spec(json.dumps(doc))
    assert again == spec
    assert spec_to_document(again) == doc


def good_doc():
    return spec_to_document(maudlin_spec())


@pytest.mark.parametrize("part", ["trigger", "action"])
def test_dump_refuses_a_trigger_or_action_no_table_knows(part):
    spec = maudlin_spec()
    rule = replace(spec.rules[0], **{part: "sometimes"})
    with pytest.raises(TypeError, match=f"^unknown {part} 'sometimes'$"):
        spec_to_document(replace(spec, rules=(rule,)))


def test_load_normalizes_amplitudes():
    doc = good_doc()
    doc["state"] = [{"channel": "R", "re": 3.0}, {"channel": "L", "re": 0.0, "im": 4.0}]
    spec = load_spec(doc)
    assert spec.initial_state.amps == (0.6 + 0j, 0.8j)


def test_load_rejects_parse_garbage():
    with pytest.raises(SpecError, match="^parse error:"):
        load_spec("{nope")


@pytest.mark.parametrize(
    "source",
    [
        "[" * 100_000 + "]" * 100_000,
        '{"name": ' + "1" * 5_000 + "}",
        b'{"name": "\xff"}',
    ],
    ids=["over-deep", "over-long-integer", "invalid-utf8"],
)
def test_load_reports_every_parse_failure_as_a_spec_error(source):
    with pytest.raises(SpecError, match="^parse error:"):
        load_spec(source)


def test_load_rejects_unknown_document_fields():
    doc = good_doc()
    doc["extra"] = 1
    with pytest.raises(SpecError, match=r"document: unknown field\(s\) \['extra'\]"):
        load_spec(doc)


def test_load_refuses_a_mapping_with_keys_of_mixed_types():
    doc = good_doc()
    doc.update({1: "one", "extra": 2})
    with pytest.raises(SpecError, match=r"^document: unknown field\(s\) \[1, 'extra'\]$"):
        load_spec(doc)


def test_load_rejects_missing_fields():
    doc = good_doc()
    del doc["state"]
    with pytest.raises(SpecError, match=r"missing field\(s\) \['state'\]"):
        load_spec(doc)


def test_load_rejects_unknown_state_fields():
    doc = good_doc()
    doc["state"][0]["phase"] = 0.5
    with pytest.raises(SpecError, match=r"state\[0\]: unknown field\(s\)"):
        load_spec(doc)


def test_load_rejects_null_state():
    doc = good_doc()
    doc["state"] = [{"channel": "R", "re": 0.0}, {"channel": "L", "re": 0.0}]
    with pytest.raises(SpecError, match="state: null state"):
        load_spec(doc)


@pytest.mark.parametrize("re", [1e200, 1.3e154])
def test_load_refuses_a_state_whose_norm_overflows(re):
    # Each amplitude is finite; its square, or the sum of squares, is not.
    doc = good_doc()
    for entry in doc["state"]:
        entry["re"] = re
    with pytest.raises(SpecError, match="^state: squared norm overflows$"):
        load_spec(doc, validate=False)


@pytest.mark.parametrize(
    "text,field",
    [
        ('{"name": "maudlin", "name": "other"}', "name"),
        ('{"name": "maudlin", "emission": {"t": 0.0, "x": 0.0, "t": 1.0}}', "t"),
    ],
    ids=["document", "nested"],
)
def test_load_refuses_duplicate_fields_in_text(text, field):
    # json.loads alone would keep the last value silently.
    with pytest.raises(SpecError, match=f"^parse error: duplicate field '{field}'$"):
        load_spec(text)


def test_load_rejects_boolean_numbers():
    doc = good_doc()
    doc["absorbers"][0]["t"] = True
    with pytest.raises(SpecError, match="must be a number"):
        load_spec(doc)


def test_load_rejects_non_boolean_present():
    doc = good_doc()
    doc["absorbers"][0]["present"] = 1
    with pytest.raises(SpecError, match="'present' must be a boolean"):
        load_spec(doc)


def test_load_rejects_unknown_trigger_kind():
    doc = good_doc()
    doc["rules"][0]["trigger"] = {"kind": "sometimes"}
    with pytest.raises(SpecError, match="rules\\[0\\].trigger: unknown trigger kind 'sometimes'"):
        load_spec(doc)


def test_load_refuses_transaction_succeeded_trigger():
    # A success ends the trial, so no rule can be contingent on one.
    doc = good_doc()
    doc["rules"][0]["trigger"] = {"kind": "transaction-succeeded", "id": "A", "t": 1.0}
    expected = r"^rules\[0\]\.trigger: unknown trigger kind 'transaction-succeeded'$"
    with pytest.raises(SpecError, match=expected):
        load_spec(json.dumps(doc))


def test_load_rejects_unknown_action_kind():
    doc = good_doc()
    doc["rules"][0]["action"] = {"kind": "teleport"}
    with pytest.raises(SpecError, match="unknown action kind 'teleport'"):
        load_spec(doc)


def test_load_rejects_bad_coin_weights():
    doc = spec_to_document(dce_spec("coinflip"))
    doc["coin"]["weights"] = [0.5, "half"]
    with pytest.raises(SpecError, match=r"coin: weights\[1\] must be a number"):
        load_spec(doc)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400])
def test_load_rejects_non_finite_numbers(value):
    # maudlin without its rule and with B present: a NaN absorption time
    # once made the event walk spin forever.
    doc = good_doc()
    del doc["rules"]
    doc["absorbers"][1].update(present=True, t=value)
    with pytest.raises(SpecError, match=r"^absorbers\[1\]: field 't' must be a finite number$"):
        load_spec(doc, validate=False)


def test_load_rejects_infinite_placement_time():
    doc = good_doc()
    doc["rules"][0]["action"]["t"] = math.inf
    with pytest.raises(SpecError, match=r"^rules\[0\].action: field 't' must be a finite number$"):
        load_spec(doc, validate=False)


def test_load_rejects_non_finite_coin_weights():
    doc = spec_to_document(dce_spec("coinflip"))
    doc["coin"]["weights"] = [0.5, math.nan]
    with pytest.raises(SpecError, match=r"^coin: weights\[1\] must be a finite number$"):
        load_spec(doc, validate=False)


# Specs built in Python never pass load_spec's finiteness check.  Each case
# puts a NaN time into one entry; the walk once spun forever on such a time.
_NAN_TIME_CASES = """
import json, math
from dataclasses import replace
from tqsim import PlaceAbsorber, RunConfig, SpacetimePoint, TransactionFailed
from tqsim import dce_spec, maudlin_spec, run_experiment, validate_spec

nan = math.nan
m, c = maudlin_spec(), dce_spec("coinflip")
rule = m.rules[0]
b_at_nan = replace(m.absorbers[1], position=SpacetimePoint(nan, -1.0), initially_present=True)
cases = {
    "absorber": replace(m, rules=(), absorbers=(m.absorbers[0], b_at_nan)),
    "emission": replace(m, emission=SpacetimePoint(nan, 0.0)),
    "rule": replace(m, rules=(replace(rule, time=nan),)),
    "trigger": replace(m, rules=(replace(rule, trigger=TransactionFailed("A", nan)),)),
    "placement": replace(
        m, rules=(replace(rule, action=PlaceAbsorber("B", "L", SpacetimePoint(nan, -1.0))),)
    ),
    "coin": replace(c, coin=replace(c.coin, flip_time=nan)),
}
out = {}
for name, spec in cases.items():
    try:
        run_experiment(spec, RunConfig(10, 1))
        error = None
    except ValueError as e:
        error = str(e)
    out[name] = {"validate": validate_spec(spec), "run": error}
print(json.dumps(out))
"""


def test_python_built_spec_with_nan_time_is_refused_in_bounded_time():
    # A separate process with a timeout, so a regression cannot hang the suite.
    env = dict(os.environ, PYTHONPATH=str(Path(tqsim.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _NAN_TIME_CASES],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["absorber"] == {
        "validate": ["absorber 'B': time must be a finite number"],
        "run": "absorber 'B': time must be a finite number",
    }
    assert out["emission"]["run"] == "emission: time must be a finite number"
    assert out["rule"]["run"] == "rule 0: time must be a finite number"
    assert out["trigger"]["run"] == "rule 0 trigger: time must be a finite number"
    assert out["placement"]["run"] == "rule 0 placement: time must be a finite number"
    assert out["coin"]["run"] == "coin: time must be a finite number"
    for name, result in out.items():
        assert result["validate"], name


# A rule-heavy spec: n channels, absorber a_k on c_k starts absent and absorbs
# at t = 2 + k, and an always rule places each one.  The coin flips at
# emission, so validation stops before compile.
_MANY_RULES = """
import json, sys, time
from tqsim import (AbsorberConfig, Always, CoinConfig, ContingencyRule, ExperimentSpec,
                   PlaceAbsorber, SpacetimePoint, StateVector, validate_spec)

n = int(sys.argv[1])
at = [SpacetimePoint(2.0 + k, 0.0) for k in range(n)]
spec = ExperimentSpec(
    name="many-rules",
    emission=SpacetimePoint(0.0, 0.0),
    initial_state=StateVector(tuple(f"c{k}" for k in range(n)), (complex(n ** -0.5),) * n),
    absorbers=tuple(AbsorberConfig(f"a{k}", f"c{k}", at[k], initially_present=False) for k in range(n)),
    rules=tuple(ContingencyRule(Always(), PlaceAbsorber(f"a{k}", f"c{k}", at[k]), 1.5) for k in range(n)),
    coin=CoinConfig(("up", "down"), (0.5, 0.5), 0.0),
)
start = time.perf_counter()
problems = validate_spec(spec)
print(json.dumps({"problems": problems, "seconds": time.perf_counter() - start}))
"""


def test_validate_answers_a_40000_rule_spec_in_bounded_time():
    # The static checks once scanned every absorber per rule, which took 21 s
    # on 2 CPUs.  A separate process with a timeout, so a regression cannot
    # hang the suite.
    env = dict(os.environ, PYTHONPATH=str(Path(tqsim.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _MANY_RULES, "40000"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["problems"] == ["coin flips before emission"]
    assert out["seconds"] < 5.0


def test_load_rejects_coin_rule_links():
    # Coin-outcome triggers alone say which label arms which rule.
    doc = spec_to_document(dce_spec("coinflip"))
    doc["coin"]["on"] = {"up": 0}
    with pytest.raises(SpecError, match=r"^coin: unknown field\(s\) \['on'\]$"):
        load_spec(doc)


@pytest.mark.parametrize("key", ["d", "lambda", "L", "span"])
def test_load_locates_a_bad_screen_number_once(key):
    doc = spec_to_document(dce_spec("keep"))
    doc["screen"][key] = "x"
    with pytest.raises(SpecError, match=f"^screen: field '{key}' must be a number$"):
        load_spec(doc, validate=False)


def test_load_rejects_bad_screen_bins():
    doc = spec_to_document(dce_spec("keep"))
    doc["screen"]["bins"] = 200
    with pytest.raises(SpecError, match="screen: screen needs an odd bin count"):
        load_spec(doc)


def test_load_without_validation_defers_checks():
    doc = good_doc()
    doc["rules"][0]["time"] = 0.5
    spec = load_spec(doc, validate=False)  # parses fine
    assert any(p.startswith("retro-placement") for p in validate_spec(spec))
    with pytest.raises(SpecError, match="retro-placement"):
        load_spec(doc)


_MUTANT_VALUES = (None, "", "x", 0, -1, 1.5, 10**400, True, [], {})


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _paths(doc, skip):
    """Every path into ``doc`` (key and index tuples, the root first), depth
    first in key order, leaving out those ``skip`` rejects and all below them."""
    stack, out = [()], []
    while stack:
        path = stack.pop()
        out.append(path)
        node = _at(doc, path)
        keys = list(node) if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else []
        stack.extend(path + (k,) for k in reversed(keys) if not skip(path + (k,), node))
    return out


def _edited(doc, path, edit):
    """A copy of ``doc`` with ``edit(container, key)`` applied at ``path``;
    only the containers along the path are copied."""
    root = copy.copy(doc)
    node = root
    for key in path[:-1]:
        node[key] = copy.copy(node[key])
        node = node[key]
    edit(node, path[-1])
    return root


def _single_mutations(doc, skip):
    """Each key dropped, each value replaced by each of ``_MUTANT_VALUES`` and
    each list entry duplicated, one at a time."""
    for path in _paths(doc, skip):
        if not path:
            yield from _MUTANT_VALUES
            continue
        if isinstance(path[-1], str):
            yield _edited(doc, path, lambda node, key: node.pop(key))
        for value in _MUTANT_VALUES:
            yield _edited(doc, path, lambda node, key: node.__setitem__(key, copy.deepcopy(value)))
        if isinstance(path[-1], int):
            yield _edited(doc, path, lambda node, key: node.insert(key, node[key]))


def _middle_absorber(path, parent):
    # dce-coinflip's 203 absorbers are alike: mutate only the first and last two.
    return len(path) == 2 and path[0] == "absorbers" and 2 <= path[1] < len(parent) - 2


def _load_outcome(doc):
    try:
        return repr(load_spec(doc, validate=False))
    except SpecError as e:
        return f"SpecError: {e}"


# sha256 over the load outcomes of 1 614 single mutations: the spec's repr, or
# the SpecError text.  Recorded before the document code became one table per
# block, once a bad screen number was no longer located twice ("screen: screen:").
LOAD_CORPUS_SHA256 = "4b85c6a34c7a9d178edc47e43c0b39a36e50650ad39d0d81745ccd839395138e"


def test_load_outcomes_of_every_single_mutation_are_pinned():
    h = hashlib.sha256()
    for name in ("maudlin", "miller", "dce-coinflip"):
        doc = spec_to_document(builtin_spec(name))
        skip = _middle_absorber if name == "dce-coinflip" else lambda path, parent: False
        for mutant in _single_mutations(doc, skip):
            h.update((_load_outcome(mutant) + "\n").encode())
    assert h.hexdigest() == LOAD_CORPUS_SHA256


# dce-keep and dce-coinflip are left out: each takes 0.14-0.21 s to validate.
_FUZZ_DOCS = {name: spec_to_document(builtin_spec(name)) for name in ("maudlin", "miller", "dce-remove")}
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-4.0, 4.0) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)


@st.composite
def _mutated_documents(draw):
    """One to three edits, each at a drawn path: mostly a replacement, by a
    value of the same type from elsewhere in the document three times in four,
    so that some mutants still load and run; else a drop or a duplication."""
    doc = _FUZZ_DOCS[draw(st.sampled_from(sorted(_FUZZ_DOCS)))]
    for _ in range(draw(st.integers(1, 3))):
        paths = _paths(doc, _middle_absorber)[1:]
        path = draw(st.sampled_from(paths))
        edits = ["replace"] * 3 + ["drop" if isinstance(path[-1], str) else "duplicate"]
        if draw(st.sampled_from(edits)) == "replace":
            same_type = [v for v in (_at(doc, p) for p in paths) if type(v) is type(_at(doc, path))]
            anything = st.sampled_from(_MUTANT_VALUES) | _json_values
            value = draw(st.sampled_from(same_type) if draw(st.integers(0, 3)) else anything)
            doc = _edited(doc, path, lambda node, key: node.__setitem__(key, copy.deepcopy(value)))
        elif isinstance(path[-1], str):
            doc = _edited(doc, path, lambda node, key: node.pop(key))
        else:
            doc = _edited(doc, path, lambda node, key: node.insert(key, node[key]))
    return doc


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_mutated_documents())
def test_a_mutated_document_is_refused_or_runs_clean(doc):
    try:
        spec = load_spec(doc)
    except SpecError:
        return
    for strategy in ResolutionStrategy:
        try:
            _, report = run_experiment(spec, RunConfig(1000, 3, strategy=strategy))
        except StrategyError:
            continue
        assert report.clean(), strategy


# -- validation ---------------------------------------------------------------

def spec_of(absorbers, rules=(), state=None, **kw):
    state = state or StateVector(("R", "L"), (complex(math.sqrt(0.5)),) * 2)
    return ExperimentSpec(
        name="custom",
        emission=SpacetimePoint(0.0, 0.0),
        initial_state=state,
        absorbers=tuple(absorbers),
        rules=tuple(rules),
        **kw,
    )


def test_validate_two_absorbers_one_channel():
    spec = spec_of(
        [
            AbsorberConfig("A", "R", SpacetimePoint(1.0, 0.5)),
            AbsorberConfig("A2", "R", SpacetimePoint(2.0, 1.0)),
        ]
    )
    assert "two absorbers on channel 'R' simultaneously present" in validate_spec(spec)


def test_validate_duplicate_ids():
    spec = spec_of(
        [
            AbsorberConfig("A", "R", SpacetimePoint(1.0, 0.5)),
            AbsorberConfig("A", "L", SpacetimePoint(1.0, -0.5)),
        ]
    )
    assert "duplicate absorber id 'A'" in validate_spec(spec)


def test_validate_unknown_channel():
    spec = spec_of([AbsorberConfig("A", "Q", SpacetimePoint(1.0, 0.0))])
    assert "absorber 'A' on unknown channel 'Q'" in validate_spec(spec)


def test_validate_absorption_before_emission():
    spec = spec_of([AbsorberConfig("A", "R", SpacetimePoint(0.0, 0.0))])
    assert "absorber 'A' absorbs before emission" in validate_spec(spec)


def test_validate_retro_placement_message():
    spec = replace(maudlin_spec(), rules=(replace(maudlin_spec().rules[0], time=0.5),))
    assert (
        "retro-placement: rule 0 acts at t=0.5 not after its trigger at t=1.0"
        in validate_spec(spec)
    )


def test_validate_trigger_time_must_match_absorption():
    # Trigger times are matched exactly, so one ulp past the absorption is
    # refused as surely as half a time unit.
    for t, shown in ((1.5, "1.5"), (math.nextafter(1.0, 2.0), "1.0000000000000002")):
        rule = ContingencyRule(
            TransactionFailed("A", t),
            PlaceAbsorber("B", "L", SpacetimePoint(2.0, -1.0)),
            2.0,
        )
        spec = replace(maudlin_spec(), rules=(rule,))
        assert f"rule 0 trigger expects t={shown} but 'A' resolves at t=1.0" in validate_spec(spec)


def test_validate_trigger_unknown_absorber():
    rule = ContingencyRule(
        TransactionFailed("Z", 1.0),
        PlaceAbsorber("B", "L", SpacetimePoint(2.0, -1.0)),
        2.0,
    )
    spec = replace(maudlin_spec(), rules=(rule,))
    assert "rule 0 trigger references unknown absorber 'Z'" in validate_spec(spec)


def test_validate_action_cannot_precede_rule():
    rule = ContingencyRule(
        TransactionFailed("A", 1.0),
        PlaceAbsorber("B", "L", SpacetimePoint(1.5, -1.0)),
        2.0,
    )
    spec = replace(maudlin_spec(), rules=(rule,))
    problems = validate_spec(spec)
    assert any("after its absorption at t=1.5" in p for p in problems)


def test_validate_place_on_occupied_channel():
    spec = spec_of(
        [AbsorberConfig("A", "R", SpacetimePoint(1.0, 0.5))],
        rules=[
            ContingencyRule(
                TransactionFailed("A", 1.0),
                PlaceAbsorber("C", "R", SpacetimePoint(2.0, 1.0)),
                1.5,
            )
        ],
    )
    assert any("already has an absorber" in p for p in validate_spec(spec))


def test_validate_replacing_present_absorber():
    spec = spec_of(
        [AbsorberConfig("A", "R", SpacetimePoint(1.0, 0.5))],
        rules=[
            ContingencyRule(
                Always(),
                PlaceAbsorber("A", "R", SpacetimePoint(1.0, 0.5)),
                0.5,
            )
        ],
    )
    assert any("re-places absorber 'A'" in p for p in validate_spec(spec))


def test_validate_divert_needs_target():
    spec = spec_of(
        [AbsorberConfig("A", "R", SpacetimePoint(1.0, 0.5))],
        rules=[
            ContingencyRule(
                TransactionFailed("A", 1.0),
                DivertChannel("L", "B", SpacetimePoint(2.0, -1.0)),
                1.5,
            )
        ],
    )
    assert any("diverts channel 'L' with no absorber" in p for p in validate_spec(spec))


def test_validate_branch_coverage_hole():
    spec = replace(maudlin_spec(), rules=())
    assert validate_spec(spec) == [
        "incomplete coverage on branch [root]: unresolved probability 0.5"
    ]


def test_validate_coin_problems():
    flip = dce_spec("coinflip")
    bad = replace(flip, coin=replace(flip.coin, weights=(0.6, 0.5)))
    assert "coin weights must be non-negative and sum to 1" in validate_spec(bad)
    bad = replace(flip, coin=replace(flip.coin, flip_time=0.0))
    assert "coin flips before emission" in validate_spec(bad)


def test_unvalidated_short_coin_is_refused_at_compile():
    flip = dce_spec("coinflip")
    short = replace(flip, coin=replace(flip.coin, weights=(0.5, 0.3)))
    with pytest.raises(ValueError, match="^coin weights must sum to 1$"):
        compile_program(short, "sequential").run(FakeRng([0.9, 0.5]))


@pytest.mark.parametrize("weights", [(math.nan, 0.5), (0.5, math.nan), (math.inf, 0.5), (0.5, math.inf)])
def test_non_finite_coin_weight_is_refused(weights):
    flip = dce_spec("coinflip")
    bad = replace(flip, coin=replace(flip.coin, weights=weights))
    assert "coin weights must be non-negative and sum to 1" in validate_spec(bad)
    with pytest.raises(ValueError, match="^coin weights must be finite numbers$"):
        compile_program.__wrapped__(bad, "sequential")


def test_validate_coin_trigger_without_coin():
    spec = spec_of(
        [
            AbsorberConfig("A", "R", SpacetimePoint(1.0, 0.5)),
            AbsorberConfig("B", "L", SpacetimePoint(2.0, -1.0), initially_present=False),
        ],
        rules=[
            ContingencyRule(
                CoinOutcome("up"),
                PlaceAbsorber("B", "L", SpacetimePoint(2.0, -1.0)),
                1.5,
            )
        ],
    )
    assert "rule 0 trigger needs a coin but none is configured" in validate_spec(spec)


def test_validate_screen_bin_times_must_agree():
    spec = dce_spec("keep")
    staggered = tuple(
        replace(a, position=SpacetimePoint(2.5, 2.5)) if a.id == "bin000" else a
        for a in spec.absorbers
    )
    problems = validate_spec(replace(spec, absorbers=staggered))
    assert "screen bins must share one absorption time" in problems


def test_validate_bin_absorbers_need_a_screen():
    state = StateVector(("bin000", "L"), (complex(math.sqrt(0.5)),) * 2)
    spec = spec_of(
        [
            AbsorberConfig("D0", "bin000", SpacetimePoint(1.0, 0.5)),
            AbsorberConfig("D1", "L", SpacetimePoint(1.0, -0.5)),
        ],
        state=state,
    )
    assert "bin absorbers declared without a screen model" in validate_spec(spec)


def _set(*path, value):
    """A document mutation that sets the entry at ``path`` to ``value``."""
    def mutate(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return mutate


def _add_rule(action, time):
    return lambda doc: doc.setdefault("rules", []).append(
        {"trigger": {"kind": "always"}, "action": action, "time": time}
    )


_MOVED_B = {"kind": "place", "id": "B", "channel": "L", "t": 2.0, "x": -2.0}
_Z_BEFORE_SCREEN = {"kind": "place", "id": "Z", "channel": "slitA", "t": 1.8, "x": 0.0}
_UNNORMALIZED = StateVector(("R", "L"), (1 + 0j, 1 + 0j))

# (builtin, mutation, message): a mutation edits the builtin's document in
# place, or returns a spec built in Python, which never passes load_spec.
REFUSALS = [
    # load_spec
    ("maudlin", _set("emission", value=5), "emission: expected an object"),
    ("maudlin", _set("name", value=""), "document: field 'name' must be a non-empty string"),
    ("maudlin", _set("rules", 0, "trigger", value={}), "rules[0].trigger: trigger needs a 'kind'"),
    ("maudlin", _set("rules", 0, "action", value={}), "rules[0].action: action needs a 'kind'"),
    ("maudlin", _set("state", value=[]), "state: expected a non-empty list of channel amplitudes"),
    ("maudlin", _set("absorbers", value={}), "absorbers: expected a list"),
    ("dce-coinflip", _set("coin", "labels", value=[1, 2]), "coin: field 'labels' must be a list of strings"),
    ("dce-coinflip", _set("coin", "weights", value="half"), "coin: field 'weights' must be a list of numbers"),
    ("dce-keep", _set("screen", "bins", value=201.0), "screen: field 'bins' must be an integer"),
    # validate_spec
    (
        "dce-coinflip",
        _set("rules", 0, "trigger", "label", value="sideways"),
        "rule 0 trigger references unknown coin label 'sideways'",
    ),
    ("maudlin", _set("rules", 0, "action", "channel", value="Q"), "rule 0 acts on unknown channel 'Q'"),
    ("maudlin", _add_rule(_MOVED_B, 2.0), "rules place absorber 'B' at conflicting positions"),
    ("maudlin", _add_rule({"kind": "remove-screen"}, 0.5), "rule 1 removes a screen but none is configured"),
    ("dce-keep", _add_rule(_Z_BEFORE_SCREEN, 1.0), "rule 0 puts 'Z' in front of the screen arrival at t=2.0"),
    ("dce-keep", _set("absorbers", -1, "t", value=1.5), "absorber 'TB' would absorb before the screen arrival at t=2.0"),
    ("dce-coinflip", _set("coin", "labels", value=["up", "up"]), "coin needs at least two distinct labels"),
    ("dce-coinflip", _set("coin", "weights", value=[1.0]), "coin weights and labels differ in length"),
    (
        "dce-keep",
        lambda doc: doc["state"].append({"channel": "slitC", "re": 0.5}),
        "screen model needs a two-channel state",
    ),
    # One bin absorber missing, yet no fewer absorbers than bins: the late check.
    ("dce-keep", lambda doc: doc["absorbers"].remove(doc["absorbers"][0]), "screen bins and bin absorbers disagree"),
    ("maudlin", lambda doc: replace(maudlin_spec(), initial_state=_UNNORMALIZED), "state not normalized"),
]


@pytest.mark.parametrize("name,mutate,message", REFUSALS, ids=[m for *_, m in REFUSALS])
def test_refusal_locates_the_problem(name, mutate, message):
    doc = spec_to_document(builtin_spec(name))
    try:
        problems = validate_spec(mutate(doc) or load_spec(doc, validate=False))
    except SpecError as e:
        problems = [str(e)]
    assert message in problems


# -- single trials ------------------------------------------------------------

def test_trial_direct_success():
    spec = maudlin_spec()
    result = compile_program(spec, "sequential").run(FakeRng([0.3]))
    assert result.outcome == "A"
    assert result.coin_outcome is None
    assert [e.kind for e in result.ledger.events] == [EventKind.CW, EventKind.SUCCESS]
    assert result.ledger.emitter_state == "OW(A)"
    assert check_bilking(result.ledger, tuple(r.trigger for r in spec.rules)) == []


def test_trial_record_is_the_tree_leaf():
    spec = maudlin_spec()
    result = compile_program(spec, "sequential").run(FakeRng([0.7]))
    assert isinstance(result, Leaf)
    assert (result.outcome, result.coin_outcome, result.conditions) == ("B", None, ("failed:A",))
    assert result.probability == pytest.approx(0.5)
    assert result.violations == ()


def test_every_call_form_shares_one_compiled_tree():
    spec = maudlin_spec()
    compile_program.cache_clear()
    try:
        forms = [
            compile_program(spec, "sequential"),
            compile_program(spec, ResolutionStrategy.SEQUENTIAL, True),
            compile_program(spec, "sequential", tie_break=True),
            compile_program(spec, strategy=ResolutionStrategy.SEQUENTIAL),
            compile_program(spec, "sequential", 1),
        ]
        assert all(form is forms[0] for form in forms)
        assert compile_program.cache_info().misses == 1
        assert compile_program(spec, "sequential").run(FakeRng([0.7])) in forms[0].leaves
    finally:
        compile_program.cache_clear()


def test_uncached_compile_takes_the_default_tie_break():
    def leaves(program):
        return [
            (leaf.outcome, leaf.coin_outcome, leaf.ledger, leaf.conditions,
             leaf.probability, leaf.violations)
            for leaf in program.leaves
        ]

    spec = maudlin_spec()
    cached = compile_program(spec, "sequential")
    for fresh in (
        compile_program.__wrapped__(spec, "sequential"),
        compile_program.__wrapped__(spec, "sequential", True),
    ):
        assert fresh is not cached
        assert leaves(fresh) == leaves(cached)


def test_hierarchy_without_tie_break_compiles_one_degenerate_leaf():
    # Two lightlike legs: equal (zero) intervals, told apart only by time.
    spec = spec_of(
        [
            AbsorberConfig("A", "R", SpacetimePoint(1.0, 1.0)),
            AbsorberConfig("B", "L", SpacetimePoint(3.0, -3.0)),
        ]
    )
    ranked = compile_program(spec, "hierarchy")
    assert [(leaf.outcome, leaf.probability) for leaf in ranked.leaves] == [
        ("A", pytest.approx(0.5)),
        ("B", pytest.approx(0.5)),
    ]

    untied = compile_program(spec, "hierarchy", tie_break=False)
    assert untied.draws == 0
    (leaf,) = untied.leaves
    assert untied.root is leaf
    assert (leaf.outcome, leaf.probability, leaf.violations) == (DEGENERATE, 1.0, ())
    assert [e.kind for e in leaf.ledger.events] == [
        EventKind.CW, EventKind.CW, EventKind.DEGENERATE
    ]

    config = RunConfig(1000, 5, "hierarchy", hierarchy_tie_break=False)
    table, report = run_experiment(spec, config)
    assert table.counts == {DEGENERATE: 1000}
    assert report.clean()
    assert run_payload(spec, config, table, report)["hierarchy_tie_break"] is False


def test_trial_contingent_placement():
    spec = maudlin_spec()
    result = compile_program(spec, "sequential").run(FakeRng([0.7]))
    assert result.outcome == "B"
    kinds = [e.kind for e in result.ledger.events]
    assert kinds == [
        EventKind.CW,
        EventKind.FAILURE,
        EventKind.PLACE,
        EventKind.CW,
        EventKind.SUCCESS,
    ]
    place = result.ledger.events[2]
    assert (place.absorber, place.rule_index) == ("B", 0)
    assert result.ledger.emitter_state == "OW(A,B)"
    assert check_bilking(result.ledger, tuple(r.trigger for r in spec.rules)) == []


def test_trial_diverted_channel():
    spec = miller_spec()
    result = compile_program(spec, "sequential").run(FakeRng([0.7]))
    assert result.outcome == "B_prime"
    kinds = [e.kind for e in result.ledger.events]
    assert EventKind.DIVERT in kinds
    assert result.ledger.emitter_state == "OW(A,B_prime)"
    confirmed = {e.absorber for e in result.ledger.events if e.kind is EventKind.CW}
    assert "B" not in confirmed  # the boxed absorber never answers


def test_trial_coin_paths():
    spec = dce_spec("coinflip")
    up = compile_program(spec, "sequential").run(FakeRng([0.3, 0.2]))
    assert (up.outcome, up.coin_outcome) == ("TA", "up")
    up2 = compile_program(spec, "sequential").run(FakeRng([0.3, 0.9]))
    assert (up2.outcome, up2.coin_outcome) == ("TB", "up")
    down = compile_program(spec, "sequential").run(FakeRng([0.7, 0.5]))
    assert down.coin_outcome == "down"
    assert down.outcome.startswith("bin")


def test_trial_kept_screen_lands_in_bins():
    result = compile_program(dce_spec("keep"), "sequential").run(FakeRng([0.5]))
    assert result.outcome.startswith("bin")
    assert result.coin_outcome is None


@pytest.mark.parametrize("name", ["maudlin", "miller", "dce-coinflip"])
@pytest.mark.parametrize("strategy", ["global-echo", "hierarchy"])
def test_single_round_strategies_reject_contingent_specs(name, strategy):
    with pytest.raises(StrategyError, match="strategy requires fixed absorber set"):
        compile_program(builtin_spec(name), strategy).run(FakeRng([0.5]))


def _builder_refusals():
    m, keep = maudlin_spec(), dce_spec("keep")
    a, b = m.absorbers
    c = AbsorberConfig("C", "L", SpacetimePoint(2.5, -1.5), initially_present=False)
    place_c = ContingencyRule(Always(), PlaceAbsorber("C", "L", c.position), 0.5)
    telescope_at_screen = replace(keep.absorbers[-2], position=SpacetimePoint(2.0, 3.0))
    return {
        "two absorbers on channel 'R' simultaneously present": replace(
            m, rules=(), absorbers=(a, replace(b, channel="R", initially_present=True))
        ),
        "channel 'L' already has a live absorber": replace(
            m, absorbers=(a, replace(b, initially_present=True), c), rules=(place_c,)
        ),
        "screen and direct absorbers share an absorption event": replace(
            keep, absorbers=keep.absorbers[:-2] + (telescope_at_screen, keep.absorbers[-1])
        ),
    }


@pytest.mark.parametrize("message", list(_builder_refusals()))
def test_builder_refuses_python_built_spec(message):
    # Specs built in Python skip validate_spec; the tree builder still refuses.
    spec = _builder_refusals()[message]
    with pytest.raises(ValueError, match=f"^{message}$"):
        compile_program(spec, "sequential")
