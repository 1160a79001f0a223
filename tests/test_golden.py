"""Golden digests: payload bytes, exact laws and leaf records.

``GOLDEN`` covers every admissible builtin x strategy pair; its digests were
recorded before the resolution arithmetic was shared between the tree
builder and the rng resolvers.  ``LEAF_GOLDEN`` pins every field of every
leaf (ledger, condition order, terminal-event times) of those trees and of
the hand-built layouts in ``HAND_BUILT_CASES``; each entry was recorded
before the change it guards.  Both pin that any later restructuring leaves
every output byte and trial record where it was.  The six inadmissible
pairs are covered by ``test_single_round_strategies_reject_contingent_specs``.

Run this file as a script (``PYTHONPATH=src python tests/test_golden.py``)
to print both tables, computed from the current code, in source form.
"""
import ast
import hashlib
import inspect
import json
import math

import pytest

from tqsim import (
    AbsorberConfig,
    CoinConfig,
    CoinOutcome,
    ContingencyRule,
    ExperimentSpec,
    PlaceAbsorber,
    RunConfig,
    SpacetimePoint,
    StateVector,
    TransactionFailed,
    builtin_spec,
    compile_program,
    experiments,
    outcome_distribution,
    run_experiment,
    run_payload,
)

# (payload sha256 at 20 000 trials / seed 7, exact-law sha256 with float.hex values)
GOLDEN = {
    ("maudlin", "sequential"): (
        "58a20ccfe62ba962963a336c04e5d19ead152f35acdc6a1891f522016cb45121",
        "12a7d7130f54b7d090642dbbf497d0e08119a07fecfcaaace0a0c7f56cc3a5d3",
    ),
    ("miller", "sequential"): (
        "e05e2efd0a40862d2be1ed0abdb3b9e249ecec784bf825decc956dc9c20758f0",
        "7043fb96a99ae7fdbdfba84e494ef016f0599cd9626942cc9bac553908d84f4b",
    ),
    ("dce-coinflip", "sequential"): (
        "f5608dc06507182a1d4671f3443afae021dbc499900f59139240889877125add",
        "424434eac799ffe8020f67221409dd151a4f2bd7eb1daa61ba2faea3be7f8b36",
    ),
    ("dce-keep", "sequential"): (
        "b648e71e486941260c2189501311158ec96a789471f3dafb8bd7b0d08d669026",
        "abf3388705b615bf9822c347023ca4d40e9a9f20a348cd8f368a3f03c248d167",
    ),
    ("dce-keep", "global-echo"): (
        "e2ae3a08b8e801e5f194424b352e77e95fc03d705088725541d7891b95bdac16",
        "abf3388705b615bf9822c347023ca4d40e9a9f20a348cd8f368a3f03c248d167",
    ),
    ("dce-keep", "hierarchy"): (
        "32a7bda764ab2977089d731002e251bd02f681ba1f4f3aaedcfa87654f4735e2",
        "c220822c499867717bdd59670cddf86898d7d3b8b6d437e20d3fd77fb9840006",
    ),
    ("dce-remove", "sequential"): (
        "921eb8070fa61e57628cd7e4cd4f2f1769a2050a094e2feae2faf8094f9d216c",
        "8985137ee8ad15236d76d433913784229d093d648e5f0b5f2880a2468c80d514",
    ),
    ("dce-remove", "global-echo"): (
        "347f6c372f97d46c831bc15e8b942210746b5b4180910755d7868844d11116f2",
        "8985137ee8ad15236d76d433913784229d093d648e5f0b5f2880a2468c80d514",
    ),
    ("dce-remove", "hierarchy"): (
        "e55c21632a5eccfae0c4ff0791477802d2f3b12d6817dc2da1971d230b65ce51",
        "c220822c499867717bdd59670cddf86898d7d3b8b6d437e20d3fd77fb9840006",
    ),
}

def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def payload_digests(name, strategy):
    spec = builtin_spec(name)
    config = RunConfig(20_000, 7, strategy=strategy)
    table, report = run_experiment(spec, config)
    payload = json.dumps(run_payload(spec, config, table, report), indent=2, sort_keys=True) + "\n"
    exact = {k: v.hex() for k, v in outcome_distribution(spec, strategy).items()}
    return sha256(payload), sha256(json.dumps(exact, sort_keys=True))


@pytest.mark.parametrize("name,strategy", sorted(GOLDEN))
def test_payload_and_exact_law_digests(name, strategy):
    assert payload_digests(name, strategy) == GOLDEN[name, strategy]



def _layout(absorbers, rules=(), coin=None, channels=("R", "L")):
    return ExperimentSpec(
        name="custom",
        emission=SpacetimePoint(0.0, 0.0),
        initial_state=StateVector(channels, (complex(math.sqrt(1 / len(channels))),) * len(channels)),
        absorbers=tuple(absorbers),
        rules=tuple(rules),
        coin=coin,
    )


def _hand_built():
    at = SpacetimePoint
    # An uneven coin places a different absorber on L on each face.
    coin = _layout(
        [
            AbsorberConfig("A", "R", at(3.0, 1.0)),
            AbsorberConfig("B", "L", at(2.0, -1.0), initially_present=False),
            AbsorberConfig("C", "L", at(4.0, -2.0), initially_present=False),
        ],
        [
            ContingencyRule(CoinOutcome("up"), PlaceAbsorber("B", "L", at(2.0, -1.0)), 1.0),
            ContingencyRule(CoinOutcome("down"), PlaceAbsorber("C", "L", at(4.0, -2.0)), 1.0),
        ],
        CoinConfig(("up", "down"), (0.25, 0.75), 0.5),
    )
    # Two lightlike legs: only the time tie-break orders them.
    photons = _layout(
        [AbsorberConfig("A", "R", at(1.0, 1.0)), AbsorberConfig("B", "L", at(3.0, -3.0))]
    )
    # A's failure places C on the third channel, after A and B split at t=1.
    pair_then_place = _layout(
        [
            AbsorberConfig("A", "R", at(1.0, 0.5)),
            AbsorberConfig("B", "M", at(1.0, -0.5)),
            AbsorberConfig("C", "L", at(2.0, -1.0), initially_present=False),
        ],
        [ContingencyRule(TransactionFailed("A", 1.0), PlaceAbsorber("C", "L", at(2.0, -1.0)), 1.5)],
        channels=("R", "M", "L"),
    )
    # Three absorbers from the start: three-way splits, hierarchy order B, A, C.
    triple = _layout(
        [
            AbsorberConfig("A", "R", at(1.0, 0.5)),
            AbsorberConfig("B", "M", at(1.0, -0.6)),
            AbsorberConfig("C", "L", at(2.0, -1.0)),
        ],
        channels=("R", "M", "L"),
    )
    return {
        "coin-rules": coin,
        "photon-pair": photons,
        "pair-then-place": pair_then_place,
        "triple": triple,
    }


def _leaf_spec(name):
    return _hand_built().get(name) or builtin_spec(name)


# The (strategy, tie_break) pairs each hand-built layout is pinned under.
HAND_BUILT_CASES = {
    "coin-rules": [("sequential", True)],
    "photon-pair": [("global-echo", True), ("hierarchy", False), ("hierarchy", True), ("sequential", True)],
    "pair-then-place": [("sequential", True)],
    "triple": [("global-echo", True), ("hierarchy", True), ("sequential", True)],
}


def leaf_cases():
    """(layout, strategy, tie_break) keys: every GOLDEN pair, then the hand-built cases."""
    cases = {(name, strategy, True) for name, strategy in GOLDEN}
    cases |= {(name, s, tb) for name, pairs in HAND_BUILT_CASES.items() for s, tb in pairs}
    return sorted(cases)


# sha256 over every leaf's full record, one repr line per leaf (see leaf_digest);
# keyed by (layout, strategy, tie_break).  Layouts are builtins or the hand-built ones.
LEAF_GOLDEN = {
    ("coin-rules", "sequential", True): "0be7b3f125f0d3c1d52ca4b14e1c8d28a0371764762ff4e103f63252882f0e57",
    ("dce-coinflip", "sequential", True): "6a8cecd804fa7f4f7f6344d3039a1cda158843b98483d43373559a4ac2942d2c",
    ("dce-keep", "global-echo", True): "5af34b9592ccb976c7351c42847f06374469fc87f330e2a411da0e4290904d83",
    ("dce-keep", "hierarchy", True): "53fc2f40a61f230376a7f6a7b3389b3f9c274072156f6f2373fa67618f190cd4",
    ("dce-keep", "sequential", True): "5af34b9592ccb976c7351c42847f06374469fc87f330e2a411da0e4290904d83",
    ("dce-remove", "global-echo", True): "b65be169f81cdc9cf6fcc9e466f2b40a73e3a2da172ef092c85d5b613877998a",
    ("dce-remove", "hierarchy", True): "26b6f5b4263a23998b7eb8a0941a94694ee23c5d061503ad07c570c5a05946f6",
    ("dce-remove", "sequential", True): "b65be169f81cdc9cf6fcc9e466f2b40a73e3a2da172ef092c85d5b613877998a",
    ("maudlin", "sequential", True): "92836c1a7701bd594ead07c9057fcf937637eecdf995d8d7910542803b470031",
    ("miller", "sequential", True): "f1472bbdf53f1bbd04787ca8476fa1ec37474dd4557e621eeb673aff07b68198",
    ("pair-then-place", "sequential", True): "6828ecd1291f54bdb13df6c186bfe98dfa399b82e87599de08335481f5b3f5cf",
    ("photon-pair", "global-echo", True): "260ea83140f796358f35cbd6a304756084b51280a7e64dc552fc5fc5ee910ee4",
    ("photon-pair", "hierarchy", False): "ceb20a12bc46c47d68c2c705a2de77c4efeb1ba0d181ac8d13459c11a8d6c548",
    ("photon-pair", "hierarchy", True): "3d85da0bbb329f4d978863e98e2e3cb354d0531d1e6a804538345201091953cf",
    ("photon-pair", "sequential", True): "6047f133a29c64fce49c1d308cff4891c6f86601a833ccbc888fca8ed8921e59",
    ("triple", "global-echo", True): "a97913eb5ff8dd89612eb5827cc552a7a51dc36901a583e7ea05c37cc820c8c7",
    ("triple", "hierarchy", True): "6e860661ba7b624bfe515c70e86ca1df2498f885847e7c4264a5910ebcfe0138",
    ("triple", "sequential", True): "a3b7cb06e3fc501e445565e156f552cb294eb5fc405dcafd557ff23f1f487b91",
}


def leaf_digest(program) -> str:
    h = hashlib.sha256()
    for leaf in program.leaves:
        record = (
            leaf.index, leaf.outcome, leaf.coin_outcome, leaf.ledger, leaf.conditions,
            leaf.bin_index, leaf.weight_sum_error.hex(), leaf.violations,
            leaf.probability.hex(),
        )
        h.update((repr(record) + "\n").encode())
    return h.hexdigest()


def _leaf_program(name, strategy, tie_break):
    return compile_program.__wrapped__(_leaf_spec(name), strategy, tie_break)


@pytest.mark.parametrize("name,strategy,tie_break", leaf_cases())
def test_leaf_record_digests(name, strategy, tie_break):
    program = _leaf_program(name, strategy, tie_break)
    assert leaf_digest(program) == LEAF_GOLDEN.get((name, strategy, tie_break))


def test_leaf_golden_has_no_stale_entries():
    assert sorted(LEAF_GOLDEN) == leaf_cases()


def _parsed_trigger_kinds():
    """The trigger kinds the document parser accepts: every string it compares ``kind`` with."""
    tree = ast.parse(inspect.getsource(experiments._parse_trigger))
    return {
        node.value
        for compare in ast.walk(tree)
        if isinstance(compare, ast.Compare)
        and isinstance(compare.left, ast.Name)
        and compare.left.id == "kind"
        for comparator in compare.comparators
        for node in ast.walk(comparator)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def test_every_trigger_kind_fires_in_some_pinned_layout():
    # Only the apparatus event a rule fires carries its index.  A kind the
    # parser accepts but no pinned leaf shows firing may be one that can
    # never fire.
    fired = set()
    for name, strategy, tie_break in leaf_cases():
        spec = _leaf_spec(name)
        for leaf in _leaf_program(name, strategy, tie_break).leaves:
            fired |= {
                experiments._trigger_doc(spec.rules[e.rule_index].trigger)["kind"]
                for e in leaf.ledger.events
                if e.rule_index is not None
            }
    accepted = _parsed_trigger_kinds()
    assert "always" in accepted
    assert accepted <= fired


def _print_tables():
    """Print GOLDEN and LEAF_GOLDEN as the current code computes them."""
    print("GOLDEN = {")
    for name, strategy in GOLDEN:
        payload, exact = payload_digests(name, strategy)
        print(f'    ("{name}", "{strategy}"): (')
        print(f'        "{payload}",')
        print(f'        "{exact}",')
        print("    ),")
    print("}")
    print()
    print("LEAF_GOLDEN = {")
    for name, strategy, tie_break in leaf_cases():
        digest = leaf_digest(_leaf_program(name, strategy, tie_break))
        print(f'    ("{name}", "{strategy}", {tie_break}): "{digest}",')
    print("}")


if __name__ == "__main__":
    _print_tables()
