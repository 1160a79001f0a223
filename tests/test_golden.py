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
    ("coin-rules", "sequential", True): "5e10ad16b81566598a30c40061c185e2dea22de53abd3175a98d9e1482198373",
    ("dce-coinflip", "sequential", True): "7fc860786a535ac443e289867b13a4f8da1addf43e1228ffcc1bcf3cbd07f0ec",
    ("dce-keep", "global-echo", True): "7ea118328e66d58f0e41508dd017da491ca10129b3ebaf71ac20bb0bc0821fb3",
    ("dce-keep", "hierarchy", True): "a3b1263e6193fb5affa1504a33b780e17cd3f917b6d3e6f509960c8484705328",
    ("dce-keep", "sequential", True): "7ea118328e66d58f0e41508dd017da491ca10129b3ebaf71ac20bb0bc0821fb3",
    ("dce-remove", "global-echo", True): "e7c25e04115929fd8a737556b9f7dbe81659bae46e03e2a9e547d9e4089aa607",
    ("dce-remove", "hierarchy", True): "49fb132d642481478be24fe8add7f3a550bbc8f62352e206ea3511d978f70977",
    ("dce-remove", "sequential", True): "e7c25e04115929fd8a737556b9f7dbe81659bae46e03e2a9e547d9e4089aa607",
    ("maudlin", "sequential", True): "ccb50c986a2fbcc2689fe212852d8aad5eea1d0d8a27e84f44f110083931d8cd",
    ("miller", "sequential", True): "6a24f206950a54983d5c3bbd1593da1edd56c5ad662cd9b1457d13bbb736f36b",
    ("pair-then-place", "sequential", True): "f17b325a359ca2526860f5dc219ba533b0808f7705d1256c76014248dac3111c",
    ("photon-pair", "global-echo", True): "43b159a5858a58da86b926c4bf3e8d9c005602bada409b1ba137c302ff8950d9",
    ("photon-pair", "hierarchy", False): "f54c3d086b11692c0f255bea018efa427fce97b83586cca645e55ac1fe4ff31c",
    ("photon-pair", "hierarchy", True): "ec9e140515fd296b7e94596ec7d2b2526e65efe6d3dfc2bc7483051876758f69",
    ("photon-pair", "sequential", True): "1cb36336a0b4042d98fc3e7c83ec62a0d66f8683e2aeaa7ce9d40748e5a69e0b",
    ("triple", "global-echo", True): "306cadc45d83e203e31ef5e33fe4c13e66dc204cd9024421be2e679a10b603b0",
    ("triple", "hierarchy", True): "932ab8e8160e347f553fbc5210f01d8dfd2e411eb5e5b6329eda1077b5202bf5",
    ("triple", "sequential", True): "8ec22eac3f292954feff65d05ac5bdf739cf38a55e7384ceb0b53f233a893193",
}


def leaf_digest(program) -> str:
    h = hashlib.sha256()
    for leaf in program.leaves:
        # The ledger field by field, so its repr does not depend on the
        # emitter state's type.
        record = (
            leaf.index, leaf.outcome, leaf.coin_outcome, leaf.ledger.events,
            leaf.ledger.emitter_state, leaf.ledger.final_outcome, leaf.conditions,
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
