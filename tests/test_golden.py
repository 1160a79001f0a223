"""Golden digests: payload bytes, exact laws, leaf records and dumped documents.

``GOLDEN`` covers every admissible builtin x strategy pair.  Its exact-law
digests were recorded before the resolution arithmetic was shared between
the tree builder and the rng resolvers; its payload digests were recorded
again when a trial came to draw one uniform through the leaves' cdf in place
of one per node, which changed the bytes each seed produces.
``LEAF_GOLDEN`` pins every field of every leaf (ledger, condition order,
terminal-event times) of those trees and of the hand-built layouts in
``HAND_BUILT_CASES``; each entry was recorded before the change it guards.  Both pin that any later restructuring leaves
every output byte and trial record where it was.  The six inadmissible
pairs are covered by ``test_single_round_strategies_reject_contingent_specs``.

``DOCUMENT_GOLDEN`` pins the bytes ``spec_to_document`` dumps for each of
those layouts.

Run this file as a script (``PYTHONPATH=src python tests/test_golden.py``)
to print the three tables, computed from the current code, in source form.
"""
import hashlib
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
    spec_to_document,
)

# (payload sha256 at 20 000 trials / seed 7, exact-law sha256 with float.hex values)
GOLDEN = {
    ("maudlin", "sequential"): (
        "6af74e59854623a625c3c2e0fc8bd6db99f17610b05368179a7dabba34b6ca71",
        "12a7d7130f54b7d090642dbbf497d0e08119a07fecfcaaace0a0c7f56cc3a5d3",
    ),
    ("miller", "sequential"): (
        "a91365a0dd418c7051a3e1f82879ee902476b7b6a10e16af388d7f4f68617c44",
        "7043fb96a99ae7fdbdfba84e494ef016f0599cd9626942cc9bac553908d84f4b",
    ),
    ("dce-coinflip", "sequential"): (
        "fdad486b4548ecd18b8bb41acd6d2504c0fbbf1938d34a2781dc90ea52a250a9",
        "424434eac799ffe8020f67221409dd151a4f2bd7eb1daa61ba2faea3be7f8b36",
    ),
    ("dce-keep", "sequential"): (
        "3b3e3c92ce71ca223cb97fb9117416aa398cd74be30bc25f15880ecf0a122956",
        "abf3388705b615bf9822c347023ca4d40e9a9f20a348cd8f368a3f03c248d167",
    ),
    ("dce-keep", "global-echo"): (
        "271bdc4dca0c99b13934fc3644faf67b116783a5c1ed291e65727eb9746bd9be",
        "abf3388705b615bf9822c347023ca4d40e9a9f20a348cd8f368a3f03c248d167",
    ),
    ("dce-keep", "hierarchy"): (
        "32a7bda764ab2977089d731002e251bd02f681ba1f4f3aaedcfa87654f4735e2",
        "c220822c499867717bdd59670cddf86898d7d3b8b6d437e20d3fd77fb9840006",
    ),
    ("dce-remove", "sequential"): (
        "60ca8407260490f31ae4ff592b9954cdca131703a80b02f4c605b3021913f9cf",
        "8985137ee8ad15236d76d433913784229d093d648e5f0b5f2880a2468c80d514",
    ),
    ("dce-remove", "global-echo"): (
        "0d3cc36788e84584d9a3d17b9622dbb217cd9f81e851f87b0aae72a65416cad8",
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

# sha256 of json.dumps(spec_to_document(spec)) for every builtin and hand-built
# layout: the dumped document's bytes, key order included.  Recorded before the
# document code became one table per block.
DOCUMENT_GOLDEN = {
    "coin-rules": "4fcb09e9f6da725fe058956d1caf06a7eefe15f47a6380a9aecbbec89f89f73c",
    "dce-coinflip": "95a514773dbca173664df44c72af78d936c01320cf01970bd149a1d3b666587f",
    "dce-keep": "08f3f481a5f2494f194d8c24606ec795e0b01c70b4ad07844f30e160821d394f",
    "dce-remove": "b5026b2285c1615a24e0710c39acbcdfbd9360780a6644cd90c140d5a3845783",
    "maudlin": "bc8d385c5fabe15783401f25581339b175571be68bd4b5ec09856500dc1cf4b7",
    "miller": "87fb23cf6d71382b773f3cfdb5ddb461facea269872e992596a16e2d1f3441f7",
    "pair-then-place": "ae5f24d59af4468aeaee3f41383a898497e7fc66e3ed0f0f7225602910831b22",
    "photon-pair": "3b2baf4fc7b3db95df1470976e36330e7075945ec1fa07233ba47fad4723c827",
    "triple": "edf2a3132335e30fd430f3e475311ed6515d1b7d924e239013d90b3a5cbe5a4a",
}


def leaf_digest(program, spec) -> str:
    h = hashlib.sha256()
    bins = spec.screen.bin_labels() if spec.screen else ()
    for leaf in program.leaves:
        # The ledger field by field, its events as a tuple, so the repr
        # depends on neither the emitter state's nor the event sequence's
        # type; the leaf's screen bin (None off the screen) rendered from the
        # spec, where the records once stored it.
        record = (
            leaf.index, leaf.outcome, leaf.coin_outcome, tuple(leaf.ledger.events),
            leaf.ledger.emitter_state, leaf.ledger.final_outcome, leaf.conditions,
            bins.index(leaf.outcome) if leaf.outcome in bins else None,
            leaf.weight_sum_error.hex(), leaf.violations, leaf.probability.hex(),
        )
        h.update((repr(record) + "\n").encode())
    return h.hexdigest()


def _leaf_program(name, strategy, tie_break):
    return compile_program.__wrapped__(_leaf_spec(name), strategy, tie_break)


@pytest.mark.parametrize("name,strategy,tie_break", leaf_cases())
def test_leaf_record_digests(name, strategy, tie_break):
    program = _leaf_program(name, strategy, tie_break)
    assert leaf_digest(program, _leaf_spec(name)) == LEAF_GOLDEN.get((name, strategy, tie_break))


def test_leaf_golden_has_no_stale_entries():
    assert sorted(LEAF_GOLDEN) == leaf_cases()


def document_digest(name):
    return sha256(json.dumps(spec_to_document(_leaf_spec(name))))


@pytest.mark.parametrize("name", sorted(DOCUMENT_GOLDEN))
def test_dumped_document_digests(name):
    assert document_digest(name) == DOCUMENT_GOLDEN[name]


def test_document_golden_covers_every_layout():
    assert set(DOCUMENT_GOLDEN) == {name for name, _, _ in leaf_cases()}


def test_every_trigger_kind_fires_in_some_pinned_layout():
    # Only the apparatus event a rule fires carries its index.  A kind the
    # trigger table accepts but no pinned leaf shows firing may be one that
    # can never fire.
    fired = set()
    for name, strategy, tie_break in leaf_cases():
        spec = _leaf_spec(name)
        kinds = [rule["trigger"]["kind"] for rule in spec_to_document(spec).get("rules", [])]
        for leaf in _leaf_program(name, strategy, tie_break).leaves:
            fired |= {kinds[e.rule_index] for e in leaf.ledger.events if e.rule_index is not None}
    accepted = set(experiments._TRIGGERS)
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
        digest = leaf_digest(_leaf_program(name, strategy, tie_break), _leaf_spec(name))
        print(f'    ("{name}", "{strategy}", {tie_break}): "{digest}",')
    print("}")
    print()
    print("DOCUMENT_GOLDEN = {")
    for name in sorted(DOCUMENT_GOLDEN):
        print(f'    "{name}": "{document_digest(name)}",')
    print("}")


if __name__ == "__main__":
    _print_tables()
