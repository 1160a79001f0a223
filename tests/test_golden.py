"""Golden digests: payload bytes, exact laws and leaf records.

``GOLDEN`` covers every admissible builtin x strategy pair; its digests were
recorded before the resolution arithmetic was shared between the tree
builder and the rng resolvers.  ``LEAF_GOLDEN`` pins every field of every
leaf (ledger, condition order, terminal-event times) of those trees and of
three hand-built layouts; it was recorded before the builder dropped its
second copies of the branch record.  Both pin that any later restructuring
leaves every output byte and trial record where it was.  The six
inadmissible pairs are covered by
``test_single_round_strategies_reject_contingent_specs``.
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
    DivertChannel,
    ExperimentSpec,
    PlaceAbsorber,
    RunConfig,
    SpacetimePoint,
    StateVector,
    TransactionSucceeded,
    builtin_spec,
    compile_program,
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


@pytest.mark.parametrize("name,strategy", sorted(GOLDEN))
def test_payload_and_exact_law_digests(name, strategy):
    spec = builtin_spec(name)
    config = RunConfig(20_000, 7, strategy=strategy)
    table, report = run_experiment(spec, config)
    payload = json.dumps(run_payload(spec, config, table, report), indent=2, sort_keys=True) + "\n"
    exact = {k: v.hex() for k, v in outcome_distribution(spec, strategy).items()}
    assert (sha256(payload), sha256(json.dumps(exact, sort_keys=True))) == GOLDEN[name, strategy]



def _layout(absorbers, rules=(), coin=None):
    return ExperimentSpec(
        name="custom",
        emission=SpacetimePoint(0.0, 0.0),
        initial_state=StateVector(("R", "L"), (complex(math.sqrt(0.5)),) * 2),
        absorbers=tuple(absorbers),
        rules=tuple(rules),
        coin=coin,
    )


def _hand_built():
    at = SpacetimePoint
    # A's success reroutes L; on the branch where A fails, B takes the rest.
    succeeded = _layout(
        [
            AbsorberConfig("A", "R", at(1.0, 0.5)),
            AbsorberConfig("B", "L", at(2.0, -1.0)),
            AbsorberConfig("C", "L", at(3.0, -2.0), initially_present=False),
        ],
        [
            ContingencyRule(
                TransactionSucceeded("A", 1.0), DivertChannel("L", "C", at(3.0, -2.0)), 1.5
            )
        ],
    )
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
    return {"succeeded-rule": succeeded, "coin-rules": coin, "photon-pair": photons}


def _leaf_spec(name):
    return _hand_built().get(name) or builtin_spec(name)


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
    ("photon-pair", "global-echo", True): "260ea83140f796358f35cbd6a304756084b51280a7e64dc552fc5fc5ee910ee4",
    ("photon-pair", "hierarchy", False): "ceb20a12bc46c47d68c2c705a2de77c4efeb1ba0d181ac8d13459c11a8d6c548",
    ("photon-pair", "hierarchy", True): "3d85da0bbb329f4d978863e98e2e3cb354d0531d1e6a804538345201091953cf",
    ("photon-pair", "sequential", True): "6047f133a29c64fce49c1d308cff4891c6f86601a833ccbc888fca8ed8921e59",
    ("succeeded-rule", "sequential", True): "89cf61af40375a48960465a73756f9935274fd4888434c98a06fc609ebf6eab3",
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


@pytest.mark.parametrize("name,strategy,tie_break", sorted(LEAF_GOLDEN))
def test_leaf_record_digests(name, strategy, tie_break):
    program = compile_program.__wrapped__(_leaf_spec(name), strategy, tie_break)
    assert leaf_digest(program) == LEAF_GOLDEN[name, strategy, tie_break]
