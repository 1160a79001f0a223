"""Golden digests: payload bytes and exact laws of every admissible builtin x strategy.

The digests were recorded before the resolution arithmetic was shared
between the tree builder and the rng resolvers; they pin that any later
restructuring leaves every output byte where it was.  The six inadmissible
pairs are covered by ``test_single_round_strategies_reject_contingent_specs``.
"""
import hashlib
import json

import pytest

from tqsim import (
    RunConfig,
    builtin_spec,
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

