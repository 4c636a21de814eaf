"""A batch verifies exactly as its single-address answers do.

``verify_batch_result`` on the batch view of one answer
(:func:`repro.query.aggregate.batch_of_result`) must reach the verdict
``verify_result`` reaches on the answer itself — the same history, or
the same error class — for every honest and every tampered answer on
every system kind.  A batch also authenticates each shared filter once,
however many addresses it answers.
"""

import pytest

from repro.errors import ReproError
from repro.query import config as config_module
from repro.query.adversary import ALL_ATTACKS, materialize
from repro.query.aggregate import batch_of_result
from repro.query.batch import answer_batch_query, verify_batch_result
from repro.query.builder import build_system
from repro.query.config import SystemConfig
from repro.query.prover import answer_query
from repro.query.verifier import verify_result


def verdict(verify):
    """``("accept", [(height, txid)])`` or ``("reject", error class)``."""
    try:
        verified = verify()
    except ReproError as error:
        return "reject", type(error)
    if isinstance(verified, dict):
        (verified,) = verified.values()
    return "accept", [(h, tx.txid()) for h, tx in verified.transactions]


def verdicts(result, headers, config):
    single = verdict(lambda: verify_result(result, headers, config))
    batch = verdict(
        lambda: verify_batch_result(batch_of_result(result), headers, config)
    )
    return single, batch


@pytest.mark.parametrize("attack_name", ["honest"] + sorted(ALL_ATTACKS))
def test_batch_verdict_matches_the_single_verdict(
    attack_name, any_system, probe_addresses
):
    headers = any_system.headers()
    config = any_system.config
    disagreements = []
    for name, address in sorted(probe_addresses.items()):
        result = materialize(answer_query(any_system, address))
        if attack_name != "honest":
            result = ALL_ATTACKS[attack_name](result)
        single, batch = verdicts(result, headers, config)
        if single != batch:
            disagreements.append((name, single, batch))
    assert disagreements == []


def test_filter_width_mismatch_is_refused_by_both(workload, probe_addresses):
    """A header filter of another width than the config's is refused by
    the batch verifier exactly as by the single one."""
    system = build_system(
        workload.bodies, SystemConfig.strawman_header_bf(bf_bytes=64)
    )
    wider = SystemConfig.strawman_header_bf(bf_bytes=128)
    result = answer_query(system, probe_addresses["Addr6"])
    single, batch = verdicts(result, system.headers(), wider)
    assert single[0] == "reject"
    assert batch == single


def test_batch_authenticates_each_shared_filter_once(
    monkeypatch, lvq_no_bmt_system, probe_addresses
):
    addresses = list(probe_addresses.values())
    assert len(addresses) == 6
    batch = answer_batch_query(lvq_no_bmt_system, addresses)
    commitments = []
    tagged_hash = config_module.tagged_hash

    def counting(tag, *parts):
        if tag == config_module._BF_COMMIT_TAG:
            commitments.append(tag)
        return tagged_hash(tag, *parts)

    monkeypatch.setattr(config_module, "tagged_hash", counting)
    verify_batch_result(
        batch,
        lvq_no_bmt_system.headers(),
        lvq_no_bmt_system.config,
        addresses,
    )
    assert len(commitments) == batch.num_blocks
