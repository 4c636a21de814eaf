"""Fast-path ⇔ naive-path equivalence: byte-identical serialized answers.

The fast prover (inverted index, single-pass multiproofs, position
caching, resolution memoization) must be observationally identical to
the pre-fast-path reference in :mod:`repro.query.naive` — same bytes on
the wire for every system kind, address shape, and query range.
"""

from repro.query.adversary import materialize
from repro.query.batch import answer_batch_query
from repro.query.builder import build_system
from repro.query.fragments import ExistenceResolution, WireResolution
from repro.query.naive import answer_batch_query_naive, answer_query_naive
from repro.query.prover import answer_query
from repro.query.verifier import verify_result
from repro.workload.generator import WorkloadParams, generate_workload


def _addresses_under_test(workload):
    addresses = list(workload.probe_addresses.values())
    addresses.append("never-seen-address")
    return addresses


class TestSingleQueryEquivalence:
    def test_full_range_byte_identical(self, any_system, workload):
        config = any_system.config
        for address in _addresses_under_test(workload):
            fast = answer_query(any_system, address)
            naive = answer_query_naive(any_system, address)
            assert fast.serialize(config) == naive.serialize(config)

    def test_sub_ranges_byte_identical(self, any_system, workload):
        config = any_system.config
        tip = any_system.tip_height
        ranges = [(1, tip), (1, 1), (tip, tip), (2, tip - 3), (5, 20)]
        for address in _addresses_under_test(workload):
            for first, last in ranges:
                fast = answer_query(any_system, address, first, last)
                naive = answer_query_naive(any_system, address, first, last)
                assert fast.serialize(config) == naive.serialize(config), (
                    f"{config.kind.value} range [{first},{last}] diverges "
                    f"for {address[:16]}"
                )

    def test_repeat_queries_hit_memo_and_stay_identical(
        self, any_system, workload
    ):
        """Warm-cache answers must still match the naive oracle."""
        config = any_system.config
        address = workload.probe_addresses["Addr6"]
        any_system.clear_query_caches()
        first_pass = answer_query(any_system, address).serialize(config)
        assert any_system.config.kind is config.kind
        second_pass = answer_query(any_system, address).serialize(config)
        naive = answer_query_naive(any_system, address).serialize(config)
        assert first_pass == second_pass == naive

    def test_fast_answers_still_verify(self, any_system, workload):
        headers = any_system.headers()
        for name in ("Addr1", "Addr3", "Addr6"):
            address = workload.probe_addresses[name]
            result = answer_query(any_system, address)
            history = verify_result(
                result, headers, any_system.config, address
            )
            truth = workload.history_of(address)
            assert [
                (h, tx.txid()) for h, tx in history.transactions
            ] == [(h, tx.txid()) for h, tx in truth]


def _assert_matches_oracle(system, addresses, ranges):
    """Bytes and the Fig 12/14 size breakdown, field by field, equal the
    naive oracle's for every address and range."""
    config = system.config
    for address in addresses:
        for first, last in ranges:
            fast = answer_query(system, address, first, last)
            naive = answer_query_naive(system, address, first, last)
            assert fast.serialize(config) == naive.serialize(config)
            assert fast.breakdown(config).as_dict() == (
                naive.breakdown(config).as_dict()
            )


class TestWireMemoEquivalence:
    """The prover's resolution memo holds wire bytes; cold, warm and
    after an equal-length reorg its answers are the oracle's."""

    def test_cold_then_warm(self, any_system, workload):
        tip = any_system.tip_height
        ranges = [(1, tip), (2, tip - 3)]
        any_system.clear_query_caches()
        addresses = _addresses_under_test(workload)
        _assert_matches_oracle(any_system, addresses, ranges)
        cold = any_system.caches.stats()["resolutions"]
        assert cold["bytes"] > 0
        _assert_matches_oracle(any_system, addresses, ranges)
        warm = any_system.caches.stats()["resolutions"]
        assert warm["misses"] == cold["misses"]
        assert warm["hits"] > cold["hits"]

    def test_after_equal_length_reorg(self, any_system, workload):
        params = workload.params
        system = build_system(workload.bodies, any_system.config)
        tip = system.tip_height
        addresses = _addresses_under_test(workload)
        ranges = [(1, tip), (tip - 12, tip)]
        _assert_matches_oracle(system, addresses, ranges)
        fork = tip - 9
        assert any(key[1] > fork for key in system.caches.resolutions.keys())
        alt = generate_workload(
            WorkloadParams(
                num_blocks=params.num_blocks,
                txs_per_block=params.txs_per_block,
                seed=params.seed + 1,
                probes=params.probes,
            )
        )
        system.reorg(fork, alt.bodies[fork + 1 :])
        assert system.tip_height == tip
        assert all(key[1] <= fork for key in system.caches.resolutions.keys())
        for _pass in ("refill", "warm"):
            _assert_matches_oracle(system, addresses, ranges)

    def test_clipped_ranges_sliced_from_a_memo_warmed_by_other_ranges(
        self, any_system, workload
    ):
        """Each (address, span) is descended once: ranges other than the
        one that filed a span's image are sliced from it, cold, warm and
        after an equal-length reorg, and still match the oracle."""
        tip = any_system.tip_height
        addresses = _addresses_under_test(workload)
        filing = [(3, tip - 2)]  # clips the first and the last span
        clipped = [(5, 20), (18, 30), (2, tip - 5), (tip - 1, tip), (1, 1)]
        any_system.clear_query_caches()
        _assert_matches_oracle(any_system, addresses, filing)
        filed = any_system.caches.stats()["segments"]
        for _pass in ("sliced", "warm"):
            _assert_matches_oracle(any_system, addresses, clipped)
        sliced = any_system.caches.stats()["segments"]
        assert sliced["misses"] == filed["misses"]
        assert sliced["size"] == filed["size"]
        if any_system.config.uses_bmt:
            assert sliced["hits"] > filed["hits"]

        params = workload.params
        system = build_system(workload.bodies, any_system.config)
        _assert_matches_oracle(system, addresses, filing)
        fork = tip - 9
        stale = [key for key in system.caches.segments.keys() if key[3] > fork]
        assert bool(stale) == system.config.uses_bmt
        alt = generate_workload(
            WorkloadParams(
                num_blocks=params.num_blocks,
                txs_per_block=params.txs_per_block,
                seed=params.seed + 1,
                probes=params.probes,
            )
        )
        system.reorg(fork, alt.bodies[fork + 1 :])
        assert not set(stale) & set(system.caches.segments.keys())
        for _pass in ("refill", "warm"):
            _assert_matches_oracle(system, addresses, clipped)


class TestBatchEquivalence:
    def test_batch_byte_identical(self, any_system, workload):
        config = any_system.config
        addresses = _addresses_under_test(workload)
        fast = answer_batch_query(any_system, addresses)
        naive = answer_batch_query_naive(any_system, addresses)
        assert fast.serialize(config) == naive.serialize(config)

    def test_batch_range_byte_identical(self, any_system, workload):
        config = any_system.config
        addresses = list(workload.probe_addresses.values())[:3]
        fast = answer_batch_query(any_system, addresses, 4, 17)
        naive = answer_batch_query_naive(any_system, addresses, 4, 17)
        assert fast.serialize(config) == naive.serialize(config)


class TestTamperedAnswersDoNotPoisonTheMemo:
    def test_caller_mutation_is_invisible_to_later_queries(
        self, lvq_system, workload
    ):
        config = lvq_system.config
        address = workload.probe_addresses["Addr5"]
        lvq_system.clear_query_caches()
        reference = answer_query(lvq_system, address).serialize(config)

        # Tamper with a materialized copy, and with the objects an
        # answer's own wire resolutions decode to.
        answer = answer_query(lvq_system, address)
        tampered = 0
        for result in (materialize(answer), answer):
            for segment in result.segments:
                for resolution in segment.resolutions.values():
                    if isinstance(resolution, WireResolution):
                        resolution = resolution.decoded()
                    if isinstance(resolution, ExistenceResolution):
                        resolution.entries.pop()
                        tampered += 1
        assert tampered >= 2

        assert answer_query(lvq_system, address).serialize(config) == reference
