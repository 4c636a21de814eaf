"""Ablation: does wire-level encoding change the paper's comparison?

The paper reports raw result sizes.  PR 6 adds two wire stages below the
result encoding: the §8.1 blob-table aggregation (dedupes BMT branch
nodes, SMT siblings, and repeated tx bytes) and per-frame zlib
compression.  One could ask whether these erase LVQ's advantage over the
strawman.  They do not: both systems' results are BF-dominated and
compress by similar factors, and LVQ's filters sit *deeper* in the fill
range (merged BMT nodes approach 50% fill, maximum entropy), so the
codec helps the strawman more in ratio but never closes the gap.

Four levels are measured per system/probe:

* ``raw``      — the PR 5 per-fragment encoding (the oracle path);
* ``agg``      — the §8.1 aggregated re-encoding, uncompressed;
* ``raw+z``    — the raw encoding behind the per-frame zlib codec;
* ``agg+z``    — aggregation then the codec: what the wire actually pays.
"""

from _common import fig12_configs, write_report

from repro.analysis.report import format_bytes, render_table
from repro.node.transport import compress_frame
from repro.query.aggregate import batch_of_result, encode_aggregated_batch


def _levels(result, config):
    raw = result.serialize(config)
    agg = encode_aggregated_batch(batch_of_result(result), config)
    return {
        "raw": len(raw),
        "agg": len(agg),
        "raw+z": len(compress_frame(raw)),
        "agg+z": len(compress_frame(agg)),
    }


def test_ablation_compression(benchmark, bench_workload, cache):
    configs = fig12_configs()
    probes = ("Addr1", "Addr6")
    rows = []
    sizes = {}
    for label in ("strawman", "lvq"):
        config = configs[label]
        for probe in probes:
            address = bench_workload.probe_addresses[probe]
            levels = _levels(cache.result(config, address), config)
            sizes[(label, probe)] = levels
            rows.append(
                [
                    label,
                    probe,
                    format_bytes(levels["raw"]),
                    format_bytes(levels["agg"]),
                    format_bytes(levels["raw+z"]),
                    format_bytes(levels["agg+z"]),
                    f"{levels['agg+z'] / levels['raw']:.2f}",
                ]
            )

    text = render_table(
        ["System", "Address", "Raw", "Agg", "Raw+z", "Agg+z", "wire/raw"],
        rows,
    )
    write_report("ablation_compression", text)

    for levels in sizes.values():
        if levels["agg+z"] < levels["agg"]:
            # The codec wins on every BF-dominated frame it shrinks...
            assert levels["agg+z"] < levels["raw"]
            assert levels["raw+z"] < levels["raw"]
        else:
            # ...and a frame too small and too dense to shrink (a short
            # chain's one-endpoint lvq answer) passes through as is.
            assert levels["agg+z"] <= levels["raw"] * 1.02
        # Aggregation never balloons a frame by more than the
        # blob-table's worst-case slot overhead (~2%).
        assert levels["agg"] < levels["raw"] * 1.02
    # LVQ stays far ahead of the strawman at every level.
    assert (
        sizes[("lvq", "Addr1")]["agg+z"] * 2
        < sizes[("strawman", "Addr1")]["agg+z"]
    )

    config = configs["lvq"]
    address = bench_workload.probe_addresses["Addr6"]
    result = cache.result(config, address)
    benchmark(
        lambda: compress_frame(
            encode_aggregated_batch(batch_of_result(result), config)
        )
    )
