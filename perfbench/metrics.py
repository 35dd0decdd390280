"""Which end-to-end metric, on which workload, each per-layer metric should move.

`BENCHMARK.json` holds the metric names, units and bounds; this map adds
the `moves` column the traced run prints beside each per-layer value.
`s` metrics are summed span seconds of the named public function inside
the timed part of a workload, `self_s` metrics are span time minus the
time of nested spans, and `count` metrics are exact work counts taken at
the same boundaries.  A layer a workload does not exercise reads 0 there.
"""

VERIFY = "wall_rel on verify-n16"
POOL = "none timed; the pool's spans in the traced --jobs 2 run beside verify-n16"
BATCH = "wall_rel on analyze-batch"
CLI = "wall_rel on graph-cli"
SETUP = "setup_s on analyze-batch and graph-cli"

MOVES = {
    "enumerator.enumerate_fullerenes.s": f"{VERIFY}; {SETUP}",
    "enumerator.enumerate_fullerenes.n16.s": VERIFY,
    "enumerator.enumerate_fullerenes.n18.s": "none timed; the traced verify-all runs nmax 18",
    "enumerator.catalogue_graphs": "none; 25 at nmax 18",
    "graphs.edge_cuts_up_to.s": f"{BATCH} first, then {VERIFY}",
    "graphs.has_cyclic_cut_leq3.s": f"{BATCH} first, then {VERIFY}",
    "graphs.connectivity.s": f"{BATCH} first, then {VERIFY}",
    "graphs.validate_fullerene.s": "minor everywhere",
    "graphs.girth.s": "minor everywhere",
    "graphs.short_cycles_facial.s": "minor everywhere",
    "graphs.canonical_code.s": f"{CLI}; {BATCH}",
    "matching.perfect_matchings.s": f"{BATCH}, then {CLI}, then {VERIFY}",
    "matching.perfect_matchings.count": f"{BATCH}; {CLI}; {VERIFY}",
    "matching.deficiency_certificate.s": f"{BATCH}; {VERIFY}",
    "extendability.is_k_extendable.k1.s": BATCH,
    "extendability.is_k_extendable.k2.s": f"{BATCH}; {CLI}",
    "extendability.is_k_extendable.k3.s": BATCH,
    "extendability.extendability_number.s": BATCH,
    "extendability.index_fallbacks": "none; 0 on every workload",
    "antikekule.anti_kekule_number.s": f"{CLI}; {BATCH}",
    "antikekule.ak3.count": "none; an exact answer count",
    "families.recognize_tube.s": f"{BATCH}; {VERIFY}",
    "families.build_tube.s": f"{BATCH}; {VERIFY}",
    "families.verify_tube_pm_structure.s": VERIFY,
    "planar_code.read_graphs.s": CLI,
    "planar_code.write_graphs.s": "none; no timed part writes planar_code",
    "planar_code.encode_graph.s": POOL,
    "planar_code.bytes": CLI,
    "harness.analyze_graph.s": f"{BATCH}; {VERIFY}",
    "harness.analyze_graph.p50_s": f"{BATCH}; {VERIFY}",
    "harness.analyze_graph.p90_s": f"{BATCH}; {VERIFY}",
    "harness.analyze_graph.residual_s": f"{BATCH}; {VERIFY}",
    "harness.catalogue_digests.cold.s": BATCH,
    "harness.catalogue_digests.warm.s": BATCH,
    "harness.DigestCache.save.s": BATCH,
    "harness.DigestCache.load.s": BATCH,
    "harness.cache.hits": BATCH,
    "harness.cache.misses": BATCH,
    "harness.catalogue_digests.jobs1.s": f"{VERIFY}; a pool change leaves it",
    "harness.catalogue_digests.jobs2.s": POOL,
    "harness.verify_all.claims_s": VERIFY,
    "cli.startup_s": CLI,
    "cli.main.validate.s": CLI,
    "cli.main.canonical.s": CLI,
    "cli.main.extend-check.s": CLI,
    "cli.main.antikekule.s": CLI,
    "cli.main.verify-all.s": VERIFY,
    "layer.graphs.self_s": f"{BATCH} first, then {VERIFY}",
    "layer.planar_code.self_s": CLI,
    "layer.matching.self_s": f"{BATCH}; {CLI}",
    "layer.extendability.self_s": BATCH,
    "layer.antikekule.self_s": f"{CLI}; {BATCH}",
    "layer.families.self_s": f"{BATCH}; {VERIFY}",
    "layer.enumerator.self_s": f"{VERIFY}; {SETUP}",
    "layer.harness.self_s": f"{BATCH}; {VERIFY}",
    "layer.cli.self_s": CLI,
    "setup.enumerator.enumerate_fullerenes.s": SETUP,
    "setup.families.build_tube.s": SETUP,
    "setup.planar_code.write_graphs.s": SETUP,
    "trace_overhead_s": "none; traced calls times the wrapper cost calibrated in the traced child",
}
