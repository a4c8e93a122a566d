"""End-to-end acceptance checks for the shipped configurations.

One test per acceptance criterion, in order, so `pytest -v` reports one
pass/fail line each. Every test prints a summary line with the measured
values before asserting the stated tolerances.

One clause is known to be unreachable with the shipped inputs and is
asserted as stated rather than weakened, so its test fails with full
diagnostics: the 230-node reproduction's mean-degree band. The shipped
pair file is a no-op (seeds 1-10 give byte-identical edge lists with and
without it), and for a fixed set of structures a match table can only
merge groups, so it can only add edges; no pair file brings the mean
degree down into the band. What is missing is the paper's own E. Coli
configuration, which no document here records. The batch variant's test
asserts the complete-graph profile that batch generation provably gives.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import time
from dataclasses import replace
from pathlib import Path
from statistics import fmean

import pytest

from snmodel import (
    BATCH,
    INCREMENTAL,
    Alphabet,
    BAParams,
    DistanceConfig,
    EditProbabilities,
    Instance,
    Network,
    grow,
    instances_dir,
    load_instance_file,
    parse_match_file,
    run_growth_comparison,
    run_single,
    structure_distance,
    within_max_distance,
)
from snmodel.cli import main as cli_main
from snmodel.fileio import render_edge_list, render_structures, write_network
from snmodel.growth import GroupIndex
from snmodel.metrics import (
    average_clustering,
    average_degree,
    average_path_length,
    compute_metrics,
    degree_distribution,
    degree_histogram,
    fit_power_law_slope,
    heterogeneity_index,
    motif_census_3,
    path_length_histogram,
)

from oracles import (
    census_3_brute_force,
    checkpoint_rows,
    edge_set,
    floyd_warshall,
    from_pairs,
    random_network,
    shortest_path_lengths_bfs,
)


def _load(name: str):
    return load_instance_file(instances_dir() / name)


def _report(index: int, text: str) -> None:
    print(f"[acceptance {index:02d}] {text}")


@pytest.fixture(scope="module")
def pruned_config():
    return _load("pruned.instance")


@pytest.fixture(scope="module")
def pruned_network(pruned_config):
    return run_single(pruned_config.instance)[0]


def test_acceptance_01_distance_worked_examples():
    table = parse_match_file(
        "AB =\nBA =\nAA = BB\nBB = AA\n", 2, Alphabet.from_string("AB")
    )
    cases = [
        ("ABBABC", "BABCAB", DistanceConfig(1, 0), 5),
        ("ABBABC", "BABCAB", DistanceConfig(2, 0), 2),
        ("ABBABC", "BABCAB", DistanceConfig(3, 0), 0),
        ("ABBABBC", "ABCABC", DistanceConfig(1, 0), 2),
        ("ABBB", "ABAA", DistanceConfig(2, 0), 1),
        ("ABBB", "ABAA", DistanceConfig(2, 0, match_table=table), 0),
    ]
    got = [structure_distance(s1, s2, cfg) for s1, s2, cfg, _ in cases]
    want = [d for _, _, _, d in cases]
    for (s1, s2, cfg, _), value in zip(cases, got):
        assert structure_distance(s2, s1, cfg) == value
        # The growth engine's distance query gives the same value.
        index = GroupIndex(cfg, [s2])
        assert index.distances(index.encode(s1)).tolist() == [value]
    _report(1, f"distances {got} == {want}")
    assert got == want


def test_acceptance_02_celegans_reproduction():
    config = _load("celegans.instance")
    start = time.perf_counter()
    degrees, lengths, clusterings = [], [], []
    node_counts = set()
    for i in range(config.n_seeds):
        net = run_single(replace(config.instance, seed=config.instance.seed + i))[0]
        node_counts.add(net.n_nodes)
        degrees.append(average_degree(net))
        lengths.append(average_path_length(net))
        clusterings.append(average_clustering(net))
    elapsed = time.perf_counter() - start
    mean_k, mean_l, mean_c = fmean(degrees), fmean(lengths), fmean(clusterings)
    _report(
        2,
        f"{config.n_seeds} seeds: mean degree {mean_k:.3f} (ref 13.94 +-10%), "
        f"mean path length {mean_l:.3f} (ref 3.61 +-10%), "
        f"mean clustering {mean_c:.3f} (ref 0.30 +-0.05), "
        f"node counts {sorted(node_counts)}, {elapsed:.1f}s",
    )
    failures = []
    if abs(mean_k - 13.94) > 0.10 * 13.94:
        failures.append(f"mean degree {mean_k:.3f} outside 13.94 +-10%")
    if abs(mean_l - 3.61) > 0.10 * 3.61:
        failures.append(f"mean path length {mean_l:.3f} outside 3.61 +-10%")
    if abs(mean_c - 0.30) > 0.05:
        failures.append(f"mean clustering {mean_c:.3f} outside 0.30 +-0.05")
    if node_counts != {282}:
        failures.append(f"node counts {sorted(node_counts)} != {{282}}")
    if elapsed >= 120:
        failures.append(f"took {elapsed:.1f}s, budget 120s")
    assert not failures, "; ".join(failures)


def test_acceptance_03_ecoli_reproduction():
    # The [4.5, 7.5] band is asserted as stated and this test fails: the
    # mean degree over the 100 seeds is about 11.4. The shipped pair file
    # is not the cause. It only restates order insensitivity, which the
    # group comparison already provides, and seeds 1-10 give byte-identical
    # edge lists with and without it. Nor can a faithful pair file be the
    # fix: for a fixed set of structures a match table can only merge
    # groups, so it can only lower distances and add edges. Reaching the
    # band needs the paper's whole E. Coli configuration (alphabet, initial
    # structure, edit mix, distance parameters), which is not recorded here.
    config = _load("ecoli.instance")
    start = time.perf_counter()
    degrees, rhos = [], []
    counts: dict[int, int] = {}
    total = 0
    for i in range(config.n_seeds):
        net = run_single(replace(config.instance, seed=config.instance.seed + i))[0]
        assert net.n_nodes == 230
        degrees.append(average_degree(net))
        rhos.append(heterogeneity_index(net))
        for k, c in degree_histogram(net).items():
            counts[k] = counts.get(k, 0) + c
        total += net.n_nodes
    elapsed = time.perf_counter() - start
    mean_k, mean_rho = fmean(degrees), fmean(rhos)
    slope, r_squared = fit_power_law_slope({k: c / total for k, c in counts.items()})
    _report(
        3,
        f"{config.n_seeds} seeds: mean degree {mean_k:.3f} (band [4.5, 7.5]), "
        f"mean heterogeneity {mean_rho:.3f} (>= 0.15), "
        f"slope {slope:.3f} r2 {r_squared:.3f} (logged, no tolerance), {elapsed:.1f}s",
    )
    failures = []
    if not 4.5 <= mean_k <= 7.5:
        failures.append(f"mean degree {mean_k:.3f} outside [4.5, 7.5]")
    if mean_rho < 0.15:
        failures.append(f"mean heterogeneity {mean_rho:.3f} < 0.15")
    if elapsed >= 120:
        failures.append(f"took {elapsed:.1f}s, budget 120s")
    assert not failures, "; ".join(failures)


def test_acceptance_04_growth_comparison_clustering():
    config = _load("comparison.instance")
    checkpoints = list(range(500, 3001, 500))
    start = time.perf_counter()
    curves = run_growth_comparison(
        config.instance,
        BAParams(target_nodes=3000, initial_clique=6, edges_per_node=6, seed=1),
        checkpoints,
        n_seeds=20,
        metric_names=("average_degree", "average_clustering"),
    )
    elapsed = time.perf_counter() - start
    sn_c = [curves["average_clustering"]["sn"][c] for c in checkpoints]
    ba_c = [curves["average_clustering"]["ba"][c] for c in checkpoints]
    ba_k = [curves["average_degree"]["ba"][c] for c in checkpoints]
    sn_rel_std = (fmean((v - fmean(sn_c)) ** 2 for v in sn_c)) ** 0.5 / fmean(sn_c)
    ba_spread = (max(ba_k) - min(ba_k)) / fmean(ba_k)
    _report(
        4,
        f"20 seeds: ba clustering {ba_c[0]:.4f} -> {ba_c[-1]:.4f} "
        f"(ratio {ba_c[-1] / ba_c[0]:.3f} < 0.5), "
        f"sn clustering rel std {sn_rel_std:.4f} (<= 0.25), "
        f"ba degree spread {ba_spread:.4f} (<= 0.02), {elapsed:.1f}s",
    )
    failures = []
    if not ba_c[-1] < 0.5 * ba_c[0]:
        failures.append(
            f"ba clustering {ba_c[-1]:.4f} at 3000 not below half of {ba_c[0]:.4f} at 500"
        )
    if sn_rel_std > 0.25:
        failures.append(f"sn clustering rel std {sn_rel_std:.4f} > 0.25")
    if ba_spread > 0.02:
        failures.append(f"ba degree spread {ba_spread:.4f} > 0.02")
    if elapsed >= 600:
        failures.append(f"took {elapsed:.1f}s, budget 600s")
    assert not failures, "; ".join(failures)


def test_acceptance_05_degree_distribution_slope():
    # Pooling histograms across seeds extends the rare-degree tail far
    # beyond what any single 3000-node network exhibits and steepens the
    # raw log-log fit to about -3.1; the reference slope describes one
    # network, so the fit runs per seed and the slopes are averaged. The
    # pooled value is still printed for reference.
    config = _load("comparison.instance")
    slopes, r_squareds = [], []
    counts: dict[int, int] = {}
    total = 0
    for i in range(config.n_seeds):
        net, _ = grow(replace(config.instance, seed=config.instance.seed + i))
        assert net.n_nodes == 3000
        slope, r_squared = fit_power_law_slope(degree_distribution(net), k_min=6)
        slopes.append(slope)
        r_squareds.append(r_squared)
        for k, c in degree_histogram(net).items():
            counts[k] = counts.get(k, 0) + c
        total += net.n_nodes
    mean_slope, mean_r2 = fmean(slopes), fmean(r_squareds)
    pooled = fit_power_law_slope({k: c / total for k, c in counts.items()}, k_min=6)
    _report(
        5,
        f"{config.n_seeds} seeds, fit k >= 6: mean slope {mean_slope:.3f} "
        f"(ref -1.72 +-0.4), mean r2 {mean_r2:.3f} (>= 0.8, min {min(r_squareds):.3f}), "
        f"pooled histogram slope {pooled[0]:.3f} r2 {pooled[1]:.3f} (reference only)",
    )
    failures = []
    if abs(mean_slope - (-1.72)) > 0.4:
        failures.append(f"mean slope {mean_slope:.3f} outside -1.72 +-0.4")
    if mean_r2 < 0.8:
        failures.append(f"mean r2 {mean_r2:.3f} < 0.8")
    assert not failures, "; ".join(failures)


def test_acceptance_06_pruned_long_run_slope(pruned_network):
    net = pruned_network
    slope, r_squared = fit_power_law_slope(degree_distribution(net), k_min=1)
    _report(
        6,
        f"pruned run: {net.n_nodes} nodes (band [2000, 4500]), "
        f"slope {slope:.3f} (ref -2.98 +-0.6), r2 {r_squared:.3f}",
    )
    failures = []
    if not 2000 <= net.n_nodes <= 4500:
        failures.append(f"{net.n_nodes} nodes outside [2000, 4500]")
    if abs(slope - (-2.98)) > 0.6:
        failures.append(f"slope {slope:.3f} outside -2.98 +-0.6")
    assert not failures, "; ".join(failures)


def _try_power_law_fit(net: Network) -> tuple[float | None, str]:
    """r^2 of the degree distribution's power-law fit (None if unfittable) and a summary."""
    try:
        slope, r_squared = fit_power_law_slope(degree_distribution(net))
    except ValueError as exc:
        return None, f"unfittable ({exc})"
    return r_squared, f"slope {slope:.3f} r2 {r_squared:.3f}"


def test_acceptance_07_batch_variant():
    # Batch candidates are single edits of the initial structures (see
    # growth.grow). With mutation only and one initial word w of length L
    # over an alphabet of size A, every candidate is w with exactly one
    # symbol replaced by a different one, so at most n = 1 + L*(A - 1)
    # distinct structures exist. Any two of them differ from each other in
    # at most two symbols, hence in at most two groups, so their distance
    # is <= 2 <= max_distance (a match table only merges groups and can
    # only lower it): every pair is joined and none is isolated. Once all
    # n words are drawn (the attempt budget is far beyond the ~n ln n draws
    # that takes), growth saturates below target_nodes as the complete
    # graph K_n: clustering 1 and a one-bin degree distribution with no
    # power-law tail. Incremental growth on the same parameters, which
    # edits any structure grown so far, is the contrast.
    instance = _load("batch.instance").instance
    premises = {
        "mode is batch": instance.mode == BATCH,
        "mutation only": instance.probs.mutate == 1.0,
        "one initial structure": len(instance.initial_structures) == 1,
        "max_distance >= 2": instance.distance.max_distance >= 2,
    }
    broken = [name for name, holds in premises.items() if not holds]
    assert not broken, f"batch.instance no longer meets the K_n proof: {broken}"
    (initial,) = instance.initial_structures
    n = 1 + len(initial) * (len(instance.alphabet) - 1)
    assert n < instance.target_nodes, "the K_n profile needs n < target_nodes"

    net, trace = grow(instance)
    clustering = average_clustering(net)
    r_squared, fit_text = _try_power_law_fit(net)
    # A distribution too narrow to fit has no power-law tail either.
    power_law_tail = r_squared is not None and r_squared >= 0.8

    contrast, contrast_trace = grow(replace(instance, mode=INCREMENTAL))
    m = contrast.n_nodes
    contrast_r_squared, contrast_text = _try_power_law_fit(contrast)
    _report(
        7,
        f"batch run: {net.n_nodes} nodes (K_n, n = {n}), {net.n_edges} edges "
        f"(n(n-1)/2 = {n * (n - 1) // 2}), saturated {trace.saturated}, "
        f"clustering {clustering:.4f} (== 1), fit {fit_text} (no power-law tail); "
        f"incremental: {m} nodes (target {instance.target_nodes}), "
        f"{contrast.n_edges} edges, saturated {contrast_trace.saturated}, "
        f"clustering {average_clustering(contrast):.4f}, fit {contrast_text}",
    )
    failures = []
    if net.n_nodes != n:
        failures.append(f"{net.n_nodes} nodes != {n}")
    if not trace.saturated:
        failures.append("batch growth did not saturate")
    if net.n_edges != n * (n - 1) // 2:
        failures.append(f"{net.n_edges} edges != n(n-1)/2 = {n * (n - 1) // 2}")
    if clustering != 1.0:
        failures.append(f"clustering {clustering!r} != 1.0")
    if power_law_tail:
        failures.append(f"degree distribution has a power-law tail: {fit_text}")
    if m != instance.target_nodes or contrast_trace.saturated:
        failures.append(
            f"incremental growth stopped at {m} of {instance.target_nodes} nodes"
        )
    if contrast.n_edges >= m * (m - 1) // 2:
        failures.append("incremental growth produced a complete graph")
    if contrast_r_squared is None:
        failures.append(f"incremental degree distribution not fittable: {contrast_text}")
    assert not failures, "; ".join(failures)


def test_acceptance_08_property_suites():
    start = time.perf_counter()
    rng = random.Random(80801)

    # Closed-form 3-node census against brute-force triple enumeration.
    for _ in range(100):
        net = random_network(rng, rng.randint(3, 30), rng.uniform(0.05, 0.5))
        assert motif_census_3(net) == census_3_brute_force(net)

    # BFS path lengths against Floyd-Warshall, per pair and as histograms.
    for _ in range(20):
        net = random_network(rng, rng.randint(3, 50), rng.uniform(0.05, 0.5))
        fw = floyd_warshall(net)
        fw_hist: dict[int, int] = {}
        for src in range(net.n_nodes):
            bfs = shortest_path_lengths_bfs(net, src)
            for dst in range(net.n_nodes):
                expected = fw[src][dst]
                if expected == math.inf:
                    assert dst not in bfs
                else:
                    assert bfs[dst] == int(expected)
                if src < dst and expected != math.inf:
                    fw_hist[int(expected)] = fw_hist.get(int(expected), 0) + 1
        assert path_length_histogram(net) == fw_hist

    # Edge iff within-distance, exhaustively over all node pairs of grown
    # networks, via the plain string-distance route.
    for name, target in (("comparison.instance", 500), ("ecoli.instance", 230)):
        instance = replace(_load(name).instance, target_nodes=target)
        net, _ = grow(instance)
        assert net.n_nodes == target
        cfg = instance.distance
        edges = edge_set(net)
        for u in range(net.n_nodes):
            su = net.structures[u]
            for v in range(u + 1, net.n_nodes):
                assert ((u, v) in edges) == within_max_distance(
                    su, net.structures[v], cfg
                )

    # Heterogeneity pinned at the extremes: 1 on stars, 0 on regular graphs.
    for n in range(3, 51):
        star = from_pairs(n, [(0, i) for i in range(1, n)])
        assert abs(heterogeneity_index(star) - 1.0) <= 1e-9
        cycle = from_pairs(n, [(i, (i + 1) % n) for i in range(n)])
        assert abs(heterogeneity_index(cycle)) <= 1e-9
    for n in (3, 10, 25, 50):
        complete = from_pairs(n, itertools.combinations(range(n), 2))
        assert abs(heterogeneity_index(complete)) <= 1e-9

    # Distance symmetry, identity, and the group-count bound on random pairs.
    table = parse_match_file("AA = BB\nBB = AA\n", 2, Alphabet.from_string("ABC"))
    for _ in range(10_000):
        unit = rng.randint(1, 3)
        use_table = unit == 2 and rng.random() < 0.5
        cfg = DistanceConfig(unit, 0, match_table=table if use_table else None)
        s1 = "".join(rng.choice("ABC") for _ in range(rng.randint(1, 12)))
        s2 = "".join(rng.choice("ABC") for _ in range(rng.randint(1, 12)))
        d = structure_distance(s1, s2, cfg)
        assert d == structure_distance(s2, s1, cfg)
        assert structure_distance(s1, s1, cfg) == 0
        assert 0 <= d <= min(len(s1), len(s2)) // unit

    _report(8, f"motif, path-length, edge-rule, heterogeneity, and distance "
               f"suites all exact, {time.perf_counter() - start:.1f}s")


def test_acceptance_09_determinism(pruned_config, pruned_network):
    for name in ("celegans.instance", "ecoli.instance", "comparison.instance",
                 "batch.instance"):
        instance = _load(name).instance
        first = render_edge_list(run_single(instance)[0])
        second = render_edge_list(run_single(instance)[0])
        assert first == second, f"{name}: repeated runs differ"
    repeat = render_edge_list(run_single(pruned_config.instance)[0])
    assert repeat == render_edge_list(pruned_network), "pruned.instance: repeated runs differ"
    _report(9, "all five shipped configs reproduce byte-identical edge lists")


#: SHA-256 of every `snm generate` artifact of the shipped instances at their
#: own seeds. Re-pin only for an intended output change, and say why in
#: CHANGES.md.
GOLDEN = Path(__file__).with_name("golden.json")
SHIPPED = ("batch", "celegans", "comparison", "ecoli", "pruned")


def test_golden_artifact_digests(tmp_path, pruned_network):
    got = {}
    for name in SHIPPED:
        if name == "pruned":
            net = pruned_network
        else:
            net, _ = run_single(_load(f"{name}.instance").instance)
        write_network(tmp_path / name, net, compute_metrics(net))
        got[name] = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted((tmp_path / name).iterdir())
        }
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    expected = {name: golden[name] for name in SHIPPED}
    if got != expected:
        print("new digests:\n" + json.dumps(got, indent=2, sort_keys=True))
    assert got == expected
    # One network, one report: `snm metrics` on a run's edges reproduces it.
    for name in SHIPPED:
        out = tmp_path / f"{name}.json"
        edges = tmp_path / name / "edges.tsv"
        assert cli_main(["metrics", "--edges", str(edges), "--out", str(out)]) == 0
        assert out.read_bytes() == (tmp_path / name / "metrics.json").read_bytes(), name


def _assert_golden_files(name: str, directory: Path, pattern: str) -> None:
    got = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.glob(pattern))
    }
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    if got != expected:
        print("new pin:\n" + json.dumps(got, indent=2, sort_keys=True))
    assert got == expected


def test_golden_experiment_summary(tmp_path):
    instance = instances_dir() / "celegans.instance"
    argv = ["experiment", "--instance", str(instance), "--n-seeds", "3"]
    assert cli_main(argv + ["--out", str(tmp_path)]) == 0
    _assert_golden_files("experiment", tmp_path, "summary.json")


def test_golden_compare_ba_curves(tmp_path):
    instance = instances_dir() / "comparison.instance"
    argv = ["compare-ba", "--instance", str(instance), "--target-nodes", "300",
            "--checkpoints", "100,200,300", "--n-seeds", "1"]
    assert cli_main(argv + ["--out", str(tmp_path)]) == 0
    _assert_golden_files("compare_ba", tmp_path, "*.tsv")


def test_golden_all_edits_growth():
    # Inserts, deletes and duplications shift groups, so many candidates
    # lie beyond their template and some are rejected as isolated; the
    # linking table adds pair-code matches. The shipped instances are
    # mutation-only or nearly so and barely reach either path. The
    # checkpoint rows come from regrowing to each size, which must give the
    # grown network's prefix.
    table = parse_match_file("AA = BB\nBB = AA\nAB = CC\nCC = AB\n", 2, Alphabet.from_string("ABC"))
    instance = Instance(
        alphabet=Alphabet.from_string("ABC"),
        initial_structures=("ABCABCABCABC",),
        probs=EditProbabilities(mutate=0.4, insert=0.2, delete=0.2, duplicate=0.2),
        distance=DistanceConfig(2, 1, match_table=table),
        target_nodes=400,
        seed=3,
    )
    net, trace = grow(instance)
    got = {
        "edges.tsv": hashlib.sha256(render_edge_list(net).encode()).hexdigest(),
        "structures.tsv": hashlib.sha256(render_structures(net).encode()).hexdigest(),
        "trace": {
            "attempts": trace.attempts,
            "accepted": trace.accepted,
            "rejected_duplicate": trace.rejected_duplicate,
            "rejected_isolated": trace.rejected_isolated,
            "rejected_edit_failed": trace.rejected_edit_failed,
            "checkpoints": [list(row) for row in checkpoint_rows(net, instance, 100)],
        },
    }
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))["all_edits"]
    if got != expected:
        print("new pin:\n" + json.dumps(got, indent=2, sort_keys=True))
    assert trace.rejected_isolated > 0
    assert got == expected
