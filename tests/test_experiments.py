"""Instance parsing, multi-seed experiments, and comparison curves."""

from __future__ import annotations

import filecmp
import json
from dataclasses import replace
from pathlib import Path

import pytest

from snmodel import instances_dir, metrics
from snmodel.ba import BAParams, grow_ba
from snmodel.experiments import (
    _SCALAR_FIELDS,
    DEFAULT_REFERENCED_METRICS,
    ExperimentConfig,
    config_from_mapping,
    load_instance_file,
    parse_instance_file,
    parse_key_values,
    run_experiment,
    run_growth_comparison,
    summarize,
)
from snmodel.growth import BATCH, INCREMENTAL, grow
from snmodel.metrics import compute_metrics

from oracles import from_pairs

MINIMAL = """\
alphabet = ABC
initial = ABCABC
p_mutate = 1.0
unit_distance = 2
max_distance = 1
target_nodes = 40
"""


class TestParseKeyValues:
    def test_basic(self):
        assert parse_key_values("seed = 4\nmode = batch\n") == {
            "seed": "4",
            "mode": "batch",
        }

    def test_comments_and_blanks(self):
        assert parse_key_values("# hi\n\nseed = 4\n") == {"seed": "4"}

    def test_inline_comment(self):
        assert parse_key_values("target_nodes = 10 # x\nseed = 4#y\n") == {
            "target_nodes": "10",
            "seed": "4",
        }

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_key_values("speed = 4\n")

    def test_duplicate_key(self):
        with pytest.raises(ValueError, match="duplicate key"):
            parse_key_values("seed = 1\nseed = 2\n")

    def test_missing_equals(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_key_values("seed 4\n")


class TestConfigFromMapping:
    def test_minimal_instance(self):
        config = parse_instance_file(MINIMAL)
        inst = config.instance
        assert inst.alphabet.symbols == ("A", "B", "C")
        assert inst.initial_structures == ("ABCABC",)
        assert inst.probs.mutate == 1.0
        assert inst.distance.unit_distance == 2
        assert inst.distance.max_distance == 1
        assert inst.target_nodes == 40
        assert inst.mode == INCREMENTAL
        assert config.n_seeds == 1
        assert config.checkpoint_interval == 0

    def test_missing_required_key(self):
        with pytest.raises(ValueError, match="missing required key 'alphabet'"):
            parse_instance_file("initial = A\nunit_distance = 1\nmax_distance = 0\ntarget_nodes = 1\n")

    def test_semicolon_separated_initials(self):
        config = parse_instance_file(MINIMAL.replace("ABCABC", "ABCABC; CBACBA"))
        assert config.instance.initial_structures == ("ABCABC", "CBACBA")

    def test_probability_sum_enforced(self):
        with pytest.raises(ValueError, match="sum"):
            parse_instance_file(MINIMAL.replace("p_mutate = 1.0", "p_mutate = 0.5"))

    def test_bad_number_names_key(self):
        with pytest.raises(ValueError, match="target_nodes"):
            parse_instance_file(MINIMAL.replace("target_nodes = 40", "target_nodes = many"))

    def test_mode_batch(self):
        config = parse_instance_file(MINIMAL + "mode = batch\n")
        assert config.instance.mode == BATCH

    def test_match_file_resolved_against_base_dir(self, tmp_path):
        (tmp_path / "pairs.txt").write_text("AA = BB\nBB = AA\n")
        config = parse_instance_file(
            "alphabet = AB\ninitial = ABAB\np_mutate = 1.0\nunit_distance = 2\n"
            "max_distance = 1\ntarget_nodes = 10\nmatch_file = pairs.txt\n",
            tmp_path,
        )
        table = config.instance.distance.match_table
        assert table == {"AA": {"BB"}, "BB": {"AA"}}

    def test_n_seeds_validated(self):
        with pytest.raises(ValueError, match="n_seeds"):
            parse_instance_file(MINIMAL + "n_seeds = 0\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            (MINIMAL.replace("ABCABC", ";"), r"key 'initial': .*\(needs at least one structure"),
            (MINIMAL + "checkpoint_interval = -1\n", "checkpoint_interval must be >= 0"),
        ],
        ids=["no-initial-structure", "negative-checkpoint-interval"],
    )
    def test_bad_value_names_the_rule(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_instance_file(text)

    def test_unknown_key_in_the_mapping(self):
        with pytest.raises(ValueError, match="unknown key 'speed'"):
            config_from_mapping({**parse_key_values(MINIMAL), "speed": "4"})

    def test_shipped_instances_parse(self):
        from snmodel import instances_dir

        for name in (
            "celegans.instance",
            "ecoli.instance",
            "comparison.instance",
            "pruned.instance",
            "batch.instance",
        ):
            config = load_instance_file(instances_dir() / name)
            assert config.instance.target_nodes >= 1

    def test_shipped_celegans_values(self):
        from snmodel import instances_dir

        inst = load_instance_file(instances_dir() / "celegans.instance").instance
        assert inst.alphabet.symbols == ("A", "T")
        assert inst.initial_structures == ("ATATATATATAT",)
        assert inst.probs.mutate == 1.0
        assert inst.distance.unit_distance == 2
        assert inst.target_nodes == 282

    def test_shipped_ecoli_values(self):
        from snmodel import instances_dir

        inst = load_instance_file(instances_dir() / "ecoli.instance").instance
        assert inst.probs.mutate == pytest.approx(0.4)
        assert inst.probs.duplicate == pytest.approx(0.6)
        assert inst.distance.unit_distance == 2
        assert inst.distance.max_distance == 1
        # The shipped pair file only restates the multiset rule.
        assert inst.distance.match_table == {}
        assert inst.target_nodes == 230


class TestSummarize:
    def make_reports(self):
        nets = [
            from_pairs(4, [(0, 1), (1, 2), (2, 3)]),
            from_pairs(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
        ]
        return [compute_metrics(n) for n in nets]

    def test_means_and_stds(self):
        reports = self.make_reports()
        summary = summarize(reports)
        d1, d2 = (r.average_degree for r in reports)
        assert summary.means["average_degree"] == pytest.approx((d1 + d2) / 2)
        assert summary.stds["average_degree"] == pytest.approx(abs(d1 - d2) / 2)

    def test_single_report_has_zero_std(self):
        summary = summarize(self.make_reports()[:1])
        assert summary.stds["average_degree"] == 0.0
        assert summary.within_10 == 1.0

    def test_explicit_reference(self):
        reports = self.make_reports()
        reference = {"average_degree": 2.0}
        summary = summarize(reports, ("average_degree",), reference)
        # degrees are 1.5 and 2.0: only the cycle is within 10% of 2.0.
        assert summary.within_10 == 0.5
        assert summary.within_20 == 0.5
        assert summary.reference == {"average_degree": 2.0}

    def test_within_20_includes_within_10(self):
        summary = summarize(self.make_reports())
        assert summary.within_20 >= summary.within_10

    def test_all_referenced_metrics_must_qualify(self):
        reports = self.make_reports()
        # Path: degree 1.5, APL 5/3; cycle: degree 2, APL 4/3.
        reference = {"average_degree": 2.0, "average_path_length": 5 / 3}
        summary = summarize(
            reports, ("average_degree", "average_path_length"), reference
        )
        assert summary.within_10 == 0.0


    def test_unknown_metric_names_the_known_ones(self):
        with pytest.raises(ValueError, match="unknown metric 'bogus'; known metrics: n_nodes, "):
            summarize(self.make_reports(), ("bogus",))

    def test_empty_metric_list_rejected(self):
        # With no referenced metric every seed would qualify.
        with pytest.raises(ValueError, match="names no metric"):
            summarize(self.make_reports(), ())

    def test_repeated_metric_counts_once(self):
        summary = summarize(self.make_reports(), ("average_degree", "average_degree"))
        assert summary.referenced_metrics == ("average_degree",)

    @pytest.mark.parametrize(
        "reference",
        [[1, 2], {"average_degree": {"a": 1}}, {"average_degree": None}, {"average_degree": True}],
    )
    def test_reference_must_map_names_to_numbers(self, reference):
        with pytest.raises(ValueError, match="reference"):
            summarize(self.make_reports(), ("average_degree",), reference)

    def test_no_report_is_an_error(self):
        with pytest.raises(ValueError, match="at least one report"):
            summarize([])

    def test_metric_missing_from_every_report_has_no_mean(self):
        # Two nodes without an edge have no connected pair, so no path length.
        reports = [compute_metrics(from_pairs(2, []))] * 2
        summary = summarize(reports, ("average_degree",))
        assert summary.means["average_path_length"] is None
        assert summary.stds["average_path_length"] is None
        assert summary.means["average_degree"] == 0.0

    @pytest.mark.parametrize(
        "other, metric, value",
        [
            # The isolated pair has no path length; the path's 4/3 is the reference.
            (from_pairs(2, []), "average_path_length", 4 / 3),
            # A reference of 0 takes only an exact 0: the path's, not the triangle's 1.
            (from_pairs(3, [(0, 1), (1, 2), (0, 2)]), "average_clustering", 0.0),
        ],
        ids=["missing-value", "zero-reference"],
    )
    def test_seed_qualifies_only_with_a_value_near_the_reference(self, other, metric, value):
        path = from_pairs(3, [(0, 1), (1, 2)])
        reports = [compute_metrics(path), compute_metrics(other)]
        summary = summarize(reports, (metric,), {metric: value})
        assert (summary.within_10, summary.within_20) == (0.5, 0.5)

    def test_reference_values_of_unreferenced_metrics_are_ignored(self):
        reference = {"average_degree": 2, "average_path_length": None}
        summary = summarize(self.make_reports(), ("average_degree",), reference)
        assert summary.reference == {"average_degree": 2.0}


class TestRunExperiment:
    def config(self, tmp_path=None, n_seeds=2) -> ExperimentConfig:
        return parse_instance_file(MINIMAL + f"n_seeds = {n_seeds}\nseed = 7\n")

    def test_writes_per_seed_artifacts_and_summary(self, tmp_path):
        summary = run_experiment(self.config(), tmp_path)
        assert summary.n_seeds == 2
        for seed in (7, 8):
            seed_dir = tmp_path / f"seed_{seed:05d}"
            for name in (
                "edges.tsv",
                "structures.tsv",
                "metrics.json",
                "degree_distribution.tsv",
                "path_length_distribution.tsv",
            ):
                assert (seed_dir / name).is_file(), name
        payload = json.loads((tmp_path / "summary.json").read_text())
        assert payload["n_seeds"] == 2
        assert payload["means"]["average_degree"] == pytest.approx(
            summary.means["average_degree"]
        )

    def test_byte_identical_across_runs(self, tmp_path):
        run_experiment(self.config(), tmp_path / "a")
        run_experiment(self.config(), tmp_path / "b")
        for rel in (
            "summary.json",
            "seed_00007/edges.tsv",
            "seed_00007/metrics.json",
            "seed_00008/structures.tsv",
        ):
            assert filecmp.cmp(tmp_path / "a" / rel, tmp_path / "b" / rel, shallow=False), rel

    def test_seeds_differ(self, tmp_path):
        run_experiment(self.config(), tmp_path)
        a = (tmp_path / "seed_00007" / "edges.tsv").read_text()
        b = (tmp_path / "seed_00008" / "edges.tsv").read_text()
        assert a != b

    def test_bad_reference_fails_before_growth(self, tmp_path):
        with pytest.raises(ValueError, match="unknown metric"):
            run_experiment(self.config(), tmp_path / "out", referenced_metrics=("bogus",))
        assert not (tmp_path / "out").exists()

    def test_pruning_applied_when_configured(self, tmp_path):
        config = parse_instance_file(MINIMAL + "prune_min_degree = 2\n")
        summary = run_experiment(config, tmp_path)
        assert summary.means["n_nodes"] < 40


class TestRunGrowthComparison:
    def test_curves_and_files(self, tmp_path):
        config = parse_instance_file(MINIMAL.replace("target_nodes = 40", "target_nodes = 60"))
        ba = BAParams(target_nodes=60, initial_clique=4, edges_per_node=4, seed=1)
        curves = run_growth_comparison(
            config.instance, ba, [20, 40, 60], n_seeds=2, output_directory=tmp_path
        )
        assert set(curves) == {"average_degree", "average_path_length", "average_clustering"}
        for metric, per_model in curves.items():
            assert set(per_model) == {"sn", "ba"}
            assert list(per_model["sn"]) == [20, 40, 60]
            path = tmp_path / f"comparison_{metric}.tsv"
            lines = path.read_text().strip().splitlines()
            assert len(lines) == 2 + 3

    def test_ba_degree_curve_from_exact_counts(self, tmp_path):
        config = parse_instance_file(MINIMAL.replace("target_nodes = 40", "target_nodes = 50"))
        ba = BAParams(target_nodes=50, initial_clique=4, edges_per_node=4, seed=1)
        curves = run_growth_comparison(
            config.instance, ba, [25, 50], n_seeds=1, metric_names=("average_degree",)
        )
        for n, value in curves["average_degree"]["ba"].items():
            expected = 2 * (6 + 4 * (n - 4)) / n
            assert value == pytest.approx(expected)

    def test_every_scalar_curve_is_the_prefix_report(self):
        config = parse_instance_file(MINIMAL)
        ba = BAParams(target_nodes=40, initial_clique=4, edges_per_node=4, seed=1)
        checkpoints = [10, 25, 40]
        curves = run_growth_comparison(
            config.instance, ba, checkpoints, n_seeds=1, metric_names=_SCALAR_FIELDS
        )
        for label, net in (("sn", grow(config.instance)[0]), ("ba", grow_ba(ba))):
            for c in checkpoints:
                report = compute_metrics(net.induced_prefix(c))
                for name in _SCALAR_FIELDS:
                    assert curves[name][label][c] == getattr(report, name), (label, c, name)

    def test_curves_are_the_same_on_any_worker_count(self, tmp_path, monkeypatch):
        # Prefixes of 600 and 700 nodes sweep in slices, the 100-node one in
        # one chunk; the seed sums are added in one order whatever finishes first.
        instance = replace(load_instance_file(instances_dir() / "comparison.instance").instance,
                           target_nodes=700)
        ba = BAParams(target_nodes=700, initial_clique=4, edges_per_node=4, seed=1)
        curves, files = [], []
        for workers in (1, 2, 3, 8):
            monkeypatch.setattr(metrics, "_WORKERS", workers)
            out = tmp_path / str(workers)
            curves.append(run_growth_comparison(
                instance, ba, [100, 600, 700], n_seeds=2, output_directory=out,
                metric_names=_SCALAR_FIELDS,
            ))
            files.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert all(c == curves[0] for c in curves)
        assert all(f == files[0] for f in files)

    def test_repeated_checkpoint_counts_once(self, tmp_path):
        config = parse_instance_file(MINIMAL.replace("target_nodes = 40", "target_nodes = 60"))
        ba = BAParams(target_nodes=60, initial_clique=4, edges_per_node=4, seed=1)
        twice = run_growth_comparison(
            config.instance, ba, [40, 40, 60], n_seeds=2, output_directory=tmp_path / "twice"
        )
        once = run_growth_comparison(
            config.instance, ba, [40, 60], n_seeds=2, output_directory=tmp_path / "once"
        )
        assert twice == once
        for metric in once:
            name = f"comparison_{metric}.tsv"
            assert (tmp_path / "twice" / name).read_text() == (tmp_path / "once" / name).read_text()

    def test_repeated_metric_counts_once(self, tmp_path):
        config = parse_instance_file(MINIMAL)
        ba = BAParams(target_nodes=40, initial_clique=4, edges_per_node=4, seed=1)
        twice = run_growth_comparison(
            config.instance, ba, [20, 40], n_seeds=2, output_directory=tmp_path / "twice",
            metric_names=("average_degree", "average_degree"),
        )
        once = run_growth_comparison(
            config.instance, ba, [20, 40], n_seeds=2, output_directory=tmp_path / "once",
            metric_names=("average_degree",),
        )
        assert twice == once
        name = "comparison_average_degree.tsv"
        assert (tmp_path / "twice" / name).read_text() == (tmp_path / "once" / name).read_text()

    def test_empty_metric_list_rejected(self, tmp_path):
        config = parse_instance_file(MINIMAL)
        ba = BAParams(target_nodes=40, initial_clique=4, edges_per_node=4)
        with pytest.raises(ValueError, match="names no metric"):
            run_growth_comparison(config.instance, ba, [20], n_seeds=1, metric_names=())

    def test_checkpoint_below_one_rejected(self):
        config = parse_instance_file(MINIMAL)
        ba = BAParams(target_nodes=40, initial_clique=4, edges_per_node=4)
        with pytest.raises(ValueError, match="checkpoint 0 is below 1"):
            run_growth_comparison(config.instance, ba, [0, 20], n_seeds=1)

    @pytest.mark.parametrize(
        "checkpoints, n_seeds, message",
        [([], 1, "at least one checkpoint"), ([20], 0, "n_seeds must be >= 1")],
        ids=["no-checkpoint", "no-seed"],
    )
    def test_nothing_to_compare_rejected(self, checkpoints, n_seeds, message):
        config = parse_instance_file(MINIMAL)
        ba = BAParams(target_nodes=40, initial_clique=4, edges_per_node=4)
        with pytest.raises(ValueError, match=message):
            run_growth_comparison(config.instance, ba, checkpoints, n_seeds=n_seeds)

    def test_checkpoint_beyond_target_rejected(self):
        config = parse_instance_file(MINIMAL)
        ba = BAParams(target_nodes=40, initial_clique=4, edges_per_node=4)
        with pytest.raises(ValueError):
            run_growth_comparison(config.instance, ba, [80], n_seeds=1)
