import dataclasses
import math
import re

import numpy as np
import pytest

import graphcomplete as gc
from graphcomplete.data import (
    DatasetFormatError,
    GraphDataset,
    MaskSpec,
    canonical_edges,
    two_block_features,
)


def random_dataset(seed=0, n=12, d=5, classes=3):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, d))
    mask = rng.random((n, d)) > 0.2
    features = np.where(mask, features, 0.0)
    edges = canonical_edges([(i, j) for i in range(n) for j in range(i + 1, n)
                             if rng.random() < 0.3])
    labels = rng.integers(0, classes, size=n)
    return GraphDataset(features, mask, edges, labels, classes).validate()


class TestRoundTrip:
    def test_write_then_load_is_exact(self, tmp_path):
        ds = random_dataset(seed=3)
        gc.write_dataset(ds, str(tmp_path / "ds"))
        back = gc.load_dataset(str(tmp_path / "ds"))
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.feature_mask, ds.feature_mask)
        np.testing.assert_array_equal(back.edges, ds.edges)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.num_classes == ds.num_classes

    def test_full_mask_file_is_omitted(self, tmp_path):
        ds = random_dataset(seed=1)
        full = GraphDataset(np.abs(ds.features) + 1.0,
                            np.ones_like(ds.feature_mask), ds.edges,
                            ds.labels, ds.num_classes).validate()
        gc.write_dataset(full, str(tmp_path / "ds"))
        assert not (tmp_path / "ds" / "mask.tsv").exists()
        back = gc.load_dataset(str(tmp_path / "ds"))
        assert back.feature_mask.all()


# a valid two-node dataset, one text per file the loader reads line by line
DATASET_TEXTS = {
    "features.tsv": ("feature", "0\t1.0\t2.0\n1\t3.0\t4.0\n"),
    "mask.tsv": ("mask", "0\t1\t0\n1\t1\t1\n"),
    "edges.tsv": ("edge", "0\t1\n"),
    "labels.tsv": ("label", "0\t0\n1\t1\n"),
}


class TestLineRule:
    """Every dataset file reads its lines by one rule."""

    def load_with(self, tmp_path, name=None, text=None):
        for f, (_, body) in DATASET_TEXTS.items():
            (tmp_path / f).write_text(text if f == name else body)
        return gc.load_dataset(str(tmp_path))

    @pytest.mark.parametrize("name", DATASET_TEXTS)
    def test_whitespace_only_line_is_skipped(self, tmp_path, name):
        first, *rest = DATASET_TEXTS[name][1].splitlines(keepends=True)
        ds = self.load_with(tmp_path, name, first + " \t \n\n" + "".join(rest) + "  \n")
        clean = self.load_with(tmp_path)
        for got, want in zip(dataclasses.astuple(ds), dataclasses.astuple(clean)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("name", DATASET_TEXTS)
    @pytest.mark.parametrize("damage", ["trailing", "doubled", "leading"])
    def test_empty_field_is_malformed(self, tmp_path, name, damage):
        kind, text = DATASET_TEXTS[name]
        first, *rest = text.splitlines(keepends=True)
        bad = {"trailing": first.replace("\n", "\t\n"),
               "doubled": first.replace("\t", "\t\t", 1),
               "leading": "\t" + first}[damage]
        with pytest.raises(DatasetFormatError, match=rf"{re.escape(name)}:1: malformed {kind} line"):
            self.load_with(tmp_path, name, bad + "".join(rest))


class TestLoadErrors:
    def write_minimal(self, tmp_path, edges_text="0\t1\n"):
        (tmp_path / "features.tsv").write_text("0\t1.0\t2.0\n1\t3.0\t4.0\n")
        (tmp_path / "edges.tsv").write_text(edges_text)

    def test_missing_features_file(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="missing"):
            gc.load_dataset(str(tmp_path))

    def test_malformed_feature_value_reports_line(self, tmp_path):
        (tmp_path / "features.tsv").write_text("0\t1.0\n1\tnot_a_number\n")
        (tmp_path / "edges.tsv").write_text("")
        with pytest.raises(DatasetFormatError, match=r"features\.tsv:2"):
            gc.load_dataset(str(tmp_path))

    def test_node_ids_must_be_sequential(self, tmp_path):
        (tmp_path / "features.tsv").write_text("0\t1.0\n2\t2.0\n")
        (tmp_path / "edges.tsv").write_text("")
        with pytest.raises(DatasetFormatError, match=":2"):
            gc.load_dataset(str(tmp_path))

    def test_ragged_rows_rejected(self, tmp_path):
        (tmp_path / "features.tsv").write_text("0\t1.0\t2.0\n1\t3.0\n")
        (tmp_path / "edges.tsv").write_text("")
        with pytest.raises(DatasetFormatError, match=":2"):
            gc.load_dataset(str(tmp_path))

    def test_self_loop_rejected(self, tmp_path):
        self.write_minimal(tmp_path, "1\t1\n")
        with pytest.raises(DatasetFormatError, match=r"edges\.tsv:1.*self-loop"):
            gc.load_dataset(str(tmp_path))

    def test_unordered_edge_rejected(self, tmp_path):
        self.write_minimal(tmp_path, "1\t0\n")
        with pytest.raises(DatasetFormatError, match="order"):
            gc.load_dataset(str(tmp_path))

    def test_out_of_range_edge_rejected(self, tmp_path):
        self.write_minimal(tmp_path, "0\t5\n")
        with pytest.raises(DatasetFormatError, match="out of range"):
            gc.load_dataset(str(tmp_path))

    def test_duplicate_edge_reports_line(self, tmp_path):
        self.write_minimal(tmp_path, "0\t1\n0\t1\n")
        with pytest.raises(DatasetFormatError, match=r"edges\.tsv:2.*duplicate"):
            gc.load_dataset(str(tmp_path))

    def test_non_binary_mask_rejected(self, tmp_path):
        self.write_minimal(tmp_path)
        (tmp_path / "mask.tsv").write_text("0\t1\t0\n1\t1\t0.5\n")
        with pytest.raises(DatasetFormatError, match="0 or 1"):
            gc.load_dataset(str(tmp_path))

    def test_missing_edges_file(self, tmp_path):
        (tmp_path / "features.tsv").write_text("0\t1.0\n1\t2.0\n")
        with pytest.raises(DatasetFormatError, match=r"edges\.tsv: missing"):
            gc.load_dataset(str(tmp_path))

    def test_duplicate_label_reports_line(self, tmp_path):
        self.write_minimal(tmp_path)
        (tmp_path / "labels.tsv").write_text("0\t0\n1\t1\n0\t1\n")
        with pytest.raises(DatasetFormatError,
                           match=r"labels\.tsv:3: duplicate label for node 0"):
            gc.load_dataset(str(tmp_path))

    def test_meta_counts_checked(self, tmp_path):
        self.write_minimal(tmp_path)
        (tmp_path / "meta.json").write_text('{"nodes": 3, "features": 2}')
        with pytest.raises(DatasetFormatError, match="disagree"):
            gc.load_dataset(str(tmp_path))

    @pytest.mark.parametrize("meta, message", [
        ('{"nodes": 2, "features": 2, "classes": "2"}', r"classes '2' is not an integer"),
        ('{"nodes": 2, "features": 2, "classes": 2.7}', r"classes 2\.7 is not an integer"),
        ('{"nodes": 2, "features": 2, "classes": true}', r"classes True is not an integer"),
        ('{"nodes": 2.0, "features": 2, "classes": 2}', r"nodes 2\.0 is not an integer"),
        ('[2, 2, 2]', r"not a JSON object"),
        ('{"nodes": 2,', r"not valid JSON"),
        ('{"nodes": 2, "features": 2, "classes": 1}', r"class count below observed labels"),
    ], ids=["string_classes", "float_classes", "bool_classes", "float_nodes", "list",
            "invalid_json", "too_few_classes"])
    def test_malformed_meta_rejected(self, tmp_path, meta, message):
        self.write_minimal(tmp_path)
        (tmp_path / "labels.tsv").write_text("0\t0\n1\t1\n")
        (tmp_path / "meta.json").write_text(meta)
        with pytest.raises(DatasetFormatError, match=r"meta\.json: " + message):
            gc.load_dataset(str(tmp_path))


class TestValidate:
    def test_nonzero_masked_entry_rejected(self):
        features = np.ones((2, 2))
        mask = np.array([[True, False], [True, True]])
        with pytest.raises(DatasetFormatError, match="stored as 0"):
            GraphDataset(features, mask, np.zeros((0, 2), dtype=np.int64)).validate()

    def test_duplicate_edges_rejected(self):
        f = np.zeros((3, 2))
        m = np.ones((3, 2), dtype=bool)
        edges = np.array([[0, 1], [0, 1]])
        with pytest.raises(DatasetFormatError, match="duplicate"):
            GraphDataset(f, m, edges).validate()


class TestCanonicalEdges:
    def test_sorts_endpoints_and_rows(self):
        out = canonical_edges([(3, 1), (0, 2), (2, 0)])
        np.testing.assert_array_equal(out, [[0, 2], [0, 2], [1, 3]])

    def test_empty(self):
        assert canonical_edges([]).shape == (0, 2)


class TestApplyMask:
    def test_entry_count_is_ceiling(self):
        ds = random_dataset(seed=7)
        full = GraphDataset(np.ones_like(ds.features),
                            np.ones_like(ds.feature_mask), ds.edges,
                            ds.labels, ds.num_classes).validate()
        n, d = full.features.shape
        rate = 0.25
        masked = gc.apply_mask(full, MaskSpec(feature_missing_rate=rate, seed=1))
        assert (~masked.feature_mask).sum() == math.ceil(rate * n * d)
        assert np.all(masked.features[~masked.feature_mask] == 0.0)

    def test_row_mode_masks_whole_rows(self):
        ds = random_dataset(seed=8)
        full = GraphDataset(np.ones_like(ds.features),
                            np.ones_like(ds.feature_mask), ds.edges,
                            ds.labels, ds.num_classes).validate()
        masked = gc.apply_mask(full, MaskSpec(feature_missing_rate=0.3,
                                              feature_mode="row", seed=2))
        row_masked = (~masked.feature_mask).all(axis=1)
        row_intact = masked.feature_mask.all(axis=1)
        assert row_masked.sum() == math.ceil(0.3 * full.n)
        assert (row_masked | row_intact).all()

    def test_edge_count_is_ceiling(self):
        ds = random_dataset(seed=9)
        rate = 0.4
        masked = gc.apply_mask(ds, MaskSpec(edge_missing_rate=rate, seed=3))
        assert masked.num_edges == ds.num_edges - math.ceil(rate * ds.num_edges)
        # surviving edges are a subset of the originals
        orig = {tuple(e) for e in ds.edges}
        assert all(tuple(e) in orig for e in masked.edges)

    def test_masking_composes_and_only_shrinks(self):
        ds = random_dataset(seed=10)
        once = gc.apply_mask(ds, MaskSpec(feature_missing_rate=0.3, seed=4))
        twice = gc.apply_mask(once, MaskSpec(feature_missing_rate=0.3, seed=5))
        # anything hidden stays hidden
        assert not (twice.feature_mask & ~once.feature_mask).any()
        assert (~twice.feature_mask).sum() >= (~once.feature_mask).sum()

    def test_deterministic_per_seed(self):
        ds = random_dataset(seed=11)
        a = gc.apply_mask(ds, MaskSpec(0.3, 0.3, "entry", 6))
        b = gc.apply_mask(ds, MaskSpec(0.3, 0.3, "entry", 6))
        np.testing.assert_array_equal(a.feature_mask, b.feature_mask)
        np.testing.assert_array_equal(a.edges, b.edges)
        c = gc.apply_mask(ds, MaskSpec(0.3, 0.3, "entry", 7))
        assert not np.array_equal(a.feature_mask, c.feature_mask)

    def test_rate_validation(self):
        with pytest.raises(ValueError, match="outside"):
            MaskSpec(feature_missing_rate=1.5)
        with pytest.raises(ValueError, match="feature_mode"):
            MaskSpec(feature_mode="column")


class TestSplits:
    def test_ten_per_class_gives_6_2_2(self):
        rng = np.random.default_rng(0)
        n = 30
        features = rng.normal(size=(n, 3))
        labels = np.repeat(np.arange(3), 10)
        ds = GraphDataset(features, np.ones_like(features, dtype=bool),
                          np.zeros((0, 2), dtype=np.int64), labels, 3).validate()
        splits = gc.make_splits(ds, seed=0)
        for c in range(3):
            ids = np.flatnonzero(labels == c)
            assert np.isin(splits.train, ids).sum() == 6
            assert np.isin(splits.val, ids).sum() == 2
            assert np.isin(splits.test, ids).sum() == 2

    def test_disjoint_and_covering(self):
        ds = random_dataset(seed=12, n=40, d=4, classes=4)
        splits = gc.make_splits(ds, seed=1)
        all_ids = np.concatenate([splits.train, splits.val, splits.test])
        assert len(all_ids) == len(set(all_ids.tolist())) == ds.n

    def test_small_class_rejected(self):
        features = np.zeros((4, 2))
        labels = np.array([0, 0, 0, 1])
        ds = GraphDataset(features, np.ones_like(features, dtype=bool),
                          np.zeros((0, 2), dtype=np.int64), labels, 2).validate()
        with pytest.raises(ValueError, match="at least 3"):
            gc.make_splits(ds)

    @pytest.mark.parametrize("meta", [True, False], ids=["with_meta", "without_meta"])
    def test_no_labeled_node_rejected(self, tmp_path, meta):
        # an empty labels.tsv loads as every node unlabeled, its class count
        # from meta.json or, without one, 0
        gc.write_dataset(random_dataset(seed=14), str(tmp_path / "ds"))
        (tmp_path / "ds" / "labels.tsv").write_text("")
        if not meta:
            (tmp_path / "ds" / "meta.json").unlink()
        ds = gc.load_dataset(str(tmp_path / "ds"))
        assert np.all(ds.labels == -1) and ds.num_classes == (3 if meta else 0)
        with pytest.raises(ValueError, match="dataset has no labeled node to split"):
            gc.make_splits(ds)

    def test_deterministic(self):
        ds = random_dataset(seed=13, n=30)
        a = gc.make_splits(ds, seed=5)
        b = gc.make_splits(ds, seed=5)
        np.testing.assert_array_equal(a.train, b.train)
        np.testing.assert_array_equal(a.test, b.test)


class TestSBM:
    def test_complete_blocks_no_cross_edges(self):
        # p_in=1, p_out=0 with 2 blocks of 3 gives two 3-cliques:
        # C(3,2) = 3 edges per block, 6 edges total
        ds = gc.generate_sbm(3, 2, 1.0, 0.0, two_block_features(4), 0.0, seed=0)
        assert ds.num_edges == 6
        labels = ds.labels
        for u, v in ds.edges:
            assert labels[u] == labels[v]
        np.testing.assert_array_equal(labels, [0, 0, 0, 1, 1, 1])

    def test_zero_noise_features_equal_block_means(self):
        means = two_block_features(4) * 0.7
        ds = gc.generate_sbm(4, 2, 0.5, 0.1, means, 0.0, seed=1)
        np.testing.assert_array_equal(ds.features, means[ds.labels])

    def test_edges_are_canonical(self):
        ds = gc.generate_sbm(10, 2, 0.4, 0.1, two_block_features(3), 0.2, seed=2)
        assert np.all(ds.edges[:, 0] < ds.edges[:, 1])
        order = np.lexsort((ds.edges[:, 1], ds.edges[:, 0]))
        np.testing.assert_array_equal(order, np.arange(len(ds.edges)))

    def test_deterministic(self):
        a = gc.generate_sbm(5, 2, 0.5, 0.1, two_block_features(3), 0.3, seed=4)
        b = gc.generate_sbm(5, 2, 0.5, 0.1, two_block_features(3), 0.3, seed=4)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.edges, b.edges)

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError, match="probabilities"):
            gc.generate_sbm(3, 2, 1.5, 0.0, two_block_features(2), 0.0)
