"""The blocked feature path against its unblocked reference, byte for byte.

``align_features`` widens float32 rows a block at a time and sums them in
numpy's own axis-0 order; ``load_modality_tables`` writes every modality
into one shared table that concat fusion returns as is. Both must give the
bytes of ``tests/modality_oracle.py``, and must not hold the copies it made.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import modality_oracle as oracle
from mmrec.experiment import ExperimentConfig, load_modality_tables
from mmrec.modality import _BLOCK_ROWS, FeatureMatrix, ModalityTable, align_features, fuse, write_matrix

SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def make_case(seed, n_rows, dim, n_absent, n_unfeatured, specials):
    """float32 rows with mixed magnitudes (so summation order shows in the
    low bits), IDs in shuffled order, some IDs unknown to the item map and
    some items without a row. ``specials`` makes leading columns constant
    or all ``-0.0``."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n_rows, dim)) * 10.0 ** rng.uniform(-3, 3, size=(n_rows, dim))
    values += rng.normal(size=dim) * 100.0
    for col, special in enumerate(specials[:dim]):
        values[:, col] = -0.0 if special == "negzero" else rng.normal()
    n_known = max(n_rows - n_absent, 1)
    row_ids = [f"i{k}" for k in range(n_known)] + [f"x{k}" for k in range(n_rows - n_known)]
    row_ids = [row_ids[k] for k in rng.permutation(n_rows)]
    dense = rng.permutation(n_known + n_unfeatured)
    item_map = {f"i{k}": int(dense[k]) for k in range(n_known + n_unfeatured)}
    return FeatureMatrix(values.astype(np.float32), row_ids), item_map


CASES = st.builds(
    make_case,
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(1, 3 * _BLOCK_ROWS),
    dim=st.sampled_from([1, 2, 3, 7, 300]),
    n_absent=st.integers(0, 20),
    n_unfeatured=st.integers(0, 20),
    specials=st.lists(st.sampled_from(["const", "negzero"]), max_size=2),
)
SHAPES = [  # (n_rows, dim): more present rows than one block, narrow to wide
    (3 * _BLOCK_ROWS + 5, 1),
    (3 * _BLOCK_ROWS + 5, 2),
    (2 * _BLOCK_ROWS + 1, 3),
    (2 * _BLOCK_ROWS + 1, 1024),
]


def same_bytes(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@SETTINGS
@given(case=CASES, policy=st.sampled_from(["zeros", "mean"]))
@example(case=make_case(1, 600, 1, 3, 3, []), policy="mean")
@example(case=make_case(2, 600, 2, 3, 3, ["const", "negzero"]), policy="mean")
@example(case=make_case(3, 2 * _BLOCK_ROWS + 1, 1024, 0, 2, ["negzero"]), policy="mean")
@example(case=make_case(4, 40, 1, 0, 0, ["negzero"]), policy="mean")
def test_align_matches_oracle_bytes(case, policy):
    fm, item_map = case
    want = oracle.align_features(fm, item_map, "image", policy)
    got = align_features(fm, item_map, "image", policy)
    assert same_bytes(got.features, want.features)
    assert np.array_equal(got.present_mask, want.present_mask)
    # written into a column block of a wider table, the bytes are the same
    wide = np.full((len(item_map), fm.dim + 5), np.nan)
    into = align_features(fm, item_map, "image", policy, out=wide[:, 2 : 2 + fm.dim])
    assert into.features.base is wide
    assert same_bytes(np.ascontiguousarray(into.features), want.features)
    assert np.isnan(wide[:, :2]).all() and np.isnan(wide[:, 2 + fm.dim :]).all()


@pytest.mark.parametrize("n_rows, dim", SHAPES)
@pytest.mark.parametrize("policy", ["zeros", "mean"])
def test_align_matches_oracle_past_one_block(n_rows, dim, policy):
    fm, item_map = make_case(n_rows * dim, n_rows, dim, 4, 4, ["const", "negzero"])
    want = oracle.align_features(fm, item_map, "text", policy)
    got = align_features(fm, item_map, "text", policy)
    assert same_bytes(got.features, want.features)


def write_modalities(root, n_items, dims, seed=0):
    """Feature files for ``dims`` (modality -> width) over items i0..; every
    modality misses a few items and lists a few unknown IDs."""
    rng = np.random.default_rng(seed)
    values = {}
    for modality, dim in dims.items():
        ids = [f"i{k}" for k in rng.permutation(n_items)[: n_items - 3]] + ["zz1", "zz2"]
        rows = (rng.normal(size=(len(ids), dim)) * 10.0 ** rng.uniform(-2, 2, size=dim)).astype(np.float32)
        write_matrix(root / f"{modality}.mmf", rows)
        (root / f"{modality}_ids.txt").write_text("".join(f"{i}\n" for i in ids), encoding="utf-8")
        values[f"features.{modality}"] = (str(root / f"{modality}.mmf"), str(root / f"{modality}_ids.txt"))
    return values


def config_for(paths, policy="mean"):
    return ExperimentConfig(values={**paths, "imputation": policy}, grid={})


@pytest.mark.parametrize("policy", ["zeros", "mean"])
def test_loaded_tables_share_one_read_only_fused_table(tmp_path, policy):
    dims = {"video": 2, "image": 5, "text": 1, "audio": 3}
    paths = write_modalities(tmp_path, 40, dims)
    item_map = {f"i{k}": k for k in range(40)}
    tables = load_modality_tables(config_for(paths, policy), item_map)
    fused = fuse(tables, "concat")

    want_tables = [
        oracle.align_features(
            oracle.load_feature_matrix(*paths[f"features.{t.kind}"]), item_map, t.kind, policy
        )
        for t in tables
    ]
    for got, want in zip(tables, want_tables):
        assert same_bytes(np.ascontiguousarray(got.features), want.features)
        assert np.shares_memory(fused, got.features)
        assert not got.features.flags.writeable
    assert same_bytes(fused, oracle.fuse(want_tables, "concat"))
    assert not fused.flags.writeable
    with pytest.raises(ValueError):
        fused[0, 0] = 1.0
    assert fuse(tables[::-1], "concat") is fused
    # element-wise fusion and hand-built tables still compute fresh arrays
    assert same_bytes(fuse([tables[1], tables[1]], "sum"), oracle.fuse([want_tables[1]] * 2, "sum"))
    copies = [ModalityTable(t.kind, t.features.copy(), t.present_mask) for t in tables]
    hstacked = fuse(copies, "concat")
    assert same_bytes(hstacked, fused) and not np.shares_memory(hstacked, fused)
    # a subset of the shared table's blocks does not fill its width: copied
    subset = fuse(tables[:2], "concat")
    assert not np.shares_memory(subset, fused)
    assert same_bytes(subset, oracle.fuse(want_tables[:2], "concat"))


def test_load_and_fuse_hold_no_float64_copies(tmp_path):
    """Peak traced memory of loading plus concat fusion stays below the fused
    table, the largest float32 source and one block's scratch, plus slack.
    Widening a whole source, gathering the present rows or copying the
    tables into a fused matrix each exceeds it."""
    n_items, dims = 3000, {"image": 512, "text": 64}
    paths = write_modalities(tmp_path, n_items, dims)
    item_map = {f"i{k}": k for k in range(n_items)}
    config = config_for(paths)

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fused = fuse(load_modality_tables(config, item_map), "concat")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    largest_source = (n_items - 1) * max(dims.values()) * 4
    scratch = (_BLOCK_ROWS + 1) * max(dims.values()) * 8 + _BLOCK_ROWS * max(dims.values()) * 4
    slack = 1 << 20
    assert fused.nbytes == n_items * sum(dims.values()) * 8
    assert peak < fused.nbytes + largest_source + scratch + slack
