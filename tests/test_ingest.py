import hashlib
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dogsim import ingest
from dogsim.ingest import (
    Dataset,
    kmeans,
    normalize,
    parse_libsvm,
    serialize_libsvm,
    split_stoch_adv,
)


def brute_force_two_clusters(points):
    """Minimum within-cluster sum of squares over all 2-partitions."""
    best, best_assign = None, None
    m = len(points)
    for bits in itertools.product((0, 1), repeat=m):
        if len(set(bits)) < 2:
            continue
        cost = 0.0
        for c in (0, 1):
            members = np.array([p for p, b in zip(points, bits) if b == c])
            cost += ((members - members.mean(axis=0)) ** 2).sum()
        if best is None or cost < best:
            best, best_assign = cost, bits
    return best, best_assign


def test_parse_basic_line():
    d = parse_libsvm("+1 1:0.5 3:-2\n")
    assert d.dim == 3
    assert d.labels.tolist() == [1.0]
    assert d.features.dtype == np.float64
    assert np.array_equal(d.features, [[0.5, 0.0, -2.0]])


def test_parse_zero_label_maps_to_negative():
    d = parse_libsvm("0 2:1\n")
    assert d.labels.tolist() == [-1.0]
    assert np.array_equal(d.features, [[0.0, 1.0]])


def test_parse_rejects_non_ascending_indices():
    with pytest.raises(ValueError, match=r"^line 1: indices not ascending at '1:2'"):
        parse_libsvm("+1 3:1 1:2\n")


def test_parse_skips_blanks_and_comments():
    text = "# header\n\n+1 1:1\n\n# tail\n-1 1:-1\n"
    d = parse_libsvm(text)
    assert d.labels.tolist() == [1.0, -1.0]
    assert d.features.shape == (2, 1)


def test_parse_error_carries_line_number():
    with pytest.raises(ValueError, match=r"^line 2: malformed token '1:oops'"):
        parse_libsvm("+1 1:1\n-1 1:oops\n")
    with pytest.raises(ValueError, match=r"^line 1: label must be \+1, 1, -1, or 0, got '\+3'"):
        parse_libsvm("+3 1:1\n")
    with pytest.raises(ValueError, match=r"^line 1: unparseable label 'what'"):
        parse_libsvm("what 1:1\n")
    with pytest.raises(ValueError, match=r"^line 1: index must be >= 1, got 0"):
        parse_libsvm("+1 0:1\n")


@pytest.mark.parametrize("token", ["1:nan", "1:inf", "1:1e400"])
def test_parse_rejects_non_finite_value_with_line(token):
    with pytest.raises(ValueError, match=r"^line 3: non-finite value in") as err:
        parse_libsvm(f"+1 1:1\n# comment\n-1 {token}\n")
    assert token in str(err.value)


_LABELS = ["+1", "1", "1.0", "-1", "0", "-0"]
_BAD_LABELS = ["+3", "what", "nan"]
# No ':' or two, an empty side, index 0, a descending pair, non-finite
# values, and spellings that int() and float() accept or refuse.
_ODD_TOKENS = ["5", "1:2:3", "1:", ":5", "0:1", "3:1 2:1", "1:nan", "1:inf", "1:1e400",
               "1_0:2", "١:2", "2:٣", "١٠:2", "1180591620717411303424:1"]


@st.composite
def _libsvm_line(draw):
    """A blank, comment or data line; data lines are valid except where a
    bad label or odd token is drawn in."""
    kind = draw(st.sampled_from(["data"] * 8 + ["blank", "comment"]))
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t", " \t "]))
    if kind == "comment":
        return draw(st.sampled_from(["#", "# note 1:2", "  #x"]))
    bad = draw(st.integers(0, 9)) == 0
    tokens = [draw(st.sampled_from(_LABELS + _BAD_LABELS if bad else _LABELS))]
    steps = draw(st.lists(st.integers(1, 3), max_size=5))
    values = st.one_of(st.sampled_from(["0.5", "-2", "1e-3", "+7", ".25"]), _finite.map(repr))
    tokens += [f"{index}:{draw(values)}" for index in itertools.accumulate(steps)]
    for _ in range(draw(st.integers(1, 2)) if bad and len(tokens) > 1 else 0):
        tokens[draw(st.integers(1, len(tokens) - 1))] = draw(st.sampled_from(_ODD_TOKENS))
    line = draw(st.sampled_from([" ", "\t", "  ", " \t "])).join(tokens)
    return draw(st.sampled_from(["", " ", "\t"])) + line + draw(st.sampled_from(["", " ", "\t "]))


def _parse_outcome(text):
    try:
        d = parse_libsvm(text)
    except ValueError as exc:
        return str(exc)
    return d.features.shape, d.features.tobytes(), d.labels.tobytes()


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(_libsvm_line(), max_size=24), newline=st.sampled_from(["\n", "\r\n"]))
def test_parse_matches_the_per_line_reference(lines, newline):
    # With 3-line chunks, the first bad line can sit in any chunk.
    text = newline.join(lines + [""])
    with mock.patch.object(ingest, "_PARSE_CHUNK", 3):
        chunked = _parse_outcome(text)
    with mock.patch.object(ingest, "_PARSE_CHUNK", len(lines) + 1), \
            mock.patch.object(ingest, "_parse_chunk", return_value=None):
        reference = _parse_outcome(text)
    assert chunked == reference


@pytest.mark.parametrize("line, token", [
    ("+1 1 2:3:4", "1"),  # with colons made spaces: 1:2 3:4
    ("-1 1: :5", "1:"),  # with the empty pieces dropped: 1:5
])
def test_parse_rejects_tokens_that_pair_up_once_split(line, token):
    with pytest.raises(ValueError, match=rf"^line 2: malformed token '{token}'$"):
        parse_libsvm(f"+1 1:1\n{line}\n")


def _bench_scale_libsvm_text():
    """4000 lines of 18 features, the libsvm_sweep shape: rows around eight
    centers, a fifth of the entries zero and omitted, every label spelling."""
    rng = np.random.default_rng(41)
    centers = rng.normal(0.0, 3.0, (8, 18))
    x = centers[rng.integers(0, 8, 4000)] + rng.standard_normal((4000, 18))
    x[rng.random(x.shape) < 0.2] = 0.0
    spellings = np.array(["+1", "1", "-1", "0"])[rng.integers(0, 4, 4000)]
    lines = [" ".join([label] + ["%d:%.17g" % (j, v) for j, v in enumerate(row, start=1) if v != 0.0])
             for label, row in zip(spellings, x.tolist())]
    return "\n".join(lines) + "\n"


def _sha256(array):
    return hashlib.sha256(array.tobytes()).hexdigest()


def test_parse_chunk_size_does_not_change_the_bytes(monkeypatch):
    text = "# header\n\n" + "".join(_bench_scale_libsvm_text().splitlines(keepends=True)[:1500])
    results = []
    for chunk in (1, 3, 7, ingest._PARSE_CHUNK):
        monkeypatch.setattr(ingest, "_PARSE_CHUNK", chunk)
        with mock.patch.object(ingest, "_parse_lines", wraps=ingest._parse_lines) as per_line:
            d = parse_libsvm(text)
        assert per_line.call_count == 0  # the bulk path certified every chunk
        results.append((d.features.shape, d.features.tobytes(), d.labels.tobytes()))
    assert all(result == results[-1] for result in results)


def test_ingest_bytes_are_pinned_at_bench_scale():
    # digests of the per-line parse, which the bulk parse must reproduce
    d = normalize(parse_libsvm(_bench_scale_libsvm_text()))
    streams = split_stoch_adv(d, 0.5, n=40, rounds=100, seed=7)
    assert d.features.shape == (4000, 18)
    assert _sha256(d.features) == "375f6b8d42b95acef94dbeee68312567df5a260e495a10cf465e4393c6a38fb2"
    assert _sha256(d.labels) == "542e19da6d66be26fbe7198c77a8d8badbf019ed412944ee5ed45806be5ec5d3"
    assert _sha256(streams.index.astype(np.int64)) == (
        "c01c13ea2c14a4ca720a1e62cc3c371f2d4ae60ff3344bb730c8036de0c15515")


def test_serialize_parse_roundtrip():
    rng = np.random.default_rng(0)
    feats = rng.standard_normal((20, 5))
    feats[3, 4] = 1.25  # keep the last column occupied so dim survives
    labels = np.where(rng.random(20) < 0.5, 1.0, -1.0)
    back = parse_libsvm(serialize_libsvm(feats, labels))
    assert back.dim == 5
    assert np.array_equal(back.labels, labels)
    assert np.array_equal(back.features, feats)


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(0, 12),
    dim=st.integers(0, 6),
    data=st.data(),
)
def test_serialize_parse_roundtrip_is_bitwise(rows, dim, data):
    cell = st.one_of(st.just(0.0), st.just(-0.0), _finite)
    feats = np.array(
        data.draw(st.lists(st.lists(cell, min_size=dim, max_size=dim),
                           min_size=rows, max_size=rows)),
        dtype=float,
    ).reshape(rows, dim)
    labels = np.array(data.draw(st.lists(st.sampled_from([1.0, -1.0]),
                                         min_size=rows, max_size=rows)))
    back = parse_libsvm(serialize_libsvm(feats, labels))
    # zeros are omitted, so trailing all-zero columns do not survive
    occupied = np.flatnonzero((feats != 0.0).any(axis=0))
    kept = feats[:, : occupied[-1] + 1] if len(occupied) else feats[:, :0]
    assert back.features.shape == kept.shape
    assert back.features.tobytes() == (kept + 0.0).tobytes()  # -0.0 parses as +0.0
    assert back.labels.tobytes() == labels.tobytes()


def test_normalize_two_point_column():
    d = Dataset(np.array([[1.0], [3.0]]), np.array([1.0, -1.0]))
    out = normalize(d)
    assert np.allclose(out.features[:, 0], [-1.0, 1.0], atol=1e-12)
    assert out.labels is d.labels


def test_normalize_constant_column_zeroed():
    d = Dataset(np.array([[5.0, i * 1.0] for i in range(3)]), np.ones(3))
    out = normalize(d)
    assert (out.features[:, 0] == 0.0).all()


def test_normalize_zeroes_a_constant_column_whose_mean_rounds():
    # the rounded column mean of ten 0.1s is 1.4e-17 off, so the std is not 0
    d = Dataset(np.column_stack([np.full(10, 0.1), np.arange(10.0)]), np.ones(10))
    assert d.features.std(axis=0)[0] > 0
    out = normalize(d)
    assert out.features[:, 0].tolist() == [0.0] * 10
    assert np.abs(out.features[:, 1].std() - 1.0) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(value=_finite, m=st.integers(1, 60), data=st.data())
def test_normalize_zeroes_any_constant_column(value, m, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    features = np.column_stack([rng.standard_normal(m), np.full(m, value)])
    with np.errstate(over="ignore", invalid="ignore"):  # mean of m copies of 1e308
        out = normalize(Dataset(features, np.ones(m)))
    assert out.features[:, 1].tobytes() == np.zeros(m).tobytes()


def test_normalize_moments_and_idempotence():
    rng = np.random.default_rng(1)
    d = Dataset(rng.normal(3.0, 2.5, size=(50, 4)), np.ones(50))
    once = normalize(d)
    mat = once.features
    assert np.abs(mat.mean(axis=0)).max() <= 1e-9
    assert np.abs(mat.std(axis=0) - 1.0).max() <= 1e-9
    twice = normalize(once)
    assert np.abs(twice.features - mat).max() <= 1e-9


def test_normalize_empty_rejected():
    with pytest.raises(ValueError, match="cannot normalize an empty dataset"):
        normalize(Dataset(np.empty((0, 0)), np.empty(0)))
    with pytest.raises(ValueError, match="cannot normalize an empty dataset"):
        normalize(Dataset(np.empty((0, 3)), np.empty(0)))
    with pytest.raises(ValueError, match="cannot normalize a dataset without features"):
        normalize(Dataset(np.empty((4, 0)), np.ones(4)))


def test_dataset_arrays_are_read_only():
    d = parse_libsvm("+1 1:0.5\n-1 2:1\n")
    for dataset in (d, normalize(d)):
        with pytest.raises(ValueError):
            dataset.features[0, 0] = 2.0
        with pytest.raises(ValueError):
            dataset.labels[0] = -1.0


def test_kmeans_recovers_separated_clouds():
    rng = np.random.default_rng(5)
    cloud_a = rng.uniform(-0.1, 0.1, size=(4, 2))
    cloud_b = rng.uniform(-0.1, 0.1, size=(4, 2)) + 10.0
    points = np.vstack([cloud_a, cloud_b])
    assign = kmeans(points, 2, seed=3)
    _, oracle = brute_force_two_clusters(points)
    # same partition up to label swap
    as_pairs = {tuple(sorted(i for i, c in enumerate(assign) if c == v)) for v in set(assign)}
    oracle_pairs = {tuple(sorted(i for i, c in enumerate(oracle) if c == v)) for v in (0, 1)}
    assert as_pairs == oracle_pairs


def test_kmeans_degenerate_cases():
    points = np.array([[0.0], [1.0], [2.0]])
    assert sorted(kmeans(points, 3, seed=0)) == [0, 1, 2]
    assign = kmeans(points, 1, seed=0)
    assert assign == [0, 0, 0]
    with pytest.raises(ValueError, match="need at least 4 points for 4 clusters, got 3"):
        kmeans(points, 4)


def test_kmeans_deterministic():
    rng = np.random.default_rng(8)
    points = rng.standard_normal((30, 3))
    assert kmeans(points, 4, seed=11) == kmeans(points, 4, seed=11)


def _kmeans_broadcast_reference(points, k, max_iters=100, seed=0):
    """k-means++ seeding and Lloyd's steps with every point-to-centroid
    distance taken at once over an (m, k, d) broadcast."""
    pts = np.asarray(points, dtype=float)
    m = pts.shape[0]
    rng = np.random.default_rng(seed)
    centroids = np.empty((k, pts.shape[1]))
    centroids[0] = pts[int(rng.integers(0, m))]
    for c in range(1, k):
        d2 = np.min(((pts[:, None, :] - centroids[None, :c, :]) ** 2).sum(axis=2), axis=1)
        total = d2.sum()
        if total == 0:
            centroids[c] = pts[int(rng.integers(0, m))]
            continue
        r = rng.random() * total
        centroids[c] = pts[int(np.searchsorted(np.cumsum(d2), r))]
    assign = np.full(m, -1, dtype=int)
    for _ in range(max_iters):
        d2 = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assign = d2.argmin(axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(k):
            members = pts[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
            else:
                dist_own = ((pts - centroids[assign]) ** 2).sum(axis=1)
                centroids[c] = pts[int(dist_own.argmax())]
    return [int(c) for c in assign]


def _kmeans_points(kind, m, d, rng):
    if kind == "gaussian":
        return rng.standard_normal((m, d))
    if kind == "grid":  # few distinct integer coordinates: many exact ties
        return rng.integers(-1, 2, size=(m, d)).astype(float)
    # duplicated rows: at most 3 distinct points, so seeding can run out of
    # positive distances and Lloyd's steps can empty a cluster
    distinct = rng.standard_normal((int(rng.integers(1, 4)), d))
    return distinct[rng.integers(0, len(distinct), size=m)]


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["gaussian", "grid", "duplicates"]),
    m=st.integers(1, 80),
    d=st.integers(1, 20),
    data=st.data(),
)
def test_kmeans_matches_broadcast_reference(kind, m, d, data):
    k = data.draw(st.integers(1, m), label="k")
    seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
    points = _kmeans_points(kind, m, d, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    assert kmeans(points, k, seed=seed) == _kmeans_broadcast_reference(points, k, seed=seed)


def test_kmeans_stops_a_cycle_where_the_step_cap_would():
    # three distinct rows and four clusters: the empty-cluster re-seeds and
    # the exact ties they make cycle, so the assignments never stabilize
    points = _kmeans_points("duplicates", 8, 2, np.random.default_rng(3))
    with mock.patch.object(ingest, "_nearest", wraps=ingest._nearest) as nearest:
        assign = kmeans(points, 4, seed=3)
    assert nearest.call_count < 100
    assert assign == _kmeans_broadcast_reference(points, 4, seed=3)


def _exact_argmin(points, centroids):
    with np.errstate(over="ignore", invalid="ignore"):
        return ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)


@settings(max_examples=300, deadline=None)
@given(
    d=st.integers(1, 20),
    k=st.integers(2, 8),
    # 2^-500 .. 2^500 is about 1e-150 .. 1e150; from 2^-515 down the squares
    # are subnormal, and from 2^-540 down most of them are 0
    exponent=st.one_of(st.integers(-500, 500), st.integers(-545, -515)),
    data=st.data(),
)
def test_nearest_matches_exact_argmin_on_hard_inputs(d, k, exponent, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    scale = 2.0**exponent
    # An exact tie: centroid 1 is centroid 0 mirrored about the point `tie`.
    # Grid values times a power of two keep every coordinate exact, and the
    # other centroids sit 40 further out in every coordinate, so the tie is
    # the row's minimum.
    tie = rng.integers(-8, 9, size=d).astype(float)
    offset = rng.integers(-2, 3, size=d).astype(float)
    offset[int(rng.integers(0, d))] = 1.0
    centroids = tie + 40.0 + rng.integers(-2, 3, size=(k, d))
    centroids[0], centroids[1] = tie - offset, tie + offset
    # Near ties: the tie moved a few ulps towards one centroid or the other.
    near = np.repeat(tie[None, :], 4, axis=0)
    j = int(np.flatnonzero(offset)[0])
    for row in near:
        for _ in range(int(rng.integers(1, 4))):
            row[j] = np.nextafter(row[j], rng.choice([-np.inf, np.inf]))
    # Rows a relative 2^-20 off the tie: resolved by the slack at normal
    # scales, a few quanta apart where the squares are subnormal.
    jitter = tie + rng.standard_normal((8, d)) * 2.0**-20
    spread = rng.standard_normal((int(rng.integers(0, 30)), d)) * 12.0
    hard = [tie[None, :], near, centroids[:2], jitter, spread]
    hard = [rows * scale for rows in hard]
    centroids = centroids * scale
    if data.draw(st.booleans(), label="overflow"):
        # rows whose pp is inf, one with two centroids close by: their
        # approximate distances are both NaN, the exact ones finite
        huge = rng.standard_normal((3, d)) * 2.0**520
        step = rng.standard_normal(d) * 2.0**500
        centroids = np.concatenate([centroids, huge[:1] + step, huge[:1] + step / 2])
        hard.append(huge)
    points = np.concatenate(hard)
    with np.errstate(over="ignore"):
        pp = (points * points).sum(axis=1)
    with mock.patch.object(ingest, "_nearest_exact", wraps=ingest._nearest_exact) as exact:
        assign = ingest._nearest(points, pp, centroids)
    assert assign.tolist() == _exact_argmin(points, centroids).tolist()
    assert assign[0] == 0  # the exact tie goes to the lower index
    checked = np.concatenate([call.args[0] for call in exact.call_args_list])
    for row in points[:5]:  # the tie and the near ties took the exact path
        assert (checked == row).all(axis=1).any()


def test_kmeans_matches_broadcast_reference_at_bench_scale():
    # the libsvm_sweep shape: 2000 clustered rows of 18 features, 40 clusters
    rng = np.random.default_rng(31)
    centers = rng.normal(0.0, 3.0, (8, 18))
    points = centers[rng.integers(0, 8, 2000)] + rng.standard_normal((2000, 18))
    points[rng.random(points.shape) < 0.2] = 0.0
    points = normalize(Dataset(points, np.ones(2000))).features
    assert kmeans(points, 40, seed=5) == _kmeans_broadcast_reference(points, 40, seed=5)


@pytest.mark.parametrize("m, k, seed", [(60, 7, 33), (100, 6, 23)])
def test_kmeans_matches_broadcast_reference_in_one_dimension(m, k, seed):
    # On a 0.1 grid, points sit exactly between centroids, so the last bit of
    # a centroid decides assignments. numpy's mean of an (r, 1) array sums
    # pairwise, and summing these in row order gives other bits.
    points = np.round(np.random.default_rng(seed).standard_normal((m, 1)), 1)
    assert kmeans(points, k, seed=seed) == _kmeans_broadcast_reference(points, k, seed=seed)


def _toy_dataset(count, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(rng.standard_normal((count, dim)), np.where(rng.random(count) < 0.5, 1.0, -1.0))


def _node_rows(streams, i):
    """Node i's stream as a (rounds, dim) feature array."""
    return streams.block(1, streams.rounds + 1)[0][:, i]


def test_split_fully_stochastic_is_uniform_deal():
    d = _toy_dataset(40)
    streams = split_stoch_adv(d, 1.0, n=4, rounds=10, seed=7)
    assert streams.n == 4
    assert streams.index.shape == (4, 10)
    # disjoint cover of the dataset: every sample lands on exactly one node
    seen = [tuple(row) for i in range(4) for row in _node_rows(streams, i)]
    assert len(set(seen)) == 40
    assert sorted(streams.index.ravel().tolist()) == list(range(40))


def test_split_fully_adversarial_pins_clusters_to_nodes():
    rng = np.random.default_rng(2)
    centers = np.array([[0.0, 0.0], [50.0, 0.0], [0.0, 50.0]])
    points = np.array([centers[c] + rng.uniform(-0.1, 0.1, 2) for c in range(3) for _ in range(6)])
    d = Dataset(points, np.ones(18))
    streams = split_stoch_adv(d, 0.0, n=3, rounds=6, seed=1)
    for i in range(3):
        feats = _node_rows(streams, i)
        spread = feats.max(axis=0) - feats.min(axis=0)
        assert (spread <= 1.0).all()  # every node sees exactly one cloud


def test_split_deterministic():
    d = _toy_dataset(60, seed=3)
    a = split_stoch_adv(d, 0.5, n=5, rounds=12, seed=9)
    b = split_stoch_adv(d, 0.5, n=5, rounds=12, seed=9)
    assert np.array_equal(a.index, b.index)


def test_split_cycles_when_node_allocation_is_short():
    # 18 samples >= n*T = 12, but the smallest cluster holds only 2 samples,
    # so its node must cycle to fill 4 rounds.
    rng = np.random.default_rng(4)
    clouds = [(np.array([0.0, 0.0]), 10), (np.array([40.0, 0.0]), 6), (np.array([0.0, 40.0]), 2)]
    points = np.array([center + rng.uniform(-0.1, 0.1, 2) for center, count in clouds for _ in range(count)])
    streams = split_stoch_adv(Dataset(points, np.ones(18)), 0.0, n=3, rounds=4, seed=1)
    assert streams.index.shape == (3, 4)
    nodes = [_node_rows(streams, i) for i in range(3)]
    sizes = [len({tuple(row) for row in feats}) for feats in nodes]
    assert min(sizes) == 2  # the two-sample cluster repeats with period 2
    short = nodes[sizes.index(2)]
    assert np.array_equal(short[0], short[2])
    assert np.array_equal(short[1], short[3])


def test_split_insufficient_data():
    d = _toy_dataset(10)
    with pytest.raises(ValueError, match=r"need at least n\*T = 12 samples, dataset has 10"):
        split_stoch_adv(d, 0.5, n=3, rounds=4, seed=0)


def test_split_matches_per_sample_reference():
    # the deal, the clusters and the interleave, rebuilt one sample at a time
    d = _toy_dataset(97, dim=4, seed=12)
    n, rounds, fraction, seed = 5, 14, 0.4, 3
    streams = split_stoch_adv(d, fraction, n=n, rounds=rounds, seed=seed)
    rng_shuffle, kmeans_ss = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)]
    order = rng_shuffle.permutation(97).tolist()
    cut = int(np.floor(fraction * 97))
    stoch = [[] for _ in range(n)]
    for pos, idx in enumerate(order[:cut]):
        stoch[pos % n].append(idx)
    adv = [[] for _ in range(n)]
    assign = kmeans(d.features[order[cut:]], n, seed=int(kmeans_ss.integers(0, 2**63)))
    for idx, c in zip(order[cut:], assign):
        adv[c].append(idx)
    for i in range(n):
        merged, a, b, j, k = [], len(stoch[i]), len(adv[i]), 0, 0
        while j < a or k < b:
            if k >= b or (j < a and (j + 1) * b <= (k + 1) * a):
                merged.append(stoch[i][j])
                j += 1
            else:
                merged.append(adv[i][k])
                k += 1
        assert streams.index[i].tolist() == [merged[t % len(merged)] for t in range(rounds)]


@pytest.mark.parametrize("first, last", [(0, 3), (1, 8), (1, 5), (3, 2), (5, 5)])
def test_node_stream_block_rejects_rounds_outside_the_streams(first, last):
    # 3-round streams: as with synthetic_block, 1 <= first <= last <= rounds + 1
    streams = split_stoch_adv(_toy_dataset(12), 1.0, n=2, rounds=3, seed=0)
    with pytest.raises(ValueError):
        streams.block(first, last)
    assert streams.block(1, 4)[1].shape == (3, 2)
    assert streams.block(4, 4)[1].shape == (0, 2)
