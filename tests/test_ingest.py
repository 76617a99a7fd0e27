import decimal
import hashlib
import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dogsim import ingest
from dogsim.ingest import (
    Dataset,
    normalize,
    parse_libsvm,
    serialize_libsvm,
    split_stoch_adv,
)


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


@pytest.mark.parametrize("token", ["1:5e", "1:1.2.3", "1:--1", "1:.", "1:1e5e5", "+3:1"])
def test_parse_leaves_tokens_outside_the_bulk_grammar_to_the_reference(token):
    # strtold reads a prefix of each value; int() takes the signed index
    lines = ["+1 1:1", f"-1 {token}"]
    assert ingest._parse_chunk(lines) is None
    text = "\n".join(lines) + "\n"
    with mock.patch.object(ingest, "_parse_chunk", return_value=None):
        reference = _parse_outcome(text)
    assert _parse_outcome(text) == reference
    if token == "+3:1":
        assert reference == _parse_outcome("+1 1:1\n-1 3:1\n")
    else:
        assert reference == f"line 2: malformed token {token!r}"


def test_parse_chunk_refuses_a_short_read_that_only_warns():
    # numpy < 2 warns and returns the numbers read so far where numpy 2 raises
    def short_read(text, dtype, sep):
        warnings.warn("string or file could not be read to its end", DeprecationWarning)
        return np.array([1.0, 1.2], dtype)

    with mock.patch.object(np, "fromstring", short_read), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert ingest._parse_chunk(["+1 1:1.2.3"]) is None
    assert not caught


_EXACT = decimal.Context(prec=2000)


def _midpoint(v, toward):
    """The exact decimal halfway between v and the next double toward
    `toward`; past the largest double that is 2**1024, where float() overflows."""
    neighbour = math.nextafter(v, toward)
    if math.isinf(neighbour):
        neighbour = int(math.copysign(1, neighbour)) * 2**1024
    return _EXACT.divide(_EXACT.add(decimal.Decimal(v), decimal.Decimal(neighbour)), 2)


@st.composite
def _decimal_value(draw):
    """A decimal string float() reads as a finite double, or one just past
    its range: random digits, exact ties between two doubles (subnormal and
    below a power of two too) and ties nudged a digit above or below."""
    kind = draw(st.sampled_from(["digits", "tie", "tie", "power", "subnormal", "fixed"]))
    if kind == "fixed":
        return draw(st.sampled_from([
            "2.4703282292062327e-324", "2.4703282292062328e-324", "1.7976931348623158e308",
            "1.7976931348623159e308", "1e-400", "-0", "0", "1.", ".5", "-.5e-3", "+1E+5", "007",
            "0.99999999999999994448884876874217"]))  # just below 1 - 2**-54, a tie under 1
    if kind == "digits":
        digits = draw(st.text("0123456789", min_size=1, max_size=25))
        point = draw(st.integers(0, len(digits)))
        exponent = draw(st.sampled_from(["", "e{:+d}", "E{:d}"])).format(draw(st.integers(-340, 320)))
        return draw(st.sampled_from(["", "-", "+"])) + digits[:point] + "." + digits[point:] + exponent
    if kind == "tie":
        mid = _midpoint(draw(_finite), draw(st.sampled_from([np.inf, -np.inf])))
    elif kind == "power":  # the neighbour toward 0 is half as far as the one away
        mid = _midpoint(draw(st.sampled_from([1.0, -1.0])) * 2.0 ** draw(st.integers(-1073, 1023)), 0.0)
    else:
        mid = _midpoint(draw(st.integers(-4, 4)) * 5e-324, draw(st.sampled_from([np.inf, -np.inf])))
    nudge = draw(st.sampled_from([0, 1, -1]))  # the 40th significant digit, up or down
    return str(_EXACT.fma(mid, decimal.Decimal(nudge).scaleb(-40), mid))


@settings(max_examples=200, deadline=None)
@given(values=st.lists(_decimal_value(), min_size=1, max_size=40))
def test_parse_chunk_reads_every_value_as_float_does(values):
    expected = np.array([float(value) for value in values])
    chunk = ingest._parse_chunk(["+1 " + " ".join(f"{j}:{value}" for j, value in enumerate(values, 1))])
    if not np.isfinite(expected).all():
        assert chunk is None  # the reference writes the error
    else:
        assert chunk[3].tobytes() == expected.tobytes()


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


def test_parse_without_a_binary_long_double_reads_line_by_line(monkeypatch):
    text = _bench_scale_libsvm_text()
    bulk = _parse_outcome(text)
    monkeypatch.setattr(ingest, "_LONGDOUBLE_NMANT", 105)  # IBM double-double
    with mock.patch.object(ingest, "_parse_lines", wraps=ingest._parse_lines) as per_line:
        assert _parse_outcome(text) == bulk
    assert per_line.call_count == -(-4000 // ingest._PARSE_CHUNK)


def test_ingest_bytes_are_pinned_at_bench_scale():
    # digests of the per-line parse, which the bulk parse must reproduce
    d = normalize(parse_libsvm(_bench_scale_libsvm_text()))
    streams = split_stoch_adv(d, 0.5, n=40, rounds=100, seed=7)
    assert d.features.shape == (4000, 18)
    assert _sha256(d.features) == "d97dbba28c35643297520dab0859ce234af3b7ad8ae7abfc604fd6624096ce56"
    assert _sha256(d.labels) == "542e19da6d66be26fbe7198c77a8d8badbf019ed412944ee5ed45806be5ec5d3"
    assert _sha256(streams.index.astype(np.int64)) == (
        "14a273e74195175b403c2d0973d4fc7fcfacbf81db2693dff6fb85988a2ada74")


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
    out = normalize(Dataset(features, np.ones(m)))
    assert out.features[:, 1].tobytes() == np.zeros(m).tobytes()


@pytest.mark.parametrize("column", [
    [1.7e308, 1.7e308, -1.7e308, 1.0, 1.0],  # the mean overflows to inf
    [1.7e308, -1.7e308, -1.7e308],  # the mean is finite; x - mean and the std overflow
    [1e200, -1e200, 3.0],  # only the squares overflow; the std is about 8.2e199
    [1e-170, -1e-170, 3e-171],  # the squares underflow; the std is about 8.2e-171, not 0
    [5e-324, 0.0, 0.0, -5e-324],  # subnormal entries, whose squares are all 0
])
def test_normalize_scales_a_column_whose_moments_overflow(column):
    # Every column is normalized as its quotient by its largest magnitude, so
    # moments that would overflow or underflow on the raw entries do not.
    m = len(column)
    out = normalize(Dataset(np.column_stack([column, np.arange(m, dtype=float)]), np.ones(m)))
    quotient = np.array(column) / np.abs(column).max()
    assert out.features[:, 0].tobytes() == normalize(Dataset(quotient[:, None], np.ones(m))).features.tobytes()
    assert abs(out.features[:, 0].mean()) <= 1e-12
    assert np.abs(out.features.std(axis=0) - 1.0).max() <= 1e-12


def _one_formula(features):
    """Each column over its largest magnitude (1 if all zero), centered and
    over its population std; constant columns 0."""
    peak = np.abs(features).max(axis=0)
    scaled = features / np.where(peak > 0, peak, 1.0)
    constant = (features == features[0]).all(axis=0)
    out = (scaled - scaled.mean(axis=0)) / np.where(constant, 1.0, scaled.std(axis=0))
    return np.where(constant, 0.0, out)


@st.composite
def _columns_of_any_magnitude(draw):
    """(m, dim) features whose columns are varying at magnitudes 1e-320 to
    1e307, constant, or small multiples of the least subnormal."""
    m, dim = draw(st.integers(1, 40)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(dim):
        kind = draw(st.sampled_from(["varying", "varying", "constant", "subnormal"]))
        scale = 10.0 ** draw(st.integers(-320, 307))
        if kind == "varying":
            columns.append(rng.standard_normal(m) * scale)
        elif kind == "constant":
            columns.append(np.full(m, rng.standard_normal() * scale))
        else:
            columns.append(rng.integers(-4, 5, m) * 5e-324)
    return np.column_stack(columns)


def _normal_shifts(features):
    """The k for which every nonzero entry of 2**k * features is normal."""
    exponents = np.frexp(features[features != 0])[1]  # |x| in [2**(e-1), 2**e)
    if not len(exponents):
        return range(-1074, 1024)
    return range(-1021 - int(exponents.min()), 1025 - int(exponents.max()))


@settings(max_examples=200, deadline=None)
@given(features=_columns_of_any_magnitude(), data=st.data())
def test_normalize_is_one_formula_at_every_magnitude(features, data):
    out = normalize(Dataset(features, np.ones(len(features)))).features
    assert out.tobytes() == _one_formula(features).tobytes()
    varying = ~(features == features[0]).all(axis=0)
    assert np.abs(out[:, varying].mean(axis=0)).max(initial=0.0) <= 1e-12
    assert np.abs(out[:, varying].std(axis=0) - 1.0).max(initial=0.0) <= 1e-12
    shifts = _normal_shifts(features)
    if len(shifts):
        k = data.draw(st.integers(shifts.start, shifts.stop - 1), label="k")
        shifted = np.ldexp(features, k)
        assert normalize(Dataset(shifted, np.ones(len(features)))).features.tobytes() == out.tobytes()


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_normalize_names_the_first_feature_with_a_non_finite_value(value):
    features = np.array([[1.0, value, 0.0], [2.0, 1.0, value], [3.0, 2.0, 1.0]])
    with pytest.raises(ValueError, match=r"^cannot normalize feature 2: it holds a non-finite value$"):
        normalize(Dataset(features, np.ones(3)))


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
    # 12 samples = n*T: 2 are dealt and 10 cut into slabs of 4, 3 and 3, so
    # node 2 gets no dealt sample and 3 rows, and must cycle to fill 4 rounds.
    streams = split_stoch_adv(_toy_dataset(12, dim=2), 0.2, n=3, rounds=4, seed=1)
    assert streams.index.shape == (3, 4)
    assert [len(set(row)) for row in streams.index.tolist()] == [4, 4, 3]
    assert streams.index[2, 3] == streams.index[2, 0]


def test_split_insufficient_data():
    d = _toy_dataset(10)
    with pytest.raises(ValueError, match=r"need at least n\*T = 12 samples, dataset has 10"):
        split_stoch_adv(d, 0.5, n=3, rounds=4, seed=0)


def _split_draws(seed):
    """The generators of the split's shuffle and of its direction."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)]


def test_split_matches_per_sample_reference():
    # the deal, the slabs and the interleave, rebuilt one sample at a time;
    # below 8 features numpy sums each row left to right, as `sum` does
    d = _toy_dataset(97, dim=4, seed=12)
    n, rounds, fraction, seed = 5, 14, 0.4, 3
    streams = split_stoch_adv(d, fraction, n=n, rounds=rounds, seed=seed)
    rng_shuffle, rng_direction = _split_draws(seed)
    order = rng_shuffle.permutation(97).tolist()
    v = rng_direction.standard_normal(4).tolist()
    cut = int(np.floor(fraction * 97))
    stoch = [[] for _ in range(n)]
    for pos, idx in enumerate(order[:cut]):
        stoch[pos % n].append(idx)
    rest = order[cut:]
    proj = [sum(x * w for x, w in zip(d.features[idx].tolist(), v)) for idx in rest]
    slab = [0] * len(rest)
    for rank, pos in enumerate(sorted(range(len(rest)), key=lambda pos: (proj[pos], pos))):
        slab[pos] = rank * n // len(rest)
    adv = [[idx for idx, c in zip(rest, slab) if c == i] for i in range(n)]
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


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["gaussian", "grid"]),
    m=st.integers(1, 60),
    dim=st.integers(1, 12),
    fraction=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**64 - 1),
    data=st.data(),
)
def test_split_cuts_the_adversarial_share_into_sorted_slabs(kind, m, dim, fraction, seed, data):
    n = data.draw(st.integers(1, m), label="n")
    rounds = data.draw(st.integers(1, m // n), label="rounds")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if kind == "gaussian":
        features = rng.standard_normal((m, dim))
    else:  # few distinct values: many tied projections
        features = rng.integers(-1, 2, size=(m, dim)).astype(float)
    d = Dataset(features, np.ones(m))
    rng_shuffle, rng_direction = _split_draws(seed)
    order = rng_shuffle.permutation(m)
    cut = int(np.floor(fraction * m))
    adv_idx = order[cut:]
    if n > max(cut, len(adv_idx)):  # nodes from max(cut, A) on get no dealt row and no slab
        with pytest.raises(ValueError, match=f"node {max(cut, len(adv_idx))} received no samples"):
            split_stoch_adv(d, fraction, n=n, rounds=rounds, seed=seed)
        return
    with mock.patch.object(ingest, "_interleave", wraps=ingest._interleave) as interleave:
        split_stoch_adv(d, fraction, n=n, rounds=rounds, seed=seed)
    slabs = [call.args[1] for call in interleave.call_args_list]
    assert len(slabs) == n
    # every adversarial row goes to exactly one node, in shuffle order
    position = {int(idx): pos for pos, idx in enumerate(adv_idx)}
    assert sorted(position[idx] for slab in slabs for idx in slab.tolist()) == list(range(len(adv_idx)))
    assert all(np.all(np.diff([position[idx] for idx in slab.tolist()]) > 0) for slab in slabs)
    # min(n, A) slabs whose sizes differ by at most 1
    slab_count = min(n, len(adv_idx))
    sizes = [len(slab) for slab in slabs]
    assert all(size == 0 for size in sizes[slab_count:])
    assert not slab_count or max(sizes[:slab_count]) - min(sizes[:slab_count]) <= 1
    # sorted by (projection, shuffle position) from one slab to the next
    proj = (d.features[adv_idx] * rng_direction.standard_normal(dim)).sum(axis=1)
    keys = [sorted((proj[position[idx]], position[idx]) for idx in slab.tolist())
            for slab in slabs[:slab_count]]
    assert all(low[-1] < high[0] for low, high in zip(keys, keys[1:]))


@pytest.mark.parametrize("first, last", [(0, 3), (1, 8), (1, 5), (3, 2), (5, 5)])
def test_node_stream_block_rejects_rounds_outside_the_streams(first, last):
    # 3-round streams: as with synthetic_block, 1 <= first <= last <= rounds + 1
    streams = split_stoch_adv(_toy_dataset(12), 1.0, n=2, rounds=3, seed=0)
    with pytest.raises(ValueError):
        streams.block(first, last)
    assert streams.block(1, 4)[1].shape == (3, 2)
    assert streams.block(4, 4)[1].shape == (0, 2)
