import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hemptwin.randomness import (
    ROW_SLOTS,
    InvalidParamsError,
    LotDraws,
    RngStream,
    sample_growth_noise,
)


def test_uniform_within_support_and_mean():
    stream = RngStream(123, ("u",))
    draws = np.array([stream.uniform(5.0, 10.0) for _ in range(100_000)])
    assert draws.min() >= 5.0 and draws.max() <= 10.0
    # analytic mean (5+10)/2 = 7.5
    assert abs(draws.mean() - 7.5) < 0.05


def test_uniform_degenerate_support():
    stream = RngStream(1, ("deg",))
    assert stream.uniform(3.0, 3.0) == 3.0


def test_exponential_mean_one_tenth_day():
    draws = RngStream(7, ("e",)).exponentials(0.1)
    draws = np.array([next(draws) for _ in range(100_000)])
    assert abs(draws.mean() - 0.1) < 0.005


@pytest.mark.parametrize("mean", [0.1, 2.5])
def test_block_exponentials_equal_successive_scalar_draws(mean):
    # each draw inverts the next uniform that one scalar draw at a time
    # would take; 1100 draws cross two block boundaries
    blocks = RngStream(7, ("e", 2)).exponentials(mean)
    one_by_one = RngStream(7, ("e", 2))
    assert ([next(blocks).hex() for _ in range(1100)]
            == [(-mean * math.log1p(-one_by_one.uniform())).hex() for _ in range(1100)])


def test_growth_noise_zero_time_is_exactly_zero():
    for u in (0.0, 0.5, 0.999):
        assert sample_growth_noise(0.0018, 0.0, 0.5, u) == 0.0


def test_growth_noise_truncation_bound_holds():
    g, t, lam = 0.0018, 56.0, 0.5
    uniforms = RngStream(31, ("gb",)).random(100_000).tolist() + [0.0, 1.0 - 2**-53]
    draws = np.array([sample_growth_noise(g, t, lam, u) for u in uniforms])
    total = g * t + draws
    assert total.min() >= 0.0
    assert total.mean() >= 0.0


def test_growth_noise_is_monotone_in_its_uniform():
    # inversion: a larger uniform never gives smaller noise
    uniforms = np.linspace(0.0, 1.0 - 1e-9, 2001).tolist()
    draws = [sample_growth_noise(0.0018, 56.0, 0.5, u) for u in uniforms]
    assert draws == sorted(draws)
    assert draws[0] == pytest.approx(-0.0018 * 56.0, rel=1e-6)


def test_growth_noise_variance_parameter():
    # pre-truncation variance parameter g*t*lambda^2 = 0.0018*56*0.25
    assert math.isclose(0.0018 * 56 * 0.5**2, 0.0252)
    # the truncated draw's dispersion stays below the untruncated sigma
    uniforms = RngStream(13, ("gv",)).random(50_000).tolist()
    draws = np.array([sample_growth_noise(0.0018, 56, 0.5, u) for u in uniforms])
    assert draws.std() < math.sqrt(0.0252)


def test_growth_noise_rejects_negative_params():
    with pytest.raises(InvalidParamsError):
        sample_growth_noise(-0.1, 5.0, 0.5, 0.5)
    with pytest.raises(InvalidParamsError):
        sample_growth_noise(0.1, -5.0, 0.5, 0.5)


def test_replay_reproducibility():
    a = RngStream(99, ("lot", 17, "eps"))
    seq1 = [a.uniform() for _ in range(50)] + [a.bernoulli(0.3) for _ in range(50)]
    b = RngStream(99, ("lot", 17, "eps"))
    seq2 = [b.uniform() for _ in range(50)] + [b.bernoulli(0.3) for _ in range(50)]
    assert seq1 == seq2


def test_distinct_labels_are_uncorrelated():
    a = RngStream(42, ("ledger", "shard", 0, "service"))
    b = RngStream(42, ("ledger", "shard", 1, "service"))
    x = a.random(100_000)
    y = b.random(100_000)
    corr = np.corrcoef(x, y)[0, 1]
    assert abs(corr) < 0.01


@pytest.mark.parametrize("m, n", [(1, 1), (5, 3), (300, 7), (40, 16)])
def test_batched_permutations_equal_sequential_draws(m, n):
    # the batch must replay numpy's own one-at-a-time permutation draws on the
    # same stream; a numpy release that changes either algorithm fails here
    batched = RngStream(2021, ("shapley", 0, "perms"))
    sequential = RngStream(2021, ("shapley", 0, "perms"))
    rows = batched.permutations(m, n)
    gen = sequential._generator()
    expected = np.vstack([gen.permutation(n) for _ in range(m)])
    assert rows.dtype == expected.dtype and np.array_equal(rows, expected)
    assert batched.uniform() == sequential.uniform()


def test_child_streams_differ_from_parent():
    parent = RngStream(8, ("p",))
    child = parent.child("c")
    assert parent.uniform() != child.uniform()


@settings(max_examples=50, deadline=None)
@given(
    lo=st.floats(min_value=-50, max_value=50, allow_nan=False),
    width=st.floats(min_value=0, max_value=100, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_uniform_sample_always_in_support(lo, width, seed):
    value = RngStream(seed, ("prop",)).uniform(lo, lo + width)
    assert lo <= value <= lo + width


def _seed_sequence_pcg(master_seed, label):
    """The PCG64 that numpy's own SeedSequence seeds from the label, each
    string part replaced by the little-endian int of its 8-byte blake2b
    digest."""
    entropy = [master_seed] + [
        int.from_bytes(hashlib.blake2b(p.encode("utf-8"), digest_size=8).digest(), "little")
        if isinstance(p, str) else int(p)
        for p in label
    ]
    return np.random.PCG64(np.random.SeedSequence(entropy))


# parts that become one 32-bit word (0 included), two words, three or more
# words, np.integer parts, and strings (usually two words; fewer when the
# hash's high words are 0)
_label_part = st.one_of(
    st.just(0),
    st.integers(min_value=1, max_value=2**32 - 1),
    st.integers(min_value=2**32, max_value=2**64 - 1),
    st.integers(min_value=2**64, max_value=2**130),
    st.integers(min_value=0, max_value=2**63 - 1).map(np.int64),
    st.text(max_size=6),
)
_master_seed = st.one_of(st.integers(min_value=0, max_value=2**32 - 1),
                         st.integers(min_value=2**32, max_value=2**96))


def test_a_float_or_negative_part_is_refused_at_the_first_draw():
    base = RngStream(1, ("rep",))
    with pytest.raises(TypeError):
        base.child(1.0).uniform()
    with pytest.raises(ValueError):
        base.child(-1).uniform()


_draw_op = st.one_of(
    st.tuples(st.just("uniform"), st.floats(-1e9, 1e9), st.floats(-1e9, 1e9)),
    st.tuples(st.just("bernoulli"), st.floats(0, 1)),
    st.tuples(st.just("random"), st.integers(0, 4)),
)


def _stream_draw(stream, op):
    name, *args = op
    out = getattr(stream, name)(*args)
    return out.tolist() if name == "random" else out


def _oracle_draw(gen, op):
    name, *args = op
    if name == "uniform":
        lo, hi = args
        return lo + gen.random() * (hi - lo)
    if name == "bernoulli":
        return gen.random() < args[0]
    return gen.random(args[0]).tolist()


@settings(max_examples=200, deadline=None)
@given(
    master_seed=_master_seed,
    label=st.lists(_label_part, max_size=3).map(tuple),
    suffix=st.lists(_label_part, min_size=1, max_size=3).map(tuple),
    ops=st.lists(_draw_op, max_size=30),
)
def test_scalar_draws_equal_a_seed_sequence_generator(master_seed, label, suffix, ops):
    # labels of fewer than 4 words, which SeedSequence pads with zeros, and of
    # more, which it mixes past its pool
    alone = RngStream(master_seed, label + suffix)
    derived = RngStream(master_seed, label).child(*suffix)
    assert derived._gen is None  # a derived stream is seeded at its first draw
    oracle = np.random.Generator(_seed_sequence_pcg(master_seed, label + suffix))
    for op in ops:
        expected = _oracle_draw(oracle, op)
        assert _stream_draw(alone, op) == expected, op
        assert _stream_draw(derived, op) == expected, op


def test_a_lot_row_continues_exactly_on_its_overflow_stream(monkeypatch):
    # 40 draws: the row's 32 slots, then the first 8 uniforms of the stream
    # of the lot's own label, built at the first draw past the row
    base = RngStream(2**40 + 3, ("rep", 2))
    row = base.child("season", 1).random((6, ROW_SLOTS))[4].tolist()
    draws = LotDraws(row, base, ("lot", 1, 2, "life"))
    built = []
    child = RngStream.child

    def recording(stream, *extra):
        built.append(stream.label + extra)
        return child(stream, *extra)

    monkeypatch.setattr(RngStream, "child", recording)
    first = [draws.uniform() for _ in range(ROW_SLOTS)]
    assert built == []
    rest = [draws.uniform() for _ in range(8)]
    monkeypatch.undo()
    assert built == [("rep", 2, "lot", 1, 2, "life")]
    assert first + rest == row + base.child("lot", 1, 2, "life").random(8).tolist()


def test_lot_draws_map_their_uniforms_as_streams_do():
    row = RngStream(7, ("row",)).random(ROW_SLOTS).tolist()
    draws = LotDraws(row, RngStream(7, ("rep", 0)), ("lot", 0, 0, "tamper"))
    assert draws.uniform(2.0, 5.0) == 2.0 + row[0] * 3.0
    assert draws.bernoulli(0.4) == (row[1] < 0.4)
    assert draws.uniform() == row[2]
    assert not hasattr(draws, "__dict__")  # slotted: a lot holds its row and little else
