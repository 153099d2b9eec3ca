import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hemptwin.config import RunConfig, default_config
from hemptwin.randomness import InvalidParamsError, RngStream, sample_growth_noise
from hemptwin.simulation import SupplyChainSimulation


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
    stream = RngStream(5, ("g0",))
    assert sample_growth_noise(0.0018, 0.0, 0.5, stream) == 0.0


def test_growth_noise_truncation_bound_holds():
    g, t, lam = 0.0018, 56.0, 0.5
    stream = RngStream(31, ("gb",))
    draws = np.array([sample_growth_noise(g, t, lam, stream) for _ in range(100_000)])
    total = g * t + draws
    assert total.min() >= 0.0
    assert total.mean() >= 0.0


def test_growth_noise_variance_parameter():
    # pre-truncation variance parameter g*t*lambda^2 = 0.0018*56*0.25
    assert math.isclose(0.0018 * 56 * 0.5**2, 0.0252)
    # the truncated draw's dispersion stays below the untruncated sigma
    stream = RngStream(13, ("gv",))
    draws = np.array([sample_growth_noise(0.0018, 56, 0.5, stream) for _ in range(50_000)])
    assert draws.std() < math.sqrt(0.0252)


def test_growth_noise_rejects_negative_params():
    stream = RngStream(0, ("neg",))
    with pytest.raises(InvalidParamsError):
        sample_growth_noise(-0.1, 5.0, 0.5, stream)
    with pytest.raises(InvalidParamsError):
        sample_growth_noise(0.1, -5.0, 0.5, stream)


def test_replay_reproducibility():
    a = RngStream(99, ("lot", 17, "eps"))
    seq1 = [a.uniform() for _ in range(50)] + [a.standard_normal() for _ in range(50)]
    b = RngStream(99, ("lot", 17, "eps"))
    seq2 = [b.uniform() for _ in range(50)] + [b.standard_normal() for _ in range(50)]
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


def _seed_sequence_state(master_seed, label):
    return _seed_sequence_pcg(master_seed, label).state


# parts that become one 32-bit word (0 included), two words, three or more
# words, and strings (usually two words; fewer when the hash's high words are 0)
_label_part = st.one_of(
    st.just(0),
    st.integers(min_value=1, max_value=2**32 - 1),
    st.integers(min_value=2**32, max_value=2**64 - 1),
    st.integers(min_value=2**64, max_value=2**130),
    st.text(max_size=6),
)
_master_seed = st.one_of(st.integers(min_value=0, max_value=2**32 - 1),
                         st.integers(min_value=2**32, max_value=2**96))


@settings(max_examples=200, deadline=None)
@given(
    master_seed=_master_seed,
    label=st.lists(_label_part, max_size=3).map(tuple),
    suffixes=st.lists(st.lists(_label_part, max_size=5).map(tuple), min_size=1, max_size=8),
)
def test_batch_seeding_equals_seed_sequence(master_seed, label, suffixes):
    # one call mixes suffixes of different lengths and word layouts, and short
    # labels (fewer than 4 words) that SeedSequence pads with zeros
    streams = RngStream(master_seed, label).children(suffixes)
    assert [s.label for s in streams] == [label + suffix for suffix in suffixes]
    for stream in streams:
        expected = _seed_sequence_state(master_seed, stream.label)
        assert stream._generator().bit_generator.state == expected
        alone = RngStream(master_seed, stream.label)
        assert alone._generator().bit_generator.state == expected


# repeated parts, 0, ints of more than one word, np.int64 beside int and 1
# beside "1": the cases in which encoding each distinct part once per
# `children` call could hand one part another's words
_repeated_part = st.sampled_from(
    [0, 1, "1", np.int64(1), 7, np.int64(7), 2**32, np.int64(2**33), 2**40 + 5,
     2**64 + 1, "lot", "life"])


@settings(max_examples=200, deadline=None)
@given(
    master_seed=_master_seed,
    label=st.lists(_repeated_part, max_size=2).map(tuple),
    suffixes=st.lists(st.lists(_repeated_part, max_size=5).map(tuple), min_size=1,
                      max_size=12),
)
def test_batch_seeding_encodes_repeated_parts_as_labels_built_alone(
        master_seed, label, suffixes):
    base = RngStream(master_seed, label)
    for stream, suffix in zip(base.children(suffixes), suffixes):
        state = stream._generator().bit_generator.state
        assert state == base.child(*suffix)._generator().bit_generator.state
        assert state == _seed_sequence_state(master_seed, label + suffix)


def test_a_float_part_is_refused_after_an_equal_int_part():
    with pytest.raises(TypeError):
        RngStream(1, ("rep",)).children([(1,), (1.0,)])


_draw_op = st.one_of(
    st.tuples(st.just("uniform"), st.floats(-1e9, 1e9), st.floats(-1e9, 1e9)),
    st.tuples(st.just("bernoulli"), st.floats(0, 1)),
    st.tuples(st.just("standard_normal")),
)


def _stream_draw(stream, op):
    name, *args = op
    return getattr(stream, name)(*args)


def _oracle_draw(gen, op):
    name, *args = op
    if name == "uniform":
        lo, hi = args
        return lo + gen.random() * (hi - lo)
    if name == "bernoulli":
        return gen.random() < args[0]
    return float(gen.standard_normal())


@settings(max_examples=100, deadline=None)
@given(
    master_seed=_master_seed,
    label=st.lists(_label_part, max_size=3).map(tuple),
    suffix=st.lists(_label_part, min_size=1, max_size=3).map(tuple),
    ops=st.lists(_draw_op, max_size=30),
)
def test_scalar_draws_equal_a_seed_sequence_generator(master_seed, label, suffix, ops):
    base = RngStream(master_seed, label)
    lazy = base.child(*suffix)
    assert lazy._gen is None  # a derived stream is seeded at its first draw
    batch = base.children([("other",), suffix])[1]
    oracle = np.random.Generator(_seed_sequence_pcg(master_seed, label + suffix))
    for op in ops:
        expected = _oracle_draw(oracle, op)
        assert _stream_draw(lazy, op) == expected, op
        assert _stream_draw(batch, op) == expected, op


def _draws(stream):
    return (
        stream.uniform(2.0, 5.0),
        next(stream.exponentials(0.3)),
        stream.standard_normal(),
        stream.bernoulli(0.4),
        stream.random(5).tolist(),
        stream.permutations(3, 4).tolist(),
        stream.uniform(),
    )


def test_batch_built_streams_draw_as_streams_built_alone():
    base = RngStream(2**40 + 3, ("rep", 2))
    suffixes = [("lot", 0, i, kind) for i in range(3) for kind in ("life", "tamper")]
    suffixes += [("miss",), ("shard", 2**33), ()]
    for batch, suffix in zip(base.children(suffixes), suffixes):
        assert _draws(batch) == _draws(RngStream(base.master_seed, base.label + suffix))
        assert _draws(base.children([suffix])[0]) == _draws(base.child(*suffix))


def test_replication_lot_streams_replay_from_their_labels(monkeypatch):
    seed = 2**40 + 3
    cfg = default_config()
    cfg = dataclasses.replace(cfg, run=RunConfig(warmup_lots=50, run_length_lots=100,
                                                 replications=1, master_seed=seed))
    built = {}
    children = RngStream.children

    def recording(self, suffixes):
        streams = children(self, suffixes)
        built.update((s.label, s._generator().bit_generator.state) for s in streams)
        return streams

    monkeypatch.setattr(RngStream, "children", recording)
    sim = SupplyChainSimulation(cfg, 3)
    sim.run()
    assert len(sim.measured) == 100
    for lot in sim.measured:
        label = ("rep", 3, "lot", lot.season_index, lot.index_in_season, "life")
        assert lot.life.label == label and lot.life.master_seed == seed
        assert built[label] == RngStream(seed, label)._generator().bit_generator.state
        assert built[label] == _seed_sequence_state(seed, label)
