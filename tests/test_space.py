import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from moboga.space import (
    Candidate,
    CategoricalParam,
    ContinuousParam,
    DiscreteParam,
    SearchSpace,
    ValidationError,
    decode,
    encode,
    sample_uniform,
    validate_candidate,
)
from moboga.engine import DUPLICATE_TOL, EngineConfig, run
from moboga.problems import binh_korn_problem


def encoded_distance(space, a, b):
    return float(np.linalg.norm(encode(space, a) - encode(space, b)))


def mixed_space():
    return SearchSpace(
        (
            ContinuousParam("rate", 0.0, 10.0),
            DiscreteParam("batch", (32, 64, 128)),
            CategoricalParam("act", ("ReLU", "Tanh")),
        )
    )


class TestParamValidation:
    def test_continuous_needs_lo_below_hi(self):
        with pytest.raises(ValidationError):
            ContinuousParam("x", 1.0, 1.0)

    def test_continuous_needs_finite_bounds(self):
        with pytest.raises(ValidationError):
            ContinuousParam("x", 0.0, np.inf)

    def test_discrete_needs_strictly_increasing_values(self):
        with pytest.raises(ValidationError):
            DiscreteParam("b", (1, 1, 2))

    def test_categorical_needs_unique_labels(self):
        with pytest.raises(ValidationError):
            CategoricalParam("a", ("x", "x"))

    def test_space_rejects_duplicate_names(self):
        with pytest.raises(ValidationError):
            SearchSpace((ContinuousParam("x", 0, 1), ContinuousParam("x", 1, 2)))

    def test_encoded_dim_counts_one_hot_blocks(self):
        assert mixed_space().encoded_dim == 1 + 1 + 2


class TestEncode:
    def test_continuous_midpoint(self):
        space = SearchSpace((ContinuousParam("x", 0.0, 10.0),))
        assert encode(space, Candidate({"x": 5.0})) == pytest.approx([0.5])

    def test_discrete_middle_rank(self):
        space = SearchSpace((DiscreteParam("b", (32, 64, 128)),))
        assert encode(space, Candidate({"b": 64})) == pytest.approx([0.5])

    def test_categorical_one_hot(self):
        space = SearchSpace((CategoricalParam("a", ("ReLU", "Tanh")),))
        assert encode(space, Candidate({"a": "Tanh"})).tolist() == [0.0, 1.0]

    def test_single_value_discrete_maps_to_zero(self):
        space = SearchSpace((DiscreteParam("b", (7,)),))
        assert encode(space, Candidate({"b": 7})).tolist() == [0.0]

    def test_mismatch_names_the_parameter(self):
        space = mixed_space()
        with pytest.raises(ValidationError, match="batch"):
            encode(space, Candidate({"rate": 1.0, "batch": 33, "act": "ReLU"}))
        with pytest.raises(ValidationError, match="rate"):
            encode(space, Candidate({"rate": 11.0, "batch": 32, "act": "ReLU"}))

    @pytest.mark.parametrize(
        "value", [None, 1 + 0j, 0.5 + 1j, [0.5], "0.5", np.array([0.5])],
        ids=["none", "real-complex", "complex", "list", "string", "array"],
    )
    def test_non_real_continuous_value_names_the_parameter(self, value):
        space = mixed_space()
        with pytest.raises(ValidationError, match="'rate'"):
            validate_candidate(space, Candidate({"rate": value, "batch": 32, "act": "ReLU"}))

    def test_non_real_initial_candidate_is_a_validation_error_from_run(self):
        problem = binh_korn_problem()
        cfg = EngineConfig(n_initial=2, max_iterations=2)
        with pytest.raises(ValidationError, match="'x'"):
            run(problem, cfg, initial_candidates=[Candidate({"x": None, "y": 1.0})])


class TestDecode:
    def test_continuous_midpoint(self):
        space = SearchSpace((ContinuousParam("x", 0.0, 10.0),))
        assert decode(space, np.array([0.5]))["x"] == pytest.approx(5.0)

    def test_discrete_snaps_to_nearest_rank(self):
        # ranks are {0, 0.5, 1}; 0.6 is nearest to 0.5
        space = SearchSpace((DiscreteParam("b", (32, 64, 128)),))
        assert decode(space, np.array([0.6]))["b"] == 64

    def test_discrete_rank_tie_goes_low(self):
        space = SearchSpace((DiscreteParam("b", (32, 64, 128)),))
        assert decode(space, np.array([0.25]))["b"] == 32

    def test_categorical_argmax(self):
        space = SearchSpace((CategoricalParam("a", ("ReLU", "Tanh")),))
        assert decode(space, np.array([0.7, 0.3]))["a"] == "ReLU"

    def test_categorical_tie_takes_first_label(self):
        space = SearchSpace((CategoricalParam("a", ("ReLU", "Tanh")),))
        assert decode(space, np.array([0.5, 0.5]))["a"] == "ReLU"

    def test_out_of_range_entries_clamp(self):
        space = SearchSpace((ContinuousParam("x", 0.0, 10.0),))
        assert decode(space, np.array([1.7]))["x"] == pytest.approx(10.0)
        assert decode(space, np.array([-0.2]))["x"] == pytest.approx(0.0)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValidationError):
            decode(mixed_space(), np.zeros(3))


class TestDistance:
    def test_identical_candidates(self):
        space = mixed_space()
        c = Candidate({"rate": 3.0, "batch": 64, "act": "Tanh"})
        assert encoded_distance(space, c, c) == 0.0

    def test_continuous_extremes_are_unit_apart(self):
        space = SearchSpace((ContinuousParam("x", 0.0, 10.0),))
        a, b = Candidate({"x": 0.0}), Candidate({"x": 10.0})
        assert encoded_distance(space, a, b) == pytest.approx(1.0)

    def test_categorical_flip_is_sqrt_two(self):
        space = SearchSpace((CategoricalParam("a", ("A", "B")),))
        a, b = Candidate({"a": "A"}), Candidate({"a": "B"})
        assert encoded_distance(space, a, b) == pytest.approx(np.sqrt(2.0))


class TestSampling:
    def test_singleton_categorical_always_that_label(self):
        space = SearchSpace((CategoricalParam("a", ("only",)),))
        rng = np.random.default_rng(0)
        assert all(sample_uniform(space, rng)["a"] == "only" for _ in range(50))

    def test_continuous_mean_matches_uniform_law(self):
        space = SearchSpace((ContinuousParam("x", 0.0, 1.0),))
        rng = np.random.default_rng(1)
        samples = np.array([sample_uniform(space, rng)["x"] for _ in range(100_000)])
        assert abs(samples.mean() - 0.5) < 0.01

    def test_discrete_frequencies_are_balanced(self):
        space = SearchSpace((DiscreteParam("b", (1, 2)),))
        rng = np.random.default_rng(2)
        draws = [sample_uniform(space, rng)["b"] for _ in range(10_000)]
        freq = draws.count(1) / len(draws)
        assert abs(freq - 0.5) < 0.03

    def test_deterministic_given_seed_state(self):
        space = mixed_space()
        a = [sample_uniform(space, np.random.default_rng(5)).values for _ in range(3)]
        b = [sample_uniform(space, np.random.default_rng(5)).values for _ in range(3)]
        assert a[0] == b[0]


# -- property tests over randomly built spaces ------------------------------

param_strategy = st.one_of(
    st.tuples(st.floats(-100, 100), st.floats(0.1, 100)).map(
        lambda t: ("continuous", t[0], t[0] + t[1])
    ),
    st.lists(st.integers(-1000, 1000), min_size=1, max_size=6, unique=True).map(
        lambda vs: ("discrete", tuple(sorted(vs)))
    ),
    st.integers(1, 5).map(lambda n: ("categorical", tuple(f"L{i}" for i in range(n)))),
)


def build_space(descriptors):
    params = []
    for i, desc in enumerate(descriptors):
        if desc[0] == "continuous":
            params.append(ContinuousParam(f"p{i}", desc[1], desc[2]))
        elif desc[0] == "discrete":
            params.append(DiscreteParam(f"p{i}", desc[1]))
        else:
            params.append(CategoricalParam(f"p{i}", desc[1]))
    return SearchSpace(tuple(params))


space_strategy = st.lists(param_strategy, min_size=1, max_size=4).map(build_space)


# -- population forms against the per-row conversions they replaced ---------


def reference_encode(space, c):
    """Per-candidate encoding, one parameter at a time (assumes c is valid)."""
    out = np.empty(space.encoded_dim)
    i = 0
    for p in space.params:
        v = c.values[p.name]
        if isinstance(p, ContinuousParam):
            out[i] = (v - p.lo) / (p.hi - p.lo)
            i += 1
        elif isinstance(p, DiscreteParam):
            n = len(p.values)
            out[i] = 0.0 if n == 1 else p.rank_of(v) / (n - 1)
            i += 1
        else:
            block = np.zeros(len(p.labels))
            block[p.index_of(v)] = 1.0
            out[i : i + len(p.labels)] = block
            i += len(p.labels)
    return out


def reference_decode(space, v):
    """Per-vector decoding: clamp, nearest rank (ties low), first argmax."""
    values = {}
    i = 0
    for p in space.params:
        if isinstance(p, ContinuousParam):
            t = min(max(float(v[i]), 0.0), 1.0)
            values[p.name] = p.lo + t * (p.hi - p.lo)
            i += 1
        elif isinstance(p, DiscreteParam):
            n = len(p.values)
            if n == 1:
                values[p.name] = p.values[0]
            else:
                t = min(max(v[i], 0.0), 1.0)
                ranks = np.arange(n) / (n - 1)
                values[p.name] = p.values[int(np.argmin(np.abs(t - ranks)))]
            i += 1
        else:
            block = v[i : i + len(p.labels)]
            values[p.name] = p.labels[int(np.argmax(block))]
            i += len(p.labels)
    return Candidate(values)


def population(space, m, rng):
    """m genomes straying outside [0, 1], a third of the entries on rank ties."""
    G = rng.uniform(-0.25, 1.25, (m, space.encoded_dim))
    ties = rng.random(G.shape) < 1 / 3
    G[ties] = rng.choice([0.0, 0.25, 1 / 3, 0.5, 2 / 3, 0.75, 1.0], ties.sum())
    return G


@given(space_strategy, st.sampled_from([0, 1, 7]), st.integers(0, 2**31 - 1))
def test_population_decode_matches_the_per_row_reference(space, m, seed):
    G = population(space, m, np.random.default_rng(seed))
    cands = decode(space, G)
    assert isinstance(cands, list) and len(cands) == m
    for c, g in zip(cands, G):
        assert c == reference_decode(space, g)
        for p in space.params:
            if isinstance(p, ContinuousParam):
                assert type(c[p.name]) is float


@given(space_strategy, st.sampled_from([0, 1, 7]), st.integers(0, 2**31 - 1))
def test_population_encode_is_bit_equal_to_the_per_row_reference(space, m, seed):
    rng = np.random.default_rng(seed)
    cands = [sample_uniform(space, rng) for _ in range(m)]
    cands += decode(space, population(space, m, rng))
    want = np.array([reference_encode(space, c) for c in cands]).reshape(2 * m, space.encoded_dim)
    got = encode(space, cands)
    assert got.shape == (2 * m, space.encoded_dim)
    assert np.array_equal(got, want)


@given(space_strategy, st.sampled_from([0, 1, 7]), st.integers(0, 2**31 - 1))
def test_row_encode_is_bit_equal_to_the_decode_round_trip(space, m, seed):
    G = population(space, m, np.random.default_rng(seed))
    got = encode(space, G)
    assert got.shape == (m, space.encoded_dim)
    assert np.array_equal(got, encode(space, decode(space, G)))
    for g in G:
        assert np.array_equal(encode(space, g), encode(space, decode(space, g)))


def test_row_encode_snaps_out_of_range_entries_and_ties():
    space = mixed_space()  # rate in [0, 10], batch ranks {0, 0.5, 1}, act one-hot
    G = np.array([
        [1.7, 0.25, 0.5, 0.5],     # clamp high, rank tie goes low, label tie goes first
        [-0.2, 0.75, -1.0, -1.0],  # clamp low, rank tie goes low, negative tie goes first
        [0.3, 0.6, 0.2, 0.9],
    ])
    want = np.array([
        [1.0, 0.0, 1.0, 0.0],
        [0.0, 0.5, 1.0, 0.0],
        [(0.0 + 0.3 * 10.0 - 0.0) / 10.0, 0.5, 0.0, 1.0],
    ])
    assert np.array_equal(encode(space, G), want)
    assert np.array_equal(encode(space, G), encode(space, decode(space, G)))


@pytest.mark.parametrize(
    "G",
    [np.zeros(3), np.zeros((2, 5)), np.zeros((2, 2, 4)),
     np.array([0.5, np.nan, 1.0, 0.0]), np.array([[0.5, 0.5, np.inf, 0.0]])],
    ids=["short-row", "wide-rows", "3-d", "nan", "inf"],
)
def test_row_encode_rejects_what_decode_rejects(G):
    space = mixed_space()
    with pytest.raises(ValidationError) as by_decode:
        decode(space, G)
    with pytest.raises(ValidationError) as by_encode:
        encode(space, G)
    assert str(by_encode.value) == str(by_decode.value)


@given(space_strategy, st.sampled_from([1, 7]), st.integers(0, 2**31 - 1))
def test_one_invalid_candidate_in_a_population_names_its_parameter(space, m, seed):
    rng = np.random.default_rng(seed)
    cands = [sample_uniform(space, rng) for _ in range(m)]
    p = space.params[int(rng.integers(len(space.params)))]
    if isinstance(p, ContinuousParam):
        bad = p.hi + 1.0
    elif isinstance(p, DiscreteParam):
        bad = p.values[-1] + 1
    else:
        bad = "not-a-label"
    j = int(rng.integers(m))
    cands[j] = Candidate({**cands[j].values, p.name: bad})
    with pytest.raises(ValidationError, match=f"'{p.name}'"):
        encode(space, cands)
    with pytest.raises(ValidationError, match=f"'{p.name}'"):
        validate_candidate(space, cands[j])


@given(space_strategy, st.integers(0, 2**31 - 1))
def test_roundtrip_reproduces_candidates(space, seed):
    rng = np.random.default_rng(seed)
    c = sample_uniform(space, rng)
    back = decode(space, encode(space, c))
    for p in space.params:
        v, w = c.values[p.name], back.values[p.name]
        if isinstance(p, ContinuousParam):
            scale = max(abs(v), abs(w), 1.0)
            assert abs(v - w) <= 1e-12 * scale
        else:
            assert v == w


@given(space_strategy, st.integers(0, 2**31 - 1))
def test_encode_stays_in_unit_cube(space, seed):
    rng = np.random.default_rng(seed)
    e = encode(space, sample_uniform(space, rng))
    assert e.shape == (space.encoded_dim,)
    assert np.all(e >= 0.0) and np.all(e <= 1.0)


# a second round trip moves this continuous entry by one rounding step (1.1e-16)
@example(build_space([("categorical", ("L0",)), ("categorical", ("L0", "L1", "L2", "L3")),
                      ("continuous", 1.9, 95.4)]), 177310)
@given(space_strategy, st.integers(0, 2**31 - 1))
def test_encode_decode_is_idempotent_on_encodings(space, seed):
    """Discrete and categorical entries survive a second round trip exactly; a
    continuous one may keep float residue, which the archive's duplicate test
    absorbs: the two encodings are the same point within DUPLICATE_TOL."""
    rng = np.random.default_rng(seed)
    v = rng.random(space.encoded_dim)
    once = encode(space, decode(space, v))
    twice = encode(space, decode(space, once))
    continuous = np.repeat([isinstance(p, ContinuousParam) for p in space.params],
                           [p.encoded_width for p in space.params])
    assert np.array_equal(once[~continuous], twice[~continuous])
    assert np.linalg.norm(once - twice) <= DUPLICATE_TOL


@given(space_strategy, st.integers(0, 2**31 - 1))
def test_distance_triangle_inequality(space, seed):
    rng = np.random.default_rng(seed)
    a, b, c = (sample_uniform(space, rng) for _ in range(3))
    ab, bc, ac = (encoded_distance(space, u, v) for u, v in ((a, b), (b, c), (a, c)))
    assert ac <= ab + bc + 1e-12


@given(space_strategy, st.integers(0, 2**31 - 1))
def test_distance_is_symmetric_and_zero_iff_equal_encodings(space, seed):
    rng = np.random.default_rng(seed)
    a, b = sample_uniform(space, rng), sample_uniform(space, rng)
    d_ab, d_ba = encoded_distance(space, a, b), encoded_distance(space, b, a)
    assert d_ab == pytest.approx(d_ba, abs=0)
    same = np.array_equal(encode(space, a), encode(space, b))
    assert (d_ab == 0.0) == same
