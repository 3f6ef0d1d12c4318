import numpy as np
import pytest
from hypothesis import given, strategies as st

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
from moboga.engine import EngineConfig, run
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


@given(space_strategy, st.integers(0, 2**31 - 1))
def test_encode_decode_is_idempotent_on_encodings(space, seed):
    rng = np.random.default_rng(seed)
    v = rng.random(space.encoded_dim)
    once = encode(space, decode(space, v))
    twice = encode(space, decode(space, once))
    assert np.array_equal(once, twice)


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
