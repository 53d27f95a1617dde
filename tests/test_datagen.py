import csv
import math
import os
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fairaudit import (Population, PopulationSpec, generate_population,
                       make_base_dataset_A, make_base_dataset_B,
                       write_population_csv)
from fairaudit import datagen
from fairaudit.bias import write_labeled_csv
from fairaudit.datagen import (_MIN_CHUNK, _WRITE_CHUNK_ROWS as CHUNK, _beta_shape, _brentq,
                               _group_scores)
from fairaudit.errors import DegenerateDatasetError, ValidationError
from fairaudit.harness import bundled_config_path, load_config, population_seed
from conftest import make_population, positive_rate, same_population
from oracles import (beta_shape_oracle, binary_exact_oracle, generate_population_exact_oracle,
                     group_scores_oracle, write_population_csv_oracle)


SEED = 11  # the seed the tests draw small_spec's populations with


def small_spec(**overrides):
    kwargs = dict(n_group0=12000, n_group1=10000,
                  positive_rate_group0=0.541,
                  positive_rate_group1=0.122,
                  feature_dim=4, proxy_strength=0.8, noise_scale=1.0)
    kwargs.update(overrides)
    return PopulationSpec(**kwargs)


class TestValidation:
    @pytest.mark.parametrize("field,value", [
        ("n_group0", 0), ("n_group1", -5),
        ("positive_rate_group0", 0.0),
        ("positive_rate_group1", 1.0),
        ("feature_dim", 1), ("proxy_strength", 1.5),
        ("noise_scale", 0.0), ("score_concentration", -1.0),
        ("noise_scale", math.nan), ("noise_scale", math.inf),
        ("score_concentration", math.nan), ("score_concentration", math.inf),
        ("n_group0", math.nan), ("n_group1", math.nan), ("feature_dim", math.nan),
        ("n_group1", 1.5), ("feature_dim", 2.5), ("proxy_strength", math.nan),
        ("positive_rate_group0", math.nan), ("positive_rate_group1", math.inf),
    ])
    def test_invalid_spec_names_field(self, field, value):
        with pytest.raises(ValidationError, match=field):
            small_spec(**{field: value})

    def test_record_invariants(self):
        with pytest.raises(ValidationError, match="score"):
            make_population([0], [1.5])
        with pytest.raises(ValidationError, match="score"):
            make_population([0], [float("nan")])
        with pytest.raises(ValidationError, match="group"):
            make_population([2], [0.5])
        with pytest.raises(ValidationError, match="finite"):
            make_population([1], [0.5], [[0.0, float("inf")]])
        with pytest.raises(ValidationError, match="label"):
            make_population([1], [0.5], labels=[2])
        with pytest.raises(ValidationError, match="aligned"):
            make_population([0, 1], [0.5])
        with pytest.raises(ValidationError, match="aligned"):
            make_population([0, 1], [0.5, 0.5], labels=[1])
        with pytest.raises(ValidationError, match="matrix"):
            Population([0], [0], [0.5], [0.0])
        columns = dict(id=[0, 1], group=[0, 1], score=[.2, .7],
                       features=[[1., 2.], [3., 4.]], label=[0, 1])
        for name in ("id", "group", "score", "label"):
            with pytest.raises(ValidationError, match=f"^{name} must be a 1-D column"):
                Population(**{**columns, name: [[v] for v in columns[name]]})

    @pytest.mark.parametrize("name,values", [
        ("id", [1.7, 2.2]), ("id", [2**63, 1]), ("id", [math.inf, 1]), ("id", [math.nan, 1]),
        ("id", ["a", "b"]), ("id", np.array([2**63, 1], dtype=np.uint64)), ("id", [1, 2j]),
        ("id", [[1], [2, 3]]), ("score", ["a", "b"]), ("score", ["0.5", "0.1"]),
        ("score", [0.5 + 0j, 0.1]), ("features", [["a", 1.0], [0.9, 0.0]]),
        ("features", [[1j, 1.0], [0.9, 0.0]]),
    ], ids=repr)
    def test_unconvertible_column_names_itself(self, name, values):
        columns = dict(id=[0, 1], group=[0, 1], score=[.2, .7], features=[[1., 2.], [3., 4.]])
        with pytest.raises(ValidationError, match=f"^{name}"):
            Population(**{**columns, name: values})

    def test_ids_cast_only_when_integral(self):
        columns = dict(group=[0, 1], score=[.2, .7], features=[[1., 2.], [3., 4.]])
        ids = np.array([5, 6])
        assert Population(id=ids, **columns).id is ids  # int64 input is kept as it is
        for values in ([1.0, -2.0], np.array([1, 2], dtype=np.uint64), [True, False]):
            got = Population(id=values, **columns).id
            assert got.dtype == np.int64 and got.tolist() == [int(v) for v in values]
        with pytest.raises(ValidationError, match="^id must hold integers in the int64 range$"):
            Population(id=[1.0, 2.5], **columns)

    def test_take_selects_rows_in_order(self):
        pop = make_population([0, 1, 1, 0], [0.1, 0.2, 0.3, 0.4],
                              np.arange(8.0).reshape(4, 2), labels=[1, 0, 1, 0])
        picked = pop.take(np.array([3, 1]))
        assert picked.id.tolist() == [3, 1]
        assert picked.label.tolist() == [0, 0]
        assert picked.features.tolist() == [[6.0, 7.0], [2.0, 3.0]]
        masked = pop.take(pop.group == 1)
        assert len(masked) == 2 and masked.score.tolist() == [0.2, 0.3]
        for wrong_length in (np.ones(3, dtype=bool), np.ones(5, dtype=bool)):
            with pytest.raises(IndexError):
                pop.take(wrong_length)
        for no_rows in (np.zeros(4, dtype=bool), []):
            empty = pop.take(no_rows)
            assert len(empty) == 0 and empty.features.shape == (0, 2)
            assert empty.label.shape == (0,)
        mask = np.array([True, False, True, True])
        assert same_population(pop.take(mask), pop.take(np.flatnonzero(mask)))


BINARY_DTYPES = (np.int8, np.int64, np.uint8, np.uint64, np.bool_, np.float64, object, str)
BINARY_VALUES = ([], [0], [1], [0, 1, 1, 0], [-1], [2], [0, 1, 2], [-1, 0, 1],
                 [2**62], [-2**62], [1, 2**62], [0, math.nan], [math.nan], [0.5, 1],
                 [0] * 999 + [2], [1] * 999 + [-1])


def binary_cases():
    """Every value list of BINARY_VALUES, and each integer dtype's extremes, in
    every dtype of BINARY_DTYPES that can hold them."""
    for dtype in BINARY_DTYPES:
        extremes = []
        if np.issubdtype(dtype, np.integer):
            info = np.iinfo(dtype)
            extremes = [[int(info.min)], [int(info.max)], [0, 1, int(info.max)]]
        for values in BINARY_VALUES + tuple(extremes):
            try:
                column = np.array(values, dtype=dtype)
            except (OverflowError, ValueError):
                continue  # not representable in dtype
            shown = values if len(values) < 5 else f"{values[:2]}...{values[-1:]}"
            yield pytest.param(column, id=f"{np.dtype(dtype).name}-{shown}")


class TestBinaryColumn:
    @pytest.mark.parametrize("column", binary_cases())
    def test_same_verdict_as_elementwise_rule(self, column):
        try:
            want = binary_exact_oracle("label", column)
        except ValidationError as e:
            assert str(e) == "label must be 0 or 1"
            with pytest.raises(ValidationError, match="^label must be 0 or 1$"):
                datagen._binary("label", column)
        else:
            got = datagen._binary("label", column)
            assert got.dtype == np.int64 and got.flags.c_contiguous
            assert np.array_equal(got, want)

    def test_every_dtype_reaches_each_possible_verdict(self):
        verdicts = {}
        for case in binary_cases():
            (column,) = case.values
            try:
                binary_exact_oracle("label", column)
                verdict = "accepted"
            except ValidationError:
                verdict = "rejected"
            verdicts.setdefault(column.dtype.kind, set()).add(verdict)
        # a bool column holds only 0 and 1
        assert verdicts == {**{kind: {"accepted", "rejected"} for kind in "iufOU"},
                            "b": {"accepted"}}

    def test_strided_column_checked(self):
        table = np.zeros(5, dtype=[("group", np.int64), ("score", np.float64)])
        table["group"][3] = 2
        with pytest.raises(ValidationError, match="^group must be 0 or 1$"):
            datagen._binary("group", table["group"])
        table["group"][3] = 1
        assert datagen._binary("group", table["group"]).tolist() == [0, 0, 0, 1, 0]


class TestGeneratePopulation:
    def test_table_shaped_calibration(self):
        # full-size marginals: 1,296/10,653 and 64,536/119,340
        spec = PopulationSpec(n_group0=119340, n_group1=10653,
                              positive_rate_group0=64536 / 119340,
                              positive_rate_group1=1296 / 10653)
        pop = generate_population(spec, 3)
        assert len(pop) == 129993
        assert abs(positive_rate(pop, 0) - spec.positive_rate_group0) < 0.01
        assert abs(positive_rate(pop, 1) - spec.positive_rate_group1) < 0.01

    def test_symmetric_rates(self):
        spec = small_spec(n_group0=10000, n_group1=10000,
                          positive_rate_group0=0.5,
                          positive_rate_group1=0.5)
        pop = generate_population(spec, SEED)
        assert abs(positive_rate(pop, 0) - positive_rate(pop, 1)) < 0.02

    def test_determinism(self):
        spec = small_spec(n_group0=500, n_group1=300)
        assert same_population(generate_population(spec, SEED), generate_population(spec, SEED))

    def test_seed_changes_output(self):
        a = generate_population(small_spec(n_group0=500, n_group1=300), 1)
        b = generate_population(small_spec(n_group0=500, n_group1=300), 2)
        assert not same_population(a, b)

    def test_working_set_stays_near_the_returned_columns(self):
        config = load_config(bundled_config_path("experiment_A.cfg"))
        # import scipy.special first
        generate_population(small_spec(n_group0=20, n_group1=20), SEED)
        tracemalloc.start()
        try:
            pop = generate_population(config.population, population_seed(config))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        columns = sum(c.nbytes for c in (pop.id, pop.group, pop.score, pop.features))
        # the in-place logits and noise buffers peak at 1.33x the columns; the same
        # arithmetic as plain expressions peaks at 1.50x
        assert peak <= 1.4 * columns

    def test_record_shape(self):
        pop = generate_population(small_spec(n_group0=200, n_group1=100), SEED)
        assert len(pop) == 300
        assert sorted(pop.id.tolist()) == list(range(300))
        assert pop.features.shape == (300, 4)
        assert np.all((pop.score >= 0.0) & (pop.score <= 1.0))

    @pytest.mark.parametrize("rho", [0.0, 0.4, 0.8, 1.0])
    def test_proxy_correlation(self, rho):
        pop = generate_population(small_spec(proxy_strength=rho), SEED)
        g = pop.group.astype(float)
        proxy = pop.features[:, -1]
        assert abs(np.corrcoef(g, proxy)[0, 1] - rho) < 0.05

    def test_informative_features_track_score(self):
        pop = generate_population(small_spec(noise_scale=0.5), SEED)
        s = pop.score
        f0 = pop.features[:, 0]
        assert np.corrcoef(s, f0)[0, 1] > 0.5

    @pytest.mark.parametrize("seed", [0, 11, 20260823])
    @pytest.mark.parametrize("overrides", [
        dict(feature_dim=2), dict(feature_dim=7), dict(n_group1=1), dict(n_group0=1),
        dict(proxy_strength=0.0), dict(proxy_strength=1.0),
        dict(noise_scale=0.37, score_concentration=4.5)])
    def test_matches_exact_oracle(self, overrides, seed):
        spec = small_spec(**{"n_group0": 3000, "n_group1": 700, **overrides})
        pop = generate_population(spec, seed)
        want = generate_population_exact_oracle(spec, seed)
        for name, column in zip(("id", "group", "score", "features"), want):
            assert np.array_equal(getattr(pop, name), column), name
            assert getattr(pop, name).dtype == column.dtype, name


def bundled_calibrations():
    """(rate, score_concentration) of each group in both bundled configs."""
    cases = set()
    for name in ("experiment_A.cfg", "experiment_B.cfg"):
        spec = load_config(bundled_config_path(name)).population
        cases |= {(spec.positive_rate_group0, spec.score_concentration),
                  (spec.positive_rate_group1, spec.score_concentration)}
    return sorted(cases)


# a seeded grid of rates in (0.01, 0.99)
GRID_RATES = np.random.default_rng(20261018).uniform(0.01, 0.99, 12).tolist()


class FixedDraws:
    """A stand-in generator whose random(n) returns the given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, n):
        assert n == self.u.size
        return self.u.copy()


class TestCalibration:
    """The scipy.special calibration against the scipy.stats/optimize reference:
    equal bit for bit, not just close."""

    def assert_matches_oracle(self, rate, concentration, n=1000, seed=5):
        assert _beta_shape(rate, concentration) == beta_shape_oracle(rate, concentration)
        ours = _group_scores(np.random.default_rng(seed), n, rate, concentration)
        oracle = group_scores_oracle(np.random.default_rng(seed), n, rate, concentration)
        assert np.array_equal(ours, oracle)

    def test_bundled_rates_match_oracle(self):
        cases = bundled_calibrations()
        assert {rate for rate, _ in cases} == {0.5408, 0.1217}
        for rate, concentration in cases:
            self.assert_matches_oracle(rate, concentration, n=39780)

    @pytest.mark.parametrize("concentration", [0.5, 1.0, 2.0, 5.0, 20.0])
    def test_rate_grid_matches_oracle(self, concentration):
        for rate in GRID_RATES:
            self.assert_matches_oracle(rate, concentration)

    @pytest.mark.parametrize("rate,concentration", [(0.5408, 1.0), (0.1217, 1.0),
                                                    (0.03, 0.5), (0.9, 20.0),
                                                    (0.97, 1.0)])  # k = n: no draw below
    def test_inverse_cdf_edges_match_oracle(self, rate, concentration):
        # u = 0 puts the lowest draw of each side at its quantile edge: q = 0 below
        # the cutoff, q = P(X < 0.5) above it; the largest u < 1 takes q toward 1
        n = 8
        k = round(n * rate)  # the first k draws land above the cutoff
        edges = [0.0, 2.0 ** -53, 0.5, np.nextafter(1.0, 0.0)]
        u = np.concatenate([np.resize(edges, k), np.resize(edges, n - k)])
        ours = _group_scores(FixedDraws(u), n, rate, concentration)
        oracle = group_scores_oracle(FixedDraws(u), n, rate, concentration)
        assert np.array_equal(ours, oracle)
        assert np.count_nonzero(ours >= 0.5) == k
        if k < n:  # u = 0 below the cutoff draws the support's lower edge
            assert ours[k] == 0.0

    @pytest.mark.parametrize("rate", [0.999999999999, 1e-12])
    def test_unreachable_rate_names_rate_and_concentration(self, rate):
        with pytest.raises(ValidationError, match=rf"score_concentration 1\.0 to positive "
                                                  rf"rate {rate!r}: .* same sign"):
            generate_population(small_spec(positive_rate_group1=rate, score_concentration=1.0),
                                SEED)

    def test_non_convergence_names_rate_and_concentration(self, monkeypatch):
        monkeypatch.setattr(datagen, "_brentq", lambda *args, **kw: _brentq(*args, **kw,
                                                                            maxiter=3))
        with pytest.raises(ValidationError, match=r"score_concentration 2\.0 to positive "
                                                  r"rate 0\.541: no convergence in 3 "):
            generate_population(small_spec(score_concentration=2.0), SEED)


class TestThreadedInversion:
    """_group_scores inverts its quantiles in chunks on up to one thread per CPU; the
    CPU count must not move a bit, and no thread may outlive the call."""

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    @pytest.mark.parametrize("n_group0", [None, _MIN_CHUNK - 1, _MIN_CHUNK + 1, 2 * _MIN_CHUNK],
                             ids=["bundled", "below-min-chunk", "above-min-chunk",
                                  "two-min-chunks"])
    def test_bits_do_not_depend_on_the_cpu_count(self, monkeypatch, cpus, n_group0):
        # the bundled spec is 39,780 + 3,551 rows: group 0 splits into min(cpus, 9)
        # chunks and group 1 stays inline; 2 * _MIN_CHUNK is the smallest group that splits
        config = load_config(bundled_config_path("experiment_A.cfg"))
        spec, seed = config.population, population_seed(config)
        if n_group0 is not None:
            spec, seed = replace(spec, n_group0=n_group0), SEED
        monkeypatch.setattr(datagen, "_cpu_count", lambda: cpus)
        threads = threading.active_count()
        pop = generate_population(spec, seed)
        assert threading.active_count() == threads
        want = generate_population_exact_oracle(spec, seed)
        for name, column in zip(("id", "group", "score", "features"), want):
            assert np.array_equal(getattr(pop, name), column), name
            assert getattr(pop, name).dtype == column.dtype, name

    def test_cpu_count_reads_the_affinity_mask(self):
        cpus = datagen._cpu_count()
        assert 1 <= cpus <= (os.cpu_count() or 1)
        if hasattr(os, "sched_getaffinity"):
            assert cpus == len(os.sched_getaffinity(0))

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_special_function_error_raises_as_the_serial_call_does(self, monkeypatch, cpus):
        from scipy import special

        monkeypatch.setattr(datagen, "_cpu_count", lambda: cpus)
        # betaincinv underflows on many of these draws, in every chunk
        spec = small_spec(n_group0=4 * _MIN_CHUNK, score_concentration=0.01)
        with special.errstate(all="raise"), pytest.raises(special.SpecialFunctionError):
            generate_population(spec, SEED)
        # only the last quantile underflows, so at 4 CPUs only a helper thread's chunk
        # does: it must run under the caller's error state, which is thread-local
        n = 4 * _MIN_CHUNK
        u = np.full(n, 0.5)
        u[-1] = 1e-10
        threads = threading.active_count()
        with special.errstate(all="raise"), pytest.raises(special.SpecialFunctionError,
                                                          match="underflow"):
            _group_scores(FixedDraws(u), n, 0.5, 0.01)
        assert threading.active_count() == threads

    def test_helper_chunk_exception_reaches_the_caller(self, monkeypatch):
        from scipy import special

        betaincinv = special.betaincinv

        def failing_off_the_calling_thread(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("helper chunk failed")
            return betaincinv(*args, **kwargs)

        monkeypatch.setattr(special, "betaincinv", failing_off_the_calling_thread)
        monkeypatch.setattr(datagen, "_cpu_count", lambda: 2)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="helper chunk failed"):
            generate_population(small_spec(n_group0=2 * _MIN_CHUNK), SEED)
        assert threading.active_count() == threads


class TestBrentq:
    def test_zero_at_an_end_is_returned(self):
        assert _brentq(lambda x: x - 1.0, 1.0, 3.0, xtol=1e-13) == 1.0
        assert _brentq(lambda x: x - 3.0, 1.0, 3.0, xtol=1e-13) == 3.0

    @pytest.mark.parametrize("xtol", [0.1, 1e-2, 1e-6, 1e-13, 5e-324])
    def test_matches_scipy_brentq(self, xtol):
        # smooth, steep, flat-at-the-root and kinked functions, so the search takes
        # interpolation, extrapolation and bisection steps; (x - c) ** k is too flat
        # to converge in 100 iterations at the smaller tolerances
        from scipy import optimize

        rng = np.random.default_rng(17)
        functions = [lambda x, c=c: x ** 3 - c for c in rng.uniform(0.01, 0.99, 10)]
        functions += [lambda x, c=c: math.exp(c * x) - 2.0 for c in rng.uniform(0.5, 40, 10)]
        functions += [lambda x, c=c, k=k: (x - c) ** k for c in rng.uniform(0.1, 0.9, 10)
                      for k in (3, 9)]
        functions += [lambda x, c=c: math.atan(50.0 * (x - c)) + 1e-3 for c in
                      rng.uniform(0.1, 0.9, 10)]
        functions += [lambda x, c=c: math.copysign(abs(x - c) ** 0.5, x - c) for c in
                      rng.uniform(0.1, 0.9, 10)]
        converged = 0
        for f in functions:
            theirs, ours = [], []  # every point each search evaluates f at
            root, info = optimize.brentq(lambda x: theirs.append(x) or f(x), 0.0, 1.0,
                                         xtol=xtol, full_output=True, disp=False)
            if info.converged:
                assert _brentq(lambda x: ours.append(x) or f(x), 0.0, 1.0, xtol) == root
                converged += 1
            else:
                with pytest.raises(ValidationError, match="no convergence in 100 iterations"):
                    _brentq(lambda x: ours.append(x) or f(x), 0.0, 1.0, xtol)
            assert ours == theirs
        assert converged >= 40

    def test_matches_scipy_brentq_on_random_cubics(self):
        # tolerances of 0.01 to 0.3, where the tolerance term of the step test
        # (2 |step| < min(|previous step|, 3 |bisection step| - tolerance)) decides
        # between interpolation and bisection in about 1 search in 100
        from scipy import optimize

        rng = np.random.default_rng(29)
        coefs = rng.standard_normal((3000, 4))
        compared = 0
        for coef, xtol in zip(coefs, 10.0 ** rng.uniform(-2, -0.5, 3000)):
            f = np.polynomial.Polynomial(coef)
            if (f(0.0) > 0) == (f(1.0) > 0):
                continue
            theirs, ours = [], []
            root = optimize.brentq(lambda x: theirs.append(x) or float(f(x)), 0.0, 1.0,
                                   xtol=xtol)
            assert _brentq(lambda x: ours.append(x) or float(f(x)), 0.0, 1.0, xtol) == root
            assert ours == theirs
            compared += 1
        assert compared > 900

    def test_same_sign_raises(self):
        with pytest.raises(ValidationError, match="same sign"):
            _brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-13)

    def test_nan_raises(self):
        with pytest.raises(ValidationError, match="NaN"):
            _brentq(lambda x: math.nan if x > 0.5 else x - 0.75, 0.0, 1.0, xtol=1e-13)


class TestBaseDatasetA:
    def test_size_and_balance(self):
        pop = generate_population(small_spec(), SEED)
        base = make_base_dataset_A(pop, seed=7)
        assert len(base) == 12000
        frac1 = np.mean(base.group)
        assert abs(frac1 - 0.5) < 3 * math.sqrt(0.25 / len(base))

    def test_rates_balanced_after_reassignment(self):
        pop = generate_population(small_spec(), SEED)
        base = make_base_dataset_A(pop, seed=7)
        assert abs(positive_rate(base, 0) - positive_rate(base, 1)) < 0.02

    def test_scores_and_features_unchanged(self):
        pop = generate_population(small_spec(n_group0=400, n_group1=200), SEED)
        base = make_base_dataset_A(pop, seed=7)
        originals = pop.take(pop.group == 0)
        assert set(base.id.tolist()) == set(originals.id.tolist())
        position = {rid: i for i, rid in enumerate(originals.id.tolist())}
        for i, rid in enumerate(base.id.tolist()):
            assert base.score[i] == originals.score[position[rid]]
            assert np.array_equal(base.features[i], originals.features[position[rid]])

    def test_no_group0_errors(self):
        pop = make_population([1], [0.5])
        with pytest.raises(DegenerateDatasetError,
                           match="^population contains no group-0 records$"):
            make_base_dataset_A(pop, seed=1)

    def test_determinism(self):
        pop = generate_population(small_spec(n_group0=400, n_group1=200), SEED)
        assert same_population(make_base_dataset_A(pop, 9), make_base_dataset_A(pop, 9))


class TestBaseDatasetB:
    def test_identity(self):
        pop = generate_population(small_spec(n_group0=300, n_group1=200), SEED)
        assert same_population(make_base_dataset_B(pop), pop)

    def test_rates_preserved(self):
        spec = small_spec()
        pop = generate_population(spec, SEED)
        base = make_base_dataset_B(pop)
        assert positive_rate(base, 0) == pytest.approx(
            spec.positive_rate_group0, abs=0.01)
        assert positive_rate(base, 1) == pytest.approx(
            spec.positive_rate_group1, abs=0.01)

    def test_minimum_feature_dim_passes_through(self):
        pop = generate_population(small_spec(n_group0=50, n_group1=50, feature_dim=2), SEED)
        assert same_population(make_base_dataset_B(pop), pop)

    def test_empty_errors(self):
        with pytest.raises(ValidationError):
            make_base_dataset_B(make_population([], []))


class TestCsvExport:
    def test_roundtrip(self, tmp_path):
        pop = generate_population(small_spec(n_group0=60, n_group1=40), SEED)
        path = tmp_path / "pop.csv"
        write_population_csv(pop, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 100
        assert set(rows[0]) == {"id", "group", "score", "f0", "f1", "f2", "f3"}
        for i, row in enumerate(rows):
            assert int(row["id"]) == pop.id[i]
            assert int(row["group"]) == pop.group[i]
            assert float(row["score"]) == pytest.approx(pop.score[i], abs=1e-9)
            assert float(row["f0"]) == pytest.approx(pop.features[i, 0], abs=1e-9)

    @pytest.mark.parametrize("d", [2, 7])
    # one row short of, exactly on and one row past a chunk boundary, and a ragged tail
    @pytest.mark.parametrize("n", [8191, 8192, 8193, 16387])
    @pytest.mark.parametrize("labeled", [False, True])
    def test_bytes_match_oracle(self, tmp_path, labeled, n, d):
        assert 8192 % CHUNK == 0
        rng = np.random.default_rng(n + d)
        # magnitudes over 40 decades, so %.12g prints both fixed and exponent forms
        features = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-20, 21, size=(n, d))
        pop = Population(np.arange(n), rng.integers(0, 2, n), rng.random(n), features,
                         rng.integers(0, 2, n) if labeled else None)
        assert_bytes_match_oracle(pop, tmp_path)

    @pytest.mark.parametrize("labeled", [False, True])
    def test_no_feature_columns_match_oracle(self, tmp_path, labeled):
        pop = make_population([0, 1, 1], [0.25, 0.5, 0.75], np.zeros((3, 0)),
                              [1, 0, 1] if labeled else None)
        assert_bytes_match_oracle(pop, tmp_path)

    @pytest.mark.parametrize("labeled", [False, True])
    def test_edge_values_match_oracle(self, tmp_path, labeled):
        # signed zero, the smallest subnormal, both sides of the switch to exponent
        # notation, a tie at the 12th digit and a repeating fraction
        edges = [-0.0, 5e-324, 1e-5, 1e16, 123456789012.5, 1 / 3]
        n = len(edges)
        features = np.array([np.roll(edges, k) for k in range(n)])
        pop = Population([0, -1, 2**63 - 1, -2**63, 10**12, 7], [0, 1] * (n // 2),
                         [-0.0, 5e-324, 1e-5, 1 / 3, 0.5, 1.0],
                         np.hstack([features, -features]), [1, 0] * (n // 2) if labeled else None)
        assert_bytes_match_oracle(pop, tmp_path)

    def test_memory_does_not_grow_with_the_population(self, tmp_path):
        n = 100_000
        rng = np.random.default_rng(13)
        pop = Population(np.arange(n), rng.integers(0, 2, n), rng.random(n),
                         rng.standard_normal((n, 5)), rng.integers(0, 2, n))
        tracemalloc.start()
        try:
            write_labeled_csv(pop, tmp_path / "data.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one 1024-row chunk as lists and text is about 0.5 MB; 8192-row chunks take 4.2 MB
        assert peak < 1_000_000

    def test_empty_population_rejected(self, tmp_path):
        path = tmp_path / "pop.csv"
        with pytest.raises(ValidationError, match="empty population"):
            write_population_csv(make_population([], []), path)
        assert not path.exists()

    def test_labeled_writer_rejects_unlabeled_data(self, tmp_path):
        path = tmp_path / "data.csv"
        with pytest.raises(ValidationError, match="unlabeled"):
            write_labeled_csv(make_population([0, 1], [0.2, 0.8]), path)
        assert not path.exists()


def assert_bytes_match_oracle(pop, tmp_path):
    ours, oracle = tmp_path / "ours.csv", tmp_path / "oracle.csv"
    write_population_csv(pop, ours)
    write_population_csv_oracle(pop, oracle)
    assert ours.read_bytes() == oracle.read_bytes()
