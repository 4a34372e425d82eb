import dataclasses
import json

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import BAD_DATA_FILES
from dlnflow import (
    Initialization,
    ProblemInstance,
    RegressionData,
    from_data,
    generate_direct,
    generate_rejection,
    load_instance,
    loss,
    save_instance,
)
from dlnflow.cli import main
from dlnflow.limit_path import compute_path
from dlnflow.problem import (
    RECONSTRUCTION_RTOL,
    from_json_dict,
    generate,
    resolve_instance,
    to_json_dict,
    write_json,
)
from dlnflow.errors import (
    AssumptionViolated,
    DegenerateScale,
    DimensionMismatch,
    DomainError,
    NonFinite,
    NotKMatrix,
    RejectionBudgetExceeded,
    ValidationError,
)


class TestFromData:
    def test_identity_design(self):
        inst = from_data(RegressionData(X=[[1, 0], [0, 1], [0, 0]], y=[1, 1, 0]))
        np.testing.assert_array_equal(inst.M, np.eye(2))
        np.testing.assert_array_equal(inst.r, [1.0, 1.0])
        assert inst.data is not None

    def test_positively_correlated_features_rejected(self):
        # M_12 = <(1,0), (1,1)> = 1 > 0 violates anti-correlation.
        with pytest.raises(AssumptionViolated) as info:
            from_data(RegressionData(X=[[1, 1], [0, 1]], y=[1, 1]))
        assert info.value.assumption == "A2"
        assert (0, 1) in info.value.indices

    def test_hand_matrix_product(self):
        # Oracle: element-by-element products done by hand,
        #   M = [[1, -0.5], [-0.5, 1.25]],  r = (1, 0.125),
        # cross-checked against an independent einsum contraction.
        X = np.array([[1.0, -0.5], [0.0, 1.0]])
        y = np.array([1.0, 0.625])
        inst = from_data(RegressionData(X=X, y=y))
        np.testing.assert_allclose(inst.M, [[1.0, -0.5], [-0.5, 1.25]], atol=1e-15)
        np.testing.assert_allclose(inst.r, [1.0, 0.125], atol=1e-15)
        np.testing.assert_allclose(inst.M, np.einsum("ki,kj->ij", X, X), atol=0)
        np.testing.assert_allclose(inst.r, np.einsum("ki,k->i", X, y), atol=0)

    def test_zero_output_correlation_rejected(self):
        # Same design with y = (1, 0.5) drives r_2 to exactly 0, which the
        # strict positivity requirement must refuse.
        with pytest.raises(AssumptionViolated) as info:
            from_data(RegressionData(X=[[1.0, -0.5], [0.0, 1.0]], y=[1.0, 0.5]))
        assert info.value.assumption == "A1"
        assert 1 in info.value.indices

    def test_non_finite_rejected(self):
        with pytest.raises(NonFinite):
            RegressionData(X=[[1.0, np.nan]], y=[1.0])
        with pytest.raises(NonFinite):
            RegressionData(X=[[1.0, 2.0]], y=[np.inf])

    @pytest.mark.parametrize("X, y, message", [
        ([[1.0, 0.0], [0.0]], [1.0, 1.0], "X must be an array of numbers"),
        ([[1.0, "a"]], [1.0], "X must be an array of numbers"),
        ([[1.0, 0.0]], [1.0, 1.0], r"y must have shape \(1,\), got \(2,\)"),
    ])
    def test_ragged_or_non_numeric_rejected(self, X, y, message):
        with pytest.raises(DimensionMismatch, match=message):
            RegressionData(X=X, y=y)


class TestInstanceValidation:
    def test_asymmetric_rejected(self):
        with pytest.raises(ValidationError):
            ProblemInstance(M=[[1.0, -0.5], [-0.4, 1.0]], r=[1.0, 1.0])

    @pytest.mark.parametrize("scale", [1.0, 1e-200, 1e200])
    def test_symmetry_relative_to_max_m(self, scale):
        # An absolute floor once let this 10% asymmetry through at 1e-200.
        M = scale * np.array([[1.0, -0.1], [-0.2, 1.0]])
        with pytest.raises(NotKMatrix, match=r"asymmetry 1.000e-01 of max\|M\|"):
            ProblemInstance(M=M, r=[1.0, 1.0])
        M[1, 0] = M[0, 1]
        np.testing.assert_allclose(ProblemInstance(M=M, r=[1.0, 1.0]).minimizer(),
                                   np.full(2, 1.0 / (0.9 * scale)), rtol=1e-14)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            ProblemInstance(M=[[1.0, 0.0], [0.0, 1.0]], r=[1.0])

    @pytest.mark.parametrize("M, r, error", [
        ([[1.0, np.nan], [-1.0, 1.0]], [1.0, 1.0], NonFinite),
        ([[1.0, -0.5], [-0.5]], [1.0, 1.0], DimensionMismatch),
        (np.eye(2), "ab", DimensionMismatch),
        (None, [1.0, 1.0], DimensionMismatch),
    ])
    def test_malformed_arrays_rejected(self, M, r, error):
        with pytest.raises(error):
            ProblemInstance(M=M, r=r)

    def test_violations_name_plain_indices(self):
        with pytest.raises(AssumptionViolated) as info:
            ProblemInstance(M=[[1.0, 0.5], [0.5, 1.0]], r=[1.0, 1.0])
        assert str(info.value) == "A2 violated at indices [(0, 1), (1, 0)]"
        with pytest.raises(AssumptionViolated) as info:
            ProblemInstance(M=np.eye(2), r=[-1.0, 1.0])
        assert str(info.value) == "A1 violated at indices [0]"

    def test_instances_are_immutable(self, tridiag_instance):
        with pytest.raises(ValueError):
            tridiag_instance.M[0, 0] = 5.0


def _gen_then_load(tmp_path):
    path = tmp_path / "inst.json"
    result = CliRunner().invoke(main, ["gen", "--d", "5", "--seed", "3",
                                       "--out", str(path)])
    assert result.exit_code == 0
    return load_instance(path)


# Every way an instance with data is built; each certifies the data.
ROUTES = {
    "generate_direct": lambda tmp: generate_direct(d=5, seed=3)[0],
    "rejection spec": lambda tmp: generate(
        {"generator": "rejection", "n": 6, "d": 3, "seed": 1}),
    "from_data": lambda tmp: from_data(generate_rejection(n=6, d=3, seed=1)),
    "gen then load_instance": _gen_then_load,
}


class TestDataCertificate:
    """Construction certifies that the data an instance carries give its
    (M, r); every route goes through it."""

    @pytest.mark.parametrize("case", BAD_DATA_FILES)
    def test_inconsistent_file_rejected(self, case):
        obj, error, message = BAD_DATA_FILES[case]
        with pytest.raises(error, match=message):
            from_json_dict(obj)

    @pytest.mark.parametrize("scale", [1.0, 1e-200, 1e200])
    def test_relative_to_max_m_and_r(self, scale):
        # The direct generator's roundoff passes at every scale; a 1e-8
        # relative change of M or r does not, even where it is 1e-208.
        inst, data = generate_direct(d=4, seed=2)
        M, r = scale * inst.M, scale * inst.r
        scaled = RegressionData(X=np.sqrt(scale) * data.X, y=np.sqrt(scale) * data.y)
        assert ProblemInstance(M=M, r=r, data=scaled).data is scaled
        with pytest.raises(DomainError, match=r"do not reproduce M \(max residual"):
            ProblemInstance(M=M * (1.0 + 1e-8), r=r, data=scaled)
        with pytest.raises(DomainError, match=r"do not reproduce r \(max residual"):
            ProblemInstance(M=M, r=r * (1.0 + 1e-8), data=scaled)

    @pytest.mark.parametrize("route", ROUTES)
    def test_every_route_passes_unchanged(self, tmp_path, route):
        inst = ROUTES[route](tmp_path)
        X, y = inst.data.X, inst.data.y
        assert np.max(np.abs(X.T @ X - inst.M)) <= (
            RECONSTRUCTION_RTOL * np.max(np.abs(inst.M)))
        assert np.max(np.abs(X.T @ y - inst.r)) <= (
            RECONSTRUCTION_RTOL * np.max(np.abs(inst.r)))
        assert ProblemInstance(M=inst.M, r=inst.r, data=inst.data).data is inst.data
        if route == "gen then load_instance":
            direct = ROUTES["generate_direct"](tmp_path)
            for got, want in ((inst.M, direct.M), (inst.r, direct.r),
                              (X, direct.data.X), (y, direct.data.y)):
                np.testing.assert_array_equal(got, want)


# Symmetric, A1 and A2 hold, but M is not positive definite.
SINGULAR = {"M": [[1.0, -1.0], [-1.0, 1.0]], "r": [1.0, 1.0]}
INDEFINITE = {"M": [[1.0, -2.0], [-2.0, 1.0]], "r": [1.0, 1.0]}


class TestPositiveDefiniteCheck:
    """Construction certifies M as a K-matrix by one Cholesky factor."""

    def test_identity(self):
        inst = ProblemInstance(M=np.eye(2), r=[1, 1])
        np.testing.assert_array_equal(inst.minimizer(), [1.0, 1.0])

    def test_tridiagonal(self, tridiag_instance):
        # M^{-1} = [[2, 1], [1, 2]] / 3, so M^{-1} r = (1, 1) and the
        # columns of M^{-1} solve M x = e_i.
        np.testing.assert_allclose(tridiag_instance.minimizer(), [1.0, 1.0],
                                   atol=1e-15)
        np.testing.assert_allclose(tridiag_instance.solve(np.eye(2)),
                                   [[2 / 3, 1 / 3], [1 / 3, 2 / 3]], atol=1e-15)

    def test_singular_matrix_raises(self, tmp_path):
        # Both matrices pass symmetry, A1 and A2 on every construction path.
        path = tmp_path / "inst.json"
        for obj in (SINGULAR, INDEFINITE):
            with pytest.raises(NotKMatrix, match="not positive definite"):
                ProblemInstance(M=obj["M"], r=obj["r"])
            with pytest.raises(NotKMatrix):
                from_json_dict(obj)
            path.write_text(json.dumps(obj))
            with pytest.raises(NotKMatrix):
                load_instance(path)

    def test_holds_on_random_valid_instances(self):
        # When r = X'y, A1 and A2 force definiteness; spot-check the
        # generators against an independent eigenvalue computation.
        for seed in range(25):
            inst, _ = generate_direct(d=2 + seed % 5, seed=seed)
            assert np.linalg.eigvalsh(inst.M)[0] > 0
        for seed in range(10):
            inst = from_data(generate_rejection(n=4, d=2, seed=seed))
            assert np.linalg.eigvalsh(inst.M)[0] > 0

    def test_factor_is_not_part_of_the_value(self, tridiag_instance):
        assert "_factor" not in repr(tridiag_instance)
        assert set(to_json_dict(tridiag_instance)) == {"M", "r", "meta"}
        again = dataclasses.replace(tridiag_instance, meta={"tag": 1})
        np.testing.assert_array_equal(again.minimizer(),
                                      tridiag_instance.minimizer())
        with pytest.raises(ValueError):
            tridiag_instance.minimizer()[0] = 5.0


class TestGenerateRejection:
    def test_deterministic(self):
        a = generate_rejection(n=3, d=2, seed=7)
        b = generate_rejection(n=3, d=2, seed=7)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)

    def test_fig2_regime(self):
        data = generate_rejection(n=5, d=4, seed=0)
        inst = from_data(data)
        assert inst.d == 4
        assert np.all(inst.r > 0)
        off = inst.M - np.diag(np.diag(inst.M))
        assert np.all(off <= 0)

    def test_budget_exceeded_in_infeasible_regime(self):
        # With n < d the covariance is singular, so A1 and A2 can never both
        # hold and every attempt is rejected.
        with pytest.raises(RejectionBudgetExceeded) as info:
            generate_rejection(n=3, d=12, seed=1, max_attempts=50)
        assert info.value.attempts == 50

    def test_budget_attempts_bounded(self):
        with pytest.raises(RejectionBudgetExceeded):
            generate_rejection(n=6, d=6, seed=1, max_attempts=1)


class TestGenerateDirect:
    def test_scalar(self):
        inst, data = generate_direct(d=1, seed=0)
        m, r = inst.M[0, 0], inst.r[0]
        assert m > 0 and r > 0
        assert data.X[0, 0] == pytest.approx(np.sqrt(m))
        assert data.y[0] == pytest.approx(r / np.sqrt(m))

    def test_diagonal_reconstruction_exact(self):
        inst, data = generate_direct(d=2, seed=3, offdiag_scale=0.0)
        assert inst.M[0, 1] == 0.0
        np.testing.assert_allclose(data.X.T @ data.X, inst.M, atol=1e-14)
        np.testing.assert_allclose(data.X.T @ data.y, inst.r, atol=1e-14)

    def test_reconstruction_residual(self):
        inst, data = generate_direct(d=6, seed=3)
        m_err = np.max(np.abs(data.X.T @ data.X - inst.M))
        r_err = np.max(np.abs(data.X.T @ data.y - inst.r))
        assert m_err <= 1e-10 * np.max(np.abs(inst.M))
        assert r_err <= 1e-10 * np.max(np.abs(inst.r))

    def test_deterministic(self):
        a, _ = generate_direct(d=4, seed=11)
        b, _ = generate_direct(d=4, seed=11)
        np.testing.assert_array_equal(a.M, b.M)
        np.testing.assert_array_equal(a.r, b.r)

    def test_degenerate_scale(self):
        with pytest.raises(DegenerateScale):
            generate_direct(d=8, seed=0, offdiag_scale=5.0)

    @pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf, -1.0])
    def test_scale_must_be_finite_and_nonnegative(self, scale):
        # A NaN scale once surfaced as "X contains non-finite entries".
        with pytest.raises(DegenerateScale, match="offdiag_scale must be finite"):
            generate_direct(d=3, seed=1, offdiag_scale=scale)

    def test_assumptions_hold_across_seeds(self):
        for seed in range(20):
            inst, _ = generate_direct(d=5, seed=seed)
            assert np.all(inst.r > 0)
            off = inst.M - np.diag(np.diag(inst.M))
            assert np.all(off <= 0)


class TestLoss:
    # The gradient of the loss is M theta - r.
    def test_gradient_at_zero(self, tridiag_instance):
        # At theta = 0 the gradient is -r.
        inst = tridiag_instance
        step = 1e-6
        for i in range(2):
            e = np.zeros(2)
            e[i] = step
            fd = (loss(inst, e) - loss(inst, -e)) / (2 * step)
            assert fd == pytest.approx(-inst.r[i], rel=1e-6, abs=1e-8)

    def test_minimizer_has_zero_gradient(self, separable_instance):
        theta = np.array([2.0, 1.0])
        np.testing.assert_allclose(
            separable_instance.M @ theta - separable_instance.r, [0.0, 0.0],
            atol=1e-14
        )
        base = loss(separable_instance, theta)
        for delta in np.eye(2):
            assert loss(separable_instance, theta + 0.1 * delta) > base
            assert loss(separable_instance, theta - 0.1 * delta) > base

    def test_gradient_matches_central_differences(self, rng):
        inst, _ = generate_direct(d=5, seed=42)
        theta = rng.uniform(0.1, 2.0, size=5)
        grad = inst.M @ theta - inst.r
        step = 1e-6
        for i in range(5):
            e = np.zeros(5)
            e[i] = step
            fd = (loss(inst, theta + e) - loss(inst, theta - e)) / (2 * step)
            assert fd == pytest.approx(grad[i], rel=1e-6, abs=1e-8)

    def test_offset_only_with_provenance(self):
        inst_with, data = generate_direct(d=3, seed=5)
        inst_without = ProblemInstance(M=inst_with.M, r=inst_with.r)
        assert inst_with.data is data and inst_without.data is None
        theta = np.full(3, 0.2)
        offset = 0.5 * float(data.y @ data.y)
        assert loss(inst_with, theta) == pytest.approx(
            loss(inst_without, theta) + offset
        )

    def test_batched_matches_rows(self, rng):
        inst, data = generate_direct(d=4, seed=8)
        theta = rng.uniform(0.0, 2.0, size=(3, 5, 4))
        values = loss(inst, theta)
        assert values.shape == (3, 5)
        offset = 0.5 * float(data.y @ data.y)
        for idx in np.ndindex(3, 5):
            th = theta[idx]
            expected = -float(inst.r @ th) + 0.5 * float(th @ inst.M @ th) + offset
            assert values[idx] == pytest.approx(expected, rel=1e-13, abs=1e-13)
        assert isinstance(loss(inst, theta[0, 0]), float)

    @pytest.mark.parametrize("shape", [(), (3,), (2, 5)])
    def test_wrong_last_dimension(self, tridiag_instance, shape):
        with pytest.raises(DimensionMismatch):
            loss(tridiag_instance, np.zeros(shape))


class TestInitialization:
    def test_valid(self):
        init = Initialization(C=[1.0, 2.0], k=[1.0, 0.5], epsilon=1e-8)
        assert init.log_epsilon == pytest.approx(np.log(1e-8))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(C=[0.0, 1.0], k=[1.0, 1.0], epsilon=0.1),
            dict(C=[1.0, 1.0], k=[-1.0, 1.0], epsilon=0.1),
            dict(C=[1.0, 1.0], k=[1.0, 1.0], epsilon=0.0),
            dict(C=[1.0, 1.0], k=[1.0, 1.0], epsilon=1.0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(DomainError):
            Initialization(**kwargs)

    def test_w0_is_k_plus_log_C_over_log_epsilon(self):
        # theta(0) = C eps^k, so w(0) = log(theta(0)) / log(eps).
        init = Initialization(C=[2.0, 0.5], k=[1.0, 1.5], epsilon=1e-10)
        np.testing.assert_array_equal(
            init.w0, np.array([1.0, 1.5]) + np.log([2.0, 0.5]) / np.log(1e-10))
        unit = Initialization(C=[1.0, 1.0], k=[1.0, 1.5], epsilon=1e-10)
        np.testing.assert_array_equal(unit.w0, [1.0, 1.5])

    @pytest.mark.parametrize("k", [[0.0, 1.0], [1.0, -2.0]])
    def test_k_rule_shared_with_the_limit_path(self, tridiag_instance, k):
        for build in (lambda: Initialization(C=[1.0, 1.0], k=k, epsilon=0.1),
                      lambda: compute_path(tridiag_instance, k)):
            with pytest.raises(DomainError, match="^k must be strictly positive$"):
                build()


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        inst, _ = generate_direct(d=3, seed=9)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        again = load_instance(path)
        for got, want in ((again.M, inst.M), (again.r, inst.r),
                          (again.data.X, inst.data.X), (again.data.y, inst.data.y)):
            np.testing.assert_array_equal(got, want)
        assert again.meta["seed"] == 9

    def test_files_are_compact_json(self, tmp_path):
        obj = to_json_dict(generate_direct(d=3, seed=9)[0])
        path = write_json(tmp_path / "inst.json", obj)
        assert path.read_text() == json.dumps(obj)

    def test_schema_fields(self, tmp_path):
        inst, _ = generate_direct(d=2, seed=1)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        obj = json.loads(path.read_text())
        assert set(obj) == {"M", "r", "X", "y", "meta"}
        assert obj["meta"]["generator"] == "direct"

    def test_invalid_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"M": [[1.0, 0.5], [0.5, 1.0]], "r": [1, 1]}))
        with pytest.raises(AssumptionViolated):
            load_instance(path)


class TestGenerateSpec:
    @pytest.mark.parametrize("spec", [
        {"generator": "direct", "d": "3", "seed": 1},
        {"generator": "direct", "d": 3.0, "seed": 1},
        {"generator": "direct", "d": 3, "seed": True},
        {"generator": "direct", "d": 3, "seed": -1},
        {"generator": "direct", "d": 3, "seed": 1, "offdiag_scale": "0.1"},
        {"generator": "rejection", "n": 3, "d": 2, "seed": 1, "max_attempts": None},
    ])
    def test_wrong_types_rejected(self, spec):
        with pytest.raises(DomainError, match="generator spec: bad "):
            generate(spec)

    @pytest.mark.parametrize("budget", [0, -5])
    def test_nonpositive_rejection_budget_rejected(self, budget):
        spec = {"generator": "rejection", "n": 3, "d": 2, "seed": 7,
                "max_attempts": budget}
        with pytest.raises(DomainError, match="max_attempts must be at least 1"):
            generate(spec)

    @pytest.mark.parametrize("scale", [None, 0, 0.1])
    def test_offdiag_scale_may_be_any_number_or_absent(self, scale):
        spec = {"generator": "direct", "d": 3, "seed": 1, "offdiag_scale": scale}
        assert generate(spec).d == 3


class TestResolveInstance:
    """An experiment's instance is a path or a generator spec."""

    def test_path(self, tmp_path):
        inst, _ = generate_direct(d=2, seed=4)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        np.testing.assert_allclose(resolve_instance(str(path)).M, inst.M)

    @pytest.mark.parametrize("spec", [
        {"generator": "direct", "d": 3, "seed": 2},
        {"generator": "rejection", "n": 4, "d": 2, "seed": 3},
    ])
    def test_spec(self, spec):
        inst = resolve_instance(spec)
        assert inst.d == spec["d"]
        assert inst.meta["generator"] == spec["generator"]
        assert inst.data is not None

    @pytest.mark.parametrize("source", [7, None, ["x.json"]])
    def test_neither_path_nor_spec(self, source):
        with pytest.raises(DomainError, match="neither a path nor a spec"):
            resolve_instance(source)
