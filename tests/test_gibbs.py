import ast
import importlib
import inspect
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import risklab.datasets
import risklab.gibbs
import risklab.mcmc
import risklab.perceptron
import risklab.replica
from risklab import (
    GaussianClassSpec,
    PowerLawEntropy,
    TrainingRatioModel,
    annealed_mu,
    estimate_local_exponent,
    gibbs_risk_integral,
    gibbs_risk_saddle,
    growth_exponent,
    risk_entropy,
)
from risklab.errors import BracketError, DomainError, FitError


def perceptron_s_prime(spec, h=1e-7):
    def s_prime(r):
        return (risk_entropy(r + h, spec) - risk_entropy(r - h, spec)) / (2 * h)

    return s_prime


class TestAnnealedMu:
    def test_zero_risk_is_free(self):
        for m in (0, 1, 10, 10**6):
            assert annealed_mu(m).mu(0.0) == 0.0

    def test_value_at_half(self):
        assert annealed_mu(12).mu(0.5) == pytest.approx(-12 * math.log(2), rel=1e-14)

    def test_exponential_matches_survival_power(self):
        model = annealed_mu(37)
        for r in (0.0, 0.1, 0.5, 0.9):
            assert math.exp(model.mu(r)) == pytest.approx((1 - r) ** 37, rel=1e-12)

    def test_analytic_derivative(self):
        model = annealed_mu(40)
        assert model.mu_prime(0.25) == pytest.approx(-40 / 0.75, rel=1e-12)


class TestGibbsRiskSaddle:
    @pytest.mark.parametrize("a", [1.0, 10.0, 100.0])
    @pytest.mark.parametrize("m", [10, 1000, 100000])
    @pytest.mark.parametrize("r_min", [0.0, 0.05, 0.2])
    def test_power_law_closed_form(self, a, m, r_min):
        # symbolic solution of a/(r - r_min) = m/(1 - r)
        entropy = PowerLawEntropy(a=a, r_min=r_min)
        expected = r_min + a * (1 - r_min) / (a + m)
        got = gibbs_risk_saddle(entropy.s_prime, annealed_mu(m), (r_min + 1e-12, 1 - 1e-9))
        assert got == pytest.approx(expected, abs=1e-10)

    def test_symmetric_special_case(self):
        entropy = PowerLawEntropy(a=50.0, r_min=0.0)
        got = gibbs_risk_saddle(entropy.s_prime, annealed_mu(50), (1e-12, 1 - 1e-9))
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_perceptron_entropy_matches_grid_argmax(self):
        spec = GaussianClassSpec(20, 2.0)
        m = 200
        model = annealed_mu(m)
        saddle = gibbs_risk_saddle(
            perceptron_s_prime(spec), model, (spec.r_min + 1e-6, 0.499)
        )
        grid = np.linspace(spec.r_min + 1e-6, 0.499, 20001)
        objective = np.array([risk_entropy(r, spec) + model.mu(r) for r in grid])
        cell = grid[1] - grid[0]
        assert abs(saddle - grid[int(np.argmax(objective))]) <= cell

    def test_constant_shift_of_entropy_is_irrelevant(self):
        # the step is large enough that adding 1e6 cannot poison the difference
        spec = GaussianClassSpec(30, 2.0)

        def shifted_prime(r, h=1e-4):
            s = lambda x: risk_entropy(x, spec) + 1e6
            return (s(r + h) - s(r - h)) / (2 * h)

        bracket = (spec.r_min + 1e-3, 0.499)
        base = gibbs_risk_saddle(perceptron_s_prime(spec, h=1e-4), annealed_mu(100), bracket)
        shifted = gibbs_risk_saddle(shifted_prime, annealed_mu(100), bracket)
        assert shifted == pytest.approx(base, abs=1e-8)

    def test_non_increasing_in_sample_count(self):
        spec = GaussianClassSpec(20, 2.0)
        bracket = (spec.r_min + 1e-6, 0.499)
        risks = [
            gibbs_risk_saddle(perceptron_s_prime(spec), annealed_mu(m), bracket)
            for m in (10, 30, 100, 300, 1000)
        ]
        assert all(r2 < r1 for r1, r2 in zip(risks, risks[1:]))

    def test_no_sign_change_raises(self):
        entropy = PowerLawEntropy(a=5.0, r_min=0.0)
        with pytest.raises(BracketError):
            gibbs_risk_saddle(entropy.s_prime, annealed_mu(10), (0.9, 0.99))


class TestGibbsRiskIntegral:
    def test_no_data_recovers_mean_risk(self):
        spec = GaussianClassSpec(20, 2.0)
        val = gibbs_risk_integral(lambda r: risk_entropy(r, spec), annealed_mu(0))
        assert val == pytest.approx(0.5, abs=1e-6)

    def test_flat_entropy_single_example(self):
        val = gibbs_risk_integral(lambda r: 0.0, annealed_mu(1))
        assert val == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_approaches_saddle_for_many_examples(self):
        spec = GaussianClassSpec(50, 2.0)
        m = 10_000
        integral = gibbs_risk_integral(lambda r: risk_entropy(r, spec), annealed_mu(m))
        saddle = gibbs_risk_saddle(
            perceptron_s_prime(spec), annealed_mu(m), (spec.r_min + 1e-6, 0.499)
        )
        assert abs(integral - saddle) <= 1e-3

    def test_noise_path_enters_through_sigma(self):
        flat = lambda r: 0.0
        model = annealed_mu(1)
        bumpy = type(model)(mu=model.mu, sigma2=lambda r: 4.0, mu_prime=model.mu_prime)
        base = gibbs_risk_integral(flat, model)
        # chi tilts weight toward high risk; with sigma = 2 the mean must move up
        tilted = gibbs_risk_integral(flat, bumpy, chi=lambda r: r)
        assert tilted > base


class TestGrowthExponent:
    def test_single_linear_direction(self):
        assert growth_exponent(1, 0) == 0.0

    def test_two_quadratic_directions(self):
        assert growth_exponent(0, 2) == 0.0

    def test_mixed(self):
        assert growth_exponent(2, 4) == 3.0

    @given(d1=st.integers(0, 50), d2=st.integers(0, 50))
    def test_relation_to_fourier_decay(self, d1, d2):
        assert growth_exponent(d1, d2) + 1 == pytest.approx(d1 + d2 / 2)

    def test_rejects_negative_counts(self):
        with pytest.raises(DomainError):
            growth_exponent(-1, 2)


class TestEstimateLocalExponent:
    def test_synthetic_quadratic_density(self):
        # oracle: inverse-CDF sampling from density ∝ (r - 0.1)^2 exactly
        rng = np.random.default_rng(5)
        samples = 0.1 + 0.2 * rng.random(1_000_000) ** (1.0 / 3.0)
        slope, stderr = estimate_local_exponent(samples, r_min=0.1, window=(0.1, 0.3))
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_uniform_density_is_flat(self):
        rng = np.random.default_rng(6)
        samples = 0.1 + 0.2 * rng.random(1_000_000)
        slope, stderr = estimate_local_exponent(samples, r_min=0.1, window=(0.1, 0.3))
        assert slope == pytest.approx(0.0, abs=0.1)

    def test_sphere_direction_risks(self):
        # consistency with the (p-3)/2 density exponent at p = 7
        from scipy.special import ndtr

        rng = np.random.default_rng(777)
        x = rng.standard_normal((4_000_000, 7))
        risks = ndtr(-x[:, 0] / np.linalg.norm(x, axis=1))
        r_min = float(ndtr(-1.0))
        slope, stderr = estimate_local_exponent(
            risks, r_min=r_min, window=(r_min, r_min + 1.5e-2)
        )
        assert slope == pytest.approx(2.0, abs=0.3)

    def test_too_few_samples_rejected(self):
        with pytest.raises(FitError):
            estimate_local_exponent(np.linspace(0.11, 0.2, 50), 0.1, (0.1, 0.3))

    def test_empty_bins_reported(self):
        clumped = np.concatenate([np.full(200, 0.11), np.full(200, 0.29)])
        with pytest.raises(FitError, match="empty bins"):
            estimate_local_exponent(clumped, 0.1, (0.1, 0.3))


def test_single_valued_settings_are_not_parameters():
    # settings no caller varied are module constants; the code only they reached is gone
    removed = {
        risklab.gibbs.gibbs_risk_integral: {"grid_points"},
        risklab.gibbs.estimate_local_exponent: {"num_bins", "lower_quantile"},
        risklab.perceptron.boltzmann_risk_exact: {"rel_tol"},
        risklab.replica.solve_saddle: {"residual_tol"},
        risklab.mcmc._burn_in: {"target", "rounds", "probe", "window"},
        risklab.perceptron.GaussianClassSpec: {"t"},
        risklab.datasets.dataset_from_csv: {"class_count"},
        risklab.datasets.load_idx: {"class_count"},
        risklab.datasets.LabelledDataset: {"class_count"},
    }
    for fn, names in removed.items():
        assert not names & set(inspect.signature(fn).parameters), fn.__qualname__
    with pytest.raises(TypeError):
        GaussianClassSpec(3, 1.0, t=np.array([0.0, 1.0, 0.0]))
    assert not hasattr(GaussianClassSpec(3, 1.0), "t")  # the target is e₁ by definition
    # mu_prime has no default any more
    assert inspect.signature(TrainingRatioModel).parameters["mu_prime"].default is inspect.Parameter.empty
    assert not hasattr(TrainingRatioModel, "mu_derivative")
    with pytest.raises(TypeError):
        TrainingRatioModel(mu=lambda r: 0.0)


# Exported names whose only callers are tests until the ROADMAP item named beside them lands.
_AWAITING_A_CALLER = {
    "risk_density": "ROADMAP items 1 and 3",
    "growth_exponent": "ROADMAP item 3",
    "mu_per_example": "ROADMAP item 4",
    "entropy_rq": "ROADMAP item 4",
    "estimate_local_exponent": "ROADMAP item 5",
    "PowerLawEntropy": "the test reference of criterion 5",
}


def _code_references(tree):
    """Names a module's code refers to, leaving out each top-level definition's own name in its body."""
    found = set()

    def visit(node, own):
        if isinstance(node, ast.Name) and node.id != own:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr != own:
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    for node in tree.body:
        own = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
        visit(node, own)
    return found


def test_every_exported_name_has_a_caller():
    root = pathlib.Path(__file__).resolve().parent.parent
    package = root / "src" / "risklab"
    modules = [path for path in package.glob("*.py") if path.name != "__init__.py"]
    sources = modules + sorted((root / "scripts").glob("*.py")) + sorted((root / "perfbench").glob("*.py"))
    referenced = set()
    for path in sources:
        referenced |= _code_references(ast.parse(path.read_text(), str(path)))
    exported = set()
    for path in modules:
        exported.update(getattr(importlib.import_module(f"risklab.{path.stem}"), "__all__", ()))
    uncalled = sorted(exported - referenced)
    assert uncalled == sorted(_AWAITING_A_CALLER)


def test_package_exports_every_module_all():
    # risklab/__init__.py re-exports each library module's __all__ and names nothing itself
    modules = ("perceptron", "replica", "gibbs", "predictors", "datasets", "mcmc", "workers",
               "reconstruction", "sweeps")
    exported = set()
    for name in modules:
        exported.update(importlib.import_module(f"risklab.{name}").__all__)
    package = importlib.import_module("risklab")
    public = {name for name, value in vars(package).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == exported
