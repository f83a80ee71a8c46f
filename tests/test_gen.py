"""Seeded instance generation: determinism, validity, the fixed draw protocol."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from eqprice import gen
from eqprice.cli import trial_seed
from eqprice.gen import GenConfig, generate, max_utility, pd_from_factor, random_instance
from eqprice.model import min_eigenvalue, validate_instance

README = Path(__file__).resolve().parent.parent / "README.md"


class _FixedFactorRng:
    """Stub generator returning queued factors, for exercising the product."""

    def __init__(self, *factors):
        self.queue = [np.asarray(f, dtype=float) for f in factors]

    def uniform(self, low, high, size=None):
        return self.queue.pop(0)


class TestPdFromFactor:
    # The eigenvalue floor is GenConfig.min_factor_eig = 2.
    def test_scalar_product(self):
        out, rejected = pd_from_factor(1, _FixedFactorRng([[2.0]]))
        np.testing.assert_array_equal(out, [[4.0]])
        assert rejected == 0

    def test_identity_factor(self):
        # The identity factor scaled by 2, so that F'F reaches the floor.
        out, rejected = pd_from_factor(2, _FixedFactorRng(2.0 * np.eye(2)))
        np.testing.assert_array_equal(out, 4.0 * np.eye(2))
        assert rejected == 0

    def test_redraw_below_floor(self):
        # The identity factor gives F'F = I, below the floor; 2 I is accepted.
        out, rejected = pd_from_factor(2, _FixedFactorRng(np.eye(2), 2.0 * np.eye(2)))
        np.testing.assert_array_equal(out, 4.0 * np.eye(2))
        assert rejected == 1

    def test_output_symmetric_positive_definite(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 7))
            out, _ = pd_from_factor(n, rng)
            assert np.max(np.abs(out - out.T)) <= 1e-12
            assert min_eigenvalue(out) >= 2.0


class TestRandomInstance:
    def test_seed_determinism(self):
        cfg = GenConfig(n=5, m=3, seed=42)
        a = random_instance(cfg)
        b = random_instance(cfg)
        for field in ("C", "B", "l"):
            np.testing.assert_array_equal(
                getattr(a.costs, field), getattr(b.costs, field)
            )
        np.testing.assert_array_equal(a.feasible.A, b.feasible.A)
        np.testing.assert_array_equal(a.feasible.b, b.feasible.b)
        np.testing.assert_array_equal(a.p0, b.p0)
        assert a.costs.M == b.costs.M

    def test_different_seeds_differ(self):
        a = random_instance(GenConfig(n=5, m=3, seed=1))
        b = random_instance(GenConfig(n=5, m=3, seed=2))
        assert not np.array_equal(a.costs.C, b.costs.C)

    def test_zero_feasible_and_demand_reachable(self):
        g = generate(GenConfig(n=6, m=4, seed=9))
        inst = g.instance
        assert np.all(inst.feasible.b > 0.0)
        assert inst.costs.M > 0.0
        assert inst.costs.M < g.max_utility
        assert np.all(inst.costs.l > 0.0)

    def test_box_domain_contains_p0(self):
        inst = random_instance(GenConfig(n=4, m=2, seed=3, domain_kind="box"))
        assert inst.domain.kind == "box"
        assert inst.domain.contains(inst.p0)
        assert not inst.p0_projected

    def test_validation_passes_in_bulk(self):
        # ``generate`` does not run ``validate_instance``: the checks it skips
        # hold by construction, so every report here is clean.  mu_F is
        # positive, and A > 0 bounds X.
        configs = [GenConfig(n=10, m=8, seed=seed) for seed in range(100)]
        configs += [GenConfig(n=30, m=20, seed=seed) for seed in range(20)]
        configs += [GenConfig(n=10, m=8, seed=seed, domain_kind="box") for seed in range(20)]
        for config in configs:
            inst = random_instance(config)
            assert validate_instance(inst) == []
            assert inst.constants.mu_F > 0.0
            assert np.all(inst.feasible.A > 0.0)

    def test_config_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            GenConfig(n=0, m=1)

    @pytest.mark.parametrize("kind", ["Box", "simplex", ""])
    def test_config_rejects_unknown_domain_kind(self, kind):
        with pytest.raises(ValueError, match="domain_kind"):
            GenConfig(n=3, m=2, domain_kind=kind)


class TestFixedProtocol:
    """The draw protocol is fixed: the README lists the GenConfig constants."""

    @staticmethod
    def _readme_protocol() -> str:
        text = README.read_text()
        start = text.index("## Benchmark protocol")
        return text[start : text.index("\n## ", start + 1)]

    def test_constants_match_readme(self):
        section = self._readme_protocol()
        assert GenConfig.factor_range == (-10.0, 10.0)
        assert "cost factors uniform in `[-10, 10]`" in section
        assert GenConfig.min_factor_eig == 2.0
        assert "eigenvalue of `F'F` reaches 2.0" in section
        assert GenConfig.constraint_range == (0.0, 20.0)
        assert "`A`, `b` entries uniform in `(0, 20)`" in section
        assert GenConfig.p0_range == (0.0, 100.0)
        assert "`p0` uniform in `[0, 100]`" in section
        assert GenConfig.utility_range == (0.0, 10.0)
        assert "`l` uniform in `(0, 10]`" in section
        assert GenConfig.floor_fraction == 0.9
        assert "floor `M` at 0.9 of the" in section
        assert GenConfig.box_range == (0.0, 100.0)
        assert "box domain `[0, 100]^n`" in section

    def test_protocol_values_are_not_settable(self):
        with pytest.raises(TypeError):
            GenConfig(n=3, m=2, p0_range=(0, 1))


def _generated_digest(g) -> str:
    """sha256 over an instance's drawn data, M, redraw counts and attempts."""
    inst = g.instance
    h = hashlib.sha256()
    for arr in (inst.costs.C, inst.costs.B, inst.costs.l, inst.feasible.A, inst.feasible.b, inst.p0):
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    h.update(repr(inst.costs.M).encode())
    h.update(repr(sorted(g.redraws.items())).encode())
    h.update(repr(g.attempts).encode())
    return h.hexdigest()


class TestGeneratedBits:
    """Generated instances are pinned bit for bit.

    The digests were recorded with an eigenvalue test on every factor draw
    and ``validate_instance`` on every attempt; the Cholesky screen and the
    by-construction checks must reproduce them exactly.  They are IEEE
    bits, so a BLAS that rounds ``F'F`` differently would change them.
    """

    @pytest.mark.parametrize(
        "n, m, domain_kind, digest",
        [
            (5, 3, "orthant", "7970fe92e010431866a13f5f4a5c08cccc24d30f9bfa996deac91022c04348be"),
            (30, 20, "orthant", "6077d36f6af5b97a9cc2206b1a134b7979ae6292d1b4ff25842e36a2dac61b1a"),
            (50, 30, "orthant", "07f958c8e5f9d502c5e4ec8d6cbfbbd3b602f7618853c82baa3211047bd28bf5"),
            (20, 10, "box", "8629226a37351c91a4e45acab12f1cf9219b9b3e17489e9b9a0f78707ca7a646"),
        ],
    )
    def test_bench_trial_instance_is_pinned(self, n, m, domain_kind, digest):
        config = GenConfig(n=n, m=m, domain_kind=domain_kind, seed=trial_seed(42, n, m, 0))
        assert _generated_digest(generate(config)) == digest

    def test_explicit_eta_retries_are_pinned(self):
        # eta at 1.05 times the admissible maximum 2 mu_F of the seed's
        # default draw: that attempt fails the eta range check, and later
        # attempts (fresh streams) succeed once their mu_F is large enough.
        attempts = []
        for seed in range(6):
            mu_f = generate(GenConfig(n=5, m=3, seed=seed)).instance.constants.mu_F
            attempts.append(generate(GenConfig(n=5, m=3, seed=seed, eta=1.05 * 2.0 * mu_f)).attempts)
        assert attempts == [5, 2, 6, 2, 67, 5]

    def test_exhausted_attempts_keep_last_report(self):
        # An eta no draw can admit fails all 100 attempts on the eta check.
        with pytest.raises(gen.GenerationFailed) as failed:
            generate(GenConfig(n=2, m=1, seed=0, eta=1e9))
        assert str(failed.value) == (
            "100 attempts exhausted; last report: [ValidationIssue(code='EtaOutOfRange', "
            "message='eta = 1e+09 outside (0, 120.927]', severity='warning')]"
        )


class TestFloorScreen:
    """The shifted-Cholesky screen never rejects a draw the eigenvalue test accepts."""

    FLOOR = 2.0

    @pytest.mark.parametrize("n", [1, 2, 5, 10, 30])
    def test_random_draws(self, n, rng):
        screened = 0
        for _ in range(2000):
            factor = rng.uniform(-10.0, 10.0, size=(n, n))
            drawn = factor.T @ factor
            kept = drawn.copy()
            product = 0.5 * (drawn + drawn.T)
            accepted = min_eigenvalue(product) >= self.FLOOR
            # pd_from_factor screens the product as drawn, before symmetrizing.
            for candidate in (drawn, product):
                below = gen._below_floor(candidate, self.FLOOR)
                assert not (below and accepted)
            np.testing.assert_array_equal(drawn, kept)  # the screen works on a copy
            screened += below
        assert screened > 0  # the screen does reject draws

    @pytest.mark.parametrize("n", [1, 2, 5, 10, 30])
    def test_spectra_at_the_floor(self, n, rng):
        # Smallest eigenvalue at the floor plus a tiny offset, the rest
        # spread up to the scale of F'F at this size.
        accepted = 0
        for offset in (-1e-3, -1e-6, -1e-9, -1e-12, 0.0, 1e-12, 1e-9, 1e-6):
            for _ in range(120):
                q, _ = np.linalg.qr(rng.standard_normal((n, n)))
                spectrum = rng.uniform(self.FLOOR, 100.0 * n * n, size=n)
                spectrum[0] = self.FLOOR + offset
                mat = (q * spectrum) @ q.T
                mat = 0.5 * (mat + mat.T)
                if min_eigenvalue(mat) >= self.FLOOR:
                    accepted += 1
                    assert not gen._below_floor(mat, self.FLOOR)
        assert accepted > 0


class TestMaxUtility:
    def test_matches_interval_solution(self):
        # max 2x on {x >= 0, x <= 5} is 10.
        assert np.isclose(max_utility(np.array([2.0]), np.array([[1.0]]), np.array([5.0])), 10.0)

    def test_failure_names_its_status(self):
        # A zero column of A with positive weight makes the utility unbounded.
        with pytest.raises(gen.GenerationFailed, match="^utility LP failed: Unbounded$"):
            max_utility(np.array([1.0, 1.0]), np.array([[1.0, 0.0]]), np.array([1.0]))
