import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulertube import extension
from eulertube.errors import DomainError
from eulertube.extension import (
    BundleRegion,
    bundle_diffeo,
    bundle_diffeo_inverse,
    eta,
    extend_map,
    rho,
    sigma,
    sigma_inverse,
    tau,
)


def sigma_prime(t):
    """Closed-form derivative of sigma, >= 1 everywhere."""
    return extension._sigma_and_prime(t)[1]


class TestRho:
    def test_plateau_zero_is_exact(self):
        for t in (0.0, 0.3, -0.5, 0.5):
            assert rho(t) == 0.0

    def test_plateau_one_is_exact(self):
        for t in (0.75, 0.9, -0.8):
            assert rho(t) == 1.0

    def test_transition_region(self):
        v = rho(0.6)
        assert 0.0 < v < 1.0
        assert rho(-0.6) == v

    def test_nondecreasing(self):
        ts = np.linspace(0.5, 0.75, 200)
        vals = [rho(t) for t in ts]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestSigma:
    def test_identity_on_core(self):
        assert sigma(0.25) == 0.25
        assert sigma(-0.5) == -0.5

    def test_inverse_round_trip(self):
        assert sigma_inverse(sigma(0.8)) == pytest.approx(0.8, abs=1e-12)

    def test_diverges_near_one(self):
        assert sigma(0.999) > 20.0

    @given(st.floats(-0.99, 0.99))
    @settings(max_examples=50, deadline=None)
    def test_odd(self, t):
        assert sigma(-t) == pytest.approx(-sigma(t), abs=1e-12)

    def test_derivative_at_least_one(self):
        h = 1e-6
        for t in np.linspace(-0.99, 0.99, 2001):
            d = (sigma(t + h) - sigma(t - h)) / (2 * h)
            assert d >= 1.0 - 1e-9

    @pytest.mark.parametrize(
        "t", ["0.3", "0.5", "0.55", "0.6", "0.7", "0.74", "0.9", "0.999", "0.9999999"]
    )
    @pytest.mark.parametrize("sign", [1, -1])
    def test_prime_matches_numerical_derivative(self, t, sign):
        # core, (1/2, 3/4) gluing region and outer region up to 1 - 1e-7
        with mp.workdps(50):
            t = sign * mp.mpf(t)
            exact = sigma_prime(t)
            assert abs(exact - mp.diff(sigma, t)) <= mp.mpf("1e-40") * exact

    def test_prime_at_least_one(self):
        for t in np.linspace(-1 + 1e-9, 1 - 1e-9, 4001):
            assert sigma_prime(float(t)) >= 1.0

    def test_smooth_across_gluing_radius(self):
        # first and second finite differences agree on both sides of t = 1/2
        h = 1e-3
        for order in (1, 2):
            left = _fd(sigma, 0.5 - 5 * h, h, order)
            right = _fd(sigma, 0.5 + 5 * h, h, order)
            assert abs(left - right) <= 1e-4 + 20 * h


# 50-digit solves rounded to double by the bracketing-bisection solver that
# preceded the double-precision seed and closed-form Newton polish
_PINNED_FLOAT_INVERSES = {
    0.6: "0x1.1f21f39401dc3p-1",
    0.9: "0x1.381fd4e04a751p-1",
    3.0: "0x1.ce28178980a29p-1",
    4.0: "0x1.e6839a6ae8ee6p-1",
    100.0: "0x1.fff95058bab70p-1",
    -777.0: "-0x1.ffffe42398d1ep-1",
}


class TestSigmaInverse:
    @pytest.mark.parametrize("s", sorted(_PINNED_FLOAT_INVERSES))
    def test_float_results_pinned(self, s):
        assert sigma_inverse(s) == float.fromhex(_PINNED_FLOAT_INVERSES[s])

    def test_float_results_inside_unit_interval(self):
        for s in (6.7e7, 1e8, 1e12, 1e300, -1e8, -1e300):
            t = sigma_inverse(s)
            assert isinstance(t, float)
            assert abs(t) == math.nextafter(1.0, 0.0)
            assert math.copysign(1.0, t) == math.copysign(1.0, s)

    def test_mp_evaluations_per_solve(self, monkeypatch):
        # the appendix-roundtrip targets: a double seed leaves at most three
        # Newton steps at 50 digits, each one mp evaluation of sigma (alone
        # or together with sigma')
        counts = []

        def counting(plain):
            def counted(t):
                if isinstance(t, mp.mpf):
                    counts[-1] += 1
                return plain(t)

            return counted

        for name in ("sigma", "_sigma_and_prime"):
            monkeypatch.setattr(extension, name, counting(getattr(extension, name)))
        with mp.workdps(50):
            for v in np.linspace(-1000.0, 1000.0, 201):
                if abs(v) > 0.5:
                    counts.append(0)
                    extension.sigma_inverse(mp.mpf(v))
        assert len(counts) == 200
        assert min(counts) >= 1
        assert max(counts) <= 6

    @given(st.floats(0.5, 1e6), st.sampled_from([1, -1]), st.sampled_from([30, 50]))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_within_tolerance(self, s, sign, dps):
        # past |s| ~ 3e4 the slope of sigma puts the residual of the nearest
        # dps-digit t above res_tol; the solver then stops within a few
        # units in the last place of t
        with mp.workdps(dps):
            s = sign * mp.mpf(s)
            t = sigma_inverse(s, dps=dps)
            res_tol = mp.mpf(10) ** (8 - dps) * max(1, abs(s))
            floor = 8 * sigma_prime(t) * mp.eps
            assert abs(sigma(t) - s) < max(res_tol, floor)

    @pytest.mark.parametrize("k", range(2, 54))
    def test_round_trip_at_bracket_points(self, k):
        # sigma(1 - 2^-k) in double may sit an ulp on either side of the
        # 50-digit value, so the double bracket can miss the root by a hair
        t = 1 - 2.0**-k
        assert sigma_inverse(sigma(t)) == pytest.approx(t, abs=4e-16)
        assert sigma_inverse(-sigma(t)) == pytest.approx(-t, abs=4e-16)

    def test_unrepresentable_mp_target_raises(self):
        with mp.workdps(50):
            with pytest.raises(DomainError, match="not representable at 50 digits"):
                sigma_inverse(mp.mpf("1e30"))

    @pytest.mark.parametrize(
        "dps, s, representable",
        [
            (50, "1e16", True),
            (50, "1e20", False),
            (50, "1e24", False),
            (30, "1e6", True),
            (30, "1e12", False),
            (20, "10", True),
            (20, "1e6", False),
            (10, "3", True),
        ],
    )
    def test_mp_result_is_no_worse_than_a_double(self, dps, s, representable):
        # past the digits that resolve 1 - t, sigma(t) would miss s by more
        # than a double's relative rounding and than Newton's residual
        # tolerance at dps digits
        with mp.workdps(dps):
            s = mp.mpf(s)
            if representable:
                t = sigma_inverse(s, dps=dps)
                assert abs(sigma(t) - s) <= s * max(2.0**-52, mp.mpf(10) ** (8 - dps))
                assert tau(s, dps=dps) * s == t
            else:
                with pytest.raises(DomainError, match=f"not representable at {dps} digits"):
                    sigma_inverse(s, dps=dps)

    @pytest.mark.parametrize("s", [math.inf, -math.inf, math.nan])
    def test_non_finite_raises(self, s):
        with pytest.raises(DomainError):
            sigma_inverse(s)


def _fd(f, t, h, order):
    if order == 1:
        return (f(t + h) - f(t - h)) / (2 * h)
    return (f(t + h) - 2 * f(t) + f(t - h)) / (h * h)


class TestTau:
    def test_one_on_core(self):
        assert tau(0.3) == 1.0
        assert tau(-0.5) == 1.0

    def test_core_lanes_invert_nothing(self, monkeypatch):
        # tau is 1 on [-1/2, 1/2]: lanes there need no profile inverse
        calls = []
        inverse = extension.sigma_inverse

        def counted(s, dps=50):
            calls.append(len(s))
            return inverse(s, dps=dps)

        monkeypatch.setattr(extension, "sigma_inverse", counted)
        assert np.array_equal(tau(np.array([-0.5, -0.2, 0.0, 0.3, 0.5])), np.ones(5))
        assert calls == []
        tau(np.array([0.2, 3.0, -0.4]))
        assert calls == [1]

    def test_even(self):
        for s in (0.9, 2.0, 37.5):
            assert tau(-s) == pytest.approx(tau(s), rel=1e-12)

    def test_contracts_into_unit_interval(self):
        for s in (0.7, 5.0, 100.0, 1000.0, 1e8, 1e12, 1e300, -1e8):
            assert tau(s) * abs(s) < 1.0


# t = +-1/2 and +-3/4 are the ends of the gluing region, and the last
# doubles below 1 sit where 1 - t^2 rounds coarsely
_LANE_TS = np.array(
    [0.0, 0.3, 0.5, 0.5 + 2.0**-52, 0.6, 0.74, 0.75, 0.9, 0.999, 1 - 2.0**-20]
    + [1 - 2.0**-52, 1 - 2.0**-53]
)
_LANE_TS = np.concatenate([_LANE_TS, -_LANE_TS])
_LANE_TARGETS = np.concatenate(
    [sigma(_LANE_TS), [0.7, 3.0, -777.0, 6.7e7, 6.8e7, -1e8, 1e12, 1e300, -1e300]]
)


def _scalar_seed(approx):
    """The double bracket-and-bisect of one target, one sigma at a time:
    the reference the lane seeds are checked against."""
    lo, hi = 0.5, 1 - 2.0**-4
    while not sigma(hi) > approx:
        lo, hi = hi, 1 - (1 - hi) / 2
        if hi == 1:
            return lo, hi
    while lo < (mid := (lo + hi) / 2) < hi:
        if sigma(mid) > approx:
            hi = mid
        else:
            lo = mid
    return lo, hi


class TestProfileLanes:
    """A lane in a batch gives its one-point result bitwise, with no
    RuntimeWarning from the exponentials outside (0, 1)."""

    @pytest.mark.parametrize("f", [rho, eta, sigma, sigma_prime])
    def test_profiles(self, f):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = f(_LANE_TS)
            assert out.shape == _LANE_TS.shape
            for t, o in zip(_LANE_TS, out):
                assert f(float(t)) == o
                assert f(np.array([t]))[0] == o

    def test_float_input_gives_a_float(self):
        for f in (rho, eta, sigma, sigma_prime, sigma_inverse, tau):
            assert isinstance(f(0.6), float)

    @pytest.mark.parametrize("f", [sigma_inverse, tau])
    def test_inverse_and_tau(self, f):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = f(_LANE_TARGETS)
            assert out.shape == _LANE_TARGETS.shape
            for s, o in zip(_LANE_TARGETS, out):
                assert f(float(s)) == o

    def test_mp_targets_as_lanes(self):
        with mp.workdps(50):
            ss = [mp.mpf(x) for x in ("0.25", "-0.7", "3", "-1000", "6.8e7", "1e12")]
            ts = sigma_inverse(ss)
            assert [sigma_inverse(s) for s in ss] == list(ts)
            assert all(isinstance(t, mp.mpf) for t in ts)

    def test_lane_seeds_match_the_scalar_bisection(self):
        # a log sweep from just above 1/2 past sigma(1 - 2^-53) ~ 6.7e7, the
        # last targets clamped to (1 - 2^-53, 1)
        approx = np.abs(_LANE_TARGETS)
        sweep = np.concatenate([0.5 + np.geomspace(2.0**-52, 0.5, 100), np.geomspace(1.0, 1e300, 200)])
        approx = np.concatenate([approx[approx > 0.5], sweep])
        lo, hi = extension._double_seeds(approx)
        for a, l, h in zip(approx, lo, hi):
            assert (l, h) == _scalar_seed(a)
        assert (lo[-1], hi[-1]) == (1 - 2.0**-53, 1.0)
        lo, hi = extension._double_seeds(np.array([]))
        assert lo.shape == hi.shape == (0,)
        lo, hi = extension._double_seeds(np.array([3.0], dtype=np.float32))
        assert (lo[0], hi[0]) == _scalar_seed(3.0)

    @pytest.mark.parametrize("targets", [np.abs(np.linspace(-1000.0, 1000.0, 201)), [3.0]])
    def test_seed_lane_passes(self, monkeypatch, targets):
        # a pass is one lane evaluation of sigma (with sigma' or in w) over
        # the open targets: about ten for any batch, where bracketing and
        # bisecting down to adjacent doubles took 70
        passes = []
        for name in ("sigma", "_sigma_and_prime", "_plateau_sigma_in_w"):
            plain = getattr(extension, name, None)
            if plain is not None:
                monkeypatch.setattr(
                    extension, name, lambda t, plain=plain: passes.append(1) or plain(t)
                )
        approx = np.asarray(targets, dtype=float)
        extension._double_seeds(approx[approx > 0.5])
        assert 0 < len(passes) <= 15

    @pytest.mark.parametrize("dps", [30, 50])
    def test_shared_mp_evaluation_is_sigma_and_prime(self, dps):
        with mp.workdps(dps):
            for t in ("0", "0.3", "0.5", "0.55", "0.6", "0.7499", "0.75", "0.9", "0.999999"):
                for sign in (1, -1):
                    t_ = sign * mp.mpf(t)
                    value, slope = extension._sigma_and_prime(t_)
                    assert value == sigma(t_) and slope == sigma_prime(t_)


def _general_step(t):
    """The bump step at 4(|t| - 1/2) through _bump's exponentials."""
    return extension._bump((abs(t) - 0.5) * 4)


class TestPlateauShortcut:
    """An mpf t with |t| >= 3/4 skips the bump's exponentials; every value
    stays bitwise that of the general formula."""

    @pytest.mark.parametrize("dps", [30, 50])
    def test_bitwise_general_formula(self, dps):
        with mp.workdps(dps):
            three_q = mp.mpf("0.75")
            ts = [
                three_q,
                three_q - mp.eps,
                three_q + mp.eps,
                mp.mpf("0.9"),
                1 - mp.mpf("1e-30"),
            ]
            for t in ts + [-t for t in ts]:
                S, dS = _general_step(t)
                u = 1 - t * t
                root = mp.sqrt(u)
                value = (S / root + 1) * t
                slope = 1 + S / (u * root) + 4 * abs(t) * dS / root
                assert rho(t) == S and eta(t) == S / root + 1
                assert sigma(t) == value and sigma_prime(t) == slope
                assert extension._sigma_and_prime(t) == (value, slope)
                assert all(isinstance(x, mp.mpf) for x in (rho(t), eta(t), sigma(t), sigma_prime(t)))

    def test_mpf_neighbours_straddle_the_plateau(self):
        with mp.workdps(50):
            below = mp.mpf("0.75") - mp.eps
            assert 0 < _general_step(below)[0] <= 1 and _general_step(below)[1] > 0
            assert _general_step(mp.mpf("0.75") + mp.eps) == (1, 0)


def make_region():
    def bundle_metric(P):
        G = np.zeros((len(P), 2, 2))
        G[:, 0, 0] = 1.0 + P[:, 0] ** 2
        G[:, 1, 1] = 2.0
        return G

    return BundleRegion(
        bundle_metric=bundle_metric,
        delta=lambda P: 0.5 + 0.1 * np.sin(P[:, 0]),
    )


def scaled(region, P, V, frac):
    """The fiber vectors V rescaled to frac * delta(p) in the g-norm."""
    return V / region.fiber_norm(P, V)[:, None] * frac * region.delta(P)[:, None]


class TestBundleDiffeo:
    def test_identity_on_core_bitwise(self):
        region = make_region()
        p = np.array([[0.3, -0.2]])
        v = np.array([[0.05, 0.02]])
        assert region.fiber_norm(p, v)[0] < 0.5 * region.delta(p)[0]
        pb, vb = bundle_diffeo(region, p, v)
        assert np.array_equal(vb, v)
        assert np.array_equal(pb, p)

    def test_base_point_preserved(self):
        region = make_region()
        p = np.array([[-0.4, 0.6]])
        v = scaled(region, p, np.array([[0.3, 0.1]]), 0.8)
        pb, _ = bundle_diffeo(region, p, v)
        assert np.array_equal(pb, p)

    def test_round_trip_near_boundary(self):
        region = make_region()
        p = np.array([[0.1, 0.5]])
        v = scaled(region, p, np.array([[1.0, -0.7]]), 0.95)
        pb, vb = bundle_diffeo(region, p, v)
        _, vr = bundle_diffeo_inverse(region, pb, vb)
        assert np.max(np.abs(vr - v)) <= 1e-12

    def test_far_fiber_preimage_in_domain(self):
        # from ~1e8 delta on, the exact preimage rounds onto the tube's
        # boundary; bundle_diffeo rejects it there
        region = make_region()
        P, V = _far_fiber_lanes(region)
        pb, vb = bundle_diffeo_inverse(region, P, V)
        bundle_diffeo(region, pb, vb)

    def test_outside_tube_rejected(self):
        region = make_region()
        p = np.zeros((1, 2))
        e = np.array([[1.0, 0.0]])
        v = e * region.delta(p)[:, None] / region.fiber_norm(p, e)[:, None]
        with pytest.raises(DomainError):
            bundle_diffeo(region, p, v)

    def test_injective_on_samples(self):
        region = make_region()
        P = np.zeros((12, 2))
        V = np.tile([1.0, 0.3], (12, 1))
        fracs = np.linspace(0.1, 0.95, 12)
        V = scaled(region, P, V, fracs[:, None])
        outs = bundle_diffeo(region, P, V)[1]
        for i in range(len(outs)):
            for j in range(i + 1, len(outs)):
                assert np.linalg.norm(outs[i] - outs[j]) > 1e-8


def _far_fiber_lanes(region):
    """Lanes at 1e9 and 1e12 delta in 16 directions over 3 base points,
    with the core and mid-tube vectors of each base point among them."""
    P, D, S = [], [], []
    for p in ([0.0, 0.0], [0.3, -0.2], [-0.4, 0.5]):
        for a in np.linspace(0.0, np.pi, 16, endpoint=False):
            for scale in (0.3, 0.8, 1e9, 1e12):
                P.append(p)
                D.append([np.cos(a), np.sin(a)])
                S.append(scale)
    P, D = np.array(P), np.array(D)
    return P, scaled(region, P, D, np.array(S)[:, None])


class TestBundleLanes:
    """A lane in a batch gives its one-point result bitwise."""

    def test_fiber_norm(self):
        region = make_region()
        P, V = _far_fiber_lanes(region)
        norms = region.fiber_norm(P, V)
        assert norms.shape == (len(P),)
        for p, v, n in zip(P, V, norms):
            assert region.fiber_norm(p[None], v[None])[0] == n

    def test_diffeo_and_inverse(self):
        region = make_region()
        P, V = _far_fiber_lanes(region)
        Pr, Vr = bundle_diffeo_inverse(region, P, V)
        Pb, Vb = bundle_diffeo(region, Pr, Vr)
        for i in range(len(P)):
            pr, vr = bundle_diffeo_inverse(region, P[i : i + 1], V[i : i + 1])
            assert np.array_equal(pr[0], Pr[i]) and np.array_equal(vr[0], Vr[i])
            pb, vb = bundle_diffeo(region, pr, vr)
            assert np.array_equal(pb[0], Pb[i]) and np.array_equal(vb[0], Vb[i])

    def test_boundary_steps_leave_other_lanes(self, monkeypatch):
        # after the two whole-batch norms, the ulp steps measure only the
        # far lanes still on the boundary; a lane batched with them keeps
        # the scale tau gave it
        region = make_region()
        P, V = _far_fiber_lanes(region)
        sizes = []
        plain = BundleRegion.fiber_norm

        def counting(self, p, v):
            sizes.append(len(p))
            return plain(self, p, v)

        monkeypatch.setattr(BundleRegion, "fiber_norm", counting)
        _, Vr = bundle_diffeo_inverse(region, P, V)
        assert sizes[:2] == [len(P), len(P)]
        assert len(sizes) > 2 and max(sizes[2:]) < len(P) // 2
        t = plain(region, P, V) / region.delta(P)
        assert np.array_equal(Vr[t < 1e8], tau(t[t < 1e8])[:, None] * V[t < 1e8])

    def test_extend_map(self):
        region = make_region()
        P, V = _far_fiber_lanes(region)
        F = lambda P, V: np.concatenate([np.sin(P) + V**3, V], axis=1)
        F_t = extend_map(F, region)
        out = F_t(P, V)
        for i in range(len(P)):
            assert np.array_equal(F_t(P[i : i + 1], V[i : i + 1])[0], out[i])


class TestExtendMap:
    def test_base_projection_unchanged(self):
        region = make_region()
        proj = lambda P, V: P
        proj_t = extend_map(proj, region)
        p = np.array([[0.2, 0.4]])
        assert np.array_equal(proj_t(p, np.array([[3.0, -7.0]])), p)

    def test_far_fiber_pulls_inside_tube(self):
        region = make_region()
        calls = []

        def F(P, V):
            calls.append(region.fiber_norm(P, V) / region.delta(P))
            return P + V

        F_t = extend_map(F, region)
        p = np.zeros((1, 2))
        # at 1e9 delta the exact preimage rounds to the tube's boundary
        for scale in (10.0, 1e9):
            out = F_t(p, scaled(region, p, np.array([[1.0, 0.0]]), scale))
            assert np.all(np.isfinite(out))
            assert np.all(calls[-1] < 1.0)  # F only ever evaluated inside the tube

    def test_bitwise_agreement_on_core(self):
        region = make_region()
        F = lambda P, V: np.sin(P) + V**3
        F_t = extend_map(F, region)
        p = np.array([[0.7, -0.1]])
        for frac in (0.05, 0.2, 0.45):
            v = scaled(region, p, np.array([[0.6, 0.8]]), frac)
            assert np.array_equal(F_t(p, v), F(p, v))
