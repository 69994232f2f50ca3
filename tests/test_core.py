"""Channel-model, ledger, efficiency, and optimality tests.

Frozen expected values come from a 40-digit mpmath evaluation of the closed
forms (binary entropy, QBER chain, efficiency ratios) done independently of
this package.
"""

import dataclasses
import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdeff.core import (
    INFINITE,
    ChannelParams,
    CurvePoint,
    EfficiencyReport,
    ProtocolParams,
    SessionLedger,
    binary_entropy,
    build_ledger,
    classical_bits,
    determine_optimality,
    efficiency_curve,
    optimality_bb84,
    qber,
    single_photon_yield,
    total_efficiency,
    transmittance,
)
from qkdeff.errors import DegenerateChannelError, ParameterError, check_count, check_range
from qkdeff.proto_bb84 import SessionConfig, run_session

# 40-digit oracle values
H_003 = 0.1943918578315761608655943296458712861413
E_FIG2_L0 = 0.03000001596666629411111980407387123827634
R_FIG2_L0_FULL = 0.1833648372578349449212421562542844489742  # s=1, xi=1
OPT_FIG2_L0 = 0.07383725278977086559877699974772215181614
OPT_FIG2_L50 = 0.008951869883115184781024519346015452082959
STD_FIG2_L0 = 0.03226342888560829963687072146988090861562

FIG2 = ChannelParams(alpha=0.2, length_km=0.0, eta_det=0.3,
                     p_dark=1e-8, e_opt=0.03, e0=0.5, f=1.0)
NOISELESS = ChannelParams(alpha=0.2, length_km=0.0, eta_det=0.3,
                          p_dark=0.0, e_opt=0.0)


def secret_key_rate(ch: ChannelParams, pp: ProtocolParams) -> float:
    """Secret key rate per transmitted qubit, before the clamp at extinction."""
    return total_efficiency(ch, pp).r_unclamped


def random_channel(rng) -> ChannelParams:
    return ChannelParams(
        alpha=rng.uniform(0.0, 0.5),
        length_km=rng.uniform(0.0, 100.0),
        eta_det=rng.uniform(0.05, 1.0),
        p_dark=rng.uniform(0.0, 1e-5),
        e_opt=rng.uniform(0.0, 0.1),
        e0=0.5,
        f=rng.uniform(1.0, 1.2),
    )


def random_protocol(rng) -> ProtocolParams:
    return ProtocolParams(
        s=rng.uniform(0.05, 1.0),
        sigma=rng.uniform(0.0, 1.0),
        xi=rng.uniform(0.0, 1.0),
    )


class TestBinaryEntropy:
    def test_symmetric_maximum(self):
        assert binary_entropy(0.5) == 1.0

    def test_limits(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_high_precision_point(self):
        assert binary_entropy(0.03) == pytest.approx(H_003, rel=1e-14)

    @pytest.mark.parametrize("x", [-0.1, 1.1, math.nan])
    def test_domain_errors(self, x):
        with pytest.raises(ParameterError):
            binary_entropy(x)


class TestChannelModel:
    @pytest.mark.parametrize(
        "length,expect", [(0.0, 0.3), (50.0, 0.03), (100.0, 0.003)]
    )
    def test_transmittance_powers_of_ten(self, length, expect):
        ch = replace(FIG2, length_km=length)
        assert transmittance(ch) == pytest.approx(expect, rel=1e-12)

    def test_yield_no_dark_counts(self):
        assert single_photon_yield(NOISELESS) == pytest.approx(0.3, rel=1e-12)

    def test_yield_direct_arithmetic(self):
        assert single_photon_yield(FIG2) == pytest.approx(0.300000007, rel=1e-12)

    def test_yield_saturates_at_certain_dark_count(self):
        ch = replace(FIG2, p_dark=1.0)
        assert single_photon_yield(ch) == pytest.approx(1.0, rel=1e-15)

    def test_qber_collapses_to_misalignment(self):
        ch = ChannelParams(p_dark=0.0, e_opt=0.03)
        assert qber(ch) == pytest.approx(0.03, rel=1e-15)

    def test_qber_dark_count_dominated(self):
        ch = ChannelParams(alpha=1.0, length_km=300.0, eta_det=0.3,
                           p_dark=1e-6, e_opt=0.0)
        assert qber(ch) == pytest.approx(0.5, rel=1e-6)

    def test_qber_fig2_point(self):
        assert qber(FIG2) == pytest.approx(E_FIG2_L0, rel=1e-14)

    def test_qber_degenerate_channel(self):
        ch = ChannelParams(eta_det=0.0, p_dark=0.0)
        with pytest.raises(DegenerateChannelError):
            qber(ch)

    def test_qber_over_one_is_degenerate(self):
        # coincident dark-count and misalignment errors push the raw ratio
        # past 1, where the error model stops applying (H(1) = 0 would make
        # the rate formula spuriously positive)
        ch = ChannelParams(e0=1.0, e_opt=1.0, p_dark=0.5, eta_det=0.3, alpha=0.0)
        with pytest.raises(DegenerateChannelError):
            qber(ch)
        with pytest.raises(DegenerateChannelError):
            total_efficiency(ch, ProtocolParams(s=1.0, xi=1.0))

    def test_transmittance_bounded_by_detector_efficiency(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            ch = random_channel(rng)
            assert 0.0 <= transmittance(ch) <= ch.eta_det

    def test_invalid_channel_params(self):
        for kwargs in (
            {"alpha": -0.1}, {"length_km": -1}, {"eta_det": 1.5},
            {"p_dark": -1e-9}, {"e_opt": 2.0}, {"f": 0.9},
            {"alpha": math.nan}, {"length_km": math.nan}, {"f": math.nan},
        ):
            with pytest.raises(ParameterError):
                ChannelParams(**kwargs)

    @pytest.mark.parametrize("name", ["alpha", "length_km", "f"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_infinite_channel_params(self, name, value):
        with pytest.raises(ParameterError, match="finite"):
            ChannelParams(**{name: value})


class TestSecretKeyRate:
    def test_noiseless_rate_equals_transmittance(self):
        pp = ProtocolParams(s=1.0, xi=1.0)
        assert secret_key_rate(NOISELESS, pp) == pytest.approx(0.3, rel=1e-15)

    def test_rate_extinction_is_negative(self):
        ch = replace(FIG2, e_opt=0.2, p_dark=0.0)  # H(0.2)(1+f) > 1
        assert secret_key_rate(ch, ProtocolParams(s=1.0, xi=1.0)) < 0

    def test_composed_oracle_point(self):
        pp = ProtocolParams(s=1.0, xi=1.0)
        assert secret_key_rate(FIG2, pp) == pytest.approx(R_FIG2_L0_FULL, rel=1e-13)

    def test_finite_mode_scales_by_delta(self):
        pp_fin = ProtocolParams(s=1.0, xi=1.0, delta=0.1, n_qubits=10**6)
        pp_asym = ProtocolParams(s=1.0, xi=1.0)
        assert secret_key_rate(FIG2, pp_fin) == pytest.approx(
            0.9 * secret_key_rate(FIG2, pp_asym), rel=1e-14
        )


class TestClassicalBits:
    def test_full_compression_total(self):
        pp = ProtocolParams(s=1.0, sigma=1.0, xi=1.0)
        led = classical_bits(FIG2, pp)
        r = secret_key_rate(FIG2, pp)
        assert led.total() == pytest.approx(1 + 0.3 + r, rel=1e-12)

    def test_no_compression_total(self):
        pp = ProtocolParams(s=1.0, sigma=0.0, xi=1.0)
        led = classical_bits(FIG2, pp)
        r = secret_key_rate(FIG2, pp)
        assert led.total() == pytest.approx(1 + 3 * 0.3 + r, rel=1e-12)

    def test_dead_channel_counts_acks_and_sacrifice(self):
        ch = ChannelParams(eta_det=0.0, p_dark=0.1)
        delta, n = 0.05, 10**6
        led = classical_bits(ch, ProtocolParams(s=0.5, delta=delta, n_qubits=n))
        assert led.total() / n == pytest.approx(1 + delta - 1 / n, rel=1e-12)

    def test_structure_entries(self):
        n = 10**6
        pp = ProtocolParams(s=0.5, sigma=0.25, delta=0.01, xi=1.0, n_qubits=n)
        led = classical_bits(FIG2, pp)
        eta = transmittance(FIG2)
        assert led.reception_ack == n
        assert led.bob_bases == pytest.approx((1 - 0.25) * eta * n, rel=1e-12)
        assert led.alice_match == led.bob_bases
        assert led.pe_sacrifice == pytest.approx(0.01 * n, rel=1e-12)

    def test_collapsed_sum_identity_over_random_params(self):
        rng = np.random.default_rng(202)
        checked = 0
        for _ in range(300):
            ch = random_channel(rng)
            pp = random_protocol(rng)
            if rng.random() < 0.5:
                pp = replace(pp, delta=rng.uniform(0.0, 0.2),
                             n_qubits=float(rng.integers(10**3, 10**9)))
            eta = transmittance(ch)
            h = binary_entropy(qber(ch))
            r = eta * pp.s * (pp.xi - h - ch.f * h)
            n = 1.0 if pp.asymptotic else pp.n_qubits
            collapsed = (n + 2 * (1 - pp.sigma) * eta * n + pp.delta * n
                         + (1 - pp.delta) * pp.s * eta * n + (1 - pp.delta) * r * n)
            if not pp.asymptotic:
                collapsed -= 1.0
            led = classical_bits(ch, pp)
            assert led.total() == pytest.approx(collapsed, rel=1e-12)
            checked += 1
        assert checked == 300

    def test_infeasible_flag_on_rate_extinction(self):
        ch = replace(FIG2, e_opt=0.25, p_dark=0.0)
        led = classical_bits(ch, ProtocolParams(s=1.0, xi=1.0))
        assert not led.feasible and led.pa_bits < 0


class TestTotalEfficiency:
    def test_noiseless_full_compression(self):
        pp = ProtocolParams(s=1.0, sigma=1.0, xi=1.0)
        rep = total_efficiency(NOISELESS, pp)
        assert rep.efficiency == pytest.approx(0.3 / 2.6, rel=1e-12)
        assert not rep.extinct

    def test_vanishes_with_sifting(self):
        pp = ProtocolParams(s=1e-9, sigma=1.0, xi=1.0)
        rep = total_efficiency(NOISELESS, pp)
        assert 0 < rep.efficiency < 1e-9

    def test_standard_bb84_fig2_point(self):
        rep = total_efficiency(FIG2, ProtocolParams(s=0.5, sigma=0.0, xi=1.0))
        assert rep.efficiency == pytest.approx(STD_FIG2_L0, rel=1e-12)

    def test_report_invariant_asymptotic(self):
        pp = ProtocolParams(s=0.7, sigma=0.3, xi=0.9)
        rep = total_efficiency(FIG2, pp)
        assert rep.efficiency == pytest.approx(
            rep.R / (1.0 + rep.M_per_qubit), rel=1e-14
        )
        assert rep.h_e == pytest.approx(binary_entropy(rep.e), rel=1e-14)

    def test_finite_mode_converges_to_asymptotic(self):
        pp_asym = ProtocolParams(s=0.5, sigma=0.25, xi=1.0)
        e_asym = total_efficiency(FIG2, pp_asym).efficiency
        for n in (10**3, 10**5, 10**7):
            pp_fin = replace(pp_asym, n_qubits=float(n))
            e_fin = total_efficiency(FIG2, pp_fin).efficiency
            assert abs(e_fin - e_asym) <= 2.0 / n

    def test_finite_mode_certifies_r_times_n(self):
        # E and the PA entry count the key R*N = (1-delta)*r_asym*N
        rng = np.random.default_rng(505)
        tested = 0
        while tested < 300:
            ch = random_channel(rng)
            n = float(rng.integers(10**3, 10**9))
            pp = replace(random_protocol(rng), delta=rng.uniform(0.0, 0.9), n_qubits=n)
            rep = total_efficiency(ch, pp)
            if rep.extinct:
                continue
            assert rep.efficiency == pytest.approx(
                rep.R * n / (n + rep.ledger.total()), rel=1e-14
            )
            tested += 1

    def test_sacrificed_key_lowers_the_efficiency(self):
        # half the sifted key sacrificed for estimation is half the key lost
        pp = ProtocolParams(s=1.0, sigma=1.0, xi=1.0, delta=0.5, n_qubits=1e6)
        no_sacrifice = total_efficiency(FIG2, replace(pp, delta=0.0)).efficiency
        assert total_efficiency(FIG2, pp).efficiency < no_sacrifice

    def test_clamping_under_extinction(self):
        ch = replace(FIG2, e_opt=0.25, p_dark=0.0)
        rep = total_efficiency(ch, ProtocolParams(s=1.0, xi=1.0))
        assert rep.efficiency == 0.0
        assert rep.extinct
        assert rep.R == 0.0
        assert rep.r_unclamped < 0.0

    def test_monotone_in_each_knob(self):
        rng = np.random.default_rng(303)
        tested = 0
        while tested < 500:
            ch = random_channel(rng)
            pp = random_protocol(rng)
            base = total_efficiency(ch, pp)
            if base.extinct:
                continue
            for knob in ("s", "sigma", "xi"):
                bumped = replace(pp, **{knob: min(1.0, getattr(pp, knob) + 0.01)})
                assert total_efficiency(ch, bumped).efficiency >= base.efficiency
            tested += 1

    def test_dominated_by_optimality(self):
        rng = np.random.default_rng(404)
        tested = 0
        while tested < 500:
            ch = random_channel(rng)
            pp = random_protocol(rng)
            rep = total_efficiency(ch, pp)
            if rep.extinct:
                continue
            assert optimality_bb84(ch) + 1e-15 >= rep.efficiency
            tested += 1


class TestOptimality:
    def test_noiseless_closed_form(self):
        assert optimality_bb84(NOISELESS) == pytest.approx(
            1 / (2 / 0.3 + 2), rel=1e-12
        )

    def test_fig2_point(self):
        assert optimality_bb84(FIG2) == pytest.approx(OPT_FIG2_L0, rel=1e-12)
        ch50 = replace(FIG2, length_km=50.0)
        assert optimality_bb84(ch50) == pytest.approx(OPT_FIG2_L50, rel=1e-12)

    def test_extinction_clamps_to_zero(self):
        ch = replace(FIG2, e_opt=0.25, p_dark=0.0)  # H(e)(1+f) >= 1
        assert optimality_bb84(ch) == 0.0
        assert determine_optimality(ch, 1.0).extinct

    def test_degenerate_channel_rejected(self):
        with pytest.raises(DegenerateChannelError):
            optimality_bb84(ChannelParams(eta_det=0.0, p_dark=0.1))

    def test_reduction_identity(self):
        rng = np.random.default_rng(505)
        for _ in range(200):
            ch = random_channel(rng)
            via_limit = determine_optimality(ch, 1.0).efficiency
            closed = optimality_bb84(ch)
            assert via_limit == pytest.approx(closed, rel=1e-12, abs=1e-300)

    def test_zero_capacity_is_extinct(self):
        rep = determine_optimality(FIG2, 0.0)
        assert rep.efficiency == 0.0 and rep.extinct

    def test_vanishing_channel_limit(self):
        ch = replace(FIG2, length_km=300.0)  # eta~ ~ 3e-7
        rep = determine_optimality(ch, 1.0)
        assert 0 <= rep.efficiency < 1e-6

    def test_epsilon_mode_stays_below_exact_limit(self):
        exact = determine_optimality(FIG2, 1.0).efficiency
        near = total_efficiency(FIG2, ProtocolParams(s=0.99, sigma=0.99)).efficiency
        assert near < exact
        assert near == pytest.approx(exact, rel=0.1)

    @settings(max_examples=500, deadline=None)
    @given(
        ch=st.builds(
            ChannelParams,
            alpha=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
            length_km=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
            eta_det=st.floats(0.0, 1.0), p_dark=st.floats(0.0, 1.0),
            e_opt=st.floats(0.0, 1.0), e0=st.floats(0.0, 1.0),
            f=st.floats(min_value=1.0, allow_nan=False, allow_infinity=False),
        ),
        pp=st.builds(
            ProtocolParams, s=st.floats(0.0, 1.0, exclude_min=True),
            sigma=st.floats(0.0, 1.0), xi=st.floats(0.0, 1.0),
        ),
    )
    def test_asymptotic_efficiency_never_exceeds_ceiling(self, ch, pp):
        try:
            eff = total_efficiency(ch, pp).efficiency
            ceiling = determine_optimality(ch, pp.xi).efficiency
        except DegenerateChannelError:
            return
        assert eff <= ceiling * (1 + 1e-12)

    def test_xi_max_validation(self):
        with pytest.raises(ParameterError):
            determine_optimality(FIG2, 1.5)


class TestEfficiencyCurve:
    def test_single_point_matches_components(self):
        pts = efficiency_curve(FIG2, ProtocolParams(xi=1.0), [0.0])
        assert len(pts) == 1
        assert pts[0].standard.efficiency == pytest.approx(STD_FIG2_L0, rel=1e-12)
        assert pts[0].optimal.efficiency == pytest.approx(OPT_FIG2_L0, rel=1e-12)

    def test_dominance_and_decrease_over_grid(self):
        lengths = list(range(0, 101, 5))
        pts = efficiency_curve(FIG2, ProtocolParams(xi=1.0), lengths)
        opt = [p.optimal.efficiency for p in pts]
        std = [p.standard.efficiency for p in pts]
        assert all(o >= s for o, s in zip(opt, std))
        assert all(b < a for a, b in zip(opt, opt[1:]))
        assert all(b < a for a, b in zip(std, std[1:]))

    def test_extinction_points_carry_flags(self):
        # beyond ~340 km the dark counts dominate and the rate goes extinct;
        # the sweep must flag those points instead of failing
        pts = efficiency_curve(FIG2, ProtocolParams(xi=1.0), [0.0, 200.0, 400.0])
        assert not pts[0].optimal.extinct
        assert pts[-1].optimal.extinct
        assert pts[-1].optimal.efficiency == 0.0
        assert pts[-1].standard.extinct

    def test_grid_validation(self):
        with pytest.raises(ParameterError):
            efficiency_curve(FIG2, ProtocolParams(), [])
        with pytest.raises(ParameterError):
            efficiency_curve(FIG2, ProtocolParams(), [0.0, 0.0])
        with pytest.raises(ParameterError):
            efficiency_curve(FIG2, ProtocolParams(), [10.0, 5.0])

    @pytest.mark.parametrize("grid", [
        [-1.0, 0.0, 5.0], [-math.inf, 0.0, 5.0], [0.0, 5.0, math.inf],
        [math.nan, 0.0, 5.0], [0.0, math.nan, 5.0], [0.0, 5.0, math.nan],
    ])
    def test_bad_length_has_the_channel_message(self, grid):
        bad = next(x for x in grid if not 0.0 <= x < math.inf)
        with pytest.raises(ParameterError) as single:
            replace(FIG2, length_km=bad)
        assert str(single.value) == f"length_km must be finite and >= 0, got {bad}"
        with pytest.raises(ParameterError) as curve:
            efficiency_curve(FIG2, ProtocolParams(), grid)
        assert str(curve.value) == str(single.value)

    @pytest.mark.parametrize("ch", [
        ChannelParams(eta_det=0.0, p_dark=0.0), ChannelParams(e0=1.0, e_opt=1.0),
    ])
    def test_degenerate_channel_has_the_single_point_message(self, ch):
        with pytest.raises(DegenerateChannelError) as single:
            total_efficiency(ch, ProtocolParams())
        with pytest.raises(DegenerateChannelError) as curve:
            efficiency_curve(ch, ProtocolParams(), [0.0, 10.0])
        assert str(curve.value) == str(single.value)

    @settings(max_examples=200, deadline=None)
    @given(
        # e0, e_opt <= 1/2 keep e <= 1, and p_dark > 0 keeps y1 > 0
        ch=st.builds(
            ChannelParams, alpha=st.floats(0.1, 0.5), eta_det=st.floats(0.01, 1.0),
            p_dark=st.floats(1e-9, 1e-3), e_opt=st.floats(0.0, 0.5),
            e0=st.floats(0.25, 0.5), f=st.floats(1.0, 1.5),
        ),
        pp=st.one_of(
            st.builds(ProtocolParams, s=st.floats(0.01, 1.0),
                      sigma=st.floats(0.0, 1.0),
                      xi=st.floats(0.0, 1.0, exclude_max=True)),
            st.builds(ProtocolParams, s=st.floats(0.01, 1.0),
                      sigma=st.floats(0.0, 1.0),
                      xi=st.floats(0.0, 1.0, exclude_max=True),
                      delta=st.floats(0.0, 0.9, exclude_min=True),
                      n_qubits=st.integers(1, 10**12).map(float)),
        ),
        grid=st.lists(st.floats(0.0, 999.0), max_size=12, unique=True).map(sorted),
    )
    def test_points_equal_the_single_point_reports(self, ch, pp, grid):
        # 1000 km is dark-count dominated for every channel drawn: extinct
        grid = grid + [1000.0]
        pts = efficiency_curve(ch, pp, grid)
        assert [pt.length_km for pt in pts] == grid
        assert pts[-1].standard.extinct and pts[-1].optimal.extinct
        std_pp = replace(pp, s=0.5, sigma=0.0)
        for pt in pts:
            ch_l = replace(ch, length_km=pt.length_km)
            assert pt.standard.as_dict() == total_efficiency(ch_l, std_pp).as_dict()
            assert pt.optimal.as_dict() == determine_optimality(ch_l, pp.xi).as_dict()


LEDGER_KEYS = ["reception_ack", "bob_bases", "alice_match", "pe_sacrifice",
               "ec_bits", "pa_bits"]
REPORT_KEYS = ["eta_tilde", "y1", "e", "h_e", "R", "r_unclamped", "M_per_qubit",
               "efficiency", "extinct"]


class TestRecordContract:
    """What callers rely on in the report records, whatever class backs them."""

    @staticmethod
    def point(length=10.0):
        return efficiency_curve(FIG2, ProtocolParams(), [length])[0]

    def test_every_field_is_read_only(self):
        pt = self.point()
        led = pt.standard.ledger
        for rec, names in ((pt, ["length_km", "standard", "optimal"]),
                           (pt.standard, REPORT_KEYS + ["ledger"]),
                           (led, LEDGER_KEYS + ["feasible"])):
            for name in names:
                with pytest.raises(AttributeError):
                    setattr(rec, name, getattr(rec, name))

    def test_equal_values_compare_and_hash_equal(self):
        a, b = self.point(), self.point()
        assert a is not b
        for x, y in ((a, b), (a.standard, b.standard), (a.standard.ledger, b.standard.ledger)):
            assert x == y and hash(x) == hash(y)
        assert a != self.point(20.0)
        assert a.standard.ledger != a.optimal.ledger

    def test_replace_on_curve_point_and_report(self):
        pt = self.point()
        rep = replace(pt.optimal, efficiency=0.5)
        assert rep.efficiency == 0.5 and rep.ledger == pt.optimal.ledger
        bad = replace(pt, optimal=rep)
        assert bad.optimal.efficiency == 0.5 and bad.standard == pt.standard
        assert dataclasses.is_dataclass(EfficiencyReport)
        assert dataclasses.is_dataclass(CurvePoint)

    def test_ledger_is_a_named_tuple(self):
        led = build_ledger(1.0, (2.0, 3.0), 4.0, 10.0, 0.5, 1.0, 2.0, 1.0)
        assert isinstance(led, SessionLedger) and len(led) == 7
        assert led == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, True)
        assert tuple(led) == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, True)
        assert led.total() == 21.0
        assert SessionLedger(1, 2, 3, 4, 5, 6).feasible is True

    def test_as_dict_key_order(self):
        rep = self.point().standard
        assert list(rep.ledger.as_dict()) == LEDGER_KEYS
        assert list(rep.as_dict()) == REPORT_KEYS + [f"ledger.{k}" for k in LEDGER_KEYS]
        d = run_session(SessionConfig(n_qubits=10**4, rng_seed=1)).as_dict()
        keys = [k for k in d if k.startswith("ledger")]
        assert keys == ([f"ledger.{k}" for k in LEDGER_KEYS]
                        + [f"ledger_raw.{k}" for k in LEDGER_KEYS])
        assert list(d)[-len(keys):] == keys

    def test_curve_values_match_the_golden_digest(self):
        # every value of 2 x 2,001 curve points, bit for bit, as first computed
        # with frozen-dataclass records
        h = hashlib.sha256()
        for ch in (ChannelParams(), ChannelParams(e_opt=0.05, f=1.16)):
            for pt in efficiency_curve(ch, ProtocolParams(), [i * 0.1 for i in range(2001)]):
                h.update(json.dumps([pt.length_km, pt.standard.as_dict(),
                                     pt.optimal.as_dict()]).encode())
        assert h.hexdigest() == (
            "5fbb2171c1e7ebb6eb4733da2373c718e41f137af3dbd25a337978bf3d7b4c58")


class TestProtocolParamsValidation:
    def test_sifting_coefficient_domain(self):
        with pytest.raises(ParameterError):
            ProtocolParams(s=0.0)
        with pytest.raises(ParameterError):
            ProtocolParams(s=1.2)

    def test_asymptotic_requires_zero_delta(self):
        with pytest.raises(ParameterError):
            ProtocolParams(delta=0.1, n_qubits=INFINITE)
        ProtocolParams(delta=0.1, n_qubits=10**6)  # finite mode is fine

    def test_asymptotic_flag(self):
        assert ProtocolParams().asymptotic
        assert not ProtocolParams(n_qubits=10**6).asymptotic

    def test_bad_counts(self):
        for n in (0.5, math.nan):
            with pytest.raises(ParameterError):
                ProtocolParams(n_qubits=n)
        with pytest.raises(ParameterError):
            ProtocolParams(delta=1.0, n_qubits=100)


class TestDomainChecks:
    @pytest.mark.parametrize("value", [0, 3, np.int64(3), np.uint8(0), True, 10**30])
    def test_count_accepts_integers_in_range(self, value):
        check_count("n", value)

    @pytest.mark.parametrize("value, message", [
        (2.5, "n must be an integer, got 2.5"),
        (4.0, "n must be an integer, got 4.0"),
        (math.nan, "n must be an integer, got nan"),
        ("3", "n must be an integer, got '3'"),
        (-1, "n must be >= 0, got -1"),
    ])
    def test_count_refusals(self, value, message):
        with pytest.raises(ParameterError) as exc:
            check_count("n", value)
        assert str(exc.value) == message

    def test_count_closed_range(self):
        check_count("k", 12, 1, 12)
        for k in (0, 13):
            with pytest.raises(ParameterError, match=rf"k must lie in \[1, 12\], got {k}"):
                check_count("k", k, 1, 12)

    @pytest.mark.parametrize("ends, inside, outside", [
        ("[]", (0.0, 1.0), (-0.1, 1.1)),
        ("[)", (0.0, 0.999), (1.0,)),
        ("(]", (1.0, 1e-300), (0.0,)),
        ("()", (0.5,), (0.0, 1.0)),
    ])
    def test_range_ends(self, ends, inside, outside):
        for x in inside:
            check_range("x", x, 0.0, 1.0, ends)
        for x in (*outside, math.nan, math.inf, -math.inf):
            with pytest.raises(ParameterError) as exc:
                check_range("x", x, 0.0, 1.0, ends)
            assert str(exc.value) == f"x must lie in {ends[0]}0, 1{ends[1]}, got {x}"

    def test_range_without_upper_end_means_finite(self):
        check_range("f", 1.0, 1.0)
        check_range("f", np.float32(1e30), 1.0)
        for f in (0.5, math.inf, math.nan):
            with pytest.raises(ParameterError) as exc:
                check_range("f", f, 1.0)
            assert str(exc.value) == f"f must be finite and >= 1, got {f}"

    @pytest.mark.parametrize("value", ["0.5", None, 1j])
    def test_range_refuses_non_reals(self, value):
        with pytest.raises(ParameterError, match="must be a real number"):
            check_range("x", value, 0.0, 1.0)

    def test_optimality_capacity_domain(self):
        for xi in (-0.1, 1.5, math.nan):
            with pytest.raises(ParameterError):
                determine_optimality(ChannelParams(), xi)
