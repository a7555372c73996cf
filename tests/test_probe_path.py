"""The 2x2 probe path: each probe builds one fresh per-sample array in
place, bit-equal to the out-of-place formulas on coefficient rows built
here from the bank's packed Grams, without touching the c3 memo or
arrays handed out earlier, and with a pinned peak of traced memory."""

import math
import tracemalloc

import numpy as np
import pytest

from relaycov import capacity, channel, cooperation, matrixkit
from relaycov.capacity import McConfig, ScenarioConfig
from relaycov.channel import FadingModel, LosPrototype, NetworkGeometry

N = 20000


def rician(kind):
    proto = (LosPrototype.poorly_conditioned() if kind == "poor"
             else LosPrototype.well_conditioned())
    return FadingModel.rician(10.0, proto)


FADINGS = {"rayleigh": FadingModel.rayleigh(), "rician-poor": rician("poor"),
           "rician-well": rician("well")}


@pytest.fixture(params=sorted(FADINGS))
def scn(request):
    model = FADINGS[request.param]
    capacity.release_bank()
    yield ScenarioConfig(fading_sr=model, fading_sd=model, fading_rd=model)
    capacity.release_bank()


def old_formulas(scn, mc, r_R, r_D, r_DR, r_DR2):
    """The out-of-place formulas: det(I + sum_k a_k G_k) of 2x2 Grams is
    1 + sum_k a_k tr G_k + sum_k a_k^2 det G_k + sum_{k<l} a_k a_l <G_k, G_l>,
    written out per cut from the bank's packed Grams; c1 adds sd's terms to
    c3's determinant and coop adds rd2's to c2's."""
    bank = capacity._bank_for(scn, mc)
    det, mixed = matrixkit.det_2x2, matrixkit.mixed_discriminant_2x2
    sr, sd_tx = bank.gram("sr", "tx"), bank.gram("sd", "tx")
    sd, rd, rd2 = (bank.gram(link, "rx") for link in ("sd", "rd", "rd2"))
    a_s, a_r = scn.P_s / scn.N_s, scn.P_r / scn.N_r
    a_sr, a_sd = a_s * r_R ** -scn.alpha, a_s * r_D ** -scn.alpha
    a_rd, a_rd2 = a_r * r_DR ** -scn.alpha, a_r * r_DR2 ** -scn.alpha
    c3_det = 1.0 + np.array([a_sr, a_sr * a_sr]) @ np.stack(
        [sr[0] + sr[1], det(sr)])
    c1_det = c3_det + np.array([a_sd, a_sd * a_sd, a_sd * a_sr]) @ np.stack(
        [sd_tx[0] + sd_tx[1], det(sd_tx), mixed(sd_tx, sr)])
    w = np.array([a_sd, a_rd, a_sd * a_sd, a_rd * a_rd, a_sd * a_rd])
    mac_det = 1.0 + w @ np.stack(
        [sd[0] + sd[1], rd[0] + rd[1], det(sd), det(rd), mixed(sd, rd)])
    w2 = np.array([a_rd2, a_rd2 * a_rd2, a_sd * a_rd2, a_rd * a_rd2])
    coop_det = mac_det + w2 @ np.stack(
        [rd2[0] + rd2[1], det(rd2), mixed(sd, rd2), mixed(rd, rd2)])
    return {"c1": np.log2(c1_det), "c2": np.log2(mac_det),
            "c3": np.log2(c3_det), "coop": np.log2(coop_det)}


def assert_same(est, values):
    assert np.array_equal(est._values, values)
    assert est.mean == float(np.mean(values))


class TestBitEqualToOutOfPlace:
    GEOM = NetworkGeometry(relay_radius=0.9, relay_count=4, dest_radius=1.4,
                           dest_angle=0.3)

    def test_estimators(self, scn):
        mc = McConfig(samples=3000)
        r_R, r_D, r_DR, r_DR2 = 0.9, 1.3, 0.7, 1.6
        # Draw every link first.
        capacity.estimate_c3(scn, r_R, mc)
        cooperation.estimate_coop_sum_rate(scn, r_D, r_DR, r_DR2, mc)
        old = old_formulas(scn, mc, r_R, r_D, r_DR, r_DR2)
        assert_same(capacity.estimate_c3(scn, r_R, mc), old["c3"])
        assert_same(capacity.estimate_c2(scn, r_D, r_DR, mc), old["c2"])
        assert_same(capacity.summarize_samples(capacity.sample_bound_realizations(
            scn, r_R, r_D, r_DR, mc).c1), old["c1"])
        assert_same(cooperation.estimate_coop_sum_rate(
            scn, r_D, r_DR, r_DR2, mc), old["coop"])
        # A second relay of zero power still reproduces c2 bit for bit.
        a_sd = scn.P_s / scn.N_s * r_D ** -scn.alpha
        a_rd = scn.P_r / scn.N_r * r_DR ** -scn.alpha
        assert np.array_equal(
            capacity._bank_for(scn, mc).coop(a_sd, a_rd, 0.0), old["c2"])

    def test_minimum_rates(self, scn):
        mc = McConfig(samples=3000)
        geom = self.GEOM
        r_R, r_D, r_DR = capacity.resolve_distances(geom)
        d1, d2 = cooperation.two_relay_distances(geom)
        # Draw every link first.
        cooperation.estimate_coop_sum_rate(scn, r_D, r_DR, d2, mc)
        old = old_formulas(scn, mc, r_R, r_D, r_DR, d2)
        assert_same(capacity.df_rate(scn, geom, mc),
                    np.minimum(old["c3"], old["c2"]))
        assert_same(capacity.cutset_bound(scn, geom, mc),
                    np.minimum(old["c1"], old["c2"]))
        coop = old_formulas(scn, mc, r_R, r_D, d1, d2)["coop"]
        assert_same(cooperation.coop_df_rate(scn, geom, mc),
                    np.minimum(old["c3"], coop))


def test_later_probes_leave_handed_out_arrays_untouched():
    scn, mc = ScenarioConfig(), McConfig(samples=2000)
    capacity.release_bank()
    s = capacity.sample_bound_realizations(scn, 0.9, 1.3, 0.7, mc)
    coop = cooperation.estimate_coop_sum_rate(scn, 1.3, 0.7, 1.6, mc)._values
    memo = capacity.estimate_c3(scn, 0.9, mc)._values
    handed_out = {"c1": s.c1, "c2": s.c2, "c3": s.c3, "coop": coop}
    kept = {name: values.copy() for name, values in handed_out.items()}
    kept_memo = memo.copy()
    for r_D in (0.2, 0.9, 1.3, 2.5):
        geom = NetworkGeometry(relay_radius=0.9, relay_count=4,
                               dest_radius=r_D, dest_angle=0.2)
        capacity.df_rate(scn, geom, mc)
        capacity.cutset_bound(scn, geom, mc)
        cooperation.coop_df_rate(scn, geom, mc)
        capacity.estimate_c2(scn, r_D, 0.7, mc)
        cooperation.estimate_coop_sum_rate(scn, r_D, 0.7, 1.6, mc)
    assert capacity.estimate_c3(scn, 0.9, mc)._values is memo
    assert np.array_equal(memo, kept_memo)
    for name, values in kept.items():
        assert np.array_equal(handed_out[name], values), name
    capacity.release_bank()


def peak_arrays(probe, *args) -> float:
    """Peak traced memory of one probe, in per-sample arrays of 8 N bytes."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        est = probe(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert est.samples_used == N
    return peak / (8 * N)


@pytest.mark.parametrize("probe,limit", [
    (capacity.df_rate, 1.1), (cooperation.coop_df_rate, 1.1),
    (capacity.cutset_bound, 2.1)], ids=["df", "coop", "cutset"])
def test_peak_memory_per_probe(probe, limit):
    scn, mc = ScenarioConfig(), McConfig(samples=N)
    capacity.release_bank()
    try:
        # Warm the bank: draws, coefficient rows, scratch row and c3 memo.
        probe(scn, NetworkGeometry(0.9, 4, 1.0, 0.2), mc)
        peak = peak_arrays(probe, scn, NetworkGeometry(0.9, 4, 1.7, 0.2), mc)
    finally:
        capacity.release_bank()
    assert peak <= limit


def test_mean_is_np_mean_bit_for_bit():
    rng = np.random.default_rng(11)
    for n in (1, 2, 7, 128, 129, 20000, 20001):
        values = rng.standard_normal(n) * 10 + 3
        assert capacity.summarize_samples(values).mean == float(np.mean(values))


def test_law_of_cosines_matches_numpy_bit_for_bit():
    rng = np.random.default_rng(3)
    for phi, r_D, r_R in zip(rng.uniform(0, math.pi, 5000),
                             rng.uniform(0, 10, 5000), rng.uniform(0, 3, 5000)):
        r_D, r_R = float(r_D), float(r_R)
        want = np.sqrt(max(r_D * r_D + r_R * r_R
                           - 2.0 * r_D * r_R * np.cos(phi), 0.0))
        assert channel.relay_dest_distance(r_D, r_R, float(phi)) == float(want)
