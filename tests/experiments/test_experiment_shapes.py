"""Integration: each experiment reproduces its paper scenario's *shape*.

These are deliberately small/fast configurations of the E1..E10
experiments; the benchmarks run the full-size versions.  What is
asserted here is exactly what the paper claims qualitatively.
"""

import pytest

from repro.baselines.modes import Mode
from repro.experiments import (
    exp_e1_coarse_control,
    exp_e2_flash_crowd,
    exp_e3_inference,
    exp_e4_oscillation,
    exp_e5_energy,
    exp_e8_fairness,
)


@pytest.fixture(scope="module")
def e1():
    return {
        mode: exp_e1_coarse_control.run_mode(
            mode, seed=1, n_clients=10, n_sessions=14, horizon_s=500.0
        )
        for mode in (Mode.STATUS_QUO, Mode.EONA)
    }


class TestE1CoarseControl:
    def test_eona_retains_traffic_on_cdn_x(self, e1):
        assert e1[Mode.EONA]["traffic_retained_by_x"] == 1.0
        assert e1[Mode.STATUS_QUO]["traffic_retained_by_x"] < 1.0

    def test_eona_uses_server_switches_not_cdn_switches(self, e1):
        assert e1[Mode.EONA]["cdn_switches"] == 0
        assert e1[Mode.EONA]["server_switches"] > 0
        assert e1[Mode.STATUS_QUO]["cdn_switches"] > 0

    def test_status_quo_pays_cold_origin(self, e1):
        assert e1[Mode.STATUS_QUO]["origin_y_fetches"] > 0
        assert e1[Mode.EONA]["origin_y_fetches"] == 0

    def test_eona_delivers_higher_bitrate(self, e1):
        assert (
            e1[Mode.EONA]["mean_bitrate_mbps"]
            > e1[Mode.STATUS_QUO]["mean_bitrate_mbps"]
        )


@pytest.fixture(scope="module")
def e2():
    kwargs = dict(seed=1, n_clients=15, peak_rate_per_s=1.0, horizon_s=400.0,
                  access_capacity_mbps=25.0)
    return {
        mode: exp_e2_flash_crowd.run_mode(mode, **kwargs)
        for mode in (Mode.STATUS_QUO, Mode.EONA)
    }


class TestE2FlashCrowd:
    def test_eona_cuts_buffering(self, e2):
        assert (
            e2[Mode.EONA]["buffering_ratio"]
            < e2[Mode.STATUS_QUO]["buffering_ratio"]
        )

    def test_eona_trades_bitrate_down(self, e2):
        assert (
            e2[Mode.EONA]["mean_bitrate_mbps"]
            <= e2[Mode.STATUS_QUO]["mean_bitrate_mbps"]
        )

    def test_futile_cdn_switching_eliminated(self, e2):
        assert e2[Mode.STATUS_QUO]["cdn_switches"] > 0
        assert e2[Mode.EONA]["cdn_switches"] == 0

    def test_engagement_improves(self, e2):
        assert e2[Mode.EONA]["engagement"] > e2[Mode.STATUS_QUO]["engagement"]


class TestE3Inference:
    def test_inference_carries_irreducible_error(self):
        records = exp_e3_inference.generate_pageloads(
            seed=1, n_clients=6, n_pages_per_client=15
        )
        report = exp_e3_inference.evaluate_inference(records, seed=1)
        assert report["mae_s"] > 0.05
        assert report["relative_mae"] > 0.1
        assert report["spearman"] < 1.0

    def test_inference_still_informative(self):
        records = exp_e3_inference.generate_pageloads(
            seed=1, n_clients=6, n_pages_per_client=15
        )
        report = exp_e3_inference.evaluate_inference(records, seed=1)
        assert report["spearman"] > 0.5

    def test_run_ends_at_quiescence(self, monkeypatch):
        # Once the last browser is done the radios stop, so the queue
        # drains shortly after the last page load instead of ticking on.
        built = []
        build = exp_e3_inference.build_scenario

        def capture(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(exp_e3_inference, "build_scenario", capture)
        records = exp_e3_inference.generate_pageloads(
            seed=1, n_clients=6, n_pages_per_client=15
        )
        assert len(records) == 90
        (scenario,) = built
        assert scenario.sim.pending_events == 0
        assert scenario.sim.now < 500


@pytest.fixture(scope="module")
def e4():
    kwargs = dict(seed=1, n_clients=16, horizon_s=800.0, te_period_s=40.0)
    return {
        mode: exp_e4_oscillation.run_mode(mode, **kwargs)
        for mode in (Mode.STATUS_QUO, Mode.EONA)
    }


class TestE4Oscillation:
    def test_status_quo_oscillates(self, e4):
        assert e4[Mode.STATUS_QUO]["te_switches"] >= 6

    def test_eona_converges(self, e4):
        assert e4[Mode.EONA]["te_switches"] <= 3

    def test_eona_lands_on_green_path_under_load(self, e4):
        assert e4[Mode.EONA]["on_green_path"]

    def test_congested_time_reduced(self, e4):
        assert (
            e4[Mode.EONA]["peerB_congested_frac"]
            < e4[Mode.STATUS_QUO]["peerB_congested_frac"]
        )

    def test_switch_count_grows_with_horizon_only_for_status_quo(self):
        growth = exp_e4_oscillation.run_switch_growth(
            seed=1, horizons=(400.0, 800.0), n_clients=16, te_period_s=40.0
        )
        short, long = growth.rows
        assert long["status_quo_te_switches"] > short["status_quo_te_switches"]
        assert long["eona_te_switches"] <= short["eona_te_switches"] + 1


@pytest.fixture(scope="module")
def e5():
    kwargs = dict(seed=1, day_s=1200.0, n_servers=4, n_clients=20,
                  mean_rate_per_s=0.2)
    return {
        name: exp_e5_energy.run_policy(name, **kwargs)
        for name in ("conservative", "schedule", "eona")
    }


class TestE5Energy:
    def test_conservative_saves_nothing(self, e5):
        assert e5["conservative"]["energy_saved_pct"] == 0.0

    def test_eona_saves_energy(self, e5):
        assert e5["eona"]["energy_saved_pct"] > 10.0

    def test_eona_preserves_qoe_better_than_schedule(self, e5):
        assert e5["eona"]["buffering_ratio"] <= e5["schedule"]["buffering_ratio"]
        assert e5["eona"]["abandoned"] <= e5["schedule"]["abandoned"]

    def test_eona_qoe_near_conservative(self, e5):
        assert e5["eona"]["buffering_ratio"] < 0.01


class TestE8Fairness:
    def test_eona_helps_both_apps_and_splits_peerings(self):
        kwargs = dict(seed=1, n_heavy=10, n_light=5, horizon_s=600.0,
                      te_period_s=40.0)
        quo = exp_e8_fairness.run_mode(Mode.STATUS_QUO, **kwargs)
        eona = exp_e8_fairness.run_mode(Mode.EONA, **kwargs)
        assert eona["heavy_engagement"] >= quo["heavy_engagement"]
        assert eona["light_engagement"] >= quo["light_engagement"]
        assert eona["te_switches"] < quo["te_switches"]
