"""E3 -- Reverse-engineering application experience (paper §2, Figure 4).

A cellular InfP wants per-session web QoE.  Status quo: it fits a model
from the network-level features it can observe passively (radio-state
occupancy, handovers, early-response timing, byte counts) and predicts
page-load time.  EONA: the AppP exports the measured PLT over A2I --
zero inference error by construction.

Expected shape: the inference carries substantial irreducible error
(MAE a large fraction of the PLT spread) and mis-ranks sessions, and it
degrades further as radio volatility grows; direct A2I export is exact.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.experiments.common import ExperimentResult
from repro.experiments.registry import register
from repro.experiments.spec import ExperimentSpec, VariantSpec, check
from repro.telemetry.inference import QoeInferenceModel, pageload_features
from repro.web.browser import PageLoadRecord
from repro.web.page import make_page
from repro.web.qoe import satisfaction_from_plt
from repro.web.radio import DEFAULT_TRANSITIONS
from repro.scenarios import build_scenario


def generate_pageloads(
    seed: int = 0,
    n_clients: int = 12,
    n_pages_per_client: int = 30,
    think_time_s: float = 3.0,
    radio_volatility: float = 1.0,
) -> List[PageLoadRecord]:
    """Simulate browsing sessions and return every page-load record.

    ``radio_volatility`` scales the off-diagonal transition mass of the
    radio Markov chain: 0 = frozen radio, 1 = the default dynamics,
    >1 = churnier (more handovers, faster fading).
    """
    scenario = build_scenario(
        "cellular-web", seed=seed, params={"n_clients": n_clients}
    )
    sim = scenario.sim
    if radio_volatility != 1.0:
        transitions = _scaled_transitions(radio_volatility)
        for radio in scenario.radios:
            radio.transitions = transitions

    page_rng = scenario.rng
    records: List[PageLoadRecord] = []
    browsing = len(scenario.browsers)

    def browse(browser, remaining: int, index: int) -> None:
        nonlocal browsing
        if remaining <= 0:
            # The last browser is done and no page is in flight, so the
            # radios (on their own RNG streams) can no longer change a
            # record: stop them and let the run drain to quiescence.
            browsing -= 1
            if browsing == 0:
                for radio in scenario.radios:
                    radio.stop()
            return
        page = make_page(page_rng, page_id=f"p{index}-{remaining}")

        def done(record: PageLoadRecord) -> None:
            records.append(record)
            sim.schedule(
                page_rng.expovariate(1.0 / think_time_s),
                browse,
                browser,
                remaining - 1,
                index,
            )

        browser.load_page(page, on_done=done)

    for index, browser in enumerate(scenario.browsers):
        sim.schedule(page_rng.uniform(0, 5), browse, browser, n_pages_per_client, index)
    sim.run()
    return records


def _scaled_transitions(volatility: float):
    scaled = {}
    for state, row in DEFAULT_TRANSITIONS.items():
        stay = row.get(state, 0.0)
        move = 1.0 - stay
        new_move = min(1.0, move * volatility)
        factor = new_move / move if move > 0 else 0.0
        new_row = {
            target: probability * factor
            for target, probability in row.items()
            if target is not state
        }
        new_row[state] = 1.0 - sum(new_row.values())
        scaled[state] = new_row
    return scaled


def evaluate_inference(
    records: List[PageLoadRecord],
    train_fraction: float = 0.6,
    seed: int = 0,
) -> Dict[str, float]:
    """Train/test split, fit the InfP's model, report accuracy."""
    if len(records) < 10:
        raise ValueError(f"need at least 10 records, got {len(records)}")
    rng = random.Random(seed)
    shuffled = list(records)
    rng.shuffle(shuffled)
    split = int(len(shuffled) * train_fraction)
    train, test = shuffled[:split], shuffled[split:]
    model = QoeInferenceModel()
    model.fit([pageload_features(r) for r in train], [r.plt_s for r in train])
    report = model.evaluate(
        [pageload_features(r) for r in test], [r.plt_s for r in test]
    )
    plts = [r.plt_s for r in test]
    mean_plt = sum(plts) / len(plts)
    spread = (sum((p - mean_plt) ** 2 for p in plts) / len(plts)) ** 0.5
    # Decision-level error: does predicted satisfaction flag the same
    # "bad" sessions as the truth?
    threshold = 0.5
    predictions = model.predict([pageload_features(r) for r in test])
    truth_bad = [satisfaction_from_plt(p) < threshold for p in plts]
    predicted_bad = [
        satisfaction_from_plt(max(0.0, float(p))) < threshold for p in predictions
    ]
    agree = sum(t == p for t, p in zip(truth_bad, predicted_bad))
    return {
        "n_test": len(test),
        "mae_s": report.mae,
        "rmse_s": report.rmse,
        "spearman": report.spearman,
        "plt_std_s": spread,
        "relative_mae": report.mae / spread if spread > 0 else 0.0,
        "bad_session_detection_acc": agree / len(test),
    }


def run(seed: int = 0, **kwargs) -> ExperimentResult:
    """Direct A2I export vs. network-level inference."""
    result = ExperimentResult(
        name="E3-inference",
        notes="predicting web PLT from InfP-visible features (Figure 4)",
    )
    records = generate_pageloads(seed=seed, **kwargs)
    inferred = evaluate_inference(records, seed=seed)
    result.add_row(
        method="a2i_direct",
        n_test=inferred["n_test"],
        mae_s=0.0,
        rmse_s=0.0,
        spearman=1.0,
        relative_mae=0.0,
        bad_session_detection_acc=1.0,
    )
    result.add_row(method="network_inference", **inferred)
    return result


def run_volatility_sweep(
    seed: int = 0,
    volatilities: Tuple[float, ...] = (0.5, 1.0, 1.5, 2.0),
    **kwargs,
) -> ExperimentResult:
    """Inference error vs. radio churn: the proxy gets worse as the
    hidden state moves faster than the features can summarize."""
    result = ExperimentResult(
        name="E3-volatility-sweep",
        notes="inference degradation as radio dynamics speed up",
    )
    for volatility in volatilities:
        records = generate_pageloads(
            seed=seed, radio_volatility=volatility, **kwargs
        )
        inferred = evaluate_inference(records, seed=seed)
        result.add_row(
            radio_volatility=volatility,
            mae_s=inferred["mae_s"],
            spearman=inferred["spearman"],
            relative_mae=inferred["relative_mae"],
            detection_acc=inferred["bad_session_detection_acc"],
        )
    return result


register(
    ExperimentSpec(
        exp_id="e3",
        title="inferring web QoE from network features vs direct A2I (Figure 4)",
        source="paper §2, third bullet; Figure 4",
        module=__name__,
        variants=(
            VariantSpec(
                name="inference",
                runner=lambda seed: run(seed=seed, n_clients=10, n_pages_per_client=25),
                row_key="method",
                checks=(
                    check("mae_s", "a2i_direct", "==", 0.0),
                    check("spearman", "a2i_direct", "==", 1.0),
                    check("mae_s", "network_inference", ">", 0.05),
                    check("relative_mae", "network_inference", ">", 0.1),
                    check("bad_session_detection_acc", "network_inference", "<", 1.0),
                ),
            ),
            VariantSpec(
                name="volatility-sweep",
                runner=lambda seed: run_volatility_sweep(
                    seed=seed,
                    volatilities=(0.5, 1.0, 2.0),
                    n_clients=8,
                    n_pages_per_client=20,
                ),
                row_key="radio_volatility",
                checks=(
                    # Faster hidden-state dynamics degrade the proxy.
                    check("mae_s", 2.0, ">=", 0.5, of=0.5),
                ),
            ),
        ),
    )
)
