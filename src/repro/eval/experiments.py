"""The paper's evaluation experiments (Figs. 3, 7, 8, 9, 10) + ablations.

Each function reproduces one figure of Sec. V as structured data; the
``benchmarks/`` harness times them and renders the paper-style rows.  All
experiments are deterministic given their seed.

Absolute numbers come from the simulated substrate, not the authors' HKUST
testbed, so the assertions in the benchmark suite check the *shape* of
each result (orderings, crossovers, dominance), not the raw values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from typing import Sequence

import numpy as np

from ..baselines import (
    FingerprintLocalizer,
    SequenceLocalizer,
    StaticSPLocalizer,
    TrilaterationLocalizer,
    WeightedCentroidLocalizer,
)
from ..channel import DelayProfile
from ..core import (
    CenterMethod,
    LocalizerConfig,
    NomLocSystem,
    SystemConfig,
    measure_link_pdp,
)
from ..environment import get_scenario
from ..extensions import PatternBoundLocalizer, lobby_with_nomadic_count
from ..geometry import Point
from ..mobility import (
    HotspotPattern,
    MobilityPattern,
    PatrolPattern,
    SweepPattern,
)
from .metrics import ErrorCDF, ErrorStats
from .runner import CampaignResult, run_campaign

__all__ = [
    "ExperimentConfig",
    "Fig3Result",
    "fig3_delay_profiles",
    "Fig7Result",
    "fig7_pdp_accuracy",
    "Fig8Result",
    "fig8_slv",
    "Fig9Result",
    "fig9_error_cdf",
    "Fig10Result",
    "fig10_position_error",
    "ablation_antennas",
    "ablation_center_methods",
    "ablation_interference",
    "ablation_confidence_functions",
    "ablation_device_heterogeneity",
    "ablation_proximity_metric",
    "ablation_bandwidth",
    "ablation_site_count",
    "ablation_nomadic_pairs",
    "ablation_shadowing",
    "ext_multi_nomadic",
    "ext_mobility_patterns",
    "baseline_comparison",
    "EXTRA_LAB_SITES",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared workload sizing for the experiment suite.

    Defaults are sized so the full benchmark harness finishes in minutes;
    crank ``repetitions`` and ``packets_per_link`` up for smoother curves.
    ``workers`` fans each campaign's sites out over a process pool
    (``0`` = sequential); results are bit-identical either way because
    every query's RNG is keyed only by (seed, site, repetition).
    """

    repetitions: int = 3
    packets_per_link: int = 15
    trace_steps: int = 12
    seed: int = 0
    workers: int = 0

    def system_config(self, **overrides) -> SystemConfig:
        """A :class:`SystemConfig` sized by this experiment config."""
        base = SystemConfig(
            packets_per_link=self.packets_per_link,
            trace_steps=self.trace_steps,
        )
        return replace(base, **overrides) if overrides else base


DEFAULT = ExperimentConfig()


# ----------------------------------------------------------------------
# Fig. 3 — channel response delay profile, LOS vs NLOS
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Fig3Result:
    """Averaged delay profiles of one LOS and one NLOS Lab link."""

    los_profile: DelayProfile
    nlos_profile: DelayProfile
    los_link: tuple[Point, Point]
    nlos_link: tuple[Point, Point]

    def first_tap_ratio(self) -> float:
        """NLOS first-tap amplitude relative to LOS (<< 1 expected)."""
        return float(
            self.nlos_profile.amplitudes[0] / self.los_profile.amplitudes[0]
        )


def fig3_delay_profiles(
    config: ExperimentConfig = DEFAULT, packets: int = 60
) -> Fig3Result:
    """Reproduce Fig. 3: CIR delay profiles of a LOS and an NLOS link.

    Picks a comparable-length LOS/NLOS link pair from the Lab scenario and
    averages per-tap amplitudes over ``packets`` snapshots.
    """
    scenario = get_scenario("lab")
    system = NomLocSystem(scenario, config.system_config())
    sim = system.link_sim
    candidates = [
        (ap.position, site)
        for ap in scenario.aps
        for site in scenario.test_sites
        if 3.0 <= ap.position.distance_to(site) <= 9.0
    ]
    los_link = next(
        (ap, s) for ap, s in candidates if sim.is_los(ap, s)
    )
    nlos_link = next(
        (ap, s) for ap, s in candidates if not sim.is_los(ap, s)
    )

    def averaged(link: tuple[Point, Point]) -> DelayProfile:
        rng = np.random.default_rng(config.seed)
        profiles = [
            sim.measure_delay_profile(link[1], link[0], rng)
            for _ in range(packets)
        ]
        amps = np.mean([p.amplitudes for p in profiles], axis=0)
        return DelayProfile(profiles[0].delays_s, amps).truncated(1.5e-6)

    return Fig3Result(averaged(los_link), averaged(nlos_link), los_link, nlos_link)


# ----------------------------------------------------------------------
# Fig. 7 — PDP-based proximity determination accuracy per site
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Fig7Result:
    """Per-site proximity accuracy for one scenario."""

    scenario: str
    site_accuracies: tuple[float, ...]

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean(self.site_accuracies))

    def fraction_above(self, threshold: float) -> float:
        """Fraction of sites whose accuracy exceeds ``threshold``."""
        return float(
            np.mean([a > threshold for a in self.site_accuracies])
        )


def fig7_pdp_accuracy(
    scenario_name: str,
    config: ExperimentConfig = DEFAULT,
    rounds: int = 10,
) -> Fig7Result:
    """Reproduce Fig. 7: PDP proximity accuracy at every test site.

    Each round independently re-measures all four AP links and judges the
    C(4,2) = 6 pairs against ground-truth distances; a site's accuracy is
    the fraction of correct judgements over all rounds.
    """
    scenario = get_scenario(scenario_name)
    system = NomLocSystem(scenario, config.system_config())
    ap_positions = [ap.position for ap in scenario.aps]
    accuracies = []
    for site_idx, site in enumerate(scenario.test_sites):
        correct = 0
        total = 0
        for rnd in range(rounds):
            rng = np.random.default_rng(
                np.random.SeedSequence([config.seed, site_idx, rnd])
            )
            pdps = [
                measure_link_pdp(
                    system.link_sim, site, p, config.packets_per_link, rng
                )
                for p in ap_positions
            ]
            for i, j in combinations(range(len(ap_positions)), 2):
                truth = site.distance_to(ap_positions[i]) <= site.distance_to(
                    ap_positions[j]
                )
                judged = pdps[i] >= pdps[j]
                correct += truth == judged
                total += 1
        accuracies.append(correct / total)
    return Fig7Result(scenario_name, tuple(accuracies))


# ----------------------------------------------------------------------
# Fig. 8 — spatial localizability variance, static vs nomadic
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Fig8Result:
    """SLV of both deployments in both scenarios."""

    slv: dict[str, dict[str, float]]  # scenario -> {"static"|"nomadic": slv}
    stats: dict[str, dict[str, ErrorStats]]

    def reduction(self, scenario: str) -> float:
        """Relative SLV reduction achieved by the nomadic deployment."""
        s = self.slv[scenario]
        if s["static"] <= 0:
            return 0.0
        return 1.0 - s["nomadic"] / s["static"]


def fig8_slv(
    config: ExperimentConfig = DEFAULT,
    scenario_names: Sequence[str] = ("lab", "lobby"),
) -> Fig8Result:
    """Reproduce Fig. 8: SLV comparison in the Lab and the Lobby."""
    slv_out: dict[str, dict[str, float]] = {}
    stats_out: dict[str, dict[str, ErrorStats]] = {}
    for name in scenario_names:
        runs = _static_vs_nomadic(name, config)
        slv_out[name] = {arm: run.stats.slv for arm, run in runs.items()}
        stats_out[name] = {arm: run.stats for arm, run in runs.items()}
    return Fig8Result(slv_out, stats_out)


def _static_vs_nomadic(
    scenario_name: str, config: ExperimentConfig
) -> dict[str, CampaignResult]:
    """The Fig. 8/9 campaign pair: the scenario's test sites localized
    without and with the nomadic AP, keyed ``"static"`` / ``"nomadic"``."""
    scenario = get_scenario(scenario_name)
    return {
        arm: run_campaign(
            NomLocSystem(
                scenario,
                config.system_config(use_nomadic=arm == "nomadic"),
            ),
            scenario.test_sites,
            config.repetitions,
            config.seed,
            f"{scenario_name}-{arm}",
            workers=config.workers,
        )
        for arm in ("static", "nomadic")
    }


# ----------------------------------------------------------------------
# Fig. 9 — error CDF, static vs nomadic
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Fig9Result:
    """Error CDFs of both deployments in one scenario."""

    scenario: str
    static_cdf: ErrorCDF
    nomadic_cdf: ErrorCDF


def fig9_error_cdf(
    scenario_name: str, config: ExperimentConfig = DEFAULT
) -> Fig9Result:
    """Reproduce Fig. 9: CDF of per-site mean error, static vs nomadic."""
    runs = _static_vs_nomadic(scenario_name, config)
    return Fig9Result(scenario_name, runs["static"].cdf, runs["nomadic"].cdf)


# ----------------------------------------------------------------------
# Fig. 10 — nomadic AP position error sweep
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Fig10Result:
    """Error CDFs for each position-error range (ER)."""

    scenario: str
    cdfs: dict[float, ErrorCDF]

    def mean_at(self, er: float) -> float:
        """Mean per-site error at one error range."""
        return self.cdfs[er].mean

    def degradation(self, er: float) -> float:
        """Mean-error increase at ``er`` relative to ER = 0."""
        return self.mean_at(er) - self.mean_at(0.0)


def fig10_position_error(
    scenario_name: str,
    config: ExperimentConfig = DEFAULT,
    error_ranges: Sequence[float] = (0.0, 1.0, 2.0, 3.0),
) -> Fig10Result:
    """Reproduce Fig. 10: robustness to nomadic position error."""
    scenario = get_scenario(scenario_name)
    cdfs = {}
    for er in error_ranges:
        system = NomLocSystem(
            scenario, config.system_config().with_error_range(er)
        )
        result = run_campaign(
            system,
            scenario.test_sites,
            config.repetitions,
            config.seed,
            workers=config.workers,
        )
        cdfs[float(er)] = result.cdf
    return Fig10Result(scenario_name, cdfs)


# ----------------------------------------------------------------------
# Ablations
# ----------------------------------------------------------------------

def ablation_center_methods(
    scenario_name: str = "lab", config: ExperimentConfig = DEFAULT
) -> dict[str, ErrorStats]:
    """ABL-CTR: centroid vs Chebyshev vs analytic region centres."""
    scenario = get_scenario(scenario_name)
    out = {}
    for method in CenterMethod:
        system = NomLocSystem(
            scenario,
            config.system_config(),
            LocalizerConfig(center_method=method),
        )
        result = run_campaign(
            system,
            scenario.test_sites,
            config.repetitions,
            config.seed,
            workers=config.workers,
        )
        out[method.value] = result.stats
    return out


#: Additional nomadic measurement sites for the Lab, appended to the
#: deployment's own site set for the S-sweep (all obstacle-free).
EXTRA_LAB_SITES = (Point(2.6, 6.6), Point(10.4, 2.0), Point(6.2, 6.6))


def ablation_site_count(
    config: ExperimentConfig = DEFAULT,
    site_counts: Sequence[int] = (0, 2, 3, 4, 5, 7),
) -> dict[int, ErrorStats]:
    """ABL-SITES: accuracy vs the number of nomadic measurement sites S.

    ``S = 0`` is the static deployment; larger S extends the Lab site set
    with :data:`EXTRA_LAB_SITES`.
    """
    base = get_scenario("lab")
    nomadic_ap = base.nomadic_aps[0]
    all_sites = nomadic_ap.sites + EXTRA_LAB_SITES
    out = {}
    for count in site_counts:
        if count > len(all_sites):
            raise ValueError(
                f"S={count} exceeds the {len(all_sites)} available sites"
            )
        if count == 0:
            system = NomLocSystem(
                base, config.system_config(use_nomadic=False)
            )
        else:
            sites = all_sites[:count]
            aps = tuple(
                replace(ap, nomadic=count >= 2, sites=sites if count >= 2 else ())
                if ap.name == nomadic_ap.name
                else ap
                for ap in base.aps
            )
            variant = replace(base, aps=aps)
            # Walk long enough to visit every site with high probability.
            system = NomLocSystem(
                variant,
                config.system_config(trace_steps=max(config.trace_steps, 4 * count)),
            )
        result = run_campaign(
            system,
            base.test_sites,
            config.repetitions,
            config.seed,
            workers=config.workers,
        )
        out[count] = result.stats
    return out


def ablation_proximity_metric(
    scenario_name: str = "lab", config: ExperimentConfig = DEFAULT
) -> dict[str, ErrorStats]:
    """ABL-METRIC: PDP vs RSS vs first-tap as the proximity metric.

    The paper's central motivation for CSI over RSS (Sec. I): coarse
    total-power RSS is corrupted by multipath, and first-tap (TOA-style)
    estimation is misled by NLOS.
    """
    from ..core.pdp import PROXIMITY_METRICS

    scenario = get_scenario(scenario_name)
    out = {}
    for name in PROXIMITY_METRICS:
        system = NomLocSystem(
            scenario, config.system_config(proximity_metric=name)
        )
        result = run_campaign(
            system,
            scenario.test_sites,
            config.repetitions,
            config.seed,
            workers=config.workers,
        )
        out[name] = result.stats
    return out


def ablation_bandwidth(
    scenario_name: str = "lab",
    config: ExperimentConfig = DEFAULT,
    bandwidths_mhz: Sequence[float] = (5.0, 10.0, 20.0, 40.0),
) -> dict[float, ErrorStats]:
    """ABL-BW: channel bandwidth vs localization accuracy.

    Sec. III-B credits "the 20 MHz bandwidth of [the] 802.11n system" for
    resolving multipath: wider channels give finer CIR tap resolution
    (50 ns at 20 MHz), separating the direct path from reflections.  This
    sweep re-runs the system at several bandwidths, scaling the active
    subcarrier set with the FFT occupancy.
    """
    from ..channel import CSISynthesizer, OFDMConfig, PropagationModel

    scenario = get_scenario(scenario_name)
    out = {}
    for bw in bandwidths_mhz:
        ofdm = OFDMConfig(bandwidth_hz=bw * 1e6)
        synthesizer = CSISynthesizer(
            propagation=PropagationModel(
                path_loss_exponent=scenario.path_loss_exponent
            ),
            ofdm=ofdm,
        )
        system = NomLocSystem(
            scenario, config.system_config(), synthesizer=synthesizer
        )
        result = run_campaign(
            system,
            scenario.test_sites,
            config.repetitions,
            config.seed,
            workers=config.workers,
        )
        out[float(bw)] = result.stats
    return out


def ablation_interference(
    scenario_name: str = "lab",
    config: ExperimentConfig = DEFAULT,
    burst_probability: float = 0.3,
    burst_power_dbm: float = -10.0,
) -> dict[str, ErrorStats]:
    """ABL-INTF: bursty co-channel interference, mean vs median PDP.

    Three conditions: a clean channel with the paper's mean-of-packets
    PDP, the same estimator under strong collision bursts, and the robust
    median-of-packets variant under the same bursts.  The IFFT's
    processing gain absorbs moderate interference for free; overwhelming
    bursts favour the median.
    """
    from ..channel import CSISynthesizer, NoiseModel, PropagationModel

    scenario = get_scenario(scenario_name)

    def make_system(bursty: bool, metric: str) -> NomLocSystem:
        noise = NoiseModel(
            burst_probability=burst_probability if bursty else 0.0,
            burst_power_dbm=burst_power_dbm,
        )
        synthesizer = CSISynthesizer(
            propagation=PropagationModel(
                path_loss_exponent=scenario.path_loss_exponent
            ),
            noise=noise,
        )
        return NomLocSystem(
            scenario,
            config.system_config(proximity_metric=metric),
            synthesizer=synthesizer,
        )

    conditions = {
        "clean/mean": make_system(False, "pdp"),
        "bursty/mean": make_system(True, "pdp"),
        "bursty/median": make_system(True, "pdp_median"),
    }
    out = {}
    for label, system in conditions.items():
        result = run_campaign(
            system,
            scenario.test_sites,
            config.repetitions,
            config.seed,
            workers=config.workers,
        )
        out[label] = result.stats
    return out


def ablation_antennas(
    scenario_name: str = "lab", config: ExperimentConfig = DEFAULT
) -> dict[str, ErrorStats]:
    """ABL-ANT: omni vs sector antennas on the static APs.

    The paper's routers are omnidirectional.  Sector antennas make the
    received power direction-dependent, breaking the PDP-vs-distance
    monotonicity NomLoc's judgements rest on: inward-facing sectors (all
    boresights towards the venue centre) are nearly harmless, while
    mis-pointed sectors (facing away) are the worst case.
    """
    import math

    from ..channel import AntennaPattern

    scenario = get_scenario(scenario_name)
    centre = scenario.plan.boundary.centroid()

    def pointing(ap, inward: bool) -> AntennaPattern:
        az = math.degrees(
            math.atan2(centre.y - ap.position.y, centre.x - ap.position.x)
        )
        if not inward:
            az += 180.0
        return AntennaPattern(
            boresight_deg=az, front_gain_db=6.0, back_loss_db=12.0
        )

    configs = {
        "omni": {},
        "sector-inward": {
            ap.name: pointing(ap, True) for ap in scenario.static_aps
        },
        "sector-outward": {
            ap.name: pointing(ap, False) for ap in scenario.static_aps
        },
    }
    out = {}
    for label, antennas in configs.items():
        system = NomLocSystem(
            scenario, config.system_config(), antennas=antennas
        )
        result = run_campaign(
            system,
            scenario.test_sites,
            config.repetitions,
            config.seed,
            workers=config.workers,
        )
        out[label] = result.stats
    return out


def ablation_device_heterogeneity(
    scenario_name: str = "lab",
    config: ExperimentConfig = DEFAULT,
    offset_sigmas_db: Sequence[float] = (0.0, 2.0, 4.0),
) -> dict[float, dict[str, ErrorStats]]:
    """ABL-HETERO: per-device gain offsets vs the constraint formulation.

    Real deployments mix hardware, so PDPs from different APs carry
    systematic dB offsets that corrupt *cross-device* proximity
    judgements.  A nomadic AP's offset follows it to every site, so
    same-device site-pair comparisons are immune — this sweep shows the
    generalized formulation (site pairs on) degrading more slowly than
    the paper-literal one (site-vs-static comparisons only).
    """
    scenario = get_scenario(scenario_name)
    draws_per_sigma = 3  # average out the luck of one offset realization
    out: dict[float, dict[str, ErrorStats]] = {}
    for sigma in offset_sigmas_db:
        per_label_errors: dict[str, list[float]] = {
            "paper-literal": [],
            "generalized": [],
        }
        for draw in range(draws_per_sigma if sigma > 0 else 1):
            rng = np.random.default_rng(
                np.random.SeedSequence([config.seed + 1000, draw])
            )
            offsets = {
                ap.name: float(rng.normal(0.0, sigma)) if sigma > 0 else 0.0
                for ap in scenario.aps
            }
            for label, flag in (
                ("paper-literal", False),
                ("generalized", True),
            ):
                system = NomLocSystem(
                    scenario,
                    config.system_config(),
                    LocalizerConfig(include_nomadic_pairs=flag),
                    device_offsets_db=offsets,
                )
                result = run_campaign(
                    system,
                    scenario.test_sites,
                    config.repetitions,
                    config.seed,
                    workers=config.workers,
                )
                per_label_errors[label].extend(result.per_site_means())
        out[float(sigma)] = {
            label: ErrorStats.from_errors(errors)
            for label, errors in per_label_errors.items()
        }
    return out


def ablation_confidence_functions(
    scenario_name: str = "lab", config: ExperimentConfig = DEFAULT
) -> dict[str, ErrorStats]:
    """ABL-CONF: choice of the Eq. 2-3 confidence function.

    The paper picks one specific ``f`` (Eq. 4) from "a wide variety";
    this sweep runs the registered alternatives.
    """
    from ..core.pdp import CONFIDENCE_FUNCTIONS

    scenario = get_scenario(scenario_name)
    out = {}
    for name in CONFIDENCE_FUNCTIONS:
        system = NomLocSystem(
            scenario,
            config.system_config(),
            LocalizerConfig(confidence_fn=name),
        )
        result = run_campaign(
            system,
            scenario.test_sites,
            config.repetitions,
            config.seed,
            workers=config.workers,
        )
        out[name] = result.stats
    return out


def ablation_shadowing(
    scenario_name: str = "lab",
    config: ExperimentConfig = DEFAULT,
    sigmas_db: Sequence[float] = (0.0, 2.0, 4.0, 6.0),
) -> dict[float, ErrorStats]:
    """ABL-SHADOW: robustness to correlated log-normal shadow fading.

    Shadowing perturbs the distance-vs-PDP ordering that all of NomLoc
    rests on; this sweep quantifies how gracefully accuracy degrades as
    the shadowing standard deviation grows.
    """
    from ..channel import ShadowingModel

    scenario = get_scenario(scenario_name)
    out = {}
    for sigma in sigmas_db:
        system = NomLocSystem(
            scenario,
            config.system_config(),
            shadowing=ShadowingModel(sigma_db=sigma, seed=config.seed),
        )
        result = run_campaign(
            system,
            scenario.test_sites,
            config.repetitions,
            config.seed,
            workers=config.workers,
        )
        out[float(sigma)] = result.stats
    return out


def ablation_nomadic_pairs(
    config: ExperimentConfig = DEFAULT,
    scenario_names: Sequence[str] = ("lab", "lobby"),
) -> dict[str, dict[str, ErrorStats]]:
    """ABL-PAIRS: paper-literal Eq. 13 vs generalized site-pair rows."""
    out: dict[str, dict[str, ErrorStats]] = {}
    for name in scenario_names:
        scenario = get_scenario(name)
        out[name] = {}
        for label, flag in (("paper-literal", False), ("generalized", True)):
            system = NomLocSystem(
                scenario,
                config.system_config(),
                LocalizerConfig(include_nomadic_pairs=flag),
            )
            result = run_campaign(
                system,
                scenario.test_sites,
                config.repetitions,
                config.seed,
                workers=config.workers,
            )
            out[name][label] = result.stats
    return out


# ----------------------------------------------------------------------
# Extensions (paper future work)
# ----------------------------------------------------------------------

def ext_multi_nomadic(
    config: ExperimentConfig = DEFAULT,
    counts: Sequence[int] = (1, 2, 3),
) -> dict[int, ErrorStats]:
    """EXT-MULTI: aggregate multiple nomadic APs in the Lobby."""
    base = get_scenario("lobby")
    out = {}
    for count in counts:
        scenario = lobby_with_nomadic_count(base, count)
        system = NomLocSystem(scenario, config.system_config())
        result = run_campaign(
            system,
            scenario.test_sites,
            config.repetitions,
            config.seed,
            workers=config.workers,
        )
        out[count] = result.stats
    return out


def ext_mobility_patterns(
    scenario_name: str = "lobby", config: ExperimentConfig = DEFAULT
) -> dict[str, ErrorStats]:
    """EXT-PATTERN: impact of the nomadic AP's movement pattern."""
    scenario = get_scenario(scenario_name)
    num_sites = len(scenario.nomadic_aps[0].sites)
    patterns: dict[str, MobilityPattern | None] = {
        "markov": None,  # the paper's default walk
        "patrol": PatrolPattern(num_sites),
        "sweep": SweepPattern(num_sites),
        "hotspot": HotspotPattern(num_sites, hotspot=0, bias=0.7),
    }
    out = {}
    for label, pattern in patterns.items():
        system = NomLocSystem(scenario, config.system_config())
        localizer = PatternBoundLocalizer(system, pattern)
        result = run_campaign(
            localizer,
            scenario.test_sites,
            config.repetitions,
            config.seed,
            workers=config.workers,
        )
        out[label] = result.stats
    return out


# ----------------------------------------------------------------------
# Baseline comparison
# ----------------------------------------------------------------------

def baseline_comparison(
    scenario_name: str = "lab", config: ExperimentConfig = DEFAULT
) -> dict[str, ErrorStats]:
    """BASE-CMP: NomLoc against the conventional localization families."""
    scenario = get_scenario(scenario_name)
    sys_cfg = config.system_config()
    rng = np.random.default_rng(config.seed)
    localizers = {
        "nomloc": NomLocSystem(scenario, sys_cfg),
        "static-sp": StaticSPLocalizer(scenario, sys_cfg),
        "trilateration": TrilaterationLocalizer(
            scenario, sys_cfg, rng=np.random.default_rng(rng.integers(2**63))
        ),
        "fingerprint": FingerprintLocalizer(
            scenario, sys_cfg, rng=np.random.default_rng(rng.integers(2**63))
        ),
        "weighted-centroid": WeightedCentroidLocalizer(scenario, sys_cfg),
        "sequence": SequenceLocalizer(scenario, sys_cfg),
    }
    out = {}
    for name, localizer in localizers.items():
        result = run_campaign(
            localizer,
            scenario.test_sites,
            config.repetitions,
            config.seed,
            workers=config.workers,
        )
        out[name] = result.stats
    return out
