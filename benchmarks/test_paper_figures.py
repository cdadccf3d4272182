"""The paper's evaluation, figure by figure, compared with committed goldens.

Every simulated figure of the paper is one spec file under
``examples/specs/paper/``; the sweep that turns that one run into a figure
(protocols, origin sites, command sizes, the CLOCKTIME interval, a clock
offset) is applied here as overrides, never as spec fields.  Each case
renders its figure as text, compares it byte for byte with
``benchmarks/results/<name>.txt``, then checks the shape the paper claims.
Figure 7 and Tables II and IV come from the closed-form model
(:mod:`repro.bench.numerical`), not from runs.

A figure that moved fails with a diff.  To accept the new figure, delete its
golden file and rerun: a missing golden is written and the case fails once
with "golden created — review and commit".
"""

from __future__ import annotations

import difflib
from dataclasses import replace
from functools import cache
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional

import pytest

from repro.analysis.ec2 import ec2_latency_matrix
from repro.analysis.latency_model import clock_rsm_light_imbalanced
from repro.bench.numerical import figure7_data, table2_rows, table4_rows
from repro.bench.reporting import format_table
from repro.experiment import ClockSpec, Deployment, ExperimentResult, ExperimentSpec
from repro.types import micros_to_ms, ms_to_micros

PAPER_SPECS = Path(__file__).resolve().parent.parent / "examples" / "specs" / "paper"
RESULTS_DIR = Path(__file__).resolve().parent / "results"
PAPER_SPEC_STEMS = sorted(path.stem for path in PAPER_SPECS.glob("*.toml"))

#: The protocols of every latency figure, in the order of their rows.
LATENCY_PROTOCOLS = ("paxos", "mencius-bcast", "paxos-bcast", "clock-rsm")

#: Figure 8's protocols and command sizes (bytes); sizes are the outer loop.
THROUGHPUT_PROTOCOLS = ("clock-rsm", "mencius-bcast", "paxos", "paxos-bcast")
COMMAND_SIZES = (10, 100, 1000)

#: The CLOCKTIME ablation approximates "disabled" by an interval far longer
#: than any command's lifetime, so the broadcast never helps a command.
CLOCKTIME_OFF_MS = 10_000.0

#: CA's clock offsets in the skew ablation, from none to well above the
#: wide-area delays.
SKEWS_MS = (0.0, 5.0, 20.0, 100.0, 300.0)


def load(stem: str) -> ExperimentSpec:
    return ExperimentSpec.from_file(PAPER_SPECS / f"{stem}.toml")


def run(spec: ExperimentSpec) -> ExperimentResult:
    return Deployment(spec, backend="sim").run()


@cache
def protocol_sweep(stem: str) -> dict[str, ExperimentResult]:
    """Every latency protocol on one paper spec.

    Cached because Figures 3 and 4 are the CDFs of the Figure 1 (leader CA)
    and Figure 2 (leader VA) runs.
    """
    spec = load(stem)
    return {protocol: run(spec.with_protocol(protocol)) for protocol in LATENCY_PROTOCOLS}


# ---------------------------------------------------------------------------
# Renderers: the rows each figure of the paper shows
# ---------------------------------------------------------------------------


def latency_table(title: str, cells: Iterable[tuple[str, str, ExperimentResult]]) -> str:
    """Mean and 95th-percentile latency per ``(protocol, site, run)`` cell;
    cells whose site recorded no samples are left out."""
    rows = []
    for protocol, site, result in cells:
        summary = result.sites[site].summary
        if summary is not None:
            rows.append(
                {
                    "protocol": protocol,
                    "site": site,
                    "mean_ms": round(summary.mean_ms, 1),
                    "p95_ms": round(summary.p95_ms, 1),
                    "count": summary.count,
                }
            )
    return format_table(rows, title)


def quantile(points: list[tuple[float, float]], fraction: float) -> float:
    """The first CDF value whose cumulative fraction reaches *fraction*."""
    return next((value for value, cumulative in points if cumulative >= fraction), points[-1][0])


def spread(points: list[tuple[float, float]]) -> float:
    return quantile(points, 0.95) - quantile(points, 0.05)


def cdf_table(title: str, runs: Mapping[str, ExperimentResult], site: str) -> str:
    """Each protocol's latency CDF at *site*, at fixed cumulative fractions."""
    rows = []
    for protocol, result in runs.items():
        points = result.sites[site].cdf_ms
        if points:
            row: dict[str, object] = {"protocol": protocol}
            for fraction in (0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99):
                row[f"p{int(fraction * 100)}"] = round(quantile(points, fraction), 1)
            rows.append(row)
    return format_table(rows, title)


def cdfs_at(runs: Mapping[str, ExperimentResult], site: str) -> dict[str, list]:
    cdfs = {protocol: result.sites[site].cdf_ms or [] for protocol, result in runs.items()}
    for protocol, points in cdfs.items():
        assert points, f"no samples collected for {protocol}"
    return cdfs


def throughput_table(title: str, runs: Mapping[tuple[int, str], ExperimentResult]) -> str:
    """Figure 8's series: throughput per command size and protocol."""
    rows = [
        {
            "command_size": size,
            "protocol": protocol,
            "throughput_kops": round(result.throughput_kops, 1),
            "committed": result.total_committed,
            "max_replica_utilization": max(
                metrics["utilization"] for metrics in result.replica_metrics.values()
            ),
        }
        for (size, protocol), result in runs.items()
    ]
    return format_table(rows, title)


# ---------------------------------------------------------------------------
# Figures: each yields its rendered text, then checks the paper's claims
# ---------------------------------------------------------------------------


def fig1_balanced_5(stem: str) -> Iterator[str]:
    """Figure 1 — five replicas, balanced workload, leader at CA or VA.

    Expected shape (paper Section VI-B1): Clock-RSM is lower than
    Paxos-bcast at every non-leader replica, similar or slightly higher at
    the leader, and lower than Mencius-bcast everywhere.
    """
    spec, runs = load(stem), protocol_sweep(stem)
    leader = spec.leader_site
    yield latency_table(
        f"Figure 1 (leader {leader})",
        ((protocol, site, runs[protocol]) for protocol in runs for site in spec.sites),
    )
    clock, paxos_bcast, mencius = runs["clock-rsm"], runs["paxos-bcast"], runs["mencius-bcast"]
    non_leader_sites = [s for s in spec.sites if s != leader]

    # Clock-RSM beats Paxos-bcast at (most) non-leader replicas.
    wins = sum(1 for s in non_leader_sites if clock.mean_ms(s) < paxos_bcast.mean_ms(s))
    assert wins >= 3
    # At the leader it is similar or somewhat higher (the paper's Figure 1
    # shows ~0-35 ms extra, from the stable-order step's farthest replica).
    assert clock.mean_ms(leader) <= paxos_bcast.mean_ms(leader) + 40.0
    # Clock-RSM never loses to Mencius-bcast (small tolerance for sampling).
    for site in spec.sites:
        assert clock.mean_ms(site) <= mencius.mean_ms(site) + 5.0
    # The highest per-site latency of Clock-RSM is below Paxos/Paxos-bcast's.
    assert clock.highest_over_sites() < runs["paxos"].highest_over_sites()
    assert clock.highest_over_sites() <= paxos_bcast.highest_over_sites() + 5.0


def fig2_balanced_3(stem: str) -> Iterator[str]:
    """Figure 2 — three replicas (CA/VA/IR), balanced workload.

    Expected shape (paper Section VI-B1): three replicas are a special case
    where Paxos-bcast with the best leader is optimal; Clock-RSM is similar
    or slightly (~6%) higher, and both beat Mencius-bcast and plain Paxos at
    non-leader sites.
    """
    spec, runs = load(stem), protocol_sweep(stem)
    leader = spec.leader_site
    yield latency_table(
        f"Figure 2 (leader {leader})",
        ((protocol, site, runs[protocol]) for protocol in runs for site in spec.sites),
    )
    clock, paxos_bcast = runs["clock-rsm"], runs["paxos-bcast"]

    if leader == "VA":
        # Best leader: Paxos-bcast is optimal, and Clock-RSM tracks it within
        # a few percent (the paper reports ~6% higher on average).
        for site in spec.sites:
            assert clock.mean_ms(site) >= paxos_bcast.mean_ms(site) - 5.0
        ratio = clock.average_over_sites() / paxos_bcast.average_over_sites()
        assert ratio == pytest.approx(1.06, abs=0.12)
    else:
        # Leader CA (Figure 2a): CA and VA are similar for both protocols,
        # but Paxos-bcast's other non-leader replica (IR) must use the
        # longest path and is much slower than Clock-RSM there.
        assert clock.mean_ms("CA") == pytest.approx(paxos_bcast.mean_ms("CA"), abs=15.0)
        assert clock.mean_ms("VA") == pytest.approx(paxos_bcast.mean_ms("VA"), abs=15.0)
        assert clock.mean_ms("IR") < paxos_bcast.mean_ms("IR") - 40.0
    # Mencius-bcast's 95th percentile shows the delayed-commit spread.
    mencius = runs["mencius-bcast"]
    mencius_spread = sum(mencius.p95_ms(s) - mencius.mean_ms(s) for s in spec.sites)
    clock_spread = sum(clock.p95_ms(s) - clock.mean_ms(s) for s in spec.sites)
    assert mencius_spread > clock_spread


def fig3_cdf_jp(stem: str) -> Iterator[str]:
    """Figure 3 — latency distribution at JP, five replicas, leader CA.

    Expected shape: Paxos and Paxos-bcast have near-vertical CDFs
    (predictable latency), Mencius-bcast spreads over roughly a one-way delay
    because of the delayed-commit problem, and Clock-RSM shows moderate
    variance at JP (prefix replication sometimes dominates with this layout).
    """
    runs = protocol_sweep(stem)
    yield cdf_table("Figure 3: latency CDF at JP (leader CA)", runs, "JP")
    cdfs = cdfs_at(runs, "JP")
    for points in cdfs.values():
        assert points[-1][1] == 1.0

    # Paxos variants are tightly concentrated; Mencius-bcast is the widest.
    assert spread(cdfs["paxos"]) < 20.0
    assert spread(cdfs["paxos-bcast"]) < 20.0
    assert spread(cdfs["mencius-bcast"]) > spread(cdfs["paxos-bcast"])
    assert spread(cdfs["mencius-bcast"]) > spread(cdfs["clock-rsm"])


def fig4_cdf_ca(stem: str) -> Iterator[str]:
    """Figure 4 — latency distribution at CA, three replicas, leader VA.

    Expected shape: as in Figure 3, but with this layout Clock-RSM's latency
    at CA barely varies (stable order dominates prefix replication), so its
    CDF is almost as sharp as the Paxos variants'.
    """
    runs = protocol_sweep(stem)
    yield cdf_table("Figure 4: latency CDF at CA (3 replicas, leader VA)", runs, "CA")
    cdfs = cdfs_at(runs, "CA")

    # Clock-RSM at CA is nearly deterministic with this placement.
    assert spread(cdfs["clock-rsm"]) < 25.0
    # Mencius-bcast still shows the delayed-commit spread.
    assert spread(cdfs["mencius-bcast"]) > spread(cdfs["clock-rsm"])
    # Paxos-bcast is both sharp and centred at the lowest latency at CA.
    assert spread(cdfs["paxos-bcast"]) < 20.0


def fig5_imbalanced_5(stem: str) -> Iterator[str]:
    """Figure 5 — five replicas, imbalanced workload, leader CA.

    One run per origin site (only that site's clients issue requests); each
    site's row comes from the run where it was the origin.  Expected shape:
    Paxos variants are unchanged vs the balanced workload; Clock-RSM stays
    close to its balanced latency thanks to PREPAREOK/CLOCKTIME messages
    carrying clock promises; Mencius-bcast becomes markedly worse because
    committing requires acknowledgements (with skips) from every replica — a
    full round trip to the farthest one.
    """
    spec = load(stem)
    by_origin = {
        origin: {
            protocol: run(
                replace(spec, workload=replace(spec.workload, origin_site=origin))
                .with_protocol(protocol)
            )
            for protocol in LATENCY_PROTOCOLS
        }
        for origin in spec.sites
    }
    yield latency_table(
        f"Figure 5 (imbalanced, leader {spec.leader_site})",
        (
            (protocol, site, by_origin[site][protocol])
            for protocol in LATENCY_PROTOCOLS
            for site in spec.sites
        ),
    )

    def mean_ms(protocol: str, site: str) -> float:
        return by_origin[site][protocol].mean_ms(site)

    for site in spec.sites:
        # Mencius-bcast needs a round trip to the farthest replica; Clock-RSM
        # only needs max(majority round trip, farthest one-way), so it is
        # strictly better at every origin in this placement.
        assert mean_ms("clock-rsm", site) < mean_ms("mencius-bcast", site)
    # Clock-RSM beats Paxos-bcast at non-leader origins in most cases.
    non_leader = [s for s in spec.sites if s != spec.leader_site]
    wins = sum(1 for s in non_leader if mean_ms("clock-rsm", s) < mean_ms("paxos-bcast", s))
    assert wins >= 3


def fig6_cdf_sg(stem: str) -> Iterator[str]:
    """Figure 6 — latency distribution at SG, imbalanced workload from SG.

    Expected shape: every protocol's CDF is fairly sharp (no concurrent
    commands means no delayed-commit variance for Mencius-bcast), but
    Mencius-bcast is centred at a much higher latency (round trip to the
    farthest replica), while Clock-RSM sits at the majority round trip.
    """
    runs = protocol_sweep(stem)
    yield cdf_table("Figure 6: latency CDF at SG (imbalanced)", runs, "SG")
    median = {protocol: quantile(points, 0.5) for protocol, points in cdfs_at(runs, "SG").items()}

    # Clock-RSM is lowest; Paxos-bcast beats plain Paxos; Mencius-bcast is
    # pushed up by the skip round trip to the farthest replica.
    assert median["clock-rsm"] < median["paxos-bcast"]
    assert median["paxos-bcast"] < median["paxos"]
    assert median["clock-rsm"] < median["mencius-bcast"]
    assert median["paxos-bcast"] < median["mencius-bcast"]


def fig7_numerical() -> Iterator[str]:
    """Figure 7 — the closed-form model over every EC2 placement.

    Plugs the Table III delays into the Table II formulas for every group of
    three, five and seven data centers; Paxos-bcast always gets its best
    leader.  Expected shape: Clock-RSM has the lower average latency for five
    and seven replicas (with a larger gap on the per-group worst replica) and
    is slightly worse for three replicas.
    """
    rows = figure7_data()
    yield format_table(rows, "Figure 7: average latency by group size")

    by_size = {row["group_size"]: row for row in rows}
    assert set(by_size) == {3, 5, 7}
    assert by_size[3]["groups"] == 35
    assert by_size[5]["groups"] == 21
    assert by_size[7]["groups"] == 1
    # Three replicas: Paxos-bcast (best leader) is the optimal special case.
    assert by_size[3]["clock_rsm_all_ms"] >= by_size[3]["paxos_bcast_all_ms"]
    # Five and seven replicas: Clock-RSM wins on both averages, with a larger
    # margin on the per-group highest latency.
    for size in (5, 7):
        row = by_size[size]
        assert row["clock_rsm_all_ms"] < row["paxos_bcast_all_ms"]
        assert row["clock_rsm_highest_ms"] < row["paxos_bcast_highest_ms"]
        all_gap = row["paxos_bcast_all_ms"] - row["clock_rsm_all_ms"]
        highest_gap = row["paxos_bcast_highest_ms"] - row["clock_rsm_highest_ms"]
        assert highest_gap > all_gap


def fig8_throughput(stem: str) -> Iterator[str]:
    """Figure 8 — saturated throughput for 10/100/1000-byte commands.

    Reproduced shape: Clock-RSM and Mencius-bcast deliver similar throughput
    at every command size, and both clearly beat Paxos and Paxos-bcast for
    large (1000 B) commands, where the Paxos leader's per-byte work makes it
    the bottleneck.  The paper additionally measures Paxos ahead for small
    commands, an effect of leader-side batching in its pipelined C++
    implementation that the symmetric cost model here does not reproduce
    (documented deviation, docs/PERFORMANCE.md).
    """
    spec = load(stem)
    runs = {
        (size, protocol): run(
            replace(spec, workload=replace(spec.workload, payload_size=size))
            .with_protocol(protocol)
        )
        for size in COMMAND_SIZES
        for protocol in THROUGHPUT_PROTOCOLS
    }
    yield throughput_table("Figure 8: throughput (kop/s)", runs)
    kops = {key: result.throughput_kops for key, result in runs.items()}

    for size in COMMAND_SIZES:
        # Clock-RSM and Mencius-bcast are similar (same communication pattern;
        # Clock-RSM additionally broadcasts its own PREPAREOK, costing ~20%).
        assert kops[(size, "clock-rsm")] == pytest.approx(kops[(size, "mencius-bcast")], rel=0.35)
    # Large commands: the Paxos leader is the bottleneck; Clock-RSM wins by
    # roughly the factor the paper reports (~2-3x).
    assert kops[(1000, "clock-rsm")] > 1.8 * kops[(1000, "paxos")]
    assert kops[(1000, "clock-rsm")] > 1.8 * kops[(1000, "paxos-bcast")]
    # Throughput decreases with command size for every protocol.
    for protocol in THROUGHPUT_PROTOCOLS:
        assert kops[(10, protocol)] >= kops[(100, protocol)] >= kops[(1000, protocol)]


def table2_formulas() -> Iterator[str]:
    """Table II — the closed-form commit latency per protocol and site."""
    placements = {
        "five_leader_va": table2_rows(["CA", "VA", "IR", "JP", "SG"], "VA"),
        "five_leader_ca": table2_rows(["CA", "VA", "IR", "JP", "SG"], "CA"),
        "three_leader_va": table2_rows(["CA", "VA", "IR"], "VA"),
    }
    yield "".join(
        format_table(rows, f"Table II ({name})") + "\n" for name, rows in placements.items()
    )
    for rows in placements.values():
        for row in rows:
            # Paxos-bcast never exceeds plain Paxos, and Clock-RSM's balanced
            # latency never beats its imbalanced latency (they are maxima of
            # supersets of the same terms).
            assert row["paxos_bcast_ms"] <= row["paxos_ms"] + 1e-9
            assert row["clock_rsm_balanced_ms"] >= row["clock_rsm_imbalanced_ms"] - 1e-9


def table4_reduction() -> Iterator[str]:
    """Table IV — latency reduction of Clock-RSM over best-leader Paxos-bcast.

    Expected shape (paper Table IV): 0% / 100% for three replicas (ties and
    small losses, ≈ -10 ms), roughly two-thirds winners at ≈ +30 ms for five
    replicas, and ≈ 86% winners at ≈ +50 ms for seven replicas.
    """
    rows = table4_rows()
    yield format_table(rows, "Table IV: latency reduction")
    indexed = {(row["group_size"], row["bucket"]): row for row in rows}

    three_lower = indexed[(3, "clock-rsm lower")]
    three_higher = indexed[(3, "clock-rsm higher")]
    assert three_lower["replica_percentage"] == 0.0
    assert three_higher["replica_percentage"] == 100.0
    assert three_higher["absolute_reduction_ms"] == pytest.approx(-9.9, abs=3.0)
    five_lower = indexed[(5, "clock-rsm lower")]
    assert five_lower["replica_percentage"] == pytest.approx(68.6, abs=6.0)
    assert five_lower["absolute_reduction_ms"] == pytest.approx(31.9, abs=8.0)
    seven_lower = indexed[(7, "clock-rsm lower")]
    assert seven_lower["replica_percentage"] == pytest.approx(85.7, abs=0.5)
    assert seven_lower["absolute_reduction_ms"] == pytest.approx(50.2, abs=10.0)


def ablation_clocktime(stem: str) -> Iterator[str]:
    """Ablation — the CLOCKTIME broadcast extension (Algorithm 2).

    The paper argues the periodic clock broadcast only helps a single replica
    serving *light* traffic, where previous commands' PREPAREOKs are too
    infrequent to advance the stable-order condition.  Without the extension
    the origin needs a full round trip to the farthest replica (2 * max);
    with it, max + Δ suffices (bounded below by the majority round trip).
    """
    spec = load(stem)
    disabled = run(replace(spec, clocktime_interval_ms=CLOCKTIME_OFF_MS))
    enabled = run(spec)
    origin = spec.workload.origin_site
    matrix = ec2_latency_matrix(spec.sites)
    at_origin = spec.sites.index(origin)
    predicted_without = micros_to_ms(clock_rsm_light_imbalanced(matrix, at_origin))
    predicted_with = micros_to_ms(
        clock_rsm_light_imbalanced(
            matrix, at_origin, clocktime_interval=ms_to_micros(spec.clocktime_interval_ms)
        )
    )
    rows = [
        {
            "variant": "without CLOCKTIME",
            "measured_ms": round(disabled.mean_ms(origin), 1),
            "predicted_ms": round(predicted_without, 1),
        },
        {
            "variant": f"with CLOCKTIME (Δ={spec.clocktime_interval_ms:g}ms)",
            "measured_ms": round(enabled.mean_ms(origin), 1),
            "predicted_ms": round(predicted_with, 1),
        },
    ]
    yield format_table(rows, "Ablation: Algorithm 2 extension")

    # The extension removes the extra round trip for a lightly loaded origin.
    assert enabled.mean_ms(origin) < disabled.mean_ms(origin) - 20.0
    assert enabled.mean_ms(origin) == pytest.approx(predicted_with, abs=12.0)
    assert disabled.mean_ms(origin) == pytest.approx(predicted_without, abs=15.0)


def ablation_clock_skew(stem: str) -> Iterator[str]:
    """Ablation — Clock-RSM latency under clock synchronization error.

    The paper claims correctness never depends on clock synchronization, and
    its latency analysis ignores clock skew because NTP keeps it far below
    the wide-area delays.  Sweeping CA's clock offset shows that correctness
    holds at every skew (every run checks identical execution orders), that
    replicas with accurate clocks are unaffected, and that the skewed
    replica's own commands pay a stable-order penalty that grows with the
    skew: NTP-grade errors (a few ms) are negligible, skews beyond the
    network delays cost roughly one-for-one — which is exactly why the
    protocol wants loosely synchronized clocks.
    """
    spec = load(stem)
    results = {}
    for skew in SKEWS_MS:
        result = run(replace(spec, clocks=(("CA", ClockSpec("skewed", offset_ms=skew)),)))
        results[skew] = {site: result.mean_ms(site) for site in spec.sites}
    rows = [
        {"skew_ms": skew, **{f"{site}_ms": round(latency, 1) for site, latency in by_site.items()}}
        for skew, by_site in results.items()
    ]
    yield format_table(rows, "Ablation: clock skew at CA")

    baseline = results[0.0]
    # Replicas with accurate clocks are unaffected at every skew level.
    for skew in SKEWS_MS:
        for site in ("VA", "IR"):
            assert abs(results[skew][site] - baseline[site]) < 10.0
    # NTP-grade skew (5 ms) is negligible at the skewed replica itself.
    assert abs(results[5.0]["CA"] - baseline["CA"]) < 15.0
    # The penalty at CA grows monotonically with the skew...
    ca_latencies = [results[skew]["CA"] for skew in SKEWS_MS]
    assert ca_latencies == sorted(ca_latencies)
    # ...and a skew far beyond the network delays degrades latency roughly
    # one-for-one (300 ms skew => ~300 ms extra).
    assert results[300.0]["CA"] - baseline["CA"] > 200.0


# ---------------------------------------------------------------------------
# The figure table: golden file -> figure and the paper spec it runs
# ---------------------------------------------------------------------------


class Figure(NamedTuple):
    reproduce: Callable[..., Iterator[str]]
    #: The paper spec (file stem) whose runs the figure renders; ``None`` for
    #: the closed-form model's figures.
    spec: Optional[str] = None


FIGURES: dict[str, Figure] = {
    "fig1_balanced_5_leader_CA": Figure(fig1_balanced_5, "fig1_balanced_5_leader_CA"),
    "fig1_balanced_5_leader_VA": Figure(fig1_balanced_5, "fig1_balanced_5_leader_VA"),
    "fig2_balanced_3_leader_CA": Figure(fig2_balanced_3, "fig2_balanced_3_leader_CA"),
    "fig2_balanced_3_leader_VA": Figure(fig2_balanced_3, "fig2_balanced_3_leader_VA"),
    "fig3_cdf_jp": Figure(fig3_cdf_jp, "fig1_balanced_5_leader_CA"),
    "fig4_cdf_ca": Figure(fig4_cdf_ca, "fig2_balanced_3_leader_VA"),
    "fig5_imbalanced_5": Figure(fig5_imbalanced_5, "fig5_imbalanced_5"),
    "fig6_cdf_sg": Figure(fig6_cdf_sg, "fig6_cdf_sg"),
    "fig7_numerical": Figure(fig7_numerical),
    "fig8_throughput": Figure(fig8_throughput, "fig8_throughput"),
    "table2_formulas": Figure(table2_formulas),
    "table4_reduction": Figure(table4_reduction),
    "ablation_clocktime": Figure(ablation_clocktime, "ablation_clocktime"),
    "ablation_clock_skew": Figure(ablation_clock_skew, "ablation_clock_skew"),
}


def assert_matches_golden(name: str, text: str) -> None:
    path = RESULTS_DIR / f"{name}.txt"
    if not path.exists():
        path.write_text(text)
        pytest.fail(f"golden created — review and commit: {path}", pytrace=False)
    golden = path.read_text()
    if text != golden:
        diff = difflib.unified_diff(
            golden.splitlines(keepends=True),
            text.splitlines(keepends=True),
            f"benchmarks/results/{name}.txt (committed)",
            f"benchmarks/results/{name}.txt (rendered)",
        )
        pytest.fail(f"{name} drifted from its golden:\n{''.join(diff)}", pytrace=False)


@pytest.mark.parametrize("name", list(FIGURES))
def test_paper_figure(name):
    figure = FIGURES[name]
    claims = figure.reproduce(*([figure.spec] if figure.spec else []))
    assert_matches_golden(name, next(claims))
    assert next(claims, None) is None  # runs the paper's shape claims to the end


def test_figure_table_covers_every_golden_and_every_paper_spec():
    assert set(FIGURES) == {path.stem for path in RESULTS_DIR.glob("*.txt")}
    assert {figure.spec for figure in FIGURES.values() if figure.spec} == set(PAPER_SPEC_STEMS)


@pytest.mark.parametrize("stem", PAPER_SPEC_STEMS)
def test_paper_spec_loads_and_is_the_run_of_its_own_figure(stem):
    load(stem)
    # Each spec is the run of the one figure named after it; the CDF figures
    # 3 and 4 only re-render the runs of Figures 1 and 2.
    assert FIGURES[stem].spec == stem
