// Robustness tests for the hardened call agent (docs/ROBUSTNESS.md
// "Calls under fire"): the capacity-leak regressions the fair-weather
// machine fails, setup timeouts + bounded retry/backoff, source-side
// admission control (in-flight cap, token bucket, record ceiling,
// pressure board), the orphaned-reservation reaper, link cuts during
// setup, crash-incarnation call ids, and the open-loop workload driver —
// all audited by fault::CallOracle.
#include <gtest/gtest.h>

#include "fault/call_oracle.hpp"
#include "graph/generators.hpp"
#include "paris/call_setup.hpp"

namespace fastnet::paris {
namespace {

using graph::Graph;

/// Harness over the full CallAgentOptions surface: per-node scripts ride
/// on one shared base, fault knobs come from the NetworkConfig.
struct Harness {
    Harness(Graph graph, CallAgentOptions base,
            std::map<NodeId, std::vector<CallRequest>> scripts,
            hw::NetworkConfig net = {}, std::uint64_t seed = 42)
        : g(std::make_shared<const Graph>(std::move(graph))),
          cluster(*g, factory(g, std::move(base), std::move(scripts)), config(net, seed)) {
        cluster.start_all(0);
    }
    static node::ProtocolFactory factory(std::shared_ptr<const Graph> g,
                                         CallAgentOptions base,
                                         std::map<NodeId, std::vector<CallRequest>> scripts) {
        return [g = std::move(g), base = std::move(base),
                scripts = std::move(scripts)](NodeId u) {
            CallAgentOptions opt = base;
            if (const auto it = scripts.find(u); it != scripts.end())
                opt.requests = it->second;
            return std::make_unique<CallAgentProtocol>(g, opt);
        };
    }
    static node::ParallelClusterConfig config(hw::NetworkConfig net, std::uint64_t seed) {
        node::ParallelClusterConfig cfg;
        cfg.net = net;
        cfg.seed = seed;
        return cfg;
    }
    CallAgentProtocol& agent(NodeId u) {
        return cluster.protocol_as<CallAgentProtocol>(u);
    }
    std::uint32_t total_reserved() {
        std::uint32_t total = 0;
        for (NodeId u = 0; u < cluster.node_count(); ++u)
            for (const auto& [edge, held] : agent(u).reserved_entries()) total += held;
        return total;
    }
    std::shared_ptr<const Graph> g;
    node::ParallelCluster cluster;
};

CallAgentOptions hardened(std::uint32_t capacity) {
    CallAgentOptions opt;
    opt.link_capacity = capacity;
    opt.setup_timeout = 16;
    opt.max_retries = 3;
    opt.retry_backoff = 8;
    opt.reservation_ttl = 120;
    opt.refresh_interval = 40;
    return opt;
}

// ---- satellite 1: the silent-drop capacity leak --------------------------

TEST(CallLeak, LostSetupLeaksForeverWithoutTimeout) {
    // 100% loss: the setup dies on the first hop. The fair-weather
    // machine (all knobs off) leaves the source in kSettingUp holding
    // its first-hop reservation with no pending event to save it — the
    // leak this PR exists to close. This test pins the failure mode so
    // the default-off contract stays honest.
    CallAgentOptions off;
    off.link_capacity = 4;
    hw::NetworkConfig net;
    net.loss_ppm = 1'000'000;
    Harness h(graph::make_path(3), off, {{0, {{1, 2, 1, -1}}}}, net);
    h.cluster.run();
    EXPECT_EQ(h.agent(0).state_of(CallId{0, 1}), CallState::kSettingUp);
    EXPECT_EQ(h.agent(0).free_capacity(h.g->find_edge(0, 1)), 3u);  // leaked
    const fault::OracleReport rep = fault::check_calls(h.cluster);
    EXPECT_FALSE(rep.ok());  // the oracle sees both the state and the unit
}

TEST(CallLeak, SetupTimeoutReclaimsWhatLossStranded) {
    // Same dead network, hardened agent: every attempt times out
    // (REJECT-equivalent), the reservation is reclaimed each time, and
    // the call ends blocked with zero capacity held anywhere.
    hw::NetworkConfig net;
    net.loss_ppm = 1'000'000;
    Harness h(graph::make_path(3), hardened(4), {{0, {{1, 2, 1, -1}}}}, net);
    h.cluster.run();
    EXPECT_EQ(h.agent(0).calls_rejected(), 1u);
    EXPECT_EQ(h.agent(0).free_capacity(h.g->find_edge(0, 1)), 4u);
    EXPECT_EQ(h.agent(0).stats().timeouts, 4u);  // initial + 3 retries
    EXPECT_EQ(h.agent(0).stats().retries, 3u);
    EXPECT_EQ(h.agent(0).stats().blocked, 1u);
    EXPECT_TRUE(fault::check_calls(h.cluster).ok())
        << fault::check_calls(h.cluster).summary();
}

TEST(CallLeak, PartialLossDrainsCleanAndReapsOrphans) {
    // 25% per-transmission loss over many calls: lost ACCEPTs orphan
    // upstream reservations until the reject-teardown of the timeout
    // arrives — and when *that* is lost too, only the lease reaper
    // stands between the transit node and a permanent leak.
    Rng rng(7);
    Graph g = graph::make_random_connected(12, 2, 8, rng);
    std::map<NodeId, std::vector<CallRequest>> scripts;
    for (int i = 0; i < 120; ++i) {
        const NodeId src = static_cast<NodeId>(rng.below(12));
        NodeId dst = static_cast<NodeId>(rng.below(12));
        if (dst == src) dst = (dst + 1) % 12;
        scripts[src].push_back(CallRequest{static_cast<Tick>(1 + rng.below(600)), dst, 1,
                                           static_cast<Tick>(30 + rng.below(100))});
    }
    hw::NetworkConfig net;
    net.loss_ppm = 250'000;
    Harness h(std::move(g), hardened(3), std::move(scripts), net);
    h.cluster.run();
    const cost::CallStats total = fold_call_stats(h.cluster);
    EXPECT_EQ(total.offered, 120u);
    EXPECT_GT(total.accepted, 0u);
    EXPECT_GT(total.timeouts, 0u);
    EXPECT_EQ(h.total_reserved(), 0u);
    EXPECT_TRUE(fault::check_calls(h.cluster).ok())
        << fault::check_calls(h.cluster).summary();
}

TEST(CallLeak, DuplicateSetupCopiesNeverDoubleReserve) {
    // Aggressive duplication: a transit node receiving the same SETUP
    // twice must not book the demand twice (the legacy agent did).
    Rng rng(11);
    std::map<NodeId, std::vector<CallRequest>> scripts;
    for (int i = 0; i < 40; ++i) {
        const NodeId src = static_cast<NodeId>(rng.below(8));
        NodeId dst = static_cast<NodeId>(rng.below(8));
        if (dst == src) dst = (dst + 1) % 8;
        scripts[src].push_back(CallRequest{static_cast<Tick>(1 + rng.below(300)), dst, 1,
                                           static_cast<Tick>(20 + rng.below(80))});
    }
    hw::NetworkConfig net;
    net.dup_ppm = 500'000;
    Harness h(graph::make_random_connected(8, 2, 6, rng), hardened(3),
              std::move(scripts), net);
    h.cluster.run();
    EXPECT_EQ(h.total_reserved(), 0u);
    EXPECT_TRUE(fault::check_calls(h.cluster).ok())
        << fault::check_calls(h.cluster).summary();
}

// ---- satellite 2: link cuts under setup ----------------------------------

TEST(CallCut, SetupIntoDeadLinkReleasesBothSidesOfTheCut) {
    // Path 0-1-2-3; the (1,2) link dies before the call is placed. The
    // selective-copy setup reserves at node 1, then the packet dies on
    // the cut. Node 1's reservation is a silent orphan (its link events
    // predate the record); only the source's timeout teardown releases
    // it. Nodes 2 and 3 never hear of the call at all.
    Harness h(graph::make_path(4), hardened(4), {{0, {{10, 3, 1, -1}}}});
    h.cluster.fail_link(2, h.g->find_edge(1, 2));
    h.cluster.run();
    EXPECT_EQ(h.agent(0).calls_rejected(), 1u);  // retries exhausted (static route)
    EXPECT_EQ(h.agent(2).call_records().size(), 0u);
    EXPECT_EQ(h.total_reserved(), 0u);
    EXPECT_TRUE(fault::check_calls(h.cluster).ok())
        << fault::check_calls(h.cluster).summary();
}

TEST(CallCut, SourceFirstHopDownMidSetupBacksOffAndRecovers) {
    // The (0,1) link dies while the source is in kSettingUp, then comes
    // back. Hardened: the source releases its hop, backs off, and the
    // retry lands after the repair — the call completes.
    Harness h(graph::make_path(3), hardened(4), {{0, {{1, 2, 1, /*hold=*/400}}}});
    h.cluster.fail_link(2, h.g->find_edge(0, 1));
    h.cluster.restore_link(6, h.g->find_edge(0, 1));
    h.cluster.run();
    EXPECT_EQ(h.agent(0).stats().accepted, 1u);
    EXPECT_GE(h.agent(0).stats().retries, 1u);
    EXPECT_EQ(h.agent(0).calls_failed(), 0u);
    EXPECT_EQ(h.total_reserved(), 0u);
    EXPECT_TRUE(fault::check_calls(h.cluster).ok())
        << fault::check_calls(h.cluster).summary();
}

TEST(CallCut, LegacyModeStillFailsSetupOnLinkDeath) {
    // Knobs off: the same cut is a hard failure (pinned legacy
    // behaviour) — but the source still releases its own hop. The source
    // puts the setup on the wire at t = 2; a scripted cut runs before
    // its tick's events, so t = 3 is the first tick that catches the
    // setup in flight (a cut at t = 2 lands first: the lost-setup leak
    // CallLeak.LostSetupLeaksForeverWithoutTimeout pins).
    CallAgentOptions off;
    off.link_capacity = 4;
    Harness h(graph::make_path(3), off, {{0, {{1, 2, 1, -1}}}});
    h.cluster.fail_link(3, h.g->find_edge(0, 1));
    h.cluster.run();
    EXPECT_EQ(h.agent(0).calls_failed(), 1u);
    EXPECT_EQ(h.agent(0).state_of(CallId{0, 1}), CallState::kFailed);
    EXPECT_EQ(h.agent(0).free_capacity(h.g->find_edge(0, 1)), 4u);
}

// ---- retry / backoff ------------------------------------------------------

TEST(CallRetry, CapacityRejectRetriesUntilTheHoldClears) {
    // Node 1's outgoing hop is saturated by a short cross call; the long
    // call's first attempts bounce off the bottleneck, a later retry
    // lands after the hold expires.
    CallAgentOptions opt = hardened(1);
    opt.max_retries = 5;
    opt.retry_backoff = 40;  // attempts at ~t(5)+40, +80, ... — the hold ends at ~66
    Harness h(graph::make_path(4), opt,
              {{1, {{1, 3, 1, /*hold=*/60}}}, {0, {{5, 3, 1, /*hold=*/200}}}});
    h.cluster.run();
    EXPECT_EQ(h.agent(0).stats().accepted, 1u);
    EXPECT_GE(h.agent(0).stats().retries, 1u);
    EXPECT_EQ(h.agent(0).stats().blocked, 0u);
    EXPECT_EQ(h.agent(1).stats().completed, 1u);
    EXPECT_TRUE(fault::check_calls(h.cluster).ok())
        << fault::check_calls(h.cluster).summary();
}

TEST(CallRetry, JitterStaysDeterministicPerSeed) {
    auto run_once = [] {
        CallAgentOptions opt = hardened(1);
        opt.max_retries = 4;
        opt.retry_backoff = 10;
        opt.retry_jitter = 7;
        Harness h(graph::make_path(3), opt,
                  {{0, {{1, 2, 1, /*hold=*/300}}}, {1, {{1, 2, 1, /*hold=*/50}}}},
                  {}, /*seed=*/1234);
        h.cluster.run();
        cost::CallStats s = fold_call_stats(h.cluster);
        return std::tuple{s.accepted, s.retries, s.blocked,
                          s.setup_latency.quantile_bound(0.99)};
    };
    EXPECT_EQ(run_once(), run_once());
}

// ---- admission control ----------------------------------------------------

TEST(CallAdmission, MaxInflightShedsSimultaneousBursts) {
    CallAgentOptions opt = hardened(8);
    opt.max_inflight = 2;
    // Five arrivals in the same handler tick: only two setups may be
    // unresolved at once, the rest are shed at the door.
    Harness h(graph::make_path(3), opt,
              {{0, {{1, 2, 1, 50}, {1, 2, 1, 50}, {1, 2, 1, 50}, {1, 2, 1, 50},
                    {1, 2, 1, 50}}}});
    h.cluster.run();
    const cost::CallStats& s = h.agent(0).stats();
    EXPECT_EQ(s.offered, 5u);
    EXPECT_EQ(s.shed, 3u);
    EXPECT_EQ(s.accepted, 2u);
    EXPECT_TRUE(fault::check_calls(h.cluster).ok());
}

TEST(CallAdmission, TokenBucketAdmitsAtTheConfiguredRate) {
    CallAgentOptions opt = hardened(16);
    opt.bucket_rate_num = 1;
    opt.bucket_rate_den = 20;  // one admission every 20 ticks
    opt.bucket_burst = 1;
    std::vector<CallRequest> reqs;
    // Arrivals every 10 ticks — sparse enough that NCU processing delay
    // cannot move one across a refill boundary.
    for (Tick t = 1; t <= 91; t += 10) reqs.push_back({t, 2, 1, 5});
    Harness h(graph::make_path(3), opt, {{0, std::move(reqs)}});
    h.cluster.run();
    const cost::CallStats& s = h.agent(0).stats();
    // Primed with 1 token at the first arrival; one token accrues per 20
    // ticks: every other arrival finds an empty bucket.
    EXPECT_EQ(s.offered, 10u);
    EXPECT_EQ(s.shed, 5u);
    EXPECT_EQ(s.placed - s.retries, 5u);
    EXPECT_TRUE(fault::check_calls(h.cluster).ok());
}

TEST(CallAdmission, RecordCeilingSheds) {
    CallAgentOptions opt = hardened(8);
    opt.shed_above_records = 1;
    Harness h(graph::make_path(3), opt, {{0, {{1, 2, 1, 100}, {5, 2, 1, 100}}}});
    h.cluster.run();
    EXPECT_EQ(h.agent(0).stats().offered, 2u);
    EXPECT_EQ(h.agent(0).stats().shed, 1u);
    EXPECT_EQ(h.agent(0).stats().accepted, 1u);
}

TEST(CallAdmission, PressureBoardShedsWhileOverBudget) {
    auto board = std::make_shared<obs::PressureBoard>();
    CallAgentOptions opt = hardened(8);
    opt.pressure = board;
    Harness h(graph::make_path(3), opt, {{0, {{1, 2, 1, 40}, {30, 2, 1, 40}}}});
    // Node 0 is over its memory budget for the second arrival only.
    h.cluster.run_until(19);
    board->set(0, true);
    h.cluster.run_until(59);
    board->set(0, false);
    h.cluster.run();
    EXPECT_EQ(h.agent(0).stats().offered, 2u);
    EXPECT_EQ(h.agent(0).stats().shed, 1u);
    EXPECT_EQ(h.agent(0).stats().accepted, 1u);
}

// ---- crash-recovery incarnation ids ---------------------------------------

TEST(CallCrash, RestartResumesWorkloadUnderANewIncarnation) {
    // A generator node crashes mid-run and comes back: scripted
    // one-shots are gone for good, but the open-loop driver resumes, and
    // every post-restart call id carries the incarnation in its sequence
    // high bits — transit records from before the crash cannot collide.
    CallAgentOptions opt = hardened(4);
    opt.workload.arrivals = ArrivalProcess::kPoisson;
    opt.workload.mean_interarrival = 30.0;
    opt.workload.mean_hold = 40;
    opt.workload.until = 600;
    opt.retain_terminal = true;  // keep ids inspectable
    Harness h(graph::make_path(3), opt, {});
    h.cluster.crash_node(200, 0);
    h.cluster.restart_node(260, 0);
    h.cluster.run();
    bool saw_second_incarnation = false;
    for (const CallRecord& r : h.agent(0).call_records()) {
        if (r.source != 0) continue;  // node 0 also transits others' calls
        if (r.id.seq >> 24 == 1) saw_second_incarnation = true;
    }
    EXPECT_TRUE(saw_second_incarnation);
    EXPECT_GT(fold_call_stats(h.cluster).accepted, 0u);
    EXPECT_TRUE(fault::check_calls(h.cluster).ok())
        << fault::check_calls(h.cluster).summary();
}

// ---- open-loop workload ----------------------------------------------------

CallAgentOptions workload_opts(std::uint32_t capacity, double mean_gap, Tick until) {
    CallAgentOptions opt = hardened(capacity);
    opt.workload.arrivals = ArrivalProcess::kPoisson;
    opt.workload.mean_interarrival = mean_gap;
    opt.workload.holding = ArrivalProcess::kPoisson;
    opt.workload.mean_hold = 60;
    opt.workload.until = until;
    opt.retain_terminal = false;
    return opt;
}

TEST(CallWorkload, PoissonLoadDrainsCleanAndIsSeedDeterministic) {
    auto run_once = [] {
        Rng rng(3);
        Harness h(graph::make_random_connected(10, 2, 7, rng),
                  workload_opts(3, 40.0, 1500), {}, {}, /*seed=*/99);
        h.cluster.run();
        cost::CallStats s = fold_call_stats(h.cluster);
        EXPECT_GT(s.offered, 100u);
        EXPECT_GT(s.accepted, 0u);
        // Every offered call resolves exactly once at the door: shed,
        // finally blocked, or accepted — and every accepted call later
        // completes or fails (none still active: all holds are finite).
        EXPECT_EQ(s.offered, s.shed + s.blocked + s.accepted);
        EXPECT_EQ(s.accepted, s.completed + s.failed);
        EXPECT_TRUE(fault::check_calls(h.cluster).ok())
            << fault::check_calls(h.cluster).summary();
        return std::tuple{s.offered, s.accepted, s.blocked, s.shed,
                          s.setup_latency.quantile_bound(0.5)};
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(CallWorkload, OverloadRaisesBlockingButNeverLeaks) {
    // Offered load far beyond capacity: blocking must rise, the ledger
    // must still conserve, and everything drains at quiescence.
    Rng rng(5);
    Harness h(graph::make_random_connected(8, 2, 5, rng),
              workload_opts(1, 8.0, 1200), {}, {}, /*seed=*/17);
    h.cluster.run();
    const cost::CallStats s = fold_call_stats(h.cluster);
    EXPECT_GT(s.offered, 400u);
    EXPECT_GT(s.blocking_probability(), 0.10);
    EXPECT_EQ(h.total_reserved(), 0u);
    EXPECT_TRUE(fault::check_calls(h.cluster).ok())
        << fault::check_calls(h.cluster).summary();
}

TEST(CallWorkload, ParetoBurstsStayConserved) {
    CallAgentOptions opt = workload_opts(2, 30.0, 1000);
    opt.workload.arrivals = ArrivalProcess::kPareto;
    opt.workload.arrival_alpha = 1.5;
    Rng rng(9);
    Harness h(graph::make_random_connected(9, 2, 6, rng), opt, {}, {}, /*seed=*/5);
    h.cluster.run();
    const cost::CallStats s = fold_call_stats(h.cluster);
    EXPECT_GT(s.offered, 50u);
    EXPECT_TRUE(fault::check_calls(h.cluster).ok())
        << fault::check_calls(h.cluster).summary();
}

TEST(CallWorkload, RecycledSlotsKeepNoTerminalRecords) {
    // retain_terminal=false: resolved calls leave nothing behind — the
    // record population is bounded by concurrency, not call count.
    Rng rng(2);
    Harness h(graph::make_random_connected(8, 2, 5, rng),
              workload_opts(3, 25.0, 800), {}, {}, /*seed=*/31);
    h.cluster.run();
    EXPECT_GT(fold_call_stats(h.cluster).offered, 50u);
    for (NodeId u = 0; u < h.cluster.node_count(); ++u)
        EXPECT_TRUE(h.agent(u).call_records().empty()) << "node " << u;
}

}  // namespace
}  // namespace fastnet::paris
