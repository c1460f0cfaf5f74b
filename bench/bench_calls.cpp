// Ablation A5 + application-level demonstration: PARIS call setup with
// selective copy versus hop-by-hop (pre-PARIS software forwarding).
//
// The model's promise for its motivating application: establishing a
// call across k switches costs ONE time unit and k system calls with
// the copy mechanism; without it, latency grows linearly with k.
// A second table runs a call-churn workload and reports admission
// behaviour under varying link capacity.
#include <benchmark/benchmark.h>

#include <iostream>

#include "fastnet.hpp"
#include "json_reporter.hpp"

namespace {

using namespace fastnet;
using paris::CallRequest;

void experiment_setup_latency(bench::JsonReporter& rep) {
    util::Table t({"path_hops", "copy_setup_ticks", "seq_setup_ticks", "slowdown",
                   "copy_calls", "seq_calls"});
    for (NodeId n : {4u, 8u, 16u, 32u, 64u}) {
        auto run_mode = [n](bool copy) {
            const graph::Graph g = graph::make_path(n);
            std::map<NodeId, std::vector<CallRequest>> scripts{
                {0, {CallRequest{1, n - 1, 1, -1}}}};
            node::ParallelCluster c(g, paris::make_call_agents(g, 4, scripts, copy));
            c.start_all(0);
            const Tick done = c.run();
            FASTNET_ENSURES(c.protocol_as<paris::CallAgentProtocol>(0).calls_active() == 1);
            return std::pair{done, c.merged_metrics().total_message_system_calls()};
        };
        const auto [t_copy, c_copy] = run_mode(true);
        const auto [t_seq, c_seq] = run_mode(false);
        t.add(n - 1, t_copy, t_seq,
              static_cast<double>(t_seq) / static_cast<double>(t_copy), c_copy, c_seq);
        rep.add("a5_seq_over_copy_hops" + std::to_string(n - 1),
                static_cast<double>(t_seq) / static_cast<double>(t_copy), "x");
    }
    t.print(std::cout,
            "A5: call establishment — selective copy is O(1) time units, the "
            "hop-by-hop software path is O(path)");
}

void experiment_admission(bench::JsonReporter& rep) {
    util::Table t({"capacity", "offered", "carried", "rejected", "failed",
                   "capacity_leaks"});
    for (std::uint32_t cap : {1u, 2u, 4u, 8u}) {
        Rng rng(cap * 11 + 1);
        graph::Graph g = graph::make_random_connected(24, 2, 10, rng);
        std::map<NodeId, std::vector<CallRequest>> scripts;
        const int offered = 60;
        for (int i = 0; i < offered; ++i) {
            const NodeId src = static_cast<NodeId>(rng.below(24));
            NodeId dst = static_cast<NodeId>(rng.below(24));
            if (dst == src) dst = (dst + 1) % 24;
            scripts[src].push_back(CallRequest{static_cast<Tick>(1 + rng.below(500)), dst,
                                               1, static_cast<Tick>(100 + rng.below(300))});
        }
        node::ParallelCluster c(g, paris::make_call_agents(g, cap, scripts));
        c.start_all(0);
        c.run();
        unsigned carried = 0, rejected = 0, failed = 0;
        bool leaks = false;
        for (NodeId u = 0; u < 24; ++u) {
            const auto& a = c.protocol_as<paris::CallAgentProtocol>(u);
            carried += a.calls_released() + a.calls_active();
            rejected += a.calls_rejected();
            failed += a.calls_failed();
            for (EdgeId e = 0; e < g.edge_count(); ++e)
                if (a.free_capacity(e) != cap) leaks = true;
        }
        t.add(cap, offered, carried, rejected, failed, leaks);
        rep.add("admission_carried_cap" + std::to_string(cap), carried, "calls");
        FASTNET_ENSURES(!leaks);
    }
    t.print(std::cout,
            "call-churn workload (60 offered calls, hold-and-release): carried "
            "load rises with capacity; reservations never leak");
}

// ---- sustained offered-load sweep (ROADMAP item 3) ----------------------
//
// A million generated calls pushed through hardened agents at offered
// loads from half capacity to double capacity, plus one row that adds
// packet loss and node crashes mid-run. Every row must come out of the
// CallOracle clean — capacity conserved, everything released — and the
// sweep pins the Erlang-style story: blocking rises with offered load
// while the p99 setup latency stays bounded (admission control and
// timeouts shed excess instead of queueing it).
void experiment_sustained_load(bench::JsonReporter& rep) {
    constexpr NodeId kSide = 8;
    constexpr std::uint32_t kCap = 4;
    constexpr double kMeanHold = 200;
    constexpr Tick kUntil = 170'000;
    auto g = std::make_shared<graph::Graph>(graph::make_grid(kSide, kSide));
    const NodeId n = g->node_count();

    // Capacity calibration: a call on an h-hop route holds h units of
    // the pool (one per upstream link) for its holding time, and the
    // pool is every directed link times its capacity. Offered utilization
    // u then fixes the per-node mean inter-arrival gap.
    double path_sum = 0;
    for (NodeId u = 0; u < n; ++u) {
        const graph::BfsResult b = graph::bfs(*g, u);
        for (NodeId v = 0; v < n; ++v)
            if (v != u) path_sum += b.dist[v];
    }
    const double mean_path = path_sum / (static_cast<double>(n) * (n - 1));
    const double pool = 2.0 * static_cast<double>(g->edge_count()) * kCap;

    struct RowSpec {
        const char* name;
        double util;
        std::uint32_t loss_ppm;
        bool crashes;
    };
    const RowSpec rows[] = {
        {"load0.5", 0.5, 0, false},  {"load0.75", 0.75, 0, false},
        {"load1.0", 1.0, 0, false},  {"load1.25", 1.25, 0, false},
        {"load1.5", 1.5, 0, false},  {"load2.0", 2.0, 0, false},
        {"faulty1.0", 1.0, 2'000, true},
    };

    util::Table t({"row", "offered", "blocking_pct", "retries", "reaped",
                   "p50_setup", "p99_setup", "kcalls_per_sec"});
    std::uint64_t offered_total = 0;
    // Gap for offered utilization 1.0 — also the token-bucket refill
    // period: admission is calibrated so each source places at most its
    // fair share of the pool, and overload is shed at arrival instead of
    // melting the NCUs with doomed setup traffic.
    const double gap_at_capacity =
        static_cast<double>(n) * kMeanHold * mean_path / pool;

    for (const RowSpec& row : rows) {
        const double gap = gap_at_capacity / row.util;

        paris::CallAgentOptions opt;
        opt.link_capacity = kCap;
        // Setup timers must ride out NCU queueing under load, not just
        // the wire round trip — too tight and every queued accept turns
        // into a spurious timeout + retry storm.
        opt.setup_timeout = 200;
        opt.max_retries = 3;
        opt.retry_backoff = 16;
        opt.retry_jitter = 4;
        opt.reservation_ttl = 400;
        opt.refresh_interval = 100;
        opt.max_inflight = 8;
        opt.bucket_rate_num = 1;
        opt.bucket_rate_den = static_cast<Tick>(gap_at_capacity);
        opt.bucket_burst = 4;
        opt.retain_terminal = false;  // million calls: recycle slots
        opt.workload.arrivals = paris::ArrivalProcess::kPoisson;
        opt.workload.mean_interarrival = gap;
        opt.workload.mean_hold = kMeanHold;
        opt.workload.first_at = 1;
        opt.workload.until = kUntil;

        node::ParallelClusterConfig cfg;
        cfg.net.loss_ppm = row.loss_ppm;
        node::ParallelCluster c(*g, paris::make_call_workload(g, opt), cfg);
        c.start_all(0);
        if (row.crashes) {
            node::Scenario s;
            // Crash mid-window with reservations in flight, restart
            // while the workload is still offering load.
            s.crash_node(kUntil / 3, 27).restart_node(kUntil / 3 + 500, 27);
            s.crash_node(kUntil / 2, 36).restart_node(kUntil / 2 + 500, 36);
            c.schedule(s);
        }

        const auto t0 = std::chrono::steady_clock::now();
        c.run();
        const double secs =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                .count();

        const fault::OracleReport oracle = fault::check_calls(c);
        if (!oracle.ok()) std::cerr << oracle.summary() << "\n";
        FASTNET_ENSURES_MSG(oracle.ok(), "call oracle violated under load");

        const cost::CallStats s = paris::fold_call_stats(c);
        offered_total += s.offered;
        const double blocking = 100.0 * s.blocking_probability();
        const auto p50 = s.setup_latency.quantile_bound(0.50);
        const auto p99 = s.setup_latency.quantile_bound(0.99);
        const double kcps = static_cast<double>(s.offered) / secs / 1000.0;
        t.add(row.name, s.offered, blocking, s.retries, s.reaped, p50, p99, kcps);
        rep.add(std::string("sustained_blocking_pct_") + row.name, blocking, "pct");
        rep.add(std::string("sustained_retries_") + row.name,
                static_cast<double>(s.retries), "retries");
        rep.add(std::string("sustained_p50_setup_") + row.name,
                static_cast<double>(p50), "ticks");
        rep.add(std::string("sustained_p99_setup_") + row.name,
                static_cast<double>(p99), "ticks");
        rep.add(std::string("sustained_rate_") + row.name, kcps * 1000.0,
                "per_sec");
        // The sweep's contract: overload sheds, it does not queue — the
        // p99 setup latency must stay inside the retry envelope (every
        // attempt resolves within setup_timeout, plus the backoff chain),
        // not grow with offered load. Factor 2 absorbs the histogram's
        // power-of-two bucket bound and timer-fire queueing.
        const std::uint64_t envelope =
            2 * ((opt.max_retries + 1) * opt.setup_timeout +
                 7 * opt.retry_backoff + opt.max_retries * opt.retry_jitter);
        FASTNET_ENSURES_MSG(p99 <= envelope, "p99 setup latency left the retry envelope");
    }
    FASTNET_ENSURES_MSG(offered_total >= 1'000'000,
                        "sustained sweep offered fewer than one million calls");
    t.print(std::cout,
            "sustained open-loop workload (one million+ offered calls): blocking "
            "absorbs overload, capacity stays conserved under loss and crashes");
}

void bm_call_setup_roundtrip(benchmark::State& state) {
    const NodeId n = static_cast<NodeId>(state.range(0));
    const graph::Graph g = graph::make_path(n);
    for (auto _ : state) {
        std::map<NodeId, std::vector<CallRequest>> scripts{
            {0, {CallRequest{1, n - 1, 1, -1}}}};
        node::ParallelCluster c(g, paris::make_call_agents(g, 4, scripts));
        c.start_all(0);
        benchmark::DoNotOptimize(c.run());
    }
}
BENCHMARK(bm_call_setup_roundtrip)->Range(8, 128);

}  // namespace

int main(int argc, char** argv) {
    fastnet::bench::JsonReporter rep("calls");
    experiment_setup_latency(rep);
    experiment_admission(rep);
    experiment_sustained_load(rep);
    rep.write();
    std::cout << "\n";
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
