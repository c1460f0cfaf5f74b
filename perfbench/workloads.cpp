#include "workloads.hpp"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <ostream>
#include <streambuf>

#include "obs/critical_path.hpp"
#include "obs/spill_query.hpp"
#include "sim/trace_spill.hpp"

namespace perfbench {
namespace {

/// Derived seed for one input stream (graph, cluster, ...) of a job.
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
    return Rng::stream(seed, stream).next();
}

struct Checks {
    std::uint64_t made = 0;
    std::vector<std::string> failed;

    void expect(bool ok, std::string what) {
        ++made;
        if (!ok) failed.push_back(std::move(what));
    }
};

/// What distinguishes one workload from another; run_spec does the rest.
struct Spec {
    Module module = Module::kTopo;
    std::function<graph::Graph()> make_graph;
    std::function<node::ProtocolFactory(const graph::Graph&)> make_factory;
    node::ParallelClusterConfig config;
    std::function<void(node::ParallelCluster&)> script;
    /// Timed with merged_metrics(): the queries a user runs over the
    /// finished run (traced_calls' spill queries; none elsewhere).
    std::function<void(node::ParallelCluster&, const cost::Metrics&, JobTrace*)> analyse;
    /// Untimed: checks the run and what analyse returned against
    /// properties that hold at any seed.
    std::function<void(node::ParallelCluster&, const cost::Metrics&, Checks&)> verify;
};

void record_layers(const Spec& spec, node::ParallelCluster& c, const cost::Metrics& m,
                   const JobResult& r, JobTrace& tr) {
    auto& v = tr.values;
    const HandlerProfile& prof = tr.profile;
    v["graph.bytes"] = static_cast<double>(c.graph().memory_bytes());
    double hw_bytes = 0;
    for (unsigned s = 0; s < c.shard_count(); ++s)
        hw_bytes += static_cast<double>(c.mirror(s).memory_bytes());
    v["hw.bytes"] = hw_bytes;

    double protocol_bytes = 0;
    for (NodeId u = 0; u < c.node_count(); ++u)
        if (!c.crashed(u)) protocol_bytes += static_cast<double>(c.protocol(u).memory_bytes());
    for (unsigned mi = 0; mi < kModuleCount; ++mi) {
        const auto mod = static_cast<Module>(mi);
        const std::string p = module_name(mod);
        const double handler_s = static_cast<double>(prof.module_ns(mod)) * 1e-9;
        v[p + ".handler_s"] = handler_s;
        v[p + ".share"] = handler_s / r.run_s;
        v[p + ".bytes"] = mod == spec.module ? protocol_bytes : 0;
        for (const auto& [kind, label] : {std::pair{Handler::kMessage, "on_message"},
                                          std::pair{Handler::kTimer, "on_timer"}}) {
            const HandlerStats st = prof.total(mod, kind);
            const std::string k = p + "." + label;
            v[k + ".calls"] = static_cast<double>(st.calls);
            v[k + ".p50_ns"] = st.hist.quantile(0.50);
            v[k + ".p99_ns"] = st.hist.quantile(0.99);
        }
    }

    // Kernel time is the run span's self time: the span minus the handler
    // time on its critical path.
    const HandlerProfile::WindowTotals windows = prof.window_totals();
    const double critical_s = static_cast<double>(windows.critical_ns) * 1e-9;
    const double kernel_s = r.run_s - critical_s;
    v["node.kernel_s"] = kernel_s;
    v["node.kernel_ns_per_hop"] =
        m.net().hops > 0 ? kernel_s * 1e9 / static_cast<double>(m.net().hops) : 0;
    std::uint64_t invocations = 0;
    for (unsigned h = 0; h < kHandlerCount; ++h) invocations += prof.calls(static_cast<Handler>(h));
    v["node.invocations"] = static_cast<double>(invocations);
    v["node.timer_fires"] = static_cast<double>(prof.calls(Handler::kTimer));
    v["node.cpu_util"] = r.run_cpu_s / (static_cast<double>(r.threads) * r.run_s);
    v["node.windows"] = static_cast<double>(windows.active);
    const double mean_shard_ns = static_cast<double>(prof.total_ns()) / c.shard_count();
    v["node.shard_imbalance"] =
        mean_shard_ns > 0 ? static_cast<double>(windows.busiest_ns) / mean_shard_ns : 1;
    std::uint64_t handoffs = 0;
    for (const CountingMonitor* mon : tr.monitors) handoffs += mon->handoffs();
    v["node.handoffs"] = static_cast<double>(handoffs);

    const cost::NetCounters& net = m.net();
    v["hw.hops"] = static_cast<double>(net.hops);
    v["hw.deliveries"] = static_cast<double>(net.ncu_deliveries);
    v["hw.drops"] = static_cast<double>(net.drops_inactive_link + net.drops_no_match +
                                        net.drops_empty_header + net.drops_injected);
    v["hw.dups"] = static_cast<double>(net.dup_copies);
    v["hw.header_bits"] = static_cast<double>(net.header_bits);
}

JobResult run_spec(const std::string& name, const Spec& spec, const JobOptions& opt) {
    JobTrace* tr = opt.trace;
    Spans* spans = tr ? &tr->spans : nullptr;
    JobResult r;
    std::unique_ptr<node::ParallelCluster> c;

    r.setup_s = timed(spans, "setup", [&] {
        graph::Graph g;
        const double graph_s = timed(spans, "graph.build", [&] { g = spec.make_graph(); });
        node::ProtocolFactory factory = spec.make_factory(g);
        node::ParallelClusterConfig cfg = spec.config;
        if (opt.shards != 0) cfg.shards = opt.shards;
        if (opt.threads != 0) cfg.threads = opt.threads;
        if (tr) {
            factory = profiled_factory(std::move(factory), spec.module, &tr->profile);
            if (cfg.shards > 1)
                cfg.monitor_setup = [tr](obs::MonitorHub& hub) {
                    auto mon = std::make_unique<CountingMonitor>();
                    tr->monitors.push_back(mon.get());
                    hub.add(std::move(mon));
                };
        }
        const double build_s = timed(spans, "node.build", [&] {
            c = std::make_unique<node::ParallelCluster>(std::move(g), std::move(factory), cfg);
        });
        timed(spans, "script", [&] { spec.script(*c); });
        if (tr) {
            tr->values["graph.build_s"] = graph_s;
            tr->values["node.build_s"] = build_s;
        }
    });
    if (tr) tr->profile.bind(*c);
    r.threads = c->thread_count();
    r.shards = c->shard_count();

    const double cpu0 = process_cpu_seconds();
    r.run_s = timed(spans, "run", [&] { c->run(); });
    r.run_cpu_s = process_cpu_seconds() - cpu0;

    cost::Metrics merged(0);
    r.analysis_s = timed(spans, "analysis", [&] {
        timed(spans, "merged_metrics", [&] { merged = c->merged_metrics(); });
        if (spec.analyse) spec.analyse(*c, merged, tr);
    });

    Checks checks;
    checks.expect(c->quiescent(), "cluster quiescent after run()");
    spec.verify(*c, merged, checks);
    r.checks = checks.made;
    r.failures = std::move(checks.failed);
    r.metrics_json = obs::metrics_json(merged, name);
    if (tr) record_layers(spec, *c, merged, r, *tr);
    // Releasing the cluster is the last post-run cost a user waits for.
    r.analysis_s += timed(spans, "release", [&] { c.reset(); });
    return r;
}

// ---- maint_storm / storm_sharded -----------------------------------------
// Section 3 topology maintenance (ROADMAP P1): every node floods its
// local topology `rounds` times over branching paths while two links
// flap. C = 2 gives the parallel kernel lookahead 2, so storm_sharded
// runs the same inputs in conservative windows over 8 shards on as many
// threads as the hardware has (up to 8). BENCHMARK.json leaves it out:
// its run time spreads too much across runs on a shared host (see
// README.md); it stays runnable for work on the parallel kernel.

Spec storm_spec(const JobOptions& opt, unsigned shards, unsigned threads) {
    const NodeId n = opt.toy ? 64 : 512;
    Spec s;
    s.module = Module::kTopo;
    s.make_graph = [n, seed = derive(opt.seed, 1)] {
        Rng rng(seed);
        return graph::make_random_connected(n, 2, 7, rng);
    };
    s.make_factory = [n](const graph::Graph&) {
        topo::TopologyOptions t;
        t.period = 64;
        t.rounds = 4;
        return topo::make_topology_maintenance(n, t);
    };
    s.config.params.hop_delay = 2;
    s.config.params.ncu_delay = 1;
    s.config.seed = derive(opt.seed, 2);
    s.config.shards = shards;
    s.config.threads = threads;
    s.script = [](node::ParallelCluster& c) {
        c.start_all(0);
        c.fail_link(70, 0);
        c.restore_link(130, 0);
        c.fail_link(200, 1);
        c.restore_link(260, 1);
    };
    s.verify = [](node::ParallelCluster& c, const cost::Metrics& m, Checks& ch) {
        // Theorem 1: every view is exact over the node's own shard mirror.
        NodeId converged = 0;
        for (NodeId u = 0; u < c.node_count(); ++u)
            if (topo::view_converged(protocol_as<topo::TopologyMaintenance>(c, u),
                                     c.mirror(c.partition().shard_of[u]), u))
                ++converged;
        ch.expect(converged == c.node_count(), "every view converged (Theorem 1)");
        ch.expect(m.net().hops > 0, "the storm moved packets");
    };
    return s;
}

// ---- election_cgk ----------------------------------------------------------
// The Section 4 election with the announcement phase in the paper's
// limiting model C = 0, P = 1, on four seeded sparse random graphs of
// 1024 nodes joined into one network: the election runs in every
// component at once and elects one leader per component. A single
// 2048-node graph costs about the same, but its cost depends so much on
// the graph's capture order that run_s spread by 22-27% across seeds;
// four components average that out.

Spec election_spec(const JobOptions& opt) {
    const NodeId n = opt.toy ? 64 : 1024;  // nodes per component
    constexpr unsigned kComponents = 4;
    Spec s;
    s.module = Module::kElection;
    s.make_graph = [n, seed = derive(opt.seed, 1)] {
        Rng rng(seed);
        graph::Graph g = graph::make_random_connected(n, 4, n, rng);
        for (unsigned i = 1; i < kComponents; ++i)
            g = graph::disjoint_union(g, graph::make_random_connected(n, 4, n, rng));
        return g;
    };
    s.make_factory = [](const graph::Graph&) -> node::ProtocolFactory {
        return [](NodeId) { return std::make_unique<elect::ElectionProtocol>(); };
    };
    s.config.seed = derive(opt.seed, 2);
    s.script = [](node::ParallelCluster& c) { c.start_all(0); };
    // disjoint_union numbers component k's nodes [k * n, (k + 1) * n).
    s.verify = [n](node::ParallelCluster& c, const cost::Metrics& m, Checks& ch) {
        std::vector<std::uint64_t> leaders(kComponents);
        std::vector<NodeId> leader(kComponents, kNoNode);
        for (NodeId u = 0; u < c.node_count(); ++u)
            if (protocol_as<elect::ElectionProtocol>(c, u).role() == elect::Role::kLeader) {
                ++leaders[u / n];
                leader[u / n] = u;
            }
        NodeId informed = 0;
        for (NodeId u = 0; u < c.node_count(); ++u)
            if (protocol_as<elect::ElectionProtocol>(c, u).known_leader() == leader[u / n])
                ++informed;
        ch.expect(informed == c.node_count(), "every node knows its component's leader");
        for (unsigned k = 0; k < kComponents; ++k) {
            std::uint64_t calls = 0;
            for (NodeId u = k * n; u < (k + 1) * n; ++u) calls += m.node(u).message_deliveries;
            const std::string in = " in component " + std::to_string(k);
            ch.expect(leaders[k] == 1, "exactly one leader (Theorem 4)" + in);
            ch.expect(calls <= elect::theorem5_call_bound(n) + elect::announce_call_bound(n),
                      "message system calls <= 6n + (n - 1) (Theorem 5 + announcement)" + in);
        }
    };
    return s;
}

// ---- ring_million ----------------------------------------------------------
// Chang-Roberts on a 10^6-node cycle with priorities sorted along the
// ring (the best case): 3n - 1 hops, handlers of ~0.2 us, so the kernel
// dominates over a working set far larger than cache. BENCHMARK.json
// leaves it out (its run time spreads too much across runs on a shared
// host, see README.md); it stays runnable for work on the kernel and on
// memory at 10^6 nodes.

Spec ring_spec(const JobOptions& opt) {
    const NodeId n = opt.toy ? 1000 : 1'000'000;
    Spec s;
    s.module = Module::kElection;
    s.make_graph = [n] { return graph::make_cycle(n); };
    s.make_factory = [](const graph::Graph&) -> node::ProtocolFactory {
        return [](NodeId u) { return std::make_unique<elect::ChangRobertsProtocol>(u); };
    };
    s.config.seed = derive(opt.seed, 2);
    s.script = [](node::ParallelCluster& c) { c.start_all(0); };
    s.verify = [](node::ParallelCluster& c, const cost::Metrics& m, Checks& ch) {
        const std::uint64_t n = c.node_count();
        NodeId informed = 0;
        for (NodeId u = 0; u < c.node_count(); ++u)
            if (protocol_as<elect::ChangRobertsProtocol>(c, u).known_leader() == n - 1)
                ++informed;
        ch.expect(informed == n, "every node knows leader n - 1");
        ch.expect(m.net().hops == 3 * n - 1, "hw.hops == 3n - 1");
    };
    return s;
}

// ---- traced_calls ----------------------------------------------------------
// PARIS calls on an 8x8 grid under 1.5x offered load with every
// robustness mechanism on, link loss and two crash/restart pairs. The
// program trace spills to disk under a 4 MiB resident budget and the
// analysis runs the four spill queries over it.

/// Counts the lines written through it and discards the bytes.
class LineCounter final : public std::streambuf {
public:
    std::uint64_t lines() const { return lines_; }

protected:
    int_type overflow(int_type ch) override {
        if (ch == '\n') ++lines_;
        return traits_type::not_eof(ch);
    }
    std::streamsize xsputn(const char* s, std::streamsize n) override {
        lines_ += static_cast<std::uint64_t>(std::count(s, s + n, '\n'));
        return n;
    }

private:
    std::uint64_t lines_ = 0;
};

Spec calls_spec(const JobOptions& opt) {
    const NodeId side = opt.toy ? 4 : 8;
    const Tick until = opt.toy ? 4'000 : 20'000;
    constexpr double kMeanHold = 200;
    constexpr std::uint32_t kCap = 4;
    constexpr double kLoad = 1.5;

    Spec s;
    s.module = Module::kParis;
    s.make_graph = [side] { return graph::make_grid(side, side); };
    s.make_factory = [until](const graph::Graph& g) {
        auto shared = std::make_shared<const graph::Graph>(g);
        // Offered utilization u of the pool (every directed link times its
        // capacity, a call holding one unit per hop) fixes the mean gap.
        const NodeId n = g.node_count();
        double path_sum = 0;
        for (NodeId u = 0; u < n; ++u) {
            const graph::BfsResult b = graph::bfs(g, u);
            for (NodeId v = 0; v < n; ++v) path_sum += b.dist[v];
        }
        const double mean_path = path_sum / (static_cast<double>(n) * (n - 1));
        const double pool = 2.0 * static_cast<double>(g.edge_count()) * kCap;
        const double gap_at_capacity = static_cast<double>(n) * kMeanHold * mean_path / pool;

        paris::CallAgentOptions a;
        a.link_capacity = kCap;
        a.setup_timeout = 200;
        a.max_retries = 3;
        a.retry_backoff = 16;
        a.retry_jitter = 4;
        a.reservation_ttl = 400;
        a.refresh_interval = 100;
        a.max_inflight = 8;
        a.bucket_rate_num = 1;
        a.bucket_rate_den = static_cast<Tick>(gap_at_capacity);
        a.bucket_burst = 4;
        a.retain_terminal = false;
        a.workload.arrivals = paris::ArrivalProcess::kPoisson;
        a.workload.mean_interarrival = gap_at_capacity / kLoad;
        a.workload.mean_hold = kMeanHold;
        a.workload.first_at = 1;
        a.workload.until = until;
        return paris::make_call_workload(std::move(shared), a);
    };
    s.config.seed = derive(opt.seed, 2);
    s.config.net.loss_ppm = 2'000;
    const std::string spill_dir = opt.scratch + "/spill";
    if (opt.program_trace) {
        s.config.trace_capacity = std::size_t{1} << 16;
        s.config.trace_detail_capacity = std::size_t{1} << 16;
        s.config.trace_spill_dir = spill_dir;
        s.config.trace_budget_bytes = std::size_t{4} << 20;
    }
    const NodeId n = side * side;
    s.script = [until, n](node::ParallelCluster& c) {
        c.start_all(0);
        // Crashes mid-run with reservations in flight; restarts while the
        // workload still offers load.
        c.crash_node(until / 3, n / 2 - 5);
        c.restart_node(until / 3 + 500, n / 2 - 5);
        c.crash_node(until / 2, n / 2 + 4);
        c.restart_node(until / 2 + 500, n / 2 + 4);
    };

    struct Queries {
        bool ok = true;
        std::string error;
        obs::CriticalPathReport path;
        std::size_t path_peak_bytes = 0;
        obs::LineageIndex index;
        obs::SpillSummary summary;
        std::uint64_t exported = 0;
    };
    auto q = std::make_shared<Queries>();
    const bool traced = opt.program_trace;
    s.analyse = [q, traced](node::ParallelCluster& c, const cost::Metrics& m, JobTrace* tr) {
        *q = Queries{};
        if (!traced) return;
        Spans* spans = tr ? &tr->spans : nullptr;
        const std::vector<std::string> paths = c.spill_paths();
        const obs::ExportMeta meta = obs::make_meta(c.graph(), "traced_calls");
        const double cp_s = timed(spans, "obs.critical_path", [&] {
            q->ok &= obs::spill_critical_path(paths, {}, q->path, &q->error,
                                              &q->path_peak_bytes);
        });
        const double index_s = timed(spans, "obs.lineage_index",
                                     [&] { q->ok &= q->index.build(paths, &q->error); });
        const double summary_s = timed(spans, "obs.summary", [&] {
            q->ok &= obs::spill_summarize(paths, q->summary, &q->error);
        });
        LineCounter counter;
        std::ostream sink(&counter);
        const double export_s = timed(spans, "obs.export", [&] {
            q->ok &= obs::spill_canonical_json(paths, meta, sink, &q->error);
        });
        const std::string empty = obs::canonical_trace_json({}, meta, 0, 0, 0);
        q->exported =
            counter.lines() - static_cast<std::uint64_t>(std::count(empty.begin(), empty.end(), '\n'));
        if (tr) {
            tr->values["obs.critical_path_s"] = cp_s;
            tr->values["obs.lineage_index_s"] = index_s;
            tr->values["obs.summary_s"] = summary_s;
            tr->values["obs.export_s"] = export_s;
            tr->values["obs.critical_path_peak_bytes"] =
                static_cast<double>(q->path_peak_bytes);
            tr->values["obs.records"] = static_cast<double>(c.trace_total_recorded());
            tr->values["obs.spill_bytes"] = static_cast<double>(m.trace_stats().spilled_bytes);
            tr->values["obs.dropped"] = static_cast<double>(c.trace_dropped());
        }
    };
    s.verify = [q, traced](node::ParallelCluster& c, const cost::Metrics& m, Checks& ch) {
        const fault::OracleReport oracle = fault::check_calls(c);
        ch.expect(oracle.ok(), "call oracle clean: " + oracle.summary());
        if (!traced) return;
        const std::uint64_t recorded = c.trace_total_recorded();
        ch.expect(q->ok, "spill queries succeeded: " + q->error);
        ch.expect(recorded > 0 && c.trace_dropped() == 0, "trace recorded with 0 dropped");
        ch.expect(c.trace_spilled_records() == recorded, "spilled records == recorded");
        ch.expect(m.trace_stats().spilled_bytes > 0, "spill bytes on disk");
        ch.expect(q->path.has_witness &&
                      q->path.witness.totals.total() == q->path.witness.latency(),
                  "critical-path witness segments sum to its latency");
        ch.expect(q->summary.records == recorded, "summary record count == recorded");
        ch.expect(q->exported == recorded, "export record count == recorded");
    };
    return s;
}

}  // namespace

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names = {
        "maint_storm", "storm_sharded", "election_cgk", "ring_million", "traced_calls"};
    return names;
}

bool known_workload(const std::string& name) {
    const auto& names = workload_names();
    return std::find(names.begin(), names.end(), name) != names.end();
}

bool single_threaded(const std::string& name) { return name != "storm_sharded"; }

JobResult run_job(const std::string& workload, const JobOptions& opt) {
    Spec spec;
    if (workload == "maint_storm") spec = storm_spec(opt, 1, 1);
    else if (workload == "storm_sharded") spec = storm_spec(opt, 8, 0);
    else if (workload == "election_cgk") spec = election_spec(opt);
    else if (workload == "ring_million") spec = ring_spec(opt);
    else if (workload == "traced_calls") spec = calls_spec(opt);
    else FASTNET_EXPECTS_MSG(false, "unknown workload");

    const bool spills = workload == "traced_calls" && opt.program_trace;
    std::error_code ec;
    if (spills) std::filesystem::remove_all(opt.scratch + "/spill", ec);
    JobResult r = run_spec(workload, spec, opt);
    if (spills) std::filesystem::remove_all(opt.scratch + "/spill", ec);
    return r;
}

}  // namespace perfbench
