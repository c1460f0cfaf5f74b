// Spatially-partitioned parallel event kernel (conservative PDES).
//
// ParallelCluster runs ONE simulation across several shards: the graph
// is partitioned (graph/partition.hpp), one hw::Fabric holds the
// network's link state for all of them, and each shard gets an
// hw::Network over that fabric + its local NCU runtimes over its own
// sim::Simulator. Shards execute in bounded time windows, concurrently
// on an exec::ThreadPool when there is more than one thread. The window
// width is the *lookahead* L — the minimum per-hop delay, which every
// link shares: a packet leaving shard A at time t cannot arrive in shard
// B before t + L, so shards may run [t, t + L) without hearing from
// each other. Arrivals that cross a boundary land in the sending
// network's outbox and are injected into the target shard's network at
// the next window barrier.
//
// Determinism contract (guarded by tests/test_parallel_sim.cpp): for a
// fixed shard count, the merged metrics / trace / violations serialize
// byte-identically at 1, 2 and N worker threads — shards only ever run
// between barriers, where they share nothing. Across *shard counts* the
// outputs are identical too, because every ordering decision is keyed by
// state that is a pure function of the partitioned simulation:
//
//  * event tie-breaks use per-node priority counters advanced by the
//    scheduling context's own execution order (hw::NodeStreams);
//  * packet ids / delay / fault draws come from per-node streams;
//  * the control timeline (starts, failures, phase marks) executes once,
//    at window barriers, while no shard runs; a link change draws its
//    endpoints' notification priorities from one counter (hw::Fabric);
//  * merges sort by simulated coordinates only: trace records by
//    (at, node), violations by (at, node); cross-shard arrivals need no
//    sort, because the target's event queue orders them by (at, pri),
//    which is globally unique.
//
// At shards = 1 (the default) there is one network, no boundary, and
// windows collapse to one run-to-quiescence call: the same schedule,
// just without threads. Every simulation in the repository runs on this
// kernel.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cost/metrics.hpp"
#include "exec/thread_pool.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "hw/network.hpp"
#include "node/protocol.hpp"
#include "node/runtime.hpp"
#include "node/scenario.hpp"
#include "obs/monitor.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "util/arena.hpp"

namespace fastnet::node {

struct ParallelClusterConfig {
    ModelParams params = ModelParams::fast_network();
    hw::NetworkConfig net;
    /// If >= 0, NCU delays are drawn uniformly from [ncu_delay_min, P]
    /// per invocation (P stays the analytic worst case).
    Tick ncu_delay_min = -1;
    /// The model's "send over multiple outgoing links at no extra
    /// processing cost" feature (Section 2, validated on PARIS). Turn
    /// off for ablation A1: each extra send in a handler costs P.
    bool free_multisend = true;
    /// Master seed; per-node streams derive from it deterministically.
    std::uint64_t seed = 42;
    /// Requested shard count (clamped to [1, node_count]; forced to 1
    /// when the lookahead would be zero, i.e. net.hop_delay_min == 0
    /// with jitter on — conservative windows need a positive minimum
    /// link delay).
    unsigned shards = 1;
    /// Worker threads for shards > 1; 0 = min(shards, hardware). With one
    /// thread (or one shard) the shards run inline, in shard order, on
    /// the calling thread, and no pool is created.
    unsigned threads = 0;
    /// Per-shard trace ring capacity; 0 = tracing off. The trace records
    /// starts, sends, hops, deliveries, timers, link events, drops,
    /// duplicates and crash/restart (sim/trace.hpp,
    /// docs/OBSERVABILITY.md). Size generously: merged exports are only
    /// byte-stable across shard counts while no ring drops records
    /// (drops depend on the partition) — or enable spill (below), which
    /// never drops records.
    std::size_t trace_capacity = 0;
    /// Per-shard trace detail-arena capacity in bytes (violation texts,
    /// custom records). Size generously for byte-stable merged exports:
    /// a full arena drops details, and which details drop depends on the
    /// partition and (with spill) the drain cadence.
    std::size_t trace_detail_capacity = 1 << 16;
    /// The trace kinds recorded, as a mask of sim::trace_kind_bit (all by
    /// default). A million-node run that needs only message-level records
    /// keeps its spill volume down by clearing the rest.
    std::uint16_t trace_kinds = 0xffff;
    /// When non-empty, each shard's trace spills to
    /// `<trace_spill_dir>/shard-NNNN.fnspill` instead of overwriting its
    /// ring (sim/trace_spill.hpp): resident trace memory stays bounded
    /// while the full record stream lands on disk, and
    /// obs::SpillMerge over the directory reproduces merged_trace()
    /// byte-identically at any shard x thread count. The directory is
    /// created if missing. Requires trace_capacity > 0.
    std::string trace_spill_dir;
    /// Optional per-shard resident-byte budget (ring + detail arena)
    /// forwarded to sim::TraceSpillConfig::resident_budget_bytes.
    std::size_t trace_budget_bytes = 0;
    /// When > 0, enables cost::Metrics windowed sampling with this
    /// window width (ticks): per-node busy/queue/delivery series, hop
    /// and delivery latency histograms, C-vs-P budget attribution.
    /// Accumulated per shard and merged.
    Tick sample_window = 0;
    /// Monitor installer, invoked once per shard hub; null = no
    /// monitors. Each shard audits its own slice of the run (plus
    /// kHandoff credits for packets entering across a boundary); every
    /// violation becomes a kViolation record in its shard's trace, and
    /// run() closes the books with MonitorHub::finish.
    std::function<void(obs::MonitorHub&)> monitor_setup;
};

/// The coordinator: construct, script (start/churn, or a whole
/// Scenario), run, then read merged results.
class ParallelCluster {
public:
    ParallelCluster(graph::Graph g, ProtocolFactory factory,
                    ParallelClusterConfig config = {});
    ~ParallelCluster();

    ParallelCluster(const ParallelCluster&) = delete;
    ParallelCluster& operator=(const ParallelCluster&) = delete;

    const graph::Graph& graph() const { return graph_; }
    NodeId node_count() const { return graph_.node_count(); }
    unsigned shard_count() const { return static_cast<unsigned>(shards_.size()); }
    unsigned thread_count() const { return threads_; }
    /// Window width in ticks; kNever when there are no boundary edges
    /// (single shard) — one window runs to quiescence.
    Tick lookahead() const { return lookahead_; }
    const graph::Partition& partition() const { return fabric_->partition(); }

    // ---- control timeline --------------------------------------------
    // All control is scripted: actions execute once, at window barriers,
    // in time order (registration order on ties). `at` must not be in
    // the past once the run has begun.
    void start(NodeId u, Tick at = 0);
    void start_all(Tick at = 0);
    void mark_phase(Tick at, std::uint64_t phase);
    void fail_link(Tick at, EdgeId e);
    void restore_link(Tick at, EdgeId e);
    void fail_node(Tick at, NodeId u);
    void restore_node(Tick at, NodeId u);
    void crash_node(Tick at, NodeId u);
    void restart_node(Tick at, NodeId u);
    void stall_node(Tick at, NodeId u, Tick extra);
    /// Appends every action of `scenario` to the control timeline.
    void schedule(const Scenario& scenario);

    // ---- execution ----------------------------------------------------
    /// Runs to quiescence (all shards drained, control timeline spent,
    /// outboxes empty), closes the monitors' books, and returns the
    /// completion time: the latest event time across shards.
    Tick run();
    /// Runs the window loop until simulated `until` inclusive.
    Tick run_until(Tick until);
    /// Latest simulated time reached by any shard.
    Tick now() const;
    /// True when every shard is drained, every NCU idle and the control
    /// timeline spent.
    bool quiescent() const;

    /// Takes one memory sample now: the whole cluster's footprint
    /// (graph, the fabric once, each shard's packet pool, shard arenas,
    /// runtimes, protocols, traces) into the memory ledger merged_metrics()
    /// reports — and its bytes/node into the sampling series when
    /// sampling is on — plus one kMemory monitor event per node to its
    /// shard's hub (what MemoryBudgetMonitor watches). It reads state
    /// only, so sampling between run_until steps leaves the run's event
    /// order untouched.
    void sample_memory();

    /// Toggles the handler profiler (cost::Profiler, the metrics
    /// "profile" section; on by default). Exists for bench_obs_overhead,
    /// which prices the profiler by measuring the *same* cluster in both
    /// states.
    void set_profile(bool on);

    // ---- merged results ----------------------------------------------
    /// Per-shard ledgers folded into one (cost::Metrics::merge_from) —
    /// exact, order-independent arithmetic. Includes the memory ledger
    /// when sample_memory() ran.
    cost::Metrics merged_metrics() const;
    /// Per-shard trace snapshots merged by (at, node) — each (at, node)
    /// pair belongs to exactly one shard, so the stable sort yields one
    /// well-defined interleaving. Control records (kPhase) live in shard
    /// 0's trace only.
    std::vector<sim::TraceRecord> merged_trace() const;
    std::uint64_t trace_total_recorded() const;
    std::uint64_t trace_dropped() const;
    std::uint64_t trace_detail_dropped() const;
    /// Records drained to spill files so far, summed over shards.
    std::uint64_t trace_spilled_records() const;
    /// Largest per-shard resident trace footprint (ring + detail arena
    /// capacity) — the quantity trace_budget_bytes bounds.
    std::size_t trace_resident_bytes_peak() const;
    /// The per-shard spill files (empty without trace_spill_dir), in
    /// shard order. Finalized (trailer written) once run() returns.
    std::vector<std::string> spill_paths() const;

    /// Each monitor's first MonitorHub::kMaxStoredPerMonitor violations
    /// across all shards, in merge order (MonitorHub::fold).
    std::vector<obs::Violation> merged_violations() const;
    std::uint64_t violation_count() const;
    /// Monitors per hub (what a single-hub run would report); 0 without
    /// monitor_setup.
    std::size_t monitor_count() const;
    bool monitors_ok() const { return violation_count() == 0; }

    // ---- per-shard / oracle surface ----------------------------------
    /// Shard s's network. Every shard reads the same fabric, so link and
    /// node state read through any shard cover the whole graph.
    hw::Network& mirror(unsigned s) { return *shards_[s]->net; }
    const hw::Network& mirror(unsigned s) const { return *shards_[s]->net; }
    /// Live packet cursors across all shards (0 at quiescence).
    std::size_t packets_in_flight() const;

    /// The owning shard's protocol instance for node u.
    Protocol& protocol(NodeId u);
    const Protocol& protocol(NodeId u) const;

    template <typename T>
    T& protocol_as(NodeId u) {
        auto* p = dynamic_cast<T*>(&protocol(u));
        FASTNET_EXPECTS_MSG(p != nullptr, "protocol type mismatch");
        return *p;
    }

    bool crashed(NodeId u) const;

private:
    struct Shard {
        sim::Simulator sim;
        std::unique_ptr<cost::Metrics> metrics;
        std::shared_ptr<sim::Trace> trace;
        std::shared_ptr<obs::MonitorHub> monitors;
        std::unique_ptr<hw::Network> net;
        /// Holds the shard's runtimes, each followed by its link table:
        /// no heap object per node. Chunks stay below malloc's initial
        /// mmap threshold (128 KiB); freeing a larger one raises that
        /// threshold and moves later large buffers onto the heap, which
        /// raised peak RSS across repeated clusters.
        util::Arena arena{std::size_t{96} << 10};
    };
    /// Destroys an arena-resident runtime in place; the arena owns the
    /// bytes.
    struct DestroyInPlace {
        void operator()(NodeRuntime* rt) const { rt->~NodeRuntime(); }
    };

    NodeRuntime& runtime(NodeId u);
    const NodeRuntime& runtime(NodeId u) const;
    void push_action(ScenarioAction a);
    void sort_actions();
    /// Advances every shard's clock to the barrier time `t`.
    void advance_all_to(Tick t);
    /// Executes every pending control action scheduled at exactly `t`.
    void apply_control_at(Tick t);
    void apply_action(const ScenarioAction& a);
    /// Runs every shard until `until` (inclusive), inline with one
    /// thread, on the pool otherwise; then drains the networks' outboxes
    /// into the target shards.
    void run_window(Tick until);
    /// The window loop; `limit` == kNever runs to quiescence.
    void window_loop(Tick limit);

    graph::Graph graph_;
    ProtocolFactory factory_;
    ParallelClusterConfig config_;
    Tick lookahead_ = kNever;
    unsigned threads_ = 1;

    /// The network's state, shared by every shard; declared before
    /// shards_ so it outlives their networks.
    std::unique_ptr<hw::Fabric> fabric_;

    std::vector<std::unique_ptr<Shard>> shards_;
    /// Node u's runtime, in its shard's arena. Declared after shards_ so
    /// the runtimes are destroyed before their arenas.
    std::vector<std::unique_ptr<NodeRuntime, DestroyInPlace>> runtimes_;
    std::unique_ptr<exec::ThreadPool> pool_;

    std::vector<ScenarioAction> actions_;
    std::size_t next_action_ = 0;
    bool actions_dirty_ = false;
    /// Earliest time a new control action may target: the exclusive end
    /// of the last event window (events before it have already run).
    Tick control_floor_ = 0;
};

}  // namespace fastnet::node
