// Live invariant monitors: event-time checks riding the simulation.
//
// A MonitorHub is a small registry the fabric (hw::Network), the NCU
// runtimes (node::NodeRuntime) and the cluster feed with typed events as
// the simulation executes. Registered monitors check invariants *at the
// violating event* — lineage conservation, queue-depth ceilings,
// busy-window monotonicity, link FIFO order, serialized sends — so a
// broken run points at a packet and a tick instead of a diff at the end.
//
// Cost contract (guarded by bench/bench_obs_overhead.cpp alongside the
// disabled trace): an attached hub with no monitors costs one pointer
// test plus one empty() load per hook and performs no allocation on the
// steady-state hop path. Hooks are only compiled against `dispatch`,
// never against individual monitors, so the fabric stays ignorant of
// what is being checked.
//
// Every violation is recorded into the attached sim::Trace as a
// TraceKind::kViolation record carrying the offending event's time, node
// and lineage plus a human-readable detail — chaos exports then carry
// the verdict (see docs/OBSERVABILITY.md). The hub keeps each monitor's
// first violations in merge order, bounded.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "sim/trace.hpp"
#include "util/flat_map.hpp"

namespace fastnet::obs {

/// One typed observation delivered to the monitors. `a`/`b` are
/// kind-specific, mirroring the trace-record convention:
///
/// | kind      | node       | lineage | a                  | b              |
/// |-----------|------------|---------|--------------------|----------------|
/// | kSend     | sender     | yes     | header length      | —              |
/// | kHop      | arrival    | yes     | edge               | hops so far    |
/// | kDup      | sender side| yes     | edge               | new packet id  |
/// | kRetire   | —          | yes     | —                  | —              |
/// | kHandoff  | target     | yes     | edge               | —              |
/// | kEnqueue  | NCU        | —       | queue depth        | —              |
/// | kInvoke   | NCU        | maybe   | InvokeKind         | busy ticks     |
/// | kMemory   | node       | —       | bytes at this node | —              |
/// | kTraceDrop| kNoNode    | —       | records dropped    | details dropped|
struct MonitorEvent {
    enum class Kind : std::uint8_t {
        kSend,     ///< Packet injected into the fabric.
        kHop,      ///< Packet traversed a link.
        kDup,      ///< Link-layer duplicate minted (a new live copy).
        kRetire,   ///< Packet cursor released (delivered, dropped or done).
        kHandoff,  ///< Parallel kernel: packet entered this shard from
                   ///< another shard (a new live copy *here*; the
                   ///< sender's shard retired its cursor at the boundary).
        kEnqueue,  ///< Work item queued at an NCU.
        kInvoke,   ///< NCU handler completed.
        kMemory,   ///< Per-node footprint sample
                   ///< (ParallelCluster::sample_memory).
        kTraceDrop,  ///< Trace ring overflowed. Dispatched by the cluster
                     ///< before the end-of-run sweep so truncation is
                     ///< loud, never silent.
    };
    /// Work-item discriminator of a kInvoke event (`a`).
    enum class InvokeKind : std::uint8_t {
        kStart = 0, kRestart, kDelivery, kLink, kTimer,
    };

    Kind kind = Kind::kSend;
    Tick at = 0;
    NodeId node = kNoNode;
    std::uint64_t lineage = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
};

/// One invariant breach, anchored at the event that broke it.
struct Violation {
    std::string monitor;
    std::string message;
    Tick at = 0;
    NodeId node = kNoNode;
    std::uint64_t lineage = 0;
};

class MonitorHub;

/// Base class of one live invariant check. Monitors keep per-node state
/// across events (see MonitorHub) and call MonitorHub::report when an
/// event (or the end-of-run sweep) breaks the invariant.
class Monitor {
public:
    virtual ~Monitor() = default;
    virtual const char* name() const = 0;
    virtual void on_event(MonitorHub& hub, const MonitorEvent& ev) = 0;
    /// End-of-run check, invoked by ParallelCluster::run once the shard is
    /// quiescent (conservation-style invariants close their books here).
    virtual void on_finish(MonitorHub& hub, Tick now);
};

/// The registry. One per shard of a simulation, shared by that shard's
/// network and runtimes and filled by
/// node::ParallelClusterConfig::monitor_setup; never shared across
/// concurrently running shards or clusters. A monitor's state is per
/// node, or per shard by nature (a shard's clock, its trace ring, the
/// packets that enter and leave it). A node's events all reach its
/// shard's hub, so a per-node check reaches the same verdict at any
/// partition, and so do the trace records and the kept violations.
///
/// Violations are kept in merge order: (at, node — kNoNode last —,
/// lineage), and on ties the order in which they were reported, which
/// for one node is that node's own order.
class MonitorHub {
public:
    /// Caps the violations kept per monitor: the first ones in merge
    /// order. Later ones only count.
    static constexpr std::size_t kMaxStoredPerMonitor = 16;

    void add(std::unique_ptr<Monitor> m);

    /// True when at least one monitor is registered — the hot paths test
    /// this before building an event.
    bool active() const { return !monitors_.empty(); }
    std::size_t monitor_count() const { return monitors_.size(); }

    /// Every violation lands in the attached trace too; see report. May
    /// be null.
    void attach_trace(sim::Trace* trace) { trace_ = trace; }

    /// Fans one event out to every registered monitor.
    void dispatch(const MonitorEvent& ev);

    /// Runs every monitor's end-of-run check.
    void finish(Tick now);

    /// Called by a registered monitor: files a violation of `monitor`
    /// anchored at (at, node, lineage) and records it into the attached
    /// trace (kind kViolation, a = the monitor's registration index,
    /// detail = "name: message").
    void report(const Monitor& monitor, Tick at, NodeId node, std::uint64_t lineage,
                std::string message);

    /// The kept violations of every monitor, in merge order.
    std::vector<Violation> violations() const;
    /// Total breaches including those beyond the storage cap.
    std::uint64_t violation_count() const { return violation_count_; }
    bool ok() const { return violation_count_ == 0; }

    /// One verdict from per-shard hubs that registered the same monitors
    /// in the same order: each monitor's first kMaxStoredPerMonitor
    /// violations across all of them, in merge order. Pass the hubs in
    /// shard order.
    static std::vector<Violation> fold(std::span<const MonitorHub* const> hubs);

private:
    struct Entry {
        std::unique_ptr<Monitor> monitor;
        std::vector<Violation> kept;  ///< Sorted in merge order.
    };
    std::vector<Entry> monitors_;
    std::uint64_t violation_count_ = 0;
    sim::Trace* trace_ = nullptr;
};

// ---- built-in monitors ---------------------------------------------------

/// Lineage conservation: every live packet copy (send or duplicate) must
/// eventually retire — delivered-and-done, dropped, or lost to a link
/// epoch. A retire without a matching copy fires immediately; copies
/// still outstanding at quiescence fire in on_finish, naming the lowest
/// unbalanced lineage first.
class LineageConservationMonitor final : public Monitor {
public:
    const char* name() const override { return "lineage_conservation"; }
    void on_event(MonitorHub& hub, const MonitorEvent& ev) override;
    void on_finish(MonitorHub& hub, Tick now) override;

private:
    /// lineage -> live copies. Open-addressed (O(1) per event instead of
    /// a red-black walk); on_finish sorts the survivors so end-of-run
    /// reporting stays deterministic (lowest lineage first).
    util::FlatMap64<std::int64_t> live_;
    Tick last_at_ = 0;
};

/// NCU queue depth must stay at or below a ceiling (an NCU falling this
/// far behind means the software side lost the paper's P-bounded pace).
class QueueDepthMonitor final : public Monitor {
public:
    explicit QueueDepthMonitor(std::uint64_t ceiling) : ceiling_(ceiling) {}
    const char* name() const override { return "queue_depth"; }
    void on_event(MonitorHub& hub, const MonitorEvent& ev) override;

private:
    std::uint64_t ceiling_;
};

/// Busy-window monotonicity: per NCU, handler busy windows are serial —
/// each invocation's window [at - busy, at] must start at or after the
/// previous invocation's completion, and completions never go backwards
/// in simulated time.
class BusyWindowMonitor final : public Monitor {
public:
    const char* name() const override { return "busy_window"; }
    void on_event(MonitorHub& hub, const MonitorEvent& ev) override;

private:
    std::vector<Tick> last_end_;  ///< Per node, lazily sized; kNever = none.
    Tick last_global_ = 0;
};

/// Per-direction link FIFO: packet arrivals on one link direction (the
/// pair (edge, arriving node) identifies a direction) must come in
/// non-decreasing time order — the fabric's FIFO promise, checked at the
/// kHop events it actually delivered. With `link_spacing > 0`, two
/// consecutive arrivals on the same direction must additionally be at
/// least that far apart (the finite-capacity discipline of
/// hw::NetworkConfig::link_spacing).
class LinkFifoMonitor final : public Monitor {
public:
    explicit LinkFifoMonitor(Tick link_spacing = 0) : spacing_(link_spacing) {}
    const char* name() const override { return "link_fifo"; }
    void on_event(MonitorHub& hub, const MonitorEvent& ev) override;

private:
    Tick spacing_;
    /// (edge << 32 | arriving node) -> last arrival tick. Open-addressed;
    /// never iterated, so probe order cannot leak into any report.
    util::FlatMap64<Tick> last_arrival_;
};

/// Shared memory-pressure signal. The MemoryBudgetMonitor raises a
/// node's flag while its sampled footprint exceeds the budget and clears
/// it once the node drops back under; consumers (the call agents'
/// admission control) poll their own node's flag. One byte per node, no
/// callback coupling — and deterministic, because producer and consumer
/// live inside the same simulation. Wire one board per case/cluster;
/// sharing a board across concurrently-running cases or shards would
/// break replay determinism.
class PressureBoard {
public:
    bool over(NodeId u) const { return u < over_.size() && over_[u] != 0; }
    void set(NodeId u, bool over) {
        if (u >= over_.size()) over_.resize(u + 1, 0);
        over_[u] = over ? 1 : 0;
    }

private:
    std::vector<std::uint8_t> over_;
};

/// Per-node memory ceiling: fires when a node's sampled footprint
/// (runtime + protocol bytes, the `a` of a kMemory event) first crosses
/// `ceiling_bytes`, and re-arms once the node drops back under — so a
/// leak that grows across crash/restart epochs reports each excursion,
/// not every sample. Sees events only when the cluster samples memory
/// (ParallelCluster::sample_memory).
class MemoryBudgetMonitor final : public Monitor {
public:
    explicit MemoryBudgetMonitor(std::uint64_t ceiling_bytes) : ceiling_(ceiling_bytes) {}
    const char* name() const override { return "memory_budget"; }
    void on_event(MonitorHub& hub, const MonitorEvent& ev) override;

    /// Mirrors each node's over/under state onto `board` (see
    /// PressureBoard) so protocols can shed load under memory pressure.
    void share_pressure(std::shared_ptr<PressureBoard> board) { board_ = std::move(board); }

private:
    std::uint64_t ceiling_;
    std::vector<std::uint8_t> over_;  ///< Per node, lazily sized.
    std::shared_ptr<PressureBoard> board_;
};

/// A1 serialized send: one NCU injects at most one packet per `min_gap`
/// ticks — the paper's assumption that the software side emits messages
/// serially at pace P. Pass the cluster's P when free_multisend is off;
/// 0 (e.g. under free multisend, ablation A1 relaxed) makes the check
/// vacuous but keeps the monitor accounting uniform. A node restart
/// resets its gap state — the NCU hardware was power-cycled.
class SerializedSendMonitor final : public Monitor {
public:
    explicit SerializedSendMonitor(Tick min_gap) : min_gap_(min_gap) {}
    const char* name() const override { return "serialized_send"; }
    void on_event(MonitorHub& hub, const MonitorEvent& ev) override;

private:
    Tick min_gap_;
    std::vector<Tick> last_send_;  ///< Per node, lazily sized; kNever = none.
};

/// Trace-ring overflow: fires when the cluster reports records lost to
/// ring overwrite (kTraceDrop) — the explicit alternative to silently
/// truncated traces. Runs with spill disabled rings; a spill-enabled
/// trace never drops records (sim/trace_spill.hpp), so this stays quiet
/// there. Fires once per run per counter kind.
class TraceOverflowMonitor final : public Monitor {
public:
    const char* name() const override { return "trace_overflow"; }
    void on_event(MonitorHub& hub, const MonitorEvent& ev) override;

private:
    bool reported_records_ = false;
    bool reported_details_ = false;
};

/// Registers the always-applicable invariants: lineage conservation,
/// busy-window monotonicity and a queue-depth ceiling (default generous
/// enough for every workload in this repo; pass a tighter one to probe).
void add_standard_monitors(MonitorHub& hub, std::uint64_t queue_ceiling = 4096);

/// Tunables for the full standard-monitor set (the chaos harness wires
/// these from the cluster config so the hardware-discipline checks are
/// exact, not guessed).
struct StandardMonitorOptions {
    std::uint64_t queue_ceiling = 4096;
    Tick link_spacing = 0;  ///< hw::NetworkConfig::link_spacing (0 = FIFO only).
    Tick min_send_gap = 0;  ///< P when sends are serialized; 0 = vacuous.
};

/// Full set: the three always-applicable invariants plus the per-edge
/// FIFO and A1 serialized-send hardware-discipline checks.
void add_standard_monitors(MonitorHub& hub, const StandardMonitorOptions& options);

/// Deterministic JSON serialization of a hub's verdict (violation list +
/// totals), embeddable next to metrics_json exports.
std::string violations_json(const MonitorHub& hub, const std::string& name);

/// Same serialization over already-merged pieces — the parallel kernel
/// folds its per-shard hubs (MonitorHub::fold) and serializes them with
/// this overload. `monitor_count` is the count per hub, matching what a
/// single-shard run would report.
std::string violations_json(std::size_t monitor_count, std::uint64_t violation_count,
                            const std::vector<Violation>& violations,
                            const std::string& name);

}  // namespace fastnet::obs
