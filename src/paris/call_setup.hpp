// PARIS-style call setup and take-down — the application Section 2
// points at when it introduces selective copy ("An example how the copy
// function is used for setup and take-down of calls appears in [CG88]").
//
// A call is a bandwidth reservation along a source-routed path. The
// source computes the route from its (converged) topology knowledge and
// launches ONE setup packet whose intermediate hops use copy ids: every
// NCU on the path receives the packet in parallel and reserves capacity
// on its outgoing link — call establishment in one time unit and one
// system call per on-path node, which is the whole point of the model.
//
//   * If every hop reserves, the destination's ACCEPT (one direct
//     message over the accumulated reverse route) activates the call.
//   * A node without spare capacity sends REJECT to the source, which
//     releases the partial reservation with a TAKEDOWN copy packet.
//   * Take-down of an active call is the same single copy packet.
//   * A link failure under a call makes the adjacent on-path NCUs
//     (notified by the data-link layer) send DISCONNECT toward the
//     endpoint they can still reach; every node on the way releases.
//
// Capacity bookkeeping is distributed and conservative: the *upstream*
// node of each directed hop owns the reservation for that hop.
//
// Sustained-load hardening (ROADMAP item 3, docs/ROBUSTNESS.md "Calls
// under fire"): the fair-weather machine above silently leaks capacity
// the moment a control message is *silently* dropped — a lost ACCEPT
// leaves the source in kSettingUp and every upstream hop reserved
// forever; a lost TAKEDOWN strands the downstream half of an active
// call. CallAgentOptions therefore adds, all default-off:
//
//   * a source-side setup timer whose expiry is REJECT-equivalent,
//   * bounded retries with exponential backoff + seeded jitter,
//   * admission control (max in-flight setups, token-bucket arrival
//     shedding, live-record ceiling, obs::PressureBoard hook),
//   * a reservation lease at every non-source hop: the source refreshes
//     active calls with a periodic copy packet; a hop whose lease
//     lapses reaps the orphaned reservation locally,
//   * an open-loop workload generator (paris/workload.hpp) replacing
//     scripted one-shots for offered loads beyond capacity.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/graph.hpp"
#include "hw/anr.hpp"
#include "node/parallel_cluster.hpp"
#include "obs/monitor.hpp"
#include "paris/workload.hpp"
#include "util/flat_map.hpp"

namespace fastnet::paris {

/// Globally unique call identifier (source node + its local sequence).
/// The sequence embeds the source's incarnation in its high bits, so a
/// restarted source never reuses a pre-crash id that on-path nodes may
/// still hold records for.
struct CallId {
    NodeId source = kNoNode;
    std::uint64_t seq = 0;
    friend auto operator<=>(const CallId&, const CallId&) = default;
};

enum class CallState {
    kIdle,
    kSettingUp,   ///< Source: setup sent, waiting for ACCEPT/REJECT.
    kReserved,    ///< On-path node: bandwidth held, call not yet confirmed down.
    kActive,      ///< Source/destination: accepted.
    kBackoff,     ///< Source: setup failed, retry timer pending (nothing held).
    kRejected,    ///< Source: a hop lacked capacity (or the retry budget ran out).
    kReleased,    ///< Torn down normally.
    kFailed,      ///< Lost to a link failure or an expired lease.
};

const char* call_state_name(CallState s);

/// True for states that hold no resources and expect no further events.
inline bool call_state_terminal(CallState s) {
    return s == CallState::kRejected || s == CallState::kReleased ||
           s == CallState::kFailed;
}

/// kCallEvent trace codes (TraceRecord::b; a = packed call id,
/// flag = attempt number).
enum class CallEvent : std::uint8_t {
    kOffered = 1,  ///< Arrival at the source (scripted or generated).
    kShed,         ///< Refused by admission control.
    kPlaced,       ///< Setup attempt injected.
    kReserved,     ///< On-path node reserved capacity.
    kRejected,     ///< Capacity reject (at the bottleneck or final at source).
    kAccepted,     ///< Destination accepted.
    kActive,       ///< Source activated.
    kTimeout,      ///< Source setup timer expired.
    kRetry,        ///< Backoff scheduled; a later kPlaced is the re-attempt.
    kReleased,     ///< Normal release (teardown processed).
    kDisconnect,   ///< Released due to a link failure.
    kExpired,      ///< Orphaned reservation reaped by lease expiry.
    kBlocked,      ///< Final failure at the source (retry budget exhausted).
    kRefresh,      ///< Lease refresh processed.
};

const char* call_event_name(CallEvent e);

/// A scripted call request (issued by the source's protocol at `at`).
struct CallRequest {
    Tick at = 0;
    NodeId destination = kNoNode;
    std::uint32_t demand = 1;
    /// If >= 0, tear the call down this long after it becomes active.
    Tick hold_time = -1;
};

/// One node's record of a call it participates in.
struct CallRecord {
    CallId id;
    NodeId source = kNoNode;
    NodeId destination = kNoNode;
    std::uint32_t demand = 0;
    CallState state = CallState::kIdle;
    /// Outgoing edge this node reserved for the call (kNoEdge at the
    /// destination).
    EdgeId reserved_edge = kNoEdge;
    hw::AnrHeader to_source;       ///< Route back to the source.
    hw::AnrHeader to_destination;  ///< Route onward to the destination.
    // ---- robustness state (see the header comment) -------------------
    Tick requested_at = 0;    ///< Source: arrival time (latency base).
    Tick hold_time = -1;      ///< Source: teardown delay once active.
    Tick lease_deadline = 0;  ///< Non-source: reap after this tick (0 = no lease).
    std::uint8_t attempts = 0;  ///< Source: setup attempts so far.
};

struct CallAgentOptions {
    /// Capacity units per (node, outgoing link).
    std::uint32_t link_capacity = 4;
    /// Scripted requests for this node.
    std::vector<CallRequest> requests;
    /// Ablation A5: when false, setup and teardown travel hop by hop —
    /// each on-path NCU receives, reserves and *re-sends* (the pre-PARIS
    /// software path). Establishment then costs O(path) time units
    /// instead of one, with the same number of system calls.
    bool selective_copy = true;

    // ---- robustness knobs (all default off = legacy behaviour) -------
    /// Source: a setup unresolved after this many ticks is treated
    /// exactly like a REJECT (partials torn down, retry or block).
    Tick setup_timeout = 0;
    /// Source: re-placements allowed after a timeout/reject before the
    /// call is finally blocked.
    unsigned max_retries = 0;
    /// Attempt k (1-based) backs off retry_backoff << (k-1) ticks ...
    Tick retry_backoff = 2;
    /// ... plus a uniform draw from [0, retry_jitter] on the node's Rng.
    Tick retry_jitter = 0;
    /// Non-source hops: every record carries a lease this long; a lapsed
    /// lease reaps the reservation locally (the orphan reaper). Must
    /// comfortably exceed the setup round-trip and refresh_interval.
    Tick reservation_ttl = 0;
    /// Source: while a call is active, re-arm downstream leases with a
    /// REFRESH copy packet at this cadence (recommended: ttl / 3).
    Tick refresh_interval = 0;
    /// Admission: concurrent unresolved setups per source (0 = off).
    unsigned max_inflight = 0;
    /// Admission token bucket: bucket_rate_num tokens per
    /// bucket_rate_den ticks, capped at bucket_burst (num 0 = off).
    std::uint32_t bucket_rate_num = 0;
    Tick bucket_rate_den = 1;
    std::uint32_t bucket_burst = 1;
    /// Admission: shed arrivals while this node holds this many live
    /// call records (0 = off).
    std::size_t shed_above_records = 0;
    /// Admission: shed arrivals while the MemoryBudgetMonitor reports
    /// this node over budget (see obs::PressureBoard).
    std::shared_ptr<const obs::PressureBoard> pressure;
    /// Keep terminal records queryable via state_of (tests want this).
    /// Sustained workloads set false: resolved slots are recycled and
    /// memory stays proportional to concurrent calls.
    bool retain_terminal = true;
    /// Open-loop generated arrivals (paris/workload.hpp).
    WorkloadSpec workload;
};

class CallAgentProtocol final : public node::Protocol {
public:
    const char* name() const override { return "call_agent"; }
    /// `g` must outlive the protocol (route computation source — stands
    /// in for the node's converged topology database).
    CallAgentProtocol(const graph::Graph& g, CallAgentOptions options);
    /// Owning variant for factories whose graph would otherwise dangle
    /// (chaos cases move their Graph into the ClusterCase).
    CallAgentProtocol(std::shared_ptr<const graph::Graph> g, CallAgentOptions options);

    void on_start(node::Context& ctx) override;
    void on_restart(node::Context& ctx) override;
    void on_timer(node::Context& ctx, std::uint64_t cookie) override;
    void on_message(node::Context& ctx, const hw::Delivery& d) override;
    void on_link_state(node::Context& ctx, const node::LocalLink& link, bool up) override;
    std::size_t memory_bytes() const override;

    // ---- observation -------------------------------------------------
    /// State of a call at this node (kIdle if unknown here — including
    /// resolved calls when retain_terminal is off).
    CallState state_of(CallId id) const;
    /// Snapshot of every record held at this node, sorted by id.
    /// Observation only (materializes from the flat index).
    std::vector<CallRecord> call_records() const;
    /// Remaining capacity on the outgoing side of `edge`.
    std::uint32_t free_capacity(EdgeId edge) const;
    /// Held units per edge, sorted by edge; zero-unit entries omitted.
    std::vector<std::pair<EdgeId, std::uint32_t>> reserved_entries() const;
    /// Count of non-terminal records at this node.
    std::size_t live_records() const { return live_records_; }
    /// Source-side tallies (legacy counters; calls() has the full ledger).
    unsigned calls_active() const { return calls_active_; }
    unsigned calls_rejected() const { return calls_rejected_; }
    unsigned calls_failed() const { return calls_failed_; }
    unsigned calls_released() const { return calls_released_; }
    /// This node's call ledger (source-side outcomes + the local reap
    /// count). Fold over nodes with fold_call_stats for the run total.
    const cost::CallStats& stats() const { return stats_; }

    const CallAgentOptions& options() const { return options_; }

private:
    // Timer cookies: kind in the low 4 bits; slot and generation above.
    enum CookieKind : std::uint64_t {
        kCookieRequest = 1,  ///< payload = scripted request index.
        kCookieArrival = 2,  ///< workload generator tick (no payload).
        kCookieHold = 3,     ///< payload = slot/gen.
        kCookieSetup = 4,    ///< payload = slot/gen.
        kCookieRetry = 5,    ///< payload = slot/gen.
        kCookieLease = 6,    ///< payload = slot/gen.
        kCookieRefresh = 7,  ///< payload = slot/gen.
    };

    struct Route {
        std::vector<NodeId> path;
        std::vector<hw::PortId> fwd_ports;
        std::vector<hw::PortId> rev_ports;
    };

    void arrival(node::Context& ctx, const CallRequest& req);
    bool admit(node::Context& ctx);
    void attempt_setup(node::Context& ctx, std::uint32_t slot);
    void retry_or_block(node::Context& ctx, std::uint32_t slot, bool capacity_reject);
    void activate_source(node::Context& ctx, std::uint32_t slot);
    void send_teardown(node::Context& ctx, const CallRecord& rec, bool due_to_reject);
    void teardown(node::Context& ctx, std::uint32_t slot);
    void release_local(CallRecord& rec, CallState final_state);
    /// Terminal transition bookkeeping: live-record count, slot
    /// recycling when retain_terminal is off. `rec` must be terminal.
    void finish_record(std::uint32_t slot);
    bool reserve(EdgeId edge, std::uint32_t demand);
    const Route* route_to(NodeId self, NodeId destination);

    std::uint32_t alloc_slot();
    CallRecord* find_record(CallId id, std::uint32_t* slot_out = nullptr);
    std::uint64_t slot_cookie(CookieKind kind, std::uint32_t slot) const;
    /// Resolves a slot/gen cookie; nullptr when the slot was recycled.
    CallRecord* cookie_record(std::uint64_t cookie, std::uint32_t* slot_out);
    CallId fresh_id(node::Context& ctx);
    void note(node::Context& ctx, const CallRecord& rec, CallEvent e);

    std::shared_ptr<const graph::Graph> graph_owner_;  ///< May be empty.
    const graph::Graph& graph_;
    CallAgentOptions options_;

    util::FlatMap64<std::uint32_t> reserved_;  ///< EdgeId -> units held.
    std::vector<CallRecord> slab_;             ///< Records, slot-addressed.
    std::vector<std::uint32_t> slot_gen_;      ///< Bumped when a slot is freed.
    std::vector<std::uint32_t> free_slots_;
    util::FlatMap64<std::uint32_t> index_;     ///< call key -> slot + 1.

    // Route cache (static topology; rebuilt lazily per incarnation).
    std::unique_ptr<graph::BfsResult> bfs_;
    hw::PortMap ports_;
    util::FlatMap64<std::uint32_t> route_index_;  ///< destination -> route slot + 1.
    std::vector<Route> routes_;

    // Admission state.
    unsigned inflight_setups_ = 0;
    std::size_t live_records_ = 0;
    std::uint64_t bucket_tokens_ = 0;
    std::uint64_t bucket_carry_ = 0;
    Tick bucket_refilled_at_ = 0;
    bool bucket_primed_ = false;

    std::uint64_t next_seq_ = 1;
    unsigned calls_active_ = 0;
    unsigned calls_rejected_ = 0;
    unsigned calls_failed_ = 0;
    unsigned calls_released_ = 0;
    cost::CallStats stats_;
};

/// Factory over a shared graph + per-node request scripts.
node::ProtocolFactory make_call_agents(const graph::Graph& g, std::uint32_t link_capacity,
                                       std::map<NodeId, std::vector<CallRequest>> scripts,
                                       bool selective_copy = true);

/// Factory for sustained workloads: every node runs `base` (typically
/// with base.workload enabled). The graph is held by shared_ptr so the
/// factory survives the caller's scope (exec::ClusterCase moves graphs).
node::ProtocolFactory make_call_workload(std::shared_ptr<const graph::Graph> g,
                                         CallAgentOptions base);

/// Sums every agent's ledger in node order — deterministic regardless of
/// thread/shard counts. Non-CallAgentProtocol nodes contribute nothing.
cost::CallStats fold_call_stats(const node::ParallelCluster& cluster);

/// 64-bit trace key of a call id (TraceRecord::a of kCallEvent).
inline std::uint64_t call_key(CallId id) {
    return (static_cast<std::uint64_t>(id.source) << 32) | (id.seq & 0xffffffffULL);
}

}  // namespace fastnet::paris
