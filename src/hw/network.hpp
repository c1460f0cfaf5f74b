// The simulated network fabric: switches, links and packet transport.
//
// Fabric is the network itself, built once per simulation from a
// graph::Graph: port geometry, one LinkState per edge, node-down state,
// the per-node streams and the shard map. Network moves packets through
// it on one event queue, for the nodes of one shard. Hardware hops cost
// `hop_delay` (C) each; NCU processing cost is the node runtime's concern
// (node/runtime.hpp). Port assignment is deterministic: node u's port p
// (p >= 1) is its (p-1)-th incident edge in graph insertion order; port 0
// is the NCU.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "cost/metrics.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "hw/anr.hpp"
#include "hw/link.hpp"
#include "hw/packet.hpp"
#include "obs/monitor.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace fastnet::hw {

/// Tunables beyond the analytic model parameters.
struct NetworkConfig {
    /// If >= 0, hop delays are drawn uniformly from
    /// [hop_delay_min, params.hop_delay]; otherwise fixed at C.
    /// FIFO per link direction is preserved regardless.
    Tick hop_delay_min = -1;
    /// Delay until an endpoint NCU learns a link state change (the
    /// data-link protocol of Section 2, "Changing topology").
    Tick detection_delay = 0;
    /// Minimum spacing between consecutive packet *arrivals* on one link
    /// direction (a finite-capacity link can deliver only one distinct
    /// packet per spacing interval). 0 = infinite capacity. Theorem 3's
    /// lower bound implicitly assumes ~one message per link per time
    /// unit; setting this to P makes that constraint physical
    /// (ablation A6).
    Tick link_spacing = 0;
    /// Fault injection: per-transmission loss probability in parts per
    /// million (the data-link CRC rejects the frame and no retransmit
    /// succeeds). Drawn from a stream independent of the delay jitter, so
    /// enabling loss never perturbs delay schedules.
    std::uint32_t loss_ppm = 0;
    /// Fault injection: per-transmission duplication probability in ppm
    /// (a spurious link-layer retransmit although the original survived).
    /// The copy follows the same route, arrives after the original under
    /// the same FIFO + epoch discipline, and is observationally a second
    /// identical delivery — exactly the duplicate Section 2's
    /// sequence-numbered protocols must tolerate.
    std::uint32_t dup_ppm = 0;
};

/// One packet crossing a shard boundary: the cursor's state plus the
/// arrival it was already scheduled for. The sender's network appends
/// these to its outbox during a window; the coordinator injects them into
/// the target shard's network at the next window barrier
/// (node/parallel_cluster.hpp). The payload and a route send's forward
/// labels are immutable and shared, read-only on both shard threads;
/// only the cursor's track is copied (the reverse labels, plus a header
/// send's forward labels), because each side keeps writing its own.
struct RemoteArrival {
    Tick at = 0;               ///< Arrival time (>= the next window's start).
    std::uint64_t pri = 0;     ///< Keyed tie-break drawn at the sender.
    NodeId to = kNoNode;
    EdgeId edge = kNoEdge;
    std::uint64_t epoch = 0;   ///< Link epoch stamped at transmit.
    Packet packet;             ///< A copy of the sender's cursor.
};

/// The per-node state that makes the event order a pure function of the
/// simulated network, never of shard or thread count:
///
///  * every scheduled event carries a keyed priority drawn from a
///    per-node counter of its *scheduling context* (the node whose
///    handler or transmit ran) — a node's own execution order is
///    shard-invariant, so the priorities are too;
///  * packet ids come from a per-origin counter ((origin+1)<<32 | seq)
///    and delay/loss/dup draws from per-node RNG streams
///    (Rng::stream(seed, 2u) and (seed, 2u + 1)), for the same reason.
///
/// The fabric holds the one instance every shard uses; entry u is only
/// ever touched by u's owning shard mid-window (or by the coordinator at
/// a barrier), so sharing is race-free.
class NodeStreams {
public:
    /// The RNG arrays are sized only when they are drawn from: delay
    /// streams when hop jitter is configured, fault streams when loss or
    /// duplication is. `seed` keys every stream.
    NodeStreams(NodeId node_count, const ModelParams& params, const NetworkConfig& config,
                std::uint64_t seed);

    /// Keyed priority for an event scheduled by node `ctx`: (ctx + 1) in
    /// the high bits (0 is the control timeline), ctx's counter below,
    /// within the event queue's 40-bit budget.
    std::uint64_t draw(NodeId ctx) {
        std::uint64_t& c = pri_[ctx];
        FASTNET_EXPECTS_MSG(c < (1ULL << counter_bits_), "per-node priority counter exhausted");
        return ((static_cast<std::uint64_t>(ctx) + 1) << counter_bits_) | c++;
    }
    /// Next control-timeline priority (context 0): one per link
    /// notification, drawn by the coordinator whichever shard the
    /// notified node lands on.
    std::uint64_t draw_control() {
        FASTNET_EXPECTS_MSG(control_ < (1ULL << counter_bits_),
                            "control priority counter exhausted");
        return control_++;
    }
    std::uint64_t next_packet_id(NodeId origin) {
        std::uint64_t& seq = send_seq_[origin];
        FASTNET_EXPECTS_MSG(seq < 0xffff'ffffULL, "per-origin packet id space exhausted");
        return ((static_cast<std::uint64_t>(origin) + 1) << 32) | ++seq;
    }
    Rng& delay_rng(NodeId u) { return delay_rng_[u]; }
    Rng& fault_rng(NodeId u) { return fault_rng_[u]; }

    /// Heap bytes of the per-node arrays — a memory-ledger input.
    std::size_t memory_bytes() const;

private:
    unsigned counter_bits_ = 0;
    std::uint64_t control_ = 0;
    std::vector<std::uint64_t> pri_;
    std::vector<std::uint64_t> send_seq_;
    std::vector<Rng> delay_rng_;
    std::vector<Rng> fault_rng_;
};

/// The network itself, once per simulation: everything that is a function
/// of the graph or changes only at a control barrier. Every shard's
/// Network reads it. A topology change runs here once: the link flips,
/// the two endpoints' control priorities are drawn, and each endpoint's
/// notification is scheduled on the endpoint's own shard.
///
/// Shards share it without locks because each field has one writer
/// between barriers:
///  * the coordinator writes `active`, `epoch` and the node-down state
///    (set_link_active, fail_node, restore_node), at barriers only;
///  * the sending endpoint's shard writes that link direction's FIFO and
///    spacing clocks;
///  * node u's shard writes u's NodeStreams entries.
/// Port geometry, label width and the shard map never change.
class Fabric {
public:
    /// (node notified, edge, new activity state)
    using LinkSink = std::function<void(NodeId, EdgeId, bool)>;

    /// Node u belongs to shard `partition.shard_of[u]`; one Network per
    /// shard attaches its event queue before the simulation runs. `seed`
    /// keys the per-node delay and fault streams (NodeStreams).
    Fabric(const graph::Graph& g, const ModelParams& params, NetworkConfig config,
           graph::Partition partition, std::uint64_t seed);

    Fabric(const Fabric&) = delete;
    Fabric& operator=(const Fabric&) = delete;

    const graph::Partition& partition() const { return partition_; }
    std::uint32_t shard_of(NodeId u) const { return partition_.shard_of[u]; }

    /// Registers the data-link notification callback (one for the whole
    /// network; it receives the node to notify).
    void set_link_sink(LinkSink sink) { link_sink_ = std::move(sink); }
    void set_link_active(EdgeId e, bool active);
    /// Fails every link incident to `u` (the paper models an inactive
    /// node as a node all of whose links are inactive). Links that were
    /// already down stay attributed to their original cause.
    void fail_node(NodeId u);
    /// Brings back exactly the links that `u`'s failure took down and
    /// that nothing else touched in between: a link that also failed
    /// independently (epoch moved on) stays down, and a link whose other
    /// endpoint is still a failed node stays down until *that* node is
    /// restored. No-op unless the node is currently failed.
    void restore_node(NodeId u);

    /// Heap bytes of the per-node and per-edge state (link states, port
    /// geometry, down records, NodeStreams, the partition) — a
    /// cost::Metrics memory-ledger input.
    std::size_t memory_bytes() const;

private:
    friend class Network;

    /// One link downed by a node failure: restore_node honours the record
    /// only if the link's epoch still matches (nothing else happened to
    /// the link since). Records live in one pooled store chained through
    /// per-node head indices (LIFO; consumers reverse to recover
    /// insertion order) instead of a vector-of-vectors — node failures
    /// are rare, but the empty per-node vectors were 24 bytes each.
    struct DownedLink {
        EdgeId edge = kNoEdge;
        std::uint64_t epoch = 0;
        std::uint32_t next = kNoDowned;
    };
    static constexpr std::uint32_t kNoDowned = 0xffffffffu;

    void downed_push(NodeId u, EdgeId e, std::uint64_t epoch);
    /// Pops u's whole chain into `out` in insertion order.
    void downed_take(NodeId u, std::vector<DownedLink>& out);

    const graph::Graph& graph_;
    ModelParams params_;
    NetworkConfig config_;
    graph::Partition partition_;
    NodeStreams streams_;
    /// Each shard's event queue, by shard index.
    std::vector<sim::Simulator*> shards_;
    LinkSink link_sink_;

    std::vector<std::uint8_t> node_down_;
    std::vector<std::uint32_t> downed_head_;   ///< Per node; kNoDowned = none.
    std::vector<DownedLink> downed_pool_;
    std::vector<std::uint32_t> downed_free_;   ///< Recycled pool slots.

    unsigned label_bits_ = 1;
    /// Per-edge {port at edge.a, port at edge.b} — O(1) reverse-label
    /// lookup in the per-hop path. The forward map (port -> edge) needs
    /// no storage at all: port p at node u is u's (p-1)-th incident edge
    /// in the graph's CSR, by the port-assignment rule above.
    std::vector<std::array<PortId, 2>> edge_ports_;
    std::vector<LinkState> links_;
};

/// One shard's packet transport over a Fabric: it runs the switches and
/// links of the shard's nodes on the shard's event queue, and keeps what
/// only that shard touches — its metrics, trace, monitor hub, packet pool
/// and outbox of boundary crossings.
class Network {
public:
    /// Delivery dispatch for every NCU: (receiving node, delivery). The
    /// delivery is handed over by move.
    using NcuDispatch = std::function<void(NodeId, Delivery&&)>;

    /// Shard `shard` of `fabric`, which must outlive it; `metrics` (which
    /// gets hardware totals only), `trace` and `monitors` (either may be
    /// null) are the shard's own. A whole simulation on one event queue
    /// is shard 0 of a one-shard fabric.
    Network(sim::Simulator& sim, Fabric& fabric, std::uint32_t shard, cost::Metrics& metrics,
            sim::Trace* trace, obs::MonitorHub* monitors);

    Network(const Network&) = delete;
    Network& operator=(const Network&) = delete;

    const graph::Graph& graph() const { return fabric_.graph_; }
    const ModelParams& params() const { return fabric_.params_; }
    sim::Simulator& simulator() { return sim_; }
    cost::Metrics& metrics() { return metrics_; }
    /// Attached monitor hub and trace, or null. The NCU runtimes feed
    /// them their events through these accessors.
    obs::MonitorHub* monitors() const { return monitors_; }
    sim::Trace* trace() const { return trace_; }

    /// Registers where NCU deliveries go. Must be set before any packet
    /// can be delivered.
    void set_ncu_dispatch(NcuDispatch dispatch);

    /// Registers the fabric's data-link notification callback.
    void set_link_sink(Fabric::LinkSink sink) { fabric_.set_link_sink(std::move(sink)); }

    /// Injects a packet from `from`'s NCU. The header's first label is
    /// matched at `from`'s own switch. Enforces dmax when configured.
    /// Returns the packet's lineage id — stamped on the packet and
    /// inherited by every copy/duplicate, so traces can causally link
    /// deliveries back to this send. `parent_lineage` is the lineage of
    /// the delivery/timer whose handler performed this send (0 for
    /// spontaneous sends); purely observational. The header's labels are
    /// copied into the packet's pooled track.
    std::uint64_t send(NodeId from, const AnrHeader& header,
                       std::shared_ptr<const Payload> payload, std::uint64_t parent_lineage = 0);
    /// The same along a prebuilt route, whose labels the packet shares.
    std::uint64_t send(NodeId from, const Route& route, std::shared_ptr<const Payload> payload,
                       std::uint64_t parent_lineage = 0);

    // ---- topology dynamics (the fabric's; see Fabric) ----------------
    void fail_link(EdgeId e) { set_link_active(e, false); }
    void restore_link(EdgeId e) { set_link_active(e, true); }
    void set_link_active(EdgeId e, bool active) { fabric_.set_link_active(e, active); }
    bool link_active(EdgeId e) const { return fabric_.links_[e].active(); }
    void fail_node(NodeId u) { fabric_.fail_node(u); }
    void restore_node(NodeId u) { fabric_.restore_node(u); }
    bool node_failed(NodeId u) const { return fabric_.node_down_[u] != 0; }

    /// Live packet cursors (allocated, not yet released). At quiescence
    /// this must be zero — the convergence oracle's guard against
    /// resurrected in-flight packets.
    std::size_t packets_in_flight() const {
        return packet_slabs_.size() * kPacketSlabSize - packet_free_.size();
    }

    // ---- port geometry (static, known to each local NCU) -------------
    /// Port at `node` for incident edge `e`; kNoPort if not incident.
    PortId port_for_edge(NodeId node, EdgeId e) const;
    /// Edge behind link port `p` at `node`.
    EdgeId edge_at_port(NodeId node, PortId p) const;
    /// Port at `node` leading to adjacent node `v`; kNoPort if not adjacent.
    PortId port_to_neighbor(NodeId node, NodeId v) const;

    /// Omniscient port map for tests/benches and for protocols whose
    /// stated knowledge covers it (Section 5's complete graph).
    PortMap omniscient_ports() const;

    /// Omniscient route builder along a node path (see route_for_path).
    AnrHeader route(std::span<const NodeId> path, CopyMode mode = CopyMode::kNone) const;

    /// Width of one ANR label in bits: enough for every port id in the
    /// network plus the copy bit — the paper's k = O(log m).
    unsigned label_bits() const { return fabric_.label_bits_; }

    // ---- scheduling façade -------------------------------------------
    // NCU runtimes schedule through these instead of simulator().at/after
    // directly: they attach the keyed priority of the scheduling context
    // `ctx` (always a node local to this network).
    sim::EventId schedule_at(NodeId ctx, Tick when, sim::InlineFn fn);
    sim::EventId schedule_after(NodeId ctx, Tick delay, sim::InlineFn fn);
    void cancel_scheduled(sim::EventId id) { sim_.cancel(id); }

    /// Arrivals bound for other shards' nodes, appended during a window;
    /// the coordinator drains it at the barrier.
    std::vector<RemoteArrival>& outbox() { return outbox_; }
    /// Coordinator-side: materializes a boundary-crossing packet on this
    /// shard and schedules its arrival. Called only at window barriers.
    void inject_remote(const RemoteArrival& r);

    /// Heap bytes this network reads: the fabric's plus its own.
    std::size_t memory_bytes() const { return fabric_.memory_bytes() + shard_bytes(); }
    /// Heap bytes of this shard's own state (packet slabs and their
    /// tracks, the free list, the outbox) — a cost::Metrics memory-ledger
    /// input beside the fabric's.
    std::size_t shard_bytes() const;

private:
    // Packet flow. Packets live in a slab pool owned by the network; the
    // hot path hands a Packet* from switch to link event to switch with
    // zero copies and zero allocations (see docs/PERF.md). Ownership
    // convention: process_at_switch/transmit/arrive consume the pointer
    // (they either pass it on or release it); deliver_to_ncu only reads.
    /// Checks and counts a send of `len` labels; the packet comes after.
    void admit(NodeId from, std::size_t len);
    /// Stamps a freshly filled cursor and hands it to `from`'s switch.
    std::uint64_t inject(NodeId from, Packet* pkt, std::shared_ptr<const Payload> payload,
                         std::uint64_t parent_lineage);
    void process_at_switch(NodeId node, Packet* pkt);
    void transmit(NodeId from, EdgeId e, Packet* pkt);
    void arrive(NodeId at, EdgeId e, std::uint64_t epoch, Packet* pkt);
    void deliver_to_ncu(NodeId node, const Packet& pkt);

    Packet* alloc_packet();
    void release_packet(Packet* pkt);
    /// Heap bytes of the pooled cursors' tracks.
    std::size_t track_bytes() const;

    bool local(NodeId u) const { return fabric_.shard_of(u) == shard_; }
    /// Schedules `pkt`'s arrival at `to` under priority `pri`: locally,
    /// or through the outbox when `to` lives on another shard. Returns
    /// true in the remote case — the caller must release its local
    /// cursor once it is done reading it.
    bool schedule_arrival(Tick arrival, std::uint64_t pri, NodeId to, EdgeId e,
                          std::uint64_t epoch, Packet* pkt) {
        if (local(to)) {
            // 32-byte capture — fits sim::InlineFn's inline storage, so
            // the steady-state hop schedules without touching the
            // allocator.
            sim_.at_keyed(arrival, pri, [this, to, e, epoch, pkt] { arrive(to, e, epoch, pkt); });
            return false;
        }
        outbox_.push_back(RemoteArrival{arrival, pri, to, e, epoch, *pkt});
        return true;
    }
    /// True when monitor events must be built (attached hub with at
    /// least one monitor registered).
    bool watched() const { return monitors_ != nullptr && monitors_->active(); }
    /// Records one packet death (trace + drop series); the caller still
    /// bumps the specific metrics counter and releases the packet.
    void note_drop(NodeId node, EdgeId e, const Packet& pkt, sim::DropReason reason);

    Fabric& fabric_;
    std::uint32_t shard_ = 0;
    sim::Simulator& sim_;
    cost::Metrics& metrics_;
    /// The shard's trace, or null — one pointer test on the hot paths.
    sim::Trace* trace_ = nullptr;
    /// The shard's monitor hub, or null. Hooks guard with
    /// `monitors_ != nullptr && monitors_->active()` before building an
    /// event, so an absent or empty hub never allocates.
    obs::MonitorHub* monitors_ = nullptr;

    NcuDispatch ncu_dispatch_;

    static constexpr std::size_t kPacketSlabSize = 64;
    std::vector<std::unique_ptr<Packet[]>> packet_slabs_;
    std::vector<Packet*> packet_free_;
    std::vector<RemoteArrival> outbox_;
};

}  // namespace fastnet::hw
