#include "hw/network.hpp"

#include <algorithm>

#include "hw/switch.hpp"

namespace fastnet::hw {

NodeStreams::NodeStreams(NodeId node_count, const ModelParams& params,
                         const NetworkConfig& config)
    : counter_bits_(40 - ceil_log2(static_cast<std::uint64_t>(node_count) + 2)),
      pri_(node_count, 0),
      send_seq_(node_count, 0) {
    // stream() is a pure function of (seed, index): a node's draws are
    // identical whatever shard it lands on.
    if (config.hop_delay_min >= 0 && params.hop_delay > config.hop_delay_min) {
        delay_rng_.reserve(node_count);
        for (NodeId u = 0; u < node_count; ++u)
            delay_rng_.push_back(Rng::stream(config.seed, 2ull * u));
    }
    if (config.loss_ppm > 0 || config.dup_ppm > 0) {
        fault_rng_.reserve(node_count);
        for (NodeId u = 0; u < node_count; ++u)
            fault_rng_.push_back(Rng::stream(config.seed, 2ull * u + 1));
    }
}

std::size_t NodeStreams::memory_bytes() const {
    return pri_.capacity() * sizeof(std::uint64_t) + send_seq_.capacity() * sizeof(std::uint64_t) +
           (delay_rng_.capacity() + fault_rng_.capacity()) * sizeof(Rng);
}

Fabric::Fabric(const graph::Graph& g, const ModelParams& params, NetworkConfig config,
               graph::Partition partition)
    : graph_(g),
      params_(params),
      config_(std::move(config)),
      partition_(std::move(partition)),
      streams_(g.node_count(), params_, config_),
      shards_(partition_.shard_count, nullptr),
      node_down_(g.node_count(), 0),
      downed_head_(g.node_count(), kNoDowned),
      edge_ports_(g.edge_count(), {kNoPort, kNoPort}),
      links_(g.edge_count()) {
    FASTNET_EXPECTS(partition_.shard_of.size() == g.node_count());
    std::size_t max_degree = 0;
    for (NodeId u = 0; u < g.node_count(); ++u) {
        PortId p = 0;
        for (const graph::IncidentEdge& ie : g.incident(u)) {
            ++p;  // port 0 = NCU; link ports follow insertion order
            edge_ports_[ie.edge][g.edge(ie.edge).a == u ? 0 : 1] = p;
        }
        max_degree = std::max(max_degree, static_cast<std::size_t>(p));
    }
    // k bits per label: port ids 0..max_degree plus the copy flag.
    label_bits_ = ceil_log2(max_degree + 1) + 1;
}

Network::Network(sim::Simulator& sim, const graph::Graph& g, ModelParams params,
                 cost::Metrics& metrics, NetworkConfig config)
    : Network(sim,
              std::make_unique<Fabric>(g, params, std::move(config), graph::partition_bfs(g, 1)),
              metrics) {}

Network::Network(sim::Simulator& sim, std::unique_ptr<Fabric> own, cost::Metrics& metrics)
    : Network(sim, *own, 0, metrics, own->config_.trace.get(), own->config_.monitors.get()) {
    own_fabric_ = std::move(own);
}

Network::Network(sim::Simulator& sim, Fabric& fabric, std::uint32_t shard, cost::Metrics& metrics,
                 sim::Trace* trace, obs::MonitorHub* monitors)
    : fabric_(fabric),
      shard_(shard),
      sim_(sim),
      metrics_(metrics),
      trace_(trace),
      monitors_(monitors) {
    FASTNET_EXPECTS(metrics.node_count() == fabric.graph_.node_count());
    FASTNET_EXPECTS(shard < fabric.shards_.size() && fabric.shards_[shard] == nullptr);
    fabric.shards_[shard] = &sim;
}

void Network::set_ncu_dispatch(NcuDispatch dispatch) { ncu_dispatch_ = std::move(dispatch); }

PortId Network::port_for_edge(NodeId node, EdgeId e) const {
    const graph::Graph& g = graph();
    FASTNET_EXPECTS(node < g.node_count());
    if (e >= g.edge_count()) return kNoPort;
    const graph::Edge& edge = g.edge(e);
    if (edge.a == node) return fabric_.edge_ports_[e][0];
    if (edge.b == node) return fabric_.edge_ports_[e][1];
    return kNoPort;
}

EdgeId Network::edge_at_port(NodeId node, PortId p) const {
    FASTNET_EXPECTS(node < graph().node_count());
    const std::span<const graph::IncidentEdge> inc = graph().incident(node);
    FASTNET_EXPECTS_MSG(p >= 1 && p <= inc.size(), "not a link port");
    return inc[p - 1].edge;
}

PortId Network::port_to_neighbor(NodeId node, NodeId v) const {
    const EdgeId e = graph().find_edge(node, v);
    return e == kNoEdge ? kNoPort : port_for_edge(node, e);
}

PortMap Network::omniscient_ports() const {
    return [this](NodeId u, NodeId v) { return port_to_neighbor(u, v); };
}

AnrHeader Network::route(std::span<const NodeId> path, CopyMode mode) const {
    return route_for_path(path, omniscient_ports(), mode);
}

Packet* Network::alloc_packet() {
    if (packet_free_.empty()) {
        packet_slabs_.push_back(std::make_unique<Packet[]>(kPacketSlabSize));
        Packet* slab = packet_slabs_.back().get();
        packet_free_.reserve(packet_free_.size() + kPacketSlabSize);
        for (std::size_t i = kPacketSlabSize; i-- > 0;) packet_free_.push_back(slab + i);
    }
    Packet* p = packet_free_.back();
    packet_free_.pop_back();
    return p;
}

void Network::release_packet(Packet* pkt) {
    if (watched()) {
        obs::MonitorEvent ev;
        ev.kind = obs::MonitorEvent::Kind::kRetire;
        ev.at = sim_.now();
        ev.lineage = pkt->lineage;
        monitors_->dispatch(ev);
    }
    pkt->route = Route();
    pkt->track.clear();  // keeps its capacity for the next chain
    pkt->payload.reset();
    packet_free_.push_back(pkt);
}

void Network::note_drop(NodeId node, EdgeId e, const Packet& pkt, sim::DropReason reason) {
    if (trace_ != nullptr && trace_->enabled(sim::TraceKind::kDrop))
        trace_->record(sim_.now(), node, sim::TraceKind::kDrop,
                       {.lineage = pkt.lineage, .a = e, .b = 0,
                        .flag = static_cast<std::uint8_t>(reason)});
    if (cost::Sampling* s = metrics_.sampling()) s->drops().add(sim_.now(), 1);
}

void Network::admit(NodeId from, std::size_t len) {
    FASTNET_EXPECTS(from < graph().node_count());
    FASTNET_EXPECTS_MSG(len != 0, "empty ANR header");
    if (params().dmax != 0) {
        FASTNET_EXPECTS_MSG(len <= params().dmax,
                            "ANR header exceeds dmax — path length restriction violated");
    }
    metrics_.net().injections += 1;
    metrics_.net().max_header_len = std::max(metrics_.net().max_header_len, len);
    metrics_.node(from).sends += 1;
}

std::uint64_t Network::send(NodeId from, const AnrHeader& header,
                            std::shared_ptr<const Payload> payload,
                            std::uint64_t parent_lineage) {
    admit(from, header.size());
    Packet* pkt = alloc_packet();
    pkt->length = static_cast<std::uint32_t>(header.size());
    pkt->track.assign(header);
    return inject(from, pkt, std::move(payload), parent_lineage);
}

std::uint64_t Network::send(NodeId from, const Route& route,
                            std::shared_ptr<const Payload> payload,
                            std::uint64_t parent_lineage) {
    admit(from, route.size());
    Packet* pkt = alloc_packet();
    pkt->route = route;
    pkt->length = route.size();
    return inject(from, pkt, std::move(payload), parent_lineage);
}

std::uint64_t Network::inject(NodeId from, Packet* pkt, std::shared_ptr<const Payload> payload,
                              std::uint64_t parent_lineage) {
    const std::uint32_t len = pkt->length;
    pkt->offset = 0;
    pkt->payload = std::move(payload);
    pkt->origin = from;
    pkt->id = fabric_.streams_.next_packet_id(from);
    pkt->lineage = pkt->id;
    pkt->sent_at = sim_.now();
    pkt->hops = 0;
    if (trace_ != nullptr && trace_->enabled(sim::TraceKind::kSend))
        trace_->record(sim_.now(), from, sim::TraceKind::kSend,
                       {.lineage = pkt->lineage, .a = len, .b = parent_lineage, .flag = 0});
    if (cost::Sampling* s = metrics_.sampling()) {
        s->sends().add(sim_.now(), 1);
        s->header_len().add(len);
    }
    const std::uint64_t lineage = pkt->lineage;
    if (watched()) {
        obs::MonitorEvent ev;
        ev.kind = obs::MonitorEvent::Kind::kSend;
        ev.at = sim_.now();
        ev.node = from;
        ev.lineage = lineage;
        ev.a = len;
        monitors_->dispatch(ev);
    }
    // The injecting node's own switch consumes the first label immediately
    // (switching delay is folded into the per-hop cost C).
    process_at_switch(from, pkt);
    return lineage;
}

void Network::process_at_switch(NodeId node, Packet* pkt) {
    if (pkt->header_empty()) {
        metrics_.net().drops_empty_header += 1;
        note_drop(node, kNoEdge, *pkt, sim::DropReason::kEmptyHeader);
        release_packet(pkt);
        return;
    }
    const AnrLabel label = pkt->pop_label();

    const SwitchingSubsystem ss(static_cast<PortId>(graph().degree(node)));
    const SwitchDecision d = ss.match(label);
    if (!d.matched()) {
        metrics_.net().drops_no_match += 1;
        note_drop(node, kNoEdge, *pkt, sim::DropReason::kNoMatch);
        release_packet(pkt);
        return;
    }
    if (d.to_ncu) {
        // The hardware copy: the NCU receives the remaining string. The
        // cursor is only read, never consumed — the same packet may also
        // continue over a link below.
        deliver_to_ncu(node, *pkt);
    }
    if (d.forward_port) {
        const EdgeId e = edge_at_port(node, *d.forward_port);
        transmit(node, e, pkt);
    } else {
        release_packet(pkt);
    }
}

void Network::transmit(NodeId from, EdgeId e, Packet* pkt) {
    const NetworkConfig& config = fabric_.config_;
    NodeStreams& streams = fabric_.streams_;
    LinkState& link = fabric_.links_[e];
    if (!link.active()) {
        metrics_.net().drops_inactive_link += 1;
        note_drop(from, e, *pkt, sim::DropReason::kInactiveLink);
        release_packet(pkt);
        return;
    }
    // Injected loss: the frame is corrupted beyond the data-link CRC and
    // never arrives. Drawn from the transmitting node's own fault stream,
    // separate from its delay stream, so fault-free configurations keep
    // byte-identical schedules.
    if (config.loss_ppm > 0 && streams.fault_rng(from).below(1'000'000) < config.loss_ppm) {
        metrics_.net().drops_injected += 1;
        note_drop(from, e, *pkt, sim::DropReason::kInjectedLoss);
        release_packet(pkt);
        return;
    }
    const graph::Edge& edge = graph().edge(e);
    const NodeId to = edge.other(from);
    const int direction = (from == edge.a) ? 0 : 1;

    Tick delay = params().hop_delay;
    if (config.hop_delay_min >= 0 && params().hop_delay > config.hop_delay_min)
        delay = streams.delay_rng(from).range(config.hop_delay_min, params().hop_delay);
    Tick arrival = link.fifo_arrival(direction, sim_.now() + delay);
    if (config.link_spacing > 0)
        arrival = link.spaced_arrival(direction, arrival, config.link_spacing);
    const std::uint64_t epoch = link.epoch();
    // Source-routing overhead on the wire: the remaining header rides
    // this hop.
    metrics_.net().header_bits +=
        static_cast<std::uint64_t>(pkt->remaining_len()) * label_bits();
    pkt->hop_sent_at = sim_.now();
    if (cost::Sampling* s = metrics_.sampling()) {
        // Hardware (C) budget, attributed to the node whose send put the
        // packet on the wire; the wait includes FIFO/spacing queueing.
        s->node(pkt->origin).hw_time.add(sim_.now(),
                                         static_cast<double>(arrival - sim_.now()));
    }

    // A boundary-crossing arrival goes to the outbox; the local cursor
    // is then released after the dup block below is done reading it.
    const bool retire_pkt = schedule_arrival(arrival, streams.draw(from), to, e, epoch, pkt);

    // Injected duplication: a spurious link-layer retransmit. The copy is
    // a second cursor sharing the route, with its own copy of the track,
    // and joins the same FIFO behind the original, stamped with the same
    // epoch — a flap kills both.
    if (config.dup_ppm > 0 && streams.fault_rng(from).below(1'000'000) < config.dup_ppm) {
        Packet* dup = alloc_packet();
        *dup = *pkt;  // same lineage: the duplicate stays causally traceable
        dup->id = streams.next_packet_id(from);
        metrics_.net().dup_copies += 1;
        metrics_.net().header_bits +=
            static_cast<std::uint64_t>(dup->remaining_len()) * label_bits();
        if (trace_ != nullptr && trace_->enabled(sim::TraceKind::kDup))
            trace_->record(sim_.now(), from, sim::TraceKind::kDup,
                           {.lineage = dup->lineage, .a = e, .b = dup->id, .flag = 0});
        if (watched()) {
            obs::MonitorEvent ev;
            ev.kind = obs::MonitorEvent::Kind::kDup;
            ev.at = sim_.now();
            ev.node = from;
            ev.lineage = dup->lineage;
            ev.a = e;
            ev.b = dup->id;
            monitors_->dispatch(ev);
        }
        Tick dup_arrival = link.fifo_arrival(direction, arrival + params().hop_delay);
        if (config.link_spacing > 0)
            dup_arrival = link.spaced_arrival(direction, dup_arrival, config.link_spacing);
        if (schedule_arrival(dup_arrival, streams.draw(from), to, e, epoch, dup))
            release_packet(dup);
    }
    if (retire_pkt) release_packet(pkt);
}

void Network::arrive(NodeId at, EdgeId e, std::uint64_t epoch, Packet* pkt) {
    const LinkState& link = fabric_.links_[e];
    if (!link.active() || link.epoch() != epoch) {
        // The link failed (or flapped) while the packet was in flight.
        metrics_.net().drops_inactive_link += 1;
        note_drop(at, e, *pkt, sim::DropReason::kStaleEpoch);
        release_packet(pkt);
        return;
    }
    pkt->hops += 1;
    metrics_.net().hops += 1;
    if (trace_ != nullptr && trace_->enabled(sim::TraceKind::kHop))
        trace_->record(sim_.now(), at, sim::TraceKind::kHop,
                       {.lineage = pkt->lineage, .a = e, .b = pkt->hops,
                        .c = static_cast<std::uint64_t>(pkt->hop_sent_at), .flag = 0});
    if (cost::Sampling* s = metrics_.sampling()) {
        s->hops().add(sim_.now(), 1);
        s->hop_latency().add(static_cast<std::uint64_t>(sim_.now() - pkt->hop_sent_at));
    }
    if (watched()) {
        obs::MonitorEvent ev;
        ev.kind = obs::MonitorEvent::Kind::kHop;
        ev.at = sim_.now();
        ev.node = at;
        ev.lineage = pkt->lineage;
        ev.a = e;
        ev.b = pkt->hops;
        monitors_->dispatch(ev);
    }
    // Accumulate reverse-path information (Section 2 grants the receiver
    // the ability to reply; we realize it as per-hop reverse labels on
    // the packet's track).
    const graph::Edge& edge = graph().edge(e);
    const PortId back = fabric_.edge_ports_[e][edge.a == at ? 0 : 1];
    pkt->record_reverse(AnrLabel::normal(back));
    process_at_switch(at, pkt);
}

void Network::deliver_to_ncu(NodeId node, const Packet& pkt) {
    metrics_.net().ncu_deliveries += 1;
    FASTNET_EXPECTS_MSG(ncu_dispatch_ != nullptr, "no NCU dispatch registered");
    if (cost::Sampling* s = metrics_.sampling())
        s->delivery_latency().add(static_cast<std::uint64_t>(sim_.now() - pkt.sent_at));
    ncu_dispatch_(node, Delivery(node, pkt));
}

void Fabric::set_link_active(EdgeId e, bool active) {
    FASTNET_EXPECTS(e < links_.size());
    if (!links_[e].set_active(active)) return;
    const std::uint64_t epoch = links_[e].epoch();
    const graph::Edge& edge = graph_.edge(e);
    for (NodeId endpoint : {edge.a, edge.b}) {
        sim::Simulator& sim = *shards_[shard_of(endpoint)];
        sim.at_keyed(sim.now() + config_.detection_delay, streams_.draw_control(),
                     [this, endpoint, e, epoch, active]() {
                         // Suppress stale notifications if the link flapped
                         // again before detection completed (the NCU only
                         // learns states that persist).
                         if (links_[e].epoch() != epoch) return;
                         if (link_sink_) link_sink_(endpoint, e, active);
                     });
    }
}

sim::EventId Network::schedule_at(NodeId ctx, Tick when, sim::InlineFn fn) {
    FASTNET_EXPECTS_MSG(local(ctx), "scheduling context not on this shard");
    return sim_.at_keyed(when, fabric_.streams_.draw(ctx), std::move(fn));
}

sim::EventId Network::schedule_after(NodeId ctx, Tick delay, sim::InlineFn fn) {
    FASTNET_EXPECTS(delay >= 0);
    return schedule_at(ctx, sim_.now() + delay, std::move(fn));
}

void Network::inject_remote(const RemoteArrival& r) {
    FASTNET_EXPECTS(local(r.to));
    Packet* pkt = alloc_packet();
    *pkt = r.packet;
    if (watched()) {
        // Balances the sender shard's kRetire: each shard's lineage
        // ledger sees a packet enter (+1) before its eventual retire.
        obs::MonitorEvent ev;
        ev.kind = obs::MonitorEvent::Kind::kHandoff;
        ev.at = r.at;
        ev.node = r.to;
        ev.lineage = r.packet.lineage;
        ev.a = r.edge;
        monitors_->dispatch(ev);
    }
    const NodeId to = r.to;
    const EdgeId e = r.edge;
    const std::uint64_t epoch = r.epoch;
    sim_.at_keyed(r.at, r.pri, [this, to, e, epoch, pkt] { arrive(to, e, epoch, pkt); });
}

void Fabric::downed_push(NodeId u, EdgeId e, std::uint64_t epoch) {
    std::uint32_t slot;
    if (!downed_free_.empty()) {
        slot = downed_free_.back();
        downed_free_.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(downed_pool_.size());
        downed_pool_.emplace_back();
    }
    downed_pool_[slot] = DownedLink{e, epoch, downed_head_[u]};
    downed_head_[u] = slot;
}

void Fabric::downed_take(NodeId u, std::vector<DownedLink>& out) {
    out.clear();
    for (std::uint32_t slot = downed_head_[u]; slot != kNoDowned;) {
        const std::uint32_t next = downed_pool_[slot].next;
        out.push_back(downed_pool_[slot]);
        downed_free_.push_back(slot);
        slot = next;
    }
    downed_head_[u] = kNoDowned;
    // The chain is LIFO; reverse to recover insertion order (restore
    // processing order is observable through notification scheduling).
    std::reverse(out.begin(), out.end());
}

void Fabric::fail_node(NodeId u) {
    FASTNET_EXPECTS(u < graph_.node_count());
    node_down_[u] = 1;
    for (const graph::IncidentEdge& ie : graph_.incident(u)) {
        // A link that is already down failed for some other reason (its
        // own failure, or the other endpoint's); this node's restore has
        // no claim on it.
        if (!links_[ie.edge].active()) continue;
        set_link_active(ie.edge, false);
        downed_push(u, ie.edge, links_[ie.edge].epoch());
    }
}

void Fabric::restore_node(NodeId u) {
    FASTNET_EXPECTS(u < graph_.node_count());
    if (!node_down_[u]) return;
    node_down_[u] = 0;
    std::vector<DownedLink> rec;
    downed_take(u, rec);
    for (const DownedLink& d : rec) {
        // The epoch moved on: something else failed/restored the link in
        // the meantime, so its current state is not ours to overwrite.
        if (links_[d.edge].epoch() != d.epoch) continue;
        const NodeId other = graph_.edge(d.edge).other(u);
        if (node_down_[other]) {
            // Both endpoints went down; hand the claim to the peer so the
            // link returns when the *last* failed endpoint recovers.
            downed_push(other, d.edge, d.epoch);
            continue;
        }
        set_link_active(d.edge, true);
    }
}

std::size_t Fabric::memory_bytes() const {
    return node_down_.capacity() * sizeof(std::uint8_t) +
           downed_head_.capacity() * sizeof(std::uint32_t) +
           downed_pool_.capacity() * sizeof(DownedLink) +
           downed_free_.capacity() * sizeof(std::uint32_t) +
           edge_ports_.capacity() * sizeof(std::array<PortId, 2>) +
           links_.capacity() * sizeof(LinkState) + streams_.memory_bytes() +
           partition_.shard_of.capacity() * sizeof(std::uint32_t) +
           partition_.boundary_edges.capacity() * sizeof(EdgeId) +
           partition_.shard_size.capacity() * sizeof(std::uint32_t);
}

std::size_t Network::shard_bytes() const {
    return packet_slabs_.capacity() * sizeof(std::unique_ptr<Packet[]>) +
           packet_slabs_.size() * kPacketSlabSize * sizeof(Packet) + track_bytes() +
           packet_free_.capacity() * sizeof(Packet*) +
           outbox_.capacity() * sizeof(RemoteArrival);
}

std::size_t Network::track_bytes() const {
    std::size_t bytes = 0;
    for (const auto& slab : packet_slabs_)
        for (std::size_t i = 0; i < kPacketSlabSize; ++i)
            bytes += slab[i].track.heap_bytes();
    return bytes;
}

}  // namespace fastnet::hw
