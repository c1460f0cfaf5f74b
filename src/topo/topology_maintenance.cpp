#include "topo/topology_maintenance.hpp"

#include <algorithm>

#include "common/expect.hpp"
#include "graph/algorithms.hpp"

namespace fastnet::topo {
namespace {
constexpr std::uint64_t kRoundTimer = 1;
const LocalTopology kUnknown{};
}  // namespace

TopologyMaintenance::TopologyMaintenance(NodeId node_count, TopologyOptions options)
    : n_(node_count), options_(std::move(options)), db_(node_count),
      rounds_left_(options_.rounds) {}

const LocalTopology& TopologyMaintenance::view_of(NodeId u) const {
    return db_[u] ? *db_[u] : kUnknown;
}

void TopologyMaintenance::refresh_local(node::Context& ctx, std::uint64_t seq) {
    auto mine = std::make_shared<LocalTopology>();
    mine->known = true;
    mine->seq = seq;
    mine->links.reserve(ctx.links().size());
    for (const node::LocalLink& l : ctx.links()) {
        // known_tree finds a link's far-side record at index far_port - 1.
        FASTNET_ENSURES_MSG(l.port == mine->links.size() + 1,
                            "record i must describe port i + 1");
        mine->links.push_back(NeighborRecord{l.neighbor, l.port, l.remote_port, l.active});
    }
    self_ = ctx.self();
    db_[self_] = std::move(mine);
}

std::size_t TopologyMaintenance::memory_bytes() const {
    std::size_t bytes = sizeof(*this) + db_.capacity() * sizeof(TopologySnapshot);
    if (self_ != kNoNode)
        bytes += sizeof(LocalTopology) + db_[self_]->links.capacity() * sizeof(NeighborRecord);
    return bytes;
}

void TopologyMaintenance::on_start(node::Context& ctx) {
    refresh_local(ctx, 0);
    if (rounds_left_ == 0) return;
    do_round(ctx);
    if (rounds_left_ > 0) ctx.set_timer(options_.period, kRoundTimer);
}

void TopologyMaintenance::on_restart(node::Context& ctx) {
    // Crash recovery (Section 3, "Changing topology"): the database died
    // with the crash, but the incarnation counter — the one word of
    // stable storage — lets the fresh instance seed its sequence numbers
    // above everything the previous life ever broadcast, so peers' cached
    // entries for us are dominated instead of shadowing us for up to
    // 2^32 rounds.
    my_seq_ = ctx.incarnation() << 32;
    on_start(ctx);
}

void TopologyMaintenance::on_timer(node::Context& ctx, std::uint64_t cookie) {
    if (cookie != kRoundTimer || rounds_left_ == 0) return;
    do_round(ctx);
    if (rounds_left_ > 0) ctx.set_timer(options_.period, kRoundTimer);
}

void TopologyMaintenance::on_link_state(node::Context& ctx, const node::LocalLink&, bool) {
    // The runtime already updated ctx.links(); mirror it into the DB so
    // the next round broadcasts fresh data. (No seq bump outside rounds:
    // the paper increments per broadcast.)
    refresh_local(ctx, view_of(ctx.self()).seq);
}

const NeighborRecord& TopologyMaintenance::far_record(NodeId u, const NeighborRecord& r) const {
    // Record i describes port i + 1 (checked by refresh_local), and a
    // graph has no parallel edges, so the far side's record of the link
    // is the one at the link's port there.
    const std::vector<NeighborRecord>& far = db_[r.neighbor]->links;
    FASTNET_EXPECTS_MSG(r.far_port - 1 < far.size() && far[r.far_port - 1].neighbor == u,
                        "far-side record does not describe the link");
    return far[r.far_port - 1];
}

graph::RootedTree TopologyMaintenance::known_tree(NodeId self) const {
    // BFS over the usable view, expanding only nodes with known topology
    // (their ports are needed to route onward). Unknown-topology nodes
    // can be *reached* (as leaves) but not expanded. Once every node is
    // queued no later expansion can set a parent, so the search stops.
    // A node is queued iff it is self or has a parent.
    std::vector<NodeId> parent(n_, kNoNode);
    std::vector<NodeId> queue;
    queue.reserve(n_);
    queue.push_back(self);
    for (std::size_t h = 0; h < queue.size() && queue.size() < n_; ++h) {
        const NodeId u = queue[h];
        if (!db_[u]) continue;  // leaf in the view
        for (const NeighborRecord& r : db_[u]->links) {
            const NodeId v = r.neighbor;
            if (!r.active || v >= n_ || v == self || parent[v] != kNoNode) continue;
            // If the far side is known it must also report the link active.
            if (db_[v] && !far_record(u, r).active) continue;
            parent[v] = u;
            queue.push_back(v);
        }
    }
    return graph::RootedTree(self, std::move(parent));
}

hw::PortMap TopologyMaintenance::db_ports() const {
    return [this](NodeId u, NodeId v) -> hw::PortId {
        if (u < n_ && db_[u]) {
            for (const NeighborRecord& r : db_[u]->links)
                if (r.neighbor == v) return r.port;
        }
        // u's topology unknown, but v's record of the shared link names
        // u's port on it (exchanged at data-link initialization) — this
        // is what lets an Euler tour backtrack out of a freshly
        // discovered neighbor.
        if (v < n_ && db_[v]) {
            for (const NeighborRecord& r : db_[v]->links)
                if (r.neighbor == u) return r.far_port;
        }
        return hw::kNoPort;
    };
}

void TopologyMaintenance::do_round(node::Context& ctx) {
    FASTNET_EXPECTS(rounds_left_ > 0);
    rounds_left_ -= 1;
    refresh_local(ctx, ++my_seq_);
    const NodeId self = ctx.self();

    const graph::RootedTree tree = known_tree(self);
    if (tree.size() <= 1) return;  // isolated (all links down): nothing to send

    const hw::PortMap ports = db_ports();
    auto plan = std::make_shared<BroadcastPlan>([&] {
        switch (options_.scheme) {
            case BroadcastScheme::kDfsToken: {
                ChildReorder reorder;
                if (self < options_.dfs_preference.size() &&
                    !options_.dfs_preference[self].empty()) {
                    const std::vector<NodeId>& pref = options_.dfs_preference[self];
                    reorder = [pref](NodeId, std::span<NodeId> cs) {
                        std::stable_sort(cs.begin(), cs.end(), [&pref](NodeId a, NodeId b) {
                            const auto pa = std::find(pref.begin(), pref.end(), a);
                            const auto pb = std::find(pref.begin(), pref.end(), b);
                            return pa < pb;
                        });
                    };
                }
                return plan_dfs_token(tree, ports, reorder);
            }
            case BroadcastScheme::kLayeredBfs:
                return plan_layered_bfs(tree, ports);
            case BroadcastScheme::kDirectUnicast:
                return plan_direct_unicast(tree, ports);
            default:
                return plan_branching_paths(tree, ports);
        }
    }());

    auto msg = std::make_shared<TopologyMessage>();
    msg->origin = self;
    msg->seq = my_seq_;
    if (options_.full_knowledge) {
        for (NodeId u = 0; u < n_; ++u)
            if (db_[u]) msg->topologies.emplace_back(u, db_[u]);
    } else {
        msg->topologies.emplace_back(self, db_[self]);
    }
    msg->plan = plan;
    for (const hw::Route& route : plan->routes_at(self)) ctx.send(route, msg);
}

void TopologyMaintenance::on_message(node::Context& ctx, const hw::Delivery& d) {
    const auto* msg = hw::payload_as<TopologyMessage>(d);
    FASTNET_EXPECTS_MSG(msg != nullptr, "unexpected payload in topology maintenance");
    // Merge by sequence number, keeping the sender's snapshot itself; our
    // own entry stays authoritative.
    const NodeId self = ctx.self();
    for (const auto& [owner, topo] : msg->topologies) {
        if (owner == self) continue;
        if (owner >= n_ || !topo->known) continue;
        if (!db_[owner] || topo->seq > db_[owner]->seq) db_[owner] = topo;
    }
    // One-way relay: forward the paths starting here, unconditionally,
    // with the very payload we received.
    for (const hw::Route& route : msg->plan->routes_at(self)) ctx.send(route, d.payload);
}

std::optional<hw::AnrHeader> TopologyMaintenance::route_to(NodeId self, NodeId dst) const {
    FASTNET_EXPECTS(self < n_ && dst < n_);
    if (self == dst) return hw::AnrHeader{hw::AnrLabel::normal(hw::kNcuPort)};
    const graph::RootedTree tree = known_tree(self);
    if (!tree.contains(dst)) return std::nullopt;
    return hw::route_for_path(tree.path_from_root(dst), db_ports());
}

std::vector<std::pair<NodeId, NodeId>> TopologyMaintenance::active_view() const {
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (NodeId u = 0; u < n_; ++u) {
        if (!db_[u]) continue;
        for (const NeighborRecord& r : db_[u]->links) {
            if (!r.active || r.neighbor >= n_) continue;
            const NodeId v = r.neighbor;
            if (db_[v]) {
                if (!far_record(u, r).active) continue;
                if (u > v) continue;  // counted from the lower endpoint
            } else if (u > v) {
                continue;
            }
            edges.emplace_back(std::min(u, v), std::max(u, v));
        }
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    return edges;
}

node::ProtocolFactory make_topology_maintenance(NodeId node_count, TopologyOptions options) {
    return [node_count, options](NodeId) {
        return std::make_unique<TopologyMaintenance>(node_count, options);
    };
}

bool view_converged(const TopologyMaintenance& proto, const hw::Network& net, NodeId self) {
    const graph::Graph& g = net.graph();
    const auto active = [&net](EdgeId e) { return net.link_active(e); };
    const auto comp = graph::connected_components(g, active);
    for (NodeId u = 0; u < g.node_count(); ++u) {
        if (comp[u] != comp[self]) continue;
        const LocalTopology& t = proto.view_of(u);
        if (!t.known) return false;
        // Every incident edge of u must be recorded with the true state.
        if (t.links.size() != g.degree(u)) return false;
        for (const graph::IncidentEdge& ie : g.incident(u)) {
            const auto it = std::find_if(t.links.begin(), t.links.end(),
                                         [&ie](const NeighborRecord& r) {
                                             return r.neighbor == ie.neighbor;
                                         });
            if (it == t.links.end()) return false;
            if (it->active != net.link_active(ie.edge)) return false;
        }
    }
    return true;
}

bool all_views_converged(node::ParallelCluster& cluster) {
    // Every shard reads the same fabric, so shard 0's link states are
    // ground truth for every node.
    for (NodeId u = 0; u < cluster.node_count(); ++u) {
        const auto& p = cluster.protocol_as<TopologyMaintenance>(u);
        if (!view_converged(p, cluster.mirror(0), u)) return false;
    }
    return true;
}

}  // namespace fastnet::topo
