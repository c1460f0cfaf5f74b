// ANR header construction helpers.
//
// Routes are sequences of per-switch port ids, so building one requires
// knowing, for each node on the path, which local port leads to the next
// node. Protocols learn these (node -> (neighbor -> port)) mappings from
// messages; the PortMap here is the minimal interface over that learned
// knowledge. hw::Network also exposes an omniscient builder for tests,
// benches and protocols whose knowledge assumptions cover it (e.g. the
// complete-graph setting of Section 5 where each node knows its ports).
//
// Label consumption model (matters for copy placement): label i of the
// header is popped at path[i]'s switch and routes toward path[i+1]; a
// copy id in that position therefore drops a copy at path[i]'s *own* NCU.
// Hence the first label is always a normal id (a copy there would echo
// the packet back to the sender's NCU) and the final node is reached via
// a trailing NCU id (0).
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "graph/graph.hpp"
#include "hw/packet.hpp"

namespace fastnet::hw {

/// Answers "at node u, which port leads to neighbor v?"; must return
/// kNoPort when unknown.
using PortMap = std::function<PortId(NodeId u, NodeId v)>;

inline constexpr PortId kNoPort = ~0u;

/// Which nodes on the path should receive the packet.
enum class CopyMode {
    kNone,          ///< Pure relay; only the final NCU sees the packet.
    kIntermediates, ///< Selective copy at every interior node; the final
                    ///< node receives via the trailing NCU id. One such
                    ///< message covers a whole decomposition path of the
                    ///< Section 3 broadcast with one system call per node.
};

/// Builds the header routing a packet along `path` (node sequence, the
/// first element is the injecting node) and finally into the last node's
/// NCU. Throws ContractViolation if the port map lacks a hop.
AnrHeader route_for_path(std::span<const NodeId> path, const PortMap& ports,
                         CopyMode mode = CopyMode::kNone);

/// The same labels appended to `out` (a planner writing many routes into
/// one buffer).
void append_route(std::span<const NodeId> path, const PortMap& ports, CopyMode mode,
                  std::vector<AnrLabel>& out);

/// Concatenates two headers. The first must end at an NCU (trailing id 0);
/// the NCU id is removed so the packet continues along `b` instead — this
/// is how the election algorithm splices ANR(q,o) with the carried
/// ANR(o,i) to return to its origin.
AnrHeader splice(AnrHeader a, const AnrHeader& b);

/// The canonical port assignment used by hw::Network: node u's port p
/// (p >= 1) is its (p-1)-th incident edge in graph insertion order. Any
/// component that knows the graph can therefore derive ports without
/// touching the network object. Keeps a reference to `g` — the graph
/// must outlive the returned map.
PortMap canonical_ports(const graph::Graph& g);

}  // namespace fastnet::hw
