// Path decomposition for the branching-paths broadcast (Section 3.1).
//
// Every maximal chain of equal-label nodes forms the body of one path;
// the chain head's parent is prepended as the path's *start* node (the
// root's own chain starts at the root). The start of a path therefore
// lies on another (higher-label) path — or is the root — which is what
// yields the 1 + x - y delivery bound of Theorem 2:
//
//   * every non-root node is interior/end of exactly one path (it is
//     covered exactly once -> n-1 message receptions per broadcast);
//   * a path's label is strictly smaller than the label of the path its
//     start node lies on, so chains of paths have length <= x+1 where x
//     is the root label <= floor(log2 n).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "graph/rooted_tree.hpp"
#include "topo/labeling.hpp"

namespace fastnet::topo {

/// One broadcast path: its node sequence is nodes_of(path) in the
/// decomposition; the first node is the start (already informed when the
/// path is sent), the rest are covered by the path's single message.
struct BroadcastPath {
    std::uint32_t first = 0;  ///< Start node's index in PathDecomposition::nodes.
    std::uint32_t size = 0;   ///< Nodes on the path, start included (>= 2).
    unsigned label = 0;  ///< Common label of the edges on the path.
    unsigned wave = 0;   ///< Time unit (1-based) at which the message for
                         ///< this path is transmitted.
};

struct PathDecomposition {
    /// In discovery order: a path's start lies on an earlier path (or is
    /// the root).
    std::vector<BroadcastPath> paths;
    /// Every path's node sequence, back to back.
    std::vector<NodeId> nodes;
    /// Max wave over paths = broadcast time in units (Theorem 2: <= 1+x).
    unsigned time_units = 0;

    std::span<const NodeId> nodes_of(const BroadcastPath& p) const {
        return {nodes.data() + p.first, p.size};
    }
};

/// Decomposes a labelled tree. `labels` must come from label_tree(t).
PathDecomposition decompose_paths(const graph::RootedTree& t,
                                  const std::vector<unsigned>& labels);

/// Validates the structural invariants listed above (used by tests).
bool valid_decomposition(const graph::RootedTree& t, const std::vector<unsigned>& labels,
                         const PathDecomposition& d);

}  // namespace fastnet::topo
