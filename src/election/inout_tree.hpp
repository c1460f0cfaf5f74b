// The INOUT tree of Section 4: the data structure a candidate's origin
// keeps about its domain.
//
// It records IN_i (domain members) and OUT_i (neighbors of members that
// are outside the domain) as one tree that is a subgraph of the network:
// every tree edge is a physical link, stored with the port ids of both
// endpoints. Routes derived from it (root->x, x->root) therefore have
// length linear in the domain size — the property the paper needs so
// that "all the ANR field lengths ... are linear in n".
//
// Layout: one contiguous slot array (node id, parent slot, Entry; slot 0
// is the root) and an index of (id, slot) pairs sorted by id. Parent
// links are slot numbers, so walking a chain or checking the whole tree
// touches only these two arrays; lookups by id binary-search the index,
// and every id-ordered answer (pick_out, in_nodes, out_nodes) is a scan
// of it.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "graph/rooted_tree.hpp"
#include "hw/anr.hpp"

namespace fastnet::elect {

class InOutTree {
public:
    struct Entry {
        NodeId parent = kNoNode;                 ///< kNoNode at the root.
        hw::PortId port_from_parent = hw::kNoPort;  ///< At parent, toward node.
        hw::PortId port_to_parent = hw::kNoPort;    ///< At node, toward parent.
        bool in_domain = false;                  ///< IN (true) or OUT (false).
    };

    InOutTree() = default;
    /// Creates the singleton domain {root}.
    explicit InOutTree(NodeId root);

    NodeId root() const { return slots_.empty() ? kNoNode : slots_.front().id; }
    bool contains(NodeId u) const { return slot_of(u) != kNoSlot; }
    bool is_in(NodeId u) const;
    bool is_out(NodeId u) const;
    const Entry& entry(NodeId u) const;

    std::size_t in_count() const { return in_count_; }
    std::size_t out_count() const { return slots_.size() - in_count_; }

    /// Smallest-id OUT node, or kNoNode when the OUT set is empty.
    /// (Deterministic choice of the paper's "arbitrary node o".)
    NodeId pick_out() const;

    /// All OUT node ids in ascending order.
    std::vector<NodeId> out_nodes() const;
    /// All IN node ids in ascending order.
    std::vector<NodeId> in_nodes() const;

    /// Adds an OUT leaf `u` attached under IN member `parent` via the
    /// physical link with the given ports. No-op if `u` is already
    /// present (IN or OUT).
    void add_out(NodeId u, NodeId parent, hw::PortId port_at_parent, hw::PortId port_at_u);

    /// ANR from the root's NCU to x's NCU along tree edges.
    hw::AnrHeader route_from_root(NodeId x) const;
    /// ANR from x's NCU back to the root's NCU along tree edges.
    hw::AnrHeader route_to_root(NodeId x) const;

    /// Tree path root -> x as node ids (diagnostics/tests).
    std::vector<NodeId> path_from_root(NodeId x) const;

    /// Absorbs `other` (a captured domain's tree, rooted at its origin):
    /// re-roots `other` at `via` (which must be IN `other` and already
    /// present in *this* as an OUT node) and grafts it there. IN beats
    /// OUT when both trees know a node. Implements the paper's
    ///   IN_i  = IN_i  u IN_v
    ///   OUT_i = OUT_i u OUT_v - IN_i
    /// "by connecting node o of IN_v to its neighbor in IN_i".
    /// One pass over each tree's arrays (a binary search per captured id
    /// finds it here), then FASTNET_ENSURES(invariants_hold()) checks the
    /// whole result.
    void absorb(const InOutTree& other, NodeId via);

    /// Internal consistency of the whole tree, in time linear in its
    /// size: the root is parentless and IN; every other slot's parent
    /// slot exists, holds the id its Entry names as parent and is IN (so
    /// OUT nodes are leaves); parent links are acyclic; the index is
    /// strictly ascending and each entry points at the slot of its id;
    /// the IN count is coherent.
    bool invariants_hold() const;

    /// The IN part as a graph::RootedTree over ids 0..capacity-1 (a
    /// spanning tree of the domain, and — since every tree edge is a
    /// physical link — a subgraph of the network). After an election the
    /// leader's domain spans its component, so this is a free spanning
    /// tree: ready-made input for the Section 3 broadcast machinery.
    graph::RootedTree to_rooted_tree(NodeId capacity) const;

    /// Footprint for the per-node memory ledger. The rule: the object
    /// itself plus the capacity (not the size) of the slot and index
    /// arrays, each at its element size. Nothing else is allocated.
    std::size_t memory_bytes() const {
        return sizeof(*this) + slots_.capacity() * sizeof(Slot) +
               index_.capacity() * sizeof(IndexEntry);
    }

private:
    friend struct InOutTreeTestPeer;  // tests: corrupts the arrays on purpose

    using SlotId = std::uint32_t;
    static constexpr SlotId kNoSlot = ~SlotId{0};

    struct Slot {
        NodeId id = kNoNode;
        SlotId parent = kNoSlot;  ///< kNoSlot at the root (slot 0).
        Entry entry;
    };
    struct IndexEntry {
        NodeId id = kNoNode;
        SlotId slot = kNoSlot;
    };

    std::vector<Slot> slots_;         // slot 0 is the root
    std::vector<IndexEntry> index_;   // ascending id: deterministic order
    std::size_t in_count_ = 0;

    /// x's slot, or kNoSlot when x is not in the tree.
    SlotId slot_of(NodeId x) const;
    /// x's slot; x must be in the tree.
    SlotId checked_slot(NodeId x) const;
    /// Slots from x's slot up to the root, both included.
    std::vector<SlotId> chain_to_root(NodeId x) const;
};

}  // namespace fastnet::elect
