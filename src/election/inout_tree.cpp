#include "election/inout_tree.hpp"

#include <algorithm>

#include "common/expect.hpp"

namespace fastnet::elect {

namespace {

/// Orders index entries by id, for lower_bound over the index.
constexpr auto id_below = [](const auto& e, NodeId id) { return e.id < id; };

}  // namespace

InOutTree::InOutTree(NodeId root) : in_count_(1) {
    Entry e;
    e.in_domain = true;
    slots_.push_back({root, kNoSlot, e});
    index_.push_back({root, 0});
}

InOutTree::SlotId InOutTree::slot_of(NodeId x) const {
    const auto it = std::lower_bound(index_.begin(), index_.end(), x, id_below);
    return it != index_.end() && it->id == x ? it->slot : kNoSlot;
}

InOutTree::SlotId InOutTree::checked_slot(NodeId x) const {
    const SlotId s = slot_of(x);
    FASTNET_EXPECTS_MSG(s != kNoSlot, "node not in INOUT tree");
    return s;
}

bool InOutTree::is_in(NodeId u) const {
    const SlotId s = slot_of(u);
    return s != kNoSlot && slots_[s].entry.in_domain;
}

bool InOutTree::is_out(NodeId u) const {
    const SlotId s = slot_of(u);
    return s != kNoSlot && !slots_[s].entry.in_domain;
}

const InOutTree::Entry& InOutTree::entry(NodeId u) const {
    return slots_[checked_slot(u)].entry;
}

NodeId InOutTree::pick_out() const {
    for (const IndexEntry& e : index_)
        if (!slots_[e.slot].entry.in_domain) return e.id;
    return kNoNode;
}

std::vector<NodeId> InOutTree::out_nodes() const {
    std::vector<NodeId> out;
    for (const IndexEntry& e : index_)
        if (!slots_[e.slot].entry.in_domain) out.push_back(e.id);
    return out;
}

std::vector<NodeId> InOutTree::in_nodes() const {
    std::vector<NodeId> in;
    for (const IndexEntry& e : index_)
        if (slots_[e.slot].entry.in_domain) in.push_back(e.id);
    return in;
}

void InOutTree::add_out(NodeId u, NodeId parent, hw::PortId port_at_parent,
                        hw::PortId port_at_u) {
    const auto it = std::lower_bound(index_.begin(), index_.end(), u, id_below);
    if (it != index_.end() && it->id == u) return;
    const SlotId p = slot_of(parent);
    FASTNET_EXPECTS_MSG(p != kNoSlot && slots_[p].entry.in_domain,
                        "OUT node must hang under an IN member");
    Entry e;
    e.parent = parent;
    e.port_from_parent = port_at_parent;
    e.port_to_parent = port_at_u;
    e.in_domain = false;
    index_.insert(it, {u, static_cast<SlotId>(slots_.size())});
    slots_.push_back({u, p, e});
}

std::vector<InOutTree::SlotId> InOutTree::chain_to_root(NodeId x) const {
    std::vector<SlotId> chain;
    for (SlotId s = checked_slot(x);; s = slots_[s].parent) {
        chain.push_back(s);
        FASTNET_ENSURES_MSG(chain.size() <= slots_.size(), "cycle in INOUT tree");
        if (s == 0) break;
    }
    return chain;
}

hw::AnrHeader InOutTree::route_from_root(NodeId x) const {
    const std::vector<SlotId> chain = chain_to_root(x);  // x .. root
    hw::AnrHeader h;
    h.reserve(chain.size());
    // Walk root -> x: hop into chain[k] uses chain[k]'s port_from_parent.
    for (auto it = chain.rbegin() + 1; it != chain.rend(); ++it)
        h.push_back(hw::AnrLabel::normal(slots_[*it].entry.port_from_parent));
    h.push_back(hw::AnrLabel::normal(hw::kNcuPort));
    return h;
}

hw::AnrHeader InOutTree::route_to_root(NodeId x) const {
    const std::vector<SlotId> chain = chain_to_root(x);  // x .. root
    hw::AnrHeader h;
    h.reserve(chain.size());
    for (auto it = chain.begin(); it + 1 != chain.end(); ++it)
        h.push_back(hw::AnrLabel::normal(slots_[*it].entry.port_to_parent));
    h.push_back(hw::AnrLabel::normal(hw::kNcuPort));
    return h;
}

std::vector<NodeId> InOutTree::path_from_root(NodeId x) const {
    const std::vector<SlotId> chain = chain_to_root(x);  // x .. root
    std::vector<NodeId> path;
    path.reserve(chain.size());
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) path.push_back(slots_[*it].id);
    return path;
}

void InOutTree::absorb(const InOutTree& other, NodeId via) {
    FASTNET_EXPECTS_MSG(is_out(via), "graft point must currently be an OUT node here");
    FASTNET_EXPECTS_MSG(other.is_in(via), "graft point must be IN the captured domain");

    // Map every slot of `other` to ours: one ordered walk of its index
    // against ours. Ids we lack get fresh slots, appended in ascending id
    // order, so `added` comes out sorted for the index merge below.
    const std::size_t old_size = slots_.size();
    std::vector<SlotId> ours(other.slots_.size());
    std::vector<IndexEntry> added;
    auto hint = index_.begin();
    for (const IndexEntry& e : other.index_) {
        hint = std::lower_bound(hint, index_.end(), e.id, id_below);
        if (hint != index_.end() && hint->id == e.id) {
            ours[e.slot] = hint->slot;
            continue;
        }
        ours[e.slot] = static_cast<SlotId>(slots_.size());
        added.push_back({e.id, ours[e.slot]});
        slots_.push_back({e.id, kNoSlot, Entry{}});  // filled in below
    }

    // Re-root `other` at `via`: along the via -> other.root chain the old
    // child->parent edges flip. The graft point becomes a domain member
    // but keeps its attachment in *this* tree ("connecting node o of IN_v
    // to its neighbor in IN_i").
    const std::vector<SlotId> flip = other.chain_to_root(via);  // via .. other.root
    std::vector<bool> on_chain(other.slots_.size(), false);
    on_chain[flip.front()] = true;
    slots_[ours[flip.front()]].entry.in_domain = true;
    ++in_count_;
    for (std::size_t k = 0; k + 1 < flip.size(); ++k) {
        const Slot& child = other.slots_[flip[k]];  // closer to via
        Slot& node = slots_[ours[flip[k + 1]]];     // child's old parent, now its child
        FASTNET_ENSURES_MSG(!node.entry.in_domain, "domains must be disjoint");
        node.parent = ours[flip[k]];
        node.entry.parent = child.id;
        node.entry.port_from_parent = child.entry.port_to_parent;  // at child, toward node
        node.entry.port_to_parent = child.entry.port_from_parent;  // at node, toward child
        node.entry.in_domain = true;  // the whole chain consists of other-IN members
        ++in_count_;
        on_chain[flip[k + 1]] = true;
    }

    // Every other node keeps its old parent (the root of `other` is on the
    // chain, so each has one). A node we did not know arrives as it is;
    // an OUT leaf here that is IN the captured domain is promoted. (IN
    // here + OUT there, or OUT both: keep ours.)
    for (SlotId s = 0; s < other.slots_.size(); ++s) {
        if (on_chain[s]) continue;
        const Slot& theirs = other.slots_[s];
        Slot& mine = slots_[ours[s]];
        if (ours[s] < old_size && (mine.entry.in_domain || !theirs.entry.in_domain)) continue;
        mine.parent = ours[theirs.parent];
        mine.entry = theirs.entry;
        if (theirs.entry.in_domain) ++in_count_;
    }

    const auto mid = index_.insert(index_.end(), added.begin(), added.end());
    std::inplace_merge(index_.begin(), mid, index_.end(),
                       [](const IndexEntry& a, const IndexEntry& b) { return a.id < b.id; });
    FASTNET_ENSURES(invariants_hold());
}

graph::RootedTree InOutTree::to_rooted_tree(NodeId capacity) const {
    FASTNET_EXPECTS(!slots_.empty() && root() < capacity);
    std::vector<NodeId> parents(capacity, kNoNode);
    for (std::size_t s = 1; s < slots_.size(); ++s) {
        const Slot& x = slots_[s];
        if (!x.entry.in_domain) continue;
        FASTNET_EXPECTS(x.id < capacity);
        parents[x.id] = x.entry.parent;
    }
    return graph::RootedTree(root(), std::move(parents));
}

bool InOutTree::invariants_hold() const {
    const std::size_t m = slots_.size();
    if (index_.size() != m) return false;
    if (m == 0) return in_count_ == 0;
    const Slot& root = slots_.front();
    if (root.parent != kNoSlot || root.entry.parent != kNoNode || !root.entry.in_domain)
        return false;

    // Parents: present, the id Entry::parent names, IN (so no node hangs
    // under an OUT node).
    std::size_t in_seen = 0;
    for (std::size_t s = 0; s < m; ++s) {
        const Slot& x = slots_[s];
        if (x.entry.in_domain) ++in_seen;
        if (s == 0) continue;
        if (x.parent >= m) return false;
        const Slot& p = slots_[x.parent];
        if (p.id != x.entry.parent || !p.entry.in_domain) return false;
    }
    if (in_seen != in_count_) return false;

    // Index: strictly ascending, each entry at the slot of its id. With
    // as many entries as slots this makes it a bijection, so ids are
    // unique.
    for (std::size_t i = 0; i < m; ++i) {
        const IndexEntry& e = index_[i];
        if (i > 0 && index_[i - 1].id >= e.id) return false;
        if (e.slot >= m || slots_[e.slot].id != e.id) return false;
    }

    // Acyclic: every chain reaches the root. Three states, so each chain
    // is walked once: 0 unseen, 1 on the walk in progress, 2 reaches the
    // root.
    std::vector<std::uint8_t> state(m, 0);
    state[0] = 2;
    for (SlotId s = 1; s < m; ++s) {
        SlotId v = s;
        while (state[v] == 0) {
            state[v] = 1;
            v = slots_[v].parent;
        }
        if (state[v] == 1) return false;  // the walk closed a cycle
        for (v = s; state[v] == 1; v = slots_[v].parent) state[v] = 2;
    }
    return true;
}

}  // namespace fastnet::elect
