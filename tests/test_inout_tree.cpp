// Tests for the INOUT tree: domain bookkeeping, linear-length routes and
// the capture merge (Section 4.1's data-structure mechanics).
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "election/inout_tree.hpp"

namespace fastnet::elect {

/// Test-only access to an InOutTree's arrays, so a test can break one
/// property at a time and watch invariants_hold() notice.
struct InOutTreeTestPeer {
    static auto& slot(InOutTree& t, NodeId u) { return t.slots_[t.slot_of(u)]; }
    static auto slot_id(const InOutTree& t, NodeId u) { return t.slot_of(u); }
    static auto& slots(InOutTree& t) { return t.slots_; }
    static auto& index(InOutTree& t) { return t.index_; }
    static std::size_t& in_count(InOutTree& t) { return t.in_count_; }
};

namespace {

using hw::AnrLabel;
using Peer = InOutTreeTestPeer;

TEST(InOutTree, SingletonDomain) {
    const InOutTree t(3);
    EXPECT_EQ(t.root(), 3u);
    EXPECT_TRUE(t.is_in(3));
    EXPECT_EQ(t.in_count(), 1u);
    EXPECT_EQ(t.out_count(), 0u);
    EXPECT_EQ(t.pick_out(), kNoNode);
    EXPECT_TRUE(t.invariants_hold());
}

TEST(InOutTree, AddOutNeighbors) {
    InOutTree t(0);
    t.add_out(5, 0, /*port_at_parent=*/1, /*port_at_u=*/2);
    t.add_out(7, 0, 2, 1);
    EXPECT_TRUE(t.is_out(5));
    EXPECT_TRUE(t.is_out(7));
    EXPECT_EQ(t.out_count(), 2u);
    EXPECT_EQ(t.pick_out(), 5u);  // smallest id
    EXPECT_TRUE(t.invariants_hold());
}

TEST(InOutTree, AddOutIsIdempotent) {
    InOutTree t(0);
    t.add_out(5, 0, 1, 2);
    t.add_out(5, 0, 9, 9);  // ignored
    EXPECT_EQ(t.out_count(), 1u);
    EXPECT_EQ(t.entry(5).port_from_parent, 1u);
}

TEST(InOutTree, RouteFromRootToOutLeaf) {
    InOutTree t(0);
    t.add_out(5, 0, 3, 4);
    const hw::AnrHeader h = t.route_from_root(5);
    ASSERT_EQ(h.size(), 2u);
    EXPECT_EQ(h[0], AnrLabel::normal(3));
    EXPECT_EQ(h[1], AnrLabel::normal(hw::kNcuPort));
}

TEST(InOutTree, RouteToRootReversesPorts) {
    InOutTree t(0);
    t.add_out(5, 0, 3, 4);
    const hw::AnrHeader h = t.route_to_root(5);
    ASSERT_EQ(h.size(), 2u);
    EXPECT_EQ(h[0], AnrLabel::normal(4));  // at node 5, toward 0
    EXPECT_EQ(h[1], AnrLabel::normal(hw::kNcuPort));
}

TEST(InOutTree, RouteToSelfIsJustNcu) {
    const InOutTree t(2);
    const hw::AnrHeader h = t.route_from_root(2);
    ASSERT_EQ(h.size(), 1u);
    EXPECT_EQ(h[0], AnrLabel::normal(hw::kNcuPort));
}

/// Builds the domain {root} with OUT = given neighbors using distinct
/// port numbers derived from ids (ports only need local uniqueness).
InOutTree domain_with_outs(NodeId root, std::initializer_list<NodeId> outs) {
    InOutTree t(root);
    hw::PortId p = 1;
    for (NodeId o : outs) {
        t.add_out(o, root, p, p + 10);
        ++p;
    }
    return t;
}

TEST(InOutTree, AbsorbSingletonVictim) {
    // Domain {0} with OUT {1}; captures domain {1} whose OUT is {0, 2}.
    InOutTree mine = domain_with_outs(0, {1});
    InOutTree victim = domain_with_outs(1, {0, 2});
    mine.absorb(victim, /*via=*/1);
    EXPECT_TRUE(mine.is_in(0));
    EXPECT_TRUE(mine.is_in(1));
    EXPECT_TRUE(mine.is_out(2));
    EXPECT_EQ(mine.in_count(), 2u);
    // 0 is IN here, so victim's OUT entry for 0 must not demote it.
    EXPECT_FALSE(mine.is_out(0));
    EXPECT_TRUE(mine.invariants_hold());
}

TEST(InOutTree, AbsorbKeepsGraftAttachment) {
    InOutTree mine = domain_with_outs(0, {1});
    const InOutTree victim = domain_with_outs(1, {2});
    mine.absorb(victim, 1);
    // 1 keeps its parent 0 from *our* tree.
    EXPECT_EQ(mine.entry(1).parent, 0u);
    // 2 hangs under 1 with the victim's ports.
    EXPECT_EQ(mine.entry(2).parent, 1u);
}

TEST(InOutTree, AbsorbRerootsDeepVictim) {
    // Victim domain rooted at 9: 9 -IN- 4 -IN- 1, OUT {2 under 1, 7 under 9}.
    InOutTree victim(9);
    victim.add_out(4, 9, 1, 2);
    // Promote 4 into the victim domain by absorbing singleton {4}.
    InOutTree d4 = domain_with_outs(4, {1, 7});
    // give 4's tree the right shape: 4 is root with OUT 1 and 7
    victim.absorb(d4, 4);
    InOutTree d1 = domain_with_outs(1, {2});
    victim.absorb(d1, 1);
    ASSERT_TRUE(victim.is_in(9));
    ASSERT_TRUE(victim.is_in(4));
    ASSERT_TRUE(victim.is_in(1));
    ASSERT_TRUE(victim.invariants_hold());

    // Now a domain {0} with OUT {1} captures the whole chain via node 1:
    // the victim must be re-rooted at 1 (9 and 4 flip under it).
    InOutTree mine = domain_with_outs(0, {1});
    mine.absorb(victim, 1);
    EXPECT_TRUE(mine.invariants_hold());
    EXPECT_EQ(mine.in_count(), 4u);  // 0, 1, 4, 9
    EXPECT_EQ(mine.entry(1).parent, 0u);
    EXPECT_EQ(mine.entry(4).parent, 1u);
    EXPECT_EQ(mine.entry(9).parent, 4u);
    // OUT leaves survive: 2 under 1, 7 under... 7 was OUT under 4 in d4.
    EXPECT_TRUE(mine.is_out(2));
    EXPECT_TRUE(mine.is_out(7));
}

TEST(InOutTree, AbsorbFlipsPortDirections) {
    InOutTree victim(9);
    {
        InOutTree d4(4);
        d4.add_out(9, 4, /*at 4*/ 6, /*at 9*/ 5);
        InOutTree tmp = d4;  // domain {4} sees 9 as OUT
        // 9 captures 4 through via=4:
        victim.add_out(4, 9, 5, 6);
        victim.absorb(tmp, 4);
    }
    // victim: 9 (root) - 4 (IN child), edge ports: at9=5, at4=6.
    ASSERT_EQ(victim.entry(4).port_from_parent, 5u);
    ASSERT_EQ(victim.entry(4).port_to_parent, 6u);

    InOutTree mine = domain_with_outs(0, {4});
    mine.absorb(victim, 4);
    // Edge 4-9 flipped: 9's parent is 4; from-parent port = at 4 toward 9.
    EXPECT_EQ(mine.entry(9).parent, 4u);
    EXPECT_EQ(mine.entry(9).port_from_parent, 6u);
    EXPECT_EQ(mine.entry(9).port_to_parent, 5u);
}

TEST(InOutTree, RoutesStayLinearAfterManyMerges) {
    // Chain-capture n singleton domains; route lengths must stay <= n+1.
    const NodeId n = 64;
    InOutTree big(0);
    big.add_out(1, 0, 1, 1);
    for (NodeId v = 1; v < n; ++v) {
        InOutTree single(v);
        if (v + 1 < n) single.add_out(v + 1, v, 1, 1);
        big.absorb(single, v);
    }
    EXPECT_EQ(big.in_count(), n);
    for (NodeId v = 0; v < n; ++v)
        EXPECT_LE(big.route_from_root(v).size(), static_cast<std::size_t>(n) + 1);
    EXPECT_TRUE(big.invariants_hold());
}

TEST(InOutTree, AbsorbRejectsBadGraftPoint) {
    InOutTree mine = domain_with_outs(0, {1});
    const InOutTree victim = domain_with_outs(2, {3});
    // 2 is not an OUT node of mine.
    EXPECT_THROW(mine.absorb(victim, 2), ContractViolation);
    // 3 is OUT in the victim, not IN.
    InOutTree mine2 = domain_with_outs(0, {3});
    EXPECT_THROW(mine2.absorb(victim, 3), ContractViolation);
}

/// A merged tree: IN path 0 - 1 - 2 - 3 with OUT leaves 9 (under 0) and
/// 4 (under 3).
InOutTree merged_path() {
    InOutTree t(0);
    t.add_out(1, 0, 1, 1);
    t.add_out(9, 0, 2, 1);
    for (NodeId v = 1; v <= 3; ++v) {
        InOutTree single(v);
        single.add_out(v + 1, v, 2, 1);
        t.absorb(single, v);
    }
    return t;
}

TEST(InOutTree, MergedPathIsWellFormed) {
    const InOutTree t = merged_path();
    EXPECT_TRUE(t.invariants_hold());
    EXPECT_EQ(t.in_nodes(), (std::vector<NodeId>{0, 1, 2, 3}));
    EXPECT_EQ(t.out_nodes(), (std::vector<NodeId>{4, 9}));
    EXPECT_EQ(t.path_from_root(4), (std::vector<NodeId>{0, 1, 2, 3, 4}));
}

// Each test below breaks exactly one property of a well-formed tree; the
// whole-tree check must report it.

TEST(InOutTree, CheckCatchesParentCycle) {
    InOutTree t = merged_path();
    // 1 hangs under 3: 1 -> 3 -> 2 -> 1, every link otherwise consistent.
    auto& one = Peer::slot(t, 1);
    one.parent = Peer::slot_id(t, 3);
    one.entry.parent = 3;
    EXPECT_FALSE(t.invariants_hold());
}

TEST(InOutTree, CheckCatchesDanglingParentSlot) {
    InOutTree t = merged_path();
    Peer::slot(t, 2).parent = static_cast<std::uint32_t>(Peer::slots(t).size());
    EXPECT_FALSE(t.invariants_hold());
}

TEST(InOutTree, CheckCatchesParentSlotNamingAnotherId) {
    InOutTree t = merged_path();
    Peer::slot(t, 3).parent = Peer::slot_id(t, 1);  // Entry::parent still says 2
    EXPECT_FALSE(t.invariants_hold());
}

TEST(InOutTree, CheckCatchesNodeUnderOutNode) {
    InOutTree t = merged_path();
    auto& four = Peer::slot(t, 4);
    four.parent = Peer::slot_id(t, 9);  // 9 is an OUT leaf
    four.entry.parent = 9;
    EXPECT_FALSE(t.invariants_hold());
}

TEST(InOutTree, CheckCatchesWrongInCount) {
    InOutTree t = merged_path();
    ++Peer::in_count(t);
    EXPECT_FALSE(t.invariants_hold());
}

TEST(InOutTree, CheckCatchesIndexOutOfOrder) {
    InOutTree t = merged_path();
    auto& index = Peer::index(t);
    std::swap(index[1], index[2]);  // each still points at its own slot
    EXPECT_FALSE(t.invariants_hold());
}

TEST(InOutTree, CheckCatchesIndexPointingAtWrongSlot) {
    InOutTree t = merged_path();
    auto& index = Peer::index(t);
    ASSERT_EQ(index[2].id, 2u);
    index[2].slot = Peer::slot_id(t, 3);
    EXPECT_FALSE(t.invariants_hold());
}

TEST(InOutTree, MemoryIsTheCapacityOfBothArrays) {
    // The rule in the header: the object plus the capacity of the slot
    // and index arrays at their element sizes. An entry costs one slot
    // (id, parent slot, Entry) and one index pair, with no padding.
    InOutTree t = merged_path();
    const auto& slots = Peer::slots(t);
    const auto& index = Peer::index(t);
    const std::size_t entries = t.in_count() + t.out_count();
    ASSERT_EQ(slots.size(), entries);
    ASSERT_EQ(index.size(), entries);
    EXPECT_EQ(t.memory_bytes(), sizeof(InOutTree) + slots.capacity() * sizeof(slots[0]) +
                                    index.capacity() * sizeof(index[0]));
    EXPECT_EQ(sizeof(slots[0]), 2 * sizeof(NodeId) + sizeof(InOutTree::Entry));
    EXPECT_EQ(sizeof(index[0]), 2 * sizeof(NodeId));
}

}  // namespace
}  // namespace fastnet::elect
