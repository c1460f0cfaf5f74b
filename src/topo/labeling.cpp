#include "topo/labeling.hpp"

#include "common/expect.hpp"

namespace fastnet::topo {

std::vector<unsigned> label_tree(const graph::RootedTree& t) {
    std::vector<unsigned> labels(t.node_capacity(), kNoLabel);
    // Reverse preorder labels all children before their parent.
    const std::span<const NodeId> order = t.preorder();
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        const NodeId u = *it;
        unsigned best = 0;     // largest child label
        unsigned count = 0;    // how many children carry it
        for (NodeId c : t.children(u)) {
            const unsigned lc = labels[c];
            FASTNET_ENSURES(lc != kNoLabel);
            if (lc > best) {
                best = lc;
                count = 1;
            } else if (lc == best) {
                ++count;
            }
        }
        if (t.is_leaf(u)) {
            labels[u] = 0;
        } else {
            labels[u] = (count >= 2) ? best + 1 : best;
        }
    }
    return labels;
}

unsigned max_label(const graph::RootedTree& t, const std::vector<unsigned>& labels) {
    FASTNET_EXPECTS(t.contains(t.root()));
    return labels[t.root()];
}

bool satisfies_lemma1(const graph::RootedTree& t, const std::vector<unsigned>& labels) {
    for (NodeId u : t.preorder()) {
        unsigned same = 0;
        for (NodeId c : t.children(u))
            if (labels[c] == labels[u]) ++same;
        if (same > 1) return false;
    }
    return true;
}

}  // namespace fastnet::topo
