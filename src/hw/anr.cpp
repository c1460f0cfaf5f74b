#include "hw/anr.hpp"

#include "common/expect.hpp"

namespace fastnet::hw {

AnrHeader route_for_path(std::span<const NodeId> path, const PortMap& ports, CopyMode mode) {
    AnrHeader h;
    h.reserve(path.size() + 1);
    append_route(path, ports, mode, h);
    return h;
}

void append_route(std::span<const NodeId> path, const PortMap& ports, CopyMode mode,
                  std::vector<AnrLabel>& out) {
    FASTNET_EXPECTS(path.size() >= 1);
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const PortId p = ports(path[i], path[i + 1]);
        FASTNET_EXPECTS_MSG(p != kNoPort && p != kNcuPort, "port map lacks a hop on the path");
        const bool drop_copy_here = mode == CopyMode::kIntermediates && i > 0;
        out.push_back(drop_copy_here ? AnrLabel::copy(p) : AnrLabel::normal(p));
    }
    out.push_back(AnrLabel::normal(kNcuPort));
}

PortMap canonical_ports(const graph::Graph& g) {
    return [&g](NodeId u, NodeId v) -> PortId {
        const auto inc = g.incident(u);
        for (PortId i = 0; i < inc.size(); ++i)
            if (inc[i].neighbor == v) return i + 1;
        return kNoPort;
    };
}

AnrHeader splice(AnrHeader a, const AnrHeader& b) {
    FASTNET_EXPECTS_MSG(!a.empty() && a.back() == AnrLabel::normal(kNcuPort),
                        "first header must terminate at an NCU");
    a.pop_back();
    a.insert(a.end(), b.begin(), b.end());
    return a;
}

}  // namespace fastnet::hw
