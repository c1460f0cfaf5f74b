// The Switching Subsystem (SS): pure id-matching logic of Section 2.
//
// An SS knows only how many link ports it has. Matching a label against
// the port id sets is stateless: normal id p -> port p; copy id p -> port
// p and the NCU port; normal id 0 -> the NCU port. This tiny class is the
// entire "hardware": everything it can do is cheap (cost 0 in the
// limiting model), everything it cannot do must go through the NCU.
#pragma once

#include <optional>

#include "common/expect.hpp"
#include "hw/packet.hpp"

namespace fastnet::hw {

/// Result of matching one label at one switch.
struct SwitchDecision {
    bool to_ncu = false;                    ///< Deliver remaining packet to local NCU.
    std::optional<PortId> forward_port;     ///< Forward remaining packet over this link.
    bool matched() const { return to_ncu || forward_port.has_value(); }
};

class SwitchingSubsystem {
public:
    /// `link_ports` — number of incident links; ports are 1..link_ports.
    explicit SwitchingSubsystem(PortId link_ports) : link_ports_(link_ports) {}

    bool valid_link_port(PortId p) const { return p >= 1 && p <= link_ports_; }

    /// Matches the label against every port's id set.
    SwitchDecision match(AnrLabel label) const {
        SwitchDecision d;
        const PortId p = label.port();
        if (label.is_copy()) {
            // Copy ids live on link ports and are all also assigned to the
            // NCU port, so a copy id fans out to the link and the NCU.
            if (valid_link_port(p)) {
                d.forward_port = p;
                d.to_ncu = true;
            }
        } else if (p == kNcuPort) {
            d.to_ncu = true;
        } else if (valid_link_port(p)) {
            d.forward_port = p;
        }
        return d;
    }

private:
    PortId link_ports_;
};

}  // namespace fastnet::hw
