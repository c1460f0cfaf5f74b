// The programming model for NCU software.
//
// A Protocol is the per-node software of a distributed algorithm. Its
// handlers run inside NCU "system calls": each invocation occupies the
// node's single processor for P ticks (the software delay of Section 2)
// and is strictly serialized with every other invocation at that node —
// which is also what gives the election algorithm its token mutual
// exclusion for free. Inside one invocation the protocol may inject any
// number of packets at no extra processing cost (the model's multi-link
// send feature, validated on PARIS).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "hw/anr.hpp"
#include "hw/packet.hpp"
#include "sim/trace.hpp"

namespace fastnet::node {

/// A node's view of one adjacent link — exactly the knowledge the paper
/// grants an NCU a priori: the link's ids (at both endpoints, exchanged
/// by the data-link initialization protocol), the neighbor's identity,
/// and the operational state reported by the data-link layer.
struct LocalLink {
    EdgeId edge = kNoEdge;
    NodeId neighbor = kNoNode;
    hw::PortId port = hw::kNoPort;         ///< Our side's id.
    hw::PortId remote_port = hw::kNoPort;  ///< The neighbor's side id.
    bool active = true;
};

using TimerId = std::uint64_t;

/// Services available to a protocol during a handler invocation.
class Context {
public:
    virtual ~Context() = default;

    virtual NodeId self() const = 0;
    virtual Tick now() const = 0;
    virtual const ModelParams& params() const = 0;

    /// Local topology: adjacent links with locally-known activity state.
    virtual std::span<const LocalLink> links() const = 0;

    /// Injects a packet with the given source route; the labels are
    /// copied into the packet.
    virtual void send(const hw::AnrHeader& header,
                      std::shared_ptr<const hw::Payload> payload) = 0;

    /// Injects a packet along a prebuilt route, whose labels it shares
    /// (a relay forwarding a planned message copies nothing).
    virtual void send(const hw::Route& route, std::shared_ptr<const hw::Payload> payload) = 0;

    /// Replies to a received packet over its accumulated reverse route.
    virtual void reply(const hw::Delivery& to, std::shared_ptr<const hw::Payload> payload) = 0;

    /// Schedules on_timer(cookie) after `delay` ticks (>= 0).
    virtual TimerId set_timer(Tick delay, std::uint64_t cookie) = 0;
    virtual void cancel_timer(TimerId id) = 0;

    /// Deterministic per-node randomness (workload shaping only).
    virtual Rng& rng() = 0;

    /// How many times this node has crashed so far (0 before the first
    /// crash). The model's one word of stable storage: a boot counter in
    /// NVRAM, which is what lets recovery protocols generate sequence
    /// numbers that dominate everything issued before the crash.
    virtual std::uint64_t incarnation() const { return 0; }

    /// Appends an application-level trace record at (now, self), stamped
    /// with the current handler's causal lineage — how protocols emit
    /// kCallEvent and friends. Purely observational: a no-op when no
    /// trace is attached or the kind is filtered, so it may sit on hot
    /// paths unguarded.
    virtual void record(sim::TraceKind kind, std::uint64_t a, std::uint64_t b = 0,
                        std::uint8_t flag = 0) {
        (void)kind, (void)a, (void)b, (void)flag;
    }
};

/// Base class for node software. Handlers run serialized per node; each
/// costs one NCU involvement.
class Protocol {
public:
    virtual ~Protocol() = default;

    /// Stable identifier for the always-on handler profiler
    /// (cost::Profiler): invocations of every instance sharing a name
    /// aggregate into one per-handler-kind histogram set. Must return a
    /// string with static lifetime.
    virtual const char* name() const { return "protocol"; }

    /// Spontaneous start (the paper's START message from outside).
    virtual void on_start(Context&) {}

    /// First invocation after a crash-restart. The runtime constructs a
    /// *fresh* protocol instance on restart (a crash wipes all soft
    /// state), then calls this instead of on_start so recovery-aware
    /// protocols can re-announce under a new incarnation (see
    /// Context::incarnation). The default treats recovery as a cold start.
    virtual void on_restart(Context& ctx) { on_start(ctx); }

    /// A packet reached this NCU.
    virtual void on_message(Context&, const hw::Delivery&) {}

    /// The data-link layer reports a persistent link state change.
    virtual void on_link_state(Context&, const LocalLink&, bool up) {
        (void)up;
    }

    /// A timer set via Context::set_timer fired.
    virtual void on_timer(Context&, std::uint64_t cookie) { (void)cookie; }

    /// Self-reported footprint of this protocol instance, for the
    /// per-node memory ledger (cost::Metrics, docs/PERF.md "Memory at
    /// scale"). Convention: the object itself plus any heap it owns —
    /// overrides return sizeof(*this) (the derived size) + container
    /// capacities. The base default covers stateless protocols.
    virtual std::size_t memory_bytes() const { return sizeof(*this); }
};

/// Creates the protocol instance for one node.
using ProtocolFactory = std::function<std::unique_ptr<Protocol>(NodeId)>;

}  // namespace fastnet::node
