// Packets and ANR (Automatic Network Routing) labels — the hardware
// vocabulary of Section 2.
//
// A packet is conceptually a bit string xy: the switching subsystem (SS)
// pops the leading link id x and forwards y over every incident link
// whose id set contains x. We represent x as an AnrLabel and the sequence
// of remaining ids as an AnrHeader; the opaque payload that survives to
// the destination NCU is a shared_ptr to an immutable Payload subclass.
//
// Id scheme (one concrete instance of the paper's "normal + copy id"
// assignment): within a switch, port 0 is the NCU and ports 1..deg are
// the incident links in graph insertion order. The *normal* id of port p
// is p itself; the *copy* id of a link port p is p with the copy bit set.
// The NCU port's id set is {0} plus every copy id — exactly the paper's
// "the link to the NCU is assigned all the copy ID's of the other links",
// which is what makes selective copy fall out of plain id matching.
//
// Representation (the allocation-free fast path, see docs/PERF.md): a
// route's forward labels live in a shared, immutable buffer (Route)
// that every packet sent along it references — a broadcast plan builds
// its routes once and each relay's send is a refcount bump. The in-flight
// Packet is a cursor {route, offset, payload, ...} plus its reverse
// track: the back-label of every hop so far, held in the pooled cursor
// itself (in place when short). A header sent as plain labels is copied
// into that track instead of a fresh Route. A hardware hop is an index
// increment and one append to the track. Protocols never see any of
// this: a Delivery keeps only the reverse labels and builds reverse()
// when a handler asks.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "common/expect.hpp"
#include "common/types.hpp"
#include "util/small_vec.hpp"

namespace fastnet::hw {

/// Port index within one switching subsystem. 0 is always the NCU.
using PortId = std::uint32_t;

inline constexpr PortId kNcuPort = 0;

/// One link id in an ANR header.
class AnrLabel {
public:
    AnrLabel() = default;

    /// Normal id of a port (use kNcuPort for "deliver to NCU here").
    static AnrLabel normal(PortId port) { return AnrLabel(port); }

    /// Copy id of a link port: forwards over the link AND drops a copy at
    /// the local NCU. Not defined for the NCU port itself.
    static AnrLabel copy(PortId port) {
        FASTNET_EXPECTS_MSG(port != kNcuPort, "the NCU port has no copy id");
        return AnrLabel(port | kCopyBit);
    }

    PortId port() const { return raw_ & ~kCopyBit; }
    bool is_copy() const { return (raw_ & kCopyBit) != 0; }

    std::uint32_t raw() const { return raw_; }

    friend bool operator==(AnrLabel a, AnrLabel b) { return a.raw_ == b.raw_; }

private:
    explicit AnrLabel(std::uint32_t raw) : raw_(raw) {}
    static constexpr std::uint32_t kCopyBit = 0x8000'0000u;
    std::uint32_t raw_ = 0;
};

/// The source route as protocols build and see it: a sequence of link ids
/// consumed front-to-back.
using AnrHeader = std::vector<AnrLabel>;

/// A route's forward labels, shared and immutable: built once, then
/// referenced by every packet sent along it (copying a Route is a
/// refcount bump). The count is atomic, so packets on different shard
/// threads may share one.
class Route {
public:
    Route() = default;

    /// Copies `labels` into one fresh buffer — the route's only
    /// allocation.
    explicit Route(std::span<const AnrLabel> labels) : size_(to_size(labels.size())) {
        if (labels.empty()) return;
        auto buf = std::make_shared_for_overwrite<AnrLabel[]>(labels.size());
        std::copy(labels.begin(), labels.end(), buf.get());
        labels_ = std::move(buf);
    }

    /// A view of `labels`, which `owner` keeps alive: a plan keeps every
    /// message route in one shared buffer.
    Route(const std::shared_ptr<const void>& owner, std::span<const AnrLabel> labels)
        : labels_(owner, labels.data()), size_(to_size(labels.size())) {}

    explicit operator bool() const { return labels_ != nullptr; }
    std::uint32_t size() const { return size_; }
    AnrLabel operator[](std::uint32_t i) const { return labels_[i]; }
    std::span<const AnrLabel> labels() const { return {labels_.get(), size_}; }

private:
    static std::uint32_t to_size(std::size_t n) {
        FASTNET_EXPECTS_MSG(n <= 0xffff'ffffu, "route longer than 2^32 labels");
        return static_cast<std::uint32_t>(n);
    }

    std::shared_ptr<const AnrLabel[]> labels_;
    std::uint32_t size_ = 0;
};

/// Base class for message payloads. Payloads are immutable once sent
/// (shared by every copy the hardware makes), mirroring how a copied
/// packet carries identical bits to every NCU on the path.
///
/// Concrete payload types derive TypedPayload<T> (below), so that
/// payload_as<T> is a pointer compare.
struct Payload {
    virtual ~Payload() = default;

    /// O(1) type tag; set by the TypedPayload<T> constructor.
    const void* fastnet_type_tag = nullptr;
};

/// CRTP helper: `struct Msg final : hw::TypedPayload<Msg> { ... };` gives
/// Msg a process-unique static tag so the delivery hot path never touches
/// RTTI.
template <typename T>
struct TypedPayload : Payload {
    TypedPayload() { fastnet_type_tag = tag(); }

    static const void* tag() {
        static const char unique = 0;
        return &unique;
    }
};

/// Labels a packet or delivery keeps: a short track in place (every hop
/// of a dense-graph broadcast path, a one-hop send's whole route), a
/// longer one in a heap array.
using LabelTrack = util::SmallVec<AnrLabel, 4>;

/// A packet in flight: a cursor over its route plus its own reverse
/// track. Cursors live in a pool owned by the network and keep the
/// track's capacity when released, so a warm send and every hop after it
/// allocate nothing.
struct Packet {
    Route route;                              ///< Shared forward labels; empty when
                                              ///< `track` holds them (a header send).
    /// A header send's forward labels (copied at send), then the reverse
    /// track: one back-label per hop, in traversal order.
    LabelTrack track;
    std::shared_ptr<const Payload> payload;   ///< Opaque content.
    std::uint64_t id = 0;                     ///< Unique per in-flight copy (diagnostics).
    /// Causal lineage: assigned at injection, inherited by every
    /// hardware copy and link-layer duplicate of this packet — the key
    /// the trace toolchain (src/obs/) reconstructs causal chains by.
    std::uint64_t lineage = 0;
    Tick sent_at = 0;                         ///< Injection time (latency sampling).
    Tick hop_sent_at = 0;                     ///< Transmit time of the current hop.
    std::uint32_t length = 0;                 ///< Forward labels in all.
    std::uint32_t offset = 0;                 ///< Labels consumed so far.
    NodeId origin = kNoNode;                  ///< Injecting node (diagnostics only).
    unsigned hops = 0;                        ///< Links traversed = reverse labels.

    bool header_empty() const { return offset >= length; }
    std::uint32_t remaining_len() const { return length - offset; }
    AnrLabel pop_label() {
        const std::uint32_t i = offset++;
        return route ? route[i] : track[i];
    }
    /// Appends the back-label of the hop that just arrived.
    void record_reverse(AnrLabel back) { track.push_back(back); }
    std::span<const AnrLabel> reverse_track() const {
        return track.span().subspan(route ? 0 : length);
    }
};

/// What an NCU receives: the payload and the packet's bookkeeping, plus
/// the reverse labels, copied out of the packet's track at the NCU
/// boundary. It keeps no route storage alive — a queued delivery holds
/// what its handler may read and nothing else.
class Delivery {
public:
    Delivery() = default;
    /// The hardware copy of `pkt` dropped at `node`'s NCU.
    Delivery(NodeId node, const Packet& pkt)
        : at(node),
          origin(pkt.origin),
          payload(pkt.payload),
          lineage(pkt.lineage),
          sent_at(pkt.sent_at),
          hops(pkt.hops),
          remaining_len_(pkt.remaining_len()),
          back_(pkt.reverse_track()) {}

    NodeId at = kNoNode;                      ///< Node whose NCU got the packet.
    NodeId origin = kNoNode;                  ///< Diagnostics only — protocols must carry
                                              ///< sender identity in the payload.
    std::shared_ptr<const Payload> payload;
    /// Causal lineage of the packet that produced this delivery
    /// (observability only; protocols must not branch on it).
    std::uint64_t lineage = 0;
    /// Injection time of the packet (observability only — the causal
    /// anchor of the kDeliver trace record and of latency attribution).
    Tick sent_at = 0;
    unsigned hops = 0;                        ///< Hardware hops travelled.

    /// Labels left on the route: non-zero iff this was a selective-copy
    /// drop mid-route.
    std::uint32_t remaining_len() const { return remaining_len_; }

    /// The port the packet entered this node's switch by; kNcuPort when
    /// it never left its origin's switch. Equals reverse().front().port().
    PortId arrival_port() const {
        return back_.empty() ? kNcuPort : back_[back_.size() - 1].port();
    }

    /// The route back to the injecting NCU (built on each call).
    AnrHeader reverse() const {
        AnrHeader h(back_.span().rbegin(), back_.span().rend());
        h.push_back(AnrLabel::normal(kNcuPort));
        return h;
    }

private:
    std::uint32_t remaining_len_ = 0;
    LabelTrack back_;  ///< Back-labels in traversal order.
};

// Every queued NCU work item is this wide (node/runtime.hpp).
static_assert(sizeof(Delivery) <= 72, "keep queued deliveries compact");

/// Convenience downcast for payloads: an O(1) tag compare; returns
/// nullptr on type mismatch.
template <typename T>
const T* payload_as(const Delivery& d) {
    static_assert(std::is_base_of_v<TypedPayload<T>, T>,
                  "payload types derive hw::TypedPayload<T>");
    if (d.payload != nullptr && d.payload->fastnet_type_tag == TypedPayload<T>::tag())
        return static_cast<const T*>(d.payload.get());
    return nullptr;
}

}  // namespace fastnet::hw
