// Event classification for the traced run, from public hooks only.
//
// The benchmark drives the queue one EventQueue::step() at a time. The Probe
// watches what each event did — which hub link delivered a frame and to
// whom (Link::set_observer), which counters of the receiving Nic and the
// ST-TCP engines moved (stats() deltas), whether the failover callback or a
// benchmark-scheduled callback ran — and charges the event to exactly one
// class. The same observers run in untraced runs, so tracing never changes
// what the simulation executes.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "deployment.hpp"

namespace perfbench {

enum class EventClass : std::uint8_t {
    kNetHub,         // a frame delivered into a hub port and repeated
    kNetNicFiltered, // a frame the receiving NIC dropped (filter or power)
    kTcpRxClient,    // an accepted non-control frame into the client
    kTcpRxPrimary,
    kTcpRxBackup,
    kCtlPrimary,     // an accepted control datagram into the primary
    kCtlBackup,
    kSttcpTimer,     // a timer that sent ST-TCP heartbeats or acks
    kSttcpTakeover,  // the event that fired the failover callback
    kTcpTimer,       // every other timer: RTO, delayed ACK, ARP, detectors
    kBenchClient,    // events the benchmark scheduled itself
    kCount,
};

inline constexpr std::size_t kClassCount = static_cast<std::size_t>(EventClass::kCount);
inline constexpr std::array<std::string_view, kClassCount> kClassNames = {
    "net.hub",          "net.nic_filtered",  "tcp.rx.client", "tcp.rx.primary",
    "tcp.rx.backup",    "sttcp.ctl.primary", "sttcp.ctl.backup", "sttcp.timer",
    "sttcp.takeover",   "tcp.timer",         "bench.client",
};

class Probe {
public:
    // Counters read before and after one event.
    struct Snapshot {
        std::array<std::uint64_t, 3> nic_rx{};  // client, primary, backup
        std::uint64_t sttcp_sends = 0;          // heartbeats + acks, all engines
    };

    explicit Probe(Deployment& d) : d_(d) {
        d.client_link.set_observer([this](const net::EthernetFrame& f,
                                          const net::FrameEndpoint& rx) { observe(f, rx); });
        d.primary_link.set_observer([this](const net::EthernetFrame& f,
                                           const net::FrameEndpoint& rx) { observe(f, rx); });
        d.backup_link.set_observer([this](const net::EthernetFrame& f,
                                          const net::FrameEndpoint& rx) {
            observe(f, rx);
            // Zero backup egress before takeover (paper §4.1): no TCP frame
            // sourced from the service IP may leave the backup's NIC.
            if (&rx != &d_.backup_nic && !failover_seen_ && is_service_tcp(f))
                ++early_backup_egress_;
        });
    }

    Probe(const Probe&) = delete;
    Probe& operator=(const Probe&) = delete;

    // Benchmark callbacks and the failover callback announce themselves.
    void mark_bench() { bench_ = true; }
    void mark_failover() {
        failover_ = true;
        failover_seen_ = true;
    }

    void begin_event() {
        bench_ = false;
        failover_ = false;
        rx_ = nullptr;
    }

    [[nodiscard]] Snapshot snapshot() const {
        Snapshot s;
        s.nic_rx = {d_.client_nic.stats().rx_frames, d_.primary_nic.stats().rx_frames,
                    d_.backup_nic.stats().rx_frames};
        const auto& ps = d_.st_primary->stats();
        const auto& bs = d_.st_backup->stats();
        s.sttcp_sends = ps.heartbeats_sent + bs.heartbeats_sent + bs.acks_sent;
        if (const core::SttcpPrimary* promoted = d_.st_backup->promoted())
            s.sttcp_sends += promoted->stats().heartbeats_sent;
        return s;
    }

    [[nodiscard]] EventClass classify(const Snapshot& before) const {
        if (bench_) return EventClass::kBenchClient;
        if (rx_ != nullptr) {
            const std::array<const net::Nic*, 3> nics = {&d_.client_nic, &d_.primary_nic,
                                                         &d_.backup_nic};
            for (std::size_t host = 0; host < nics.size(); ++host) {
                if (rx_ != nics[host]) continue;
                if (nics[host]->stats().rx_frames == before.nic_rx[host])
                    return EventClass::kNetNicFiltered;
                if (proto_ == kUdp && host > 0)
                    return host == 1 ? EventClass::kCtlPrimary : EventClass::kCtlBackup;
                return static_cast<EventClass>(static_cast<int>(EventClass::kTcpRxClient) +
                                               static_cast<int>(host));
            }
            return EventClass::kNetHub;
        }
        if (failover_) return EventClass::kSttcpTakeover;
        if (snapshot().sttcp_sends != before.sttcp_sends) return EventClass::kSttcpTimer;
        return EventClass::kTcpTimer;
    }

    [[nodiscard]] bool failover_seen() const { return failover_seen_; }
    [[nodiscard]] std::uint64_t early_backup_egress() const { return early_backup_egress_; }

private:
    static constexpr std::uint8_t kTcp = 6;
    static constexpr std::uint8_t kUdp = 17;
    static constexpr std::size_t kIpProtoOffset = 9;
    static constexpr std::size_t kIpSrcOffset = 12;

    static std::uint8_t ip_proto(const net::EthernetFrame& f) {
        if (f.type != net::EtherType::kIpv4 || f.payload.size() <= kIpSrcOffset + 4) return 0;
        return f.payload.data()[kIpProtoOffset];
    }
    static bool is_service_tcp(const net::EthernetFrame& f) {
        if (ip_proto(f) != kTcp) return false;
        const std::uint8_t* src = f.payload.data() + kIpSrcOffset;
        const std::uint32_t ip = static_cast<std::uint32_t>(src[0]) << 24 |
                                 static_cast<std::uint32_t>(src[1]) << 16 |
                                 static_cast<std::uint32_t>(src[2]) << 8 | src[3];
        return ip == kServiceIp.value();
    }

    void observe(const net::EthernetFrame& f, const net::FrameEndpoint& rx) {
        rx_ = &rx;
        proto_ = ip_proto(f);
    }

    Deployment& d_;
    bool bench_ = false;
    bool failover_ = false;
    bool failover_seen_ = false;
    const net::FrameEndpoint* rx_ = nullptr;
    std::uint8_t proto_ = 0;
    std::uint64_t early_backup_egress_ = 0;
};

} // namespace perfbench
