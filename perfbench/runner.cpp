#include "runner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <random>

#include <time.h>

#include "alloc_count.hpp"
#include "app/protocol.hpp"
#include "check/audit.hpp"
#include "util/buffer_pool.hpp"
#include "util/shared_payload.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

// CPU time of this thread. The simulation is single-threaded and never
// blocks, so this is its host time minus whatever the OS gave to other
// processes on a shared machine.
double cpu_seconds() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

std::int64_t ns_of(sim::Duration d) { return d.count(); }

// Closed-loop client population: connection i sends its next request from
// the callback that verifies the last byte of the previous response.
class Fleet {
public:
    Fleet(Deployment& d, Probe& probe, const Spec& spec, std::uint64_t seed,
          std::int64_t plant_op)
        : d_(d), probe_(probe), spec_(spec), rng_(seed ^ 0x7065'7266'6265'6e63ULL),
          conns_(spec.connections), plant_op_(plant_op) {}

    Fleet(const Fleet&) = delete;
    Fleet& operator=(const Fleet&) = delete;

    // Generator state: one connect event per connection, the crash and the
    // deadline. Runs during set-up, before the first simulated event.
    void schedule() {
        // Connection 0 opens alone and the rest follow kArpWarmup later, so
        // the burst meets resolved ARP caches: HostStack queues at most 64
        // packets per unresolved address, and a cold-cache burst would lose
        // SYNs to that cap and stall the connect phase for the 1 s initial RTO.
        for (std::size_t i = 0; i < conns_.size(); ++i) {
            const sim::Duration at =
                i == 0 ? sim::Duration{0} : kArpWarmup + staggered(i - 1, spec_.syn_spacing);
            d_.sim.schedule_at(sim::TimePoint{} + at, [this, i] {
                probe_.mark_bench();
                connect(i);
            });
        }
        if (spec_.crash_at.count() > 0) {
            d_.sim.schedule_at(sim::TimePoint{} + spec_.crash_at, [this] {
                probe_.mark_bench();
                crash();
            });
        }
        d_.sim.schedule_at(sim::TimePoint{} + spec_.deadline, [this] {
            probe_.mark_bench();
            deadline_hit_ = true;
        });
        d_.st_backup->set_on_failover([this](sim::TimePoint suspected, sim::TimePoint done) {
            probe_.mark_failover();
            suspected_at_ = suspected;
            takeover_at_ = done;
        });
    }

    [[nodiscard]] bool done() const {
        if (deadline_hit_) return true;
        if (finished_conns_ < conns_.size()) return false;
        // Uploads also wait for the backup's replica to consume the stream.
        return spec_.app.upload_size == 0 ||
               d_.backup_app.stats().upload_bytes_received >= expected_upload();
    }

    [[nodiscard]] std::uint64_t expected_upload() const {
        return spec_.planned_ops() * spec_.app.upload_size;
    }

    void finish(Iteration& it) const {
        it.completed_ops = completed_;
        it.verified_bytes = verified_bytes_;
        it.request_phase_ns = ns_of(last_completion_ - requests_start_);
        const std::int64_t deadline_latency =
            ns_of(sim::TimePoint{} + spec_.deadline - requests_start_);
        it.latency_ns = latency_ns_;
        it.latency_ns.resize(spec_.planned_ops(), deadline_latency);

        if (crashed_) {
            const bool took_over = takeover_at_ != sim::TimePoint{};
            const sim::TimePoint end = sim::TimePoint{} + spec_.deadline;
            it.detect_ns = ns_of((took_over ? suspected_at_ : end) - crash_time_);
            it.takeover_ns = ns_of((took_over ? takeover_at_ : end) - crash_time_);
            for (const Conn& c : conns_) {
                if (!c.outstanding_at_crash) continue;
                const sim::TimePoint first = c.recovered ? c.first_byte_after_takeover : end;
                it.recovery_ns.push_back(ns_of(first - crash_time_));
                it.resume_ns.push_back(ns_of(first - (took_over ? takeover_at_ : end)));
            }
        }
        if (verify_errors_ > 0) {
            it.errors.push_back("response verification failed: " +
                                std::to_string(verify_errors_) + " wrong bytes, first " +
                                first_verify_error_);
        }
        if (send_errors_ > 0) {
            it.errors.push_back(std::to_string(send_errors_) +
                                " requests did not fit in the send buffer");
        }
    }

    // CPU time when the last connection was established; 0 if none was.
    [[nodiscard]] double connected_cpu_time() const { return connected_cpu_; }
    [[nodiscard]] std::int64_t heap_at_connected() const { return heap_at_connected_; }
    [[nodiscard]] std::uint64_t client_upload_sent() const { return upload_sent_total_; }

    // Stats of every client connection, including any already closed.
    template <typename F>
    void for_each_connection(F&& f) const {
        for (const Conn& c : conns_) {
            if (c.tcp) f(*c.tcp);
        }
    }

private:
    static constexpr sim::Duration kArpWarmup = sim::milliseconds{1};

    struct Conn {
        std::shared_ptr<tcp::TcpConnection> tcp;
        std::uint32_t round = 0;        // ops completed on this connection
        std::uint64_t received = 0;     // bytes of the current response
        std::uint64_t upload_sent = 0;  // bytes of the current upload queued
        sim::TimePoint sent_at{};
        bool outstanding = false;
        bool outstanding_at_crash = false;
        bool recovered = false;
        sim::TimePoint first_byte_after_takeover{};
    };

    sim::Duration staggered(std::size_t i, sim::Duration spacing) {
        const auto step = static_cast<std::uint64_t>(spacing.count());
        const std::uint64_t jitter = step > 0 ? rng_() % step : 0;
        return sim::Duration{static_cast<std::int64_t>(i * step + jitter)};
    }

    [[nodiscard]] std::uint32_t op_id(std::size_t i) const {
        return static_cast<std::uint32_t>(i * spec_.app.rounds + conns_[i].round);
    }

    void connect(std::size_t i) {
        Conn& c = conns_[i];
        c.tcp = d_.client.tcp_connect(kServiceIp, kServicePort);
        tcp::TcpConnection::Callbacks cbs;
        cbs.on_established = [this] { on_established(); };
        cbs.on_readable = [this, i] { on_readable(i); };
        if (spec_.app.upload_size > 0) cbs.on_writable = [this, i] { pump_upload(i); };
        c.tcp->set_callbacks(std::move(cbs));
    }

    void on_established() {
        if (++established_ < conns_.size()) return;
        // Connect phase over: every connection is up. Start the request
        // phase with one staggered kick per connection.
        connected_cpu_ = cpu_seconds();
        heap_at_connected_ = live_heap_bytes();
        requests_start_ = d_.sim.now();
        last_completion_ = requests_start_;
        for (std::size_t i = 0; i < conns_.size(); ++i) {
            d_.sim.schedule_after(staggered(i, spec_.kick_spacing), [this, i] {
                probe_.mark_bench();
                send_request(i);
            });
        }
    }

    void send_request(std::size_t i) {
        Conn& c = conns_[i];
        const std::uint32_t id = op_id(i);
        std::array<std::uint8_t, app::kRequestSize> req{};
        const std::array<std::uint32_t, 3> header = {id, spec_.app.response_size,
                                                     spec_.app.upload_size};
        for (std::size_t w = 0; w < header.size(); ++w) {
            for (std::size_t b = 0; b < 4; ++b)
                req[w * 4 + b] = static_cast<std::uint8_t>(header[w] >> (24 - 8 * b));
        }
        for (std::size_t k = header.size() * 4; k < req.size(); ++k)
            req[k] = app::response_byte(id, k);
        if (c.tcp->send(req) != req.size()) {
            ++send_errors_;
            return;
        }
        c.sent_at = d_.sim.now();
        c.received = 0;
        c.upload_sent = 0;
        c.outstanding = true;
        pump_upload(i);
    }

    void pump_upload(std::size_t i) {
        Conn& c = conns_[i];
        if (!c.outstanding) return;
        const std::uint32_t id = op_id(i);
        while (c.upload_sent < spec_.app.upload_size) {
            const auto len = static_cast<std::size_t>(
                std::min<std::uint64_t>(tx_buf_.size(), spec_.app.upload_size - c.upload_sent));
            for (std::size_t k = 0; k < len; ++k)
                tx_buf_[k] = app::upload_byte(id, c.upload_sent + k);
            const std::size_t n = c.tcp->send(std::span<const std::uint8_t>{tx_buf_.data(), len});
            c.upload_sent += n;
            upload_sent_total_ += n;
            if (n < len) return;  // backpressured; on_writable resumes
        }
    }

    void on_readable(std::size_t i) {
        Conn& c = conns_[i];
        std::array<std::uint8_t, 8 * 1024>& buf = rx_buf_;
        while (std::size_t n = c.tcp->read(buf)) {
            if (!c.outstanding) {
                ++verify_errors_;  // bytes nobody asked for
                note_error(i, 0, 0, buf[0]);
                continue;
            }
            const std::uint32_t id = op_id(i);
            if (static_cast<std::int64_t>(id) == plant_op_ && c.received == 0) buf[0] ^= 0xff;
            if (takeover_at_ != sim::TimePoint{} && c.outstanding_at_crash && !c.recovered) {
                c.recovered = true;
                c.first_byte_after_takeover = d_.sim.now();
            }
            const std::uint32_t header[2] = {id, spec_.app.response_size};
            for (std::size_t k = 0; k < n; ++k) {
                const std::uint64_t off = c.received + k;
                const std::uint8_t want =
                    off < app::kHeaderSize
                        ? static_cast<std::uint8_t>(header[off / 4] >> (24 - 8 * (off % 4)))
                        : app::response_byte(id, off);
                if (buf[k] != want) {
                    ++verify_errors_;
                    note_error(i, off, want, buf[k]);
                }
            }
            c.received += n;
            if (c.received > spec_.app.response_size) {
                ++verify_errors_;
                note_error(i, c.received, 0, 0);
            }
            if (c.received >= spec_.app.response_size) complete(i);
        }
    }

    void complete(std::size_t i) {
        Conn& c = conns_[i];
        c.outstanding = false;
        latency_ns_.push_back(ns_of(d_.sim.now() - c.sent_at));
        ++completed_;
        verified_bytes_ += app::kRequestSize + spec_.app.upload_size + spec_.app.response_size;
        last_completion_ = d_.sim.now();
        if (++c.round < spec_.app.rounds) {
            send_request(i);
        } else {
            ++finished_conns_;
        }
    }

    void crash() {
        crashed_ = true;
        crash_time_ = d_.sim.now();
        for (Conn& c : conns_) c.outstanding_at_crash = c.outstanding;
        d_.primary_node.power_off();
    }

    void note_error(std::size_t i, std::uint64_t off, std::uint8_t want, std::uint8_t got) {
        if (!first_verify_error_.empty()) return;
        first_verify_error_ = "conn " + std::to_string(i) + " op " + std::to_string(op_id(i)) +
                              " offset " + std::to_string(off) + " expected " +
                              std::to_string(want) + " got " + std::to_string(got);
    }

    Deployment& d_;
    Probe& probe_;
    const Spec& spec_;
    std::mt19937_64 rng_;
    std::vector<Conn> conns_;
    std::int64_t plant_op_;

    std::size_t established_ = 0;
    std::size_t finished_conns_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t verified_bytes_ = 0;
    std::uint64_t upload_sent_total_ = 0;
    std::vector<std::int64_t> latency_ns_;
    sim::TimePoint requests_start_{};
    sim::TimePoint last_completion_{};
    double connected_cpu_ = 0;
    std::int64_t heap_at_connected_ = 0;

    bool deadline_hit_ = false;
    bool crashed_ = false;
    sim::TimePoint crash_time_{};
    sim::TimePoint suspected_at_{};
    sim::TimePoint takeover_at_{};

    std::uint64_t verify_errors_ = 0;
    std::uint64_t send_errors_ = 0;
    std::string first_verify_error_;

    // Buffers for the client's reads and upload writes, allocated once.
    std::array<std::uint8_t, 8 * 1024> rx_buf_{};
    std::array<std::uint8_t, 8 * 1024> tx_buf_{};
};

// Puts the thread-local payload pools in the same state before every
// iteration — node pool full, buffer pool empty — so that allocation counts
// repeat exactly from one iteration to the next.
void reset_payload_pools() {
    {
        std::vector<util::SharedPayload> fill;
        fill.reserve(util::BufferPool::kMaxFree);
        const std::uint8_t byte = 0;
        for (std::size_t k = 0; k < util::BufferPool::kMaxFree; ++k)
            fill.emplace_back(util::ByteView{&byte, 1});
    }
    util::BufferPool::instance().drain();
}

struct Span {
    std::uint64_t start_ns;
    std::uint32_t duration_ns;
    std::uint16_t allocs;  // saturating; exact totals are kept per class
    EventClass cls;
};

} // namespace

std::optional<Spec> make_spec(std::string_view name, bool toy) {
    Spec s;
    s.name = std::string{name};
    if (name == "echo_10k") {
        s.connections = toy ? 40 : 10000;
        s.app = app::Workload::echo();
        s.app.rounds = 3;
        s.buffer_bytes = 2048;
        s.syn_spacing = sim::microseconds{2};
        s.kick_spacing = sim::microseconds{1};
        s.deadline = sim::seconds{60};
    } else if (name == "upload_bulk") {
        s.connections = toy ? 4 : 8;
        s.app = app::Workload::upload_kb(toy ? 16 : 2048, toy ? 2 : 3);
        s.buffer_bytes = 32 * 1024;
        s.syn_spacing = sim::microseconds{100};
        s.kick_spacing = sim::microseconds{100};
        s.deadline = sim::seconds{60};
        s.trials = 8;
    } else if (name == "failover_1k") {
        s.connections = toy ? 30 : 1000;
        s.app = app::Workload::interactive();
        s.app.rounds = toy ? 20 : 10;
        s.buffer_bytes = 16 * 1024;
        s.syn_spacing = sim::microseconds{2};
        s.kick_spacing = sim::microseconds{2};
        s.crash_at = toy ? sim::milliseconds{20} : sim::milliseconds{400};
        s.deadline = s.crash_at + sim::seconds{30};
    } else {
        return std::nullopt;
    }
    return s;
}

double percentile_ms(std::vector<std::int64_t> values, double p) {
    if (values.empty()) return 0;
    std::sort(values.begin(), values.end());
    auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(values.size())));
    rank = std::clamp<std::size_t>(rank, 1, values.size());
    return static_cast<double>(values[rank - 1]) / 1e6;
}

Iteration run_iteration(const Spec& spec, std::uint64_t seed, const RunOptions& options) {
    Iteration it;
    std::vector<Span> spans;
    if (options.traced) spans.reserve(options.span_capacity);
    reset_payload_pools();
    const std::uint64_t violations0 = check::Audit::violation_count();

    const double cpu_setup = cpu_seconds();
    const std::int64_t heap0 = live_heap_bytes();

    tcp::TcpConfig tcp_config;
    tcp_config.send_buffer_size = spec.buffer_bytes;
    tcp_config.recv_buffer_size = spec.buffer_bytes;
    Deployment d{seed, tcp_config};
    Probe probe{d};
    Fleet fleet{d, probe, spec, seed, options.plant_wrong_byte_op};
    fleet.schedule();

    sim::EventQueue& q = d.sim.queue();
    const std::uint64_t allocs0 = alloc_count();
    const double cpu_first = cpu_seconds();
    const Clock::time_point t_first = Clock::now();
    it.setup_s = cpu_first - cpu_setup;
    if (options.setup_only) return it;
    // The traced and untraced loops execute exactly the same step() calls;
    // only the clock and counter reads around each event differ.
    if (options.traced) {
        while (!fleet.done()) {
            probe.begin_event();
            const Probe::Snapshot before = probe.snapshot();
            const std::uint64_t a0 = alloc_count();
            const Clock::time_point e0 = Clock::now();
            const bool ran = q.step();
            const Clock::time_point e1 = Clock::now();
            const std::uint64_t a1 = alloc_count();
            if (!ran) break;
            const EventClass cls = probe.classify(before);
            const auto dur = static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(e1 - e0).count());
            ClassTotals& totals = it.classes[static_cast<std::size_t>(cls)];
            ++totals.events;
            totals.ns += dur;
            totals.allocs += a1 - a0;
            if (spans.size() < spans.capacity()) {
                spans.push_back(Span{static_cast<std::uint64_t>(
                                         std::chrono::duration_cast<std::chrono::nanoseconds>(
                                             e0 - t_first)
                                             .count()),
                                     static_cast<std::uint32_t>(std::min<std::uint64_t>(
                                         dur, UINT32_MAX)),
                                     static_cast<std::uint16_t>(
                                         std::min<std::uint64_t>(a1 - a0, UINT16_MAX)),
                                     cls});
            }
        }
    } else {
        while (!fleet.done()) {
            probe.begin_event();
            if (!q.step()) break;
        }
    }
    const Clock::time_point t_end = Clock::now();
    const double cpu_end = cpu_seconds();
    const std::uint64_t loop_allocs = alloc_count() - allocs0;

    const double cpu_connected =
        fleet.connected_cpu_time() == 0 ? cpu_end : fleet.connected_cpu_time();
    it.connect_s = cpu_connected - cpu_first;
    it.request_s = cpu_end - cpu_connected;
    it.loop_s = cpu_end - cpu_first;
    it.loop_wall_s = seconds_between(t_first, t_end);
    for (const ClassTotals& c : it.classes) it.span_s += static_cast<double>(c.ns) / 1e9;
    it.heap_bytes_per_conn =
        (fleet.heap_at_connected() - heap0) / static_cast<std::int64_t>(spec.connections);
    fleet.finish(it);

    // ---- self-checks ------------------------------------------------------
    if (const std::uint64_t v = check::Audit::violation_count() - violations0; v > 0)
        it.errors.push_back("auditor reported " + std::to_string(v) + " violations");
    if (probe.early_backup_egress() > 0) {
        it.errors.push_back("backup sent " + std::to_string(probe.early_backup_egress()) +
                            " TCP frames from the service IP before takeover");
    }
    const std::uint64_t up_p = d.primary_app.stats().upload_bytes_received;
    const std::uint64_t up_b = d.backup_app.stats().upload_bytes_received;
    const bool all_done = it.completed_ops == spec.planned_ops();
    for (const std::uint64_t up : {up_p, up_b}) {
        if (all_done ? up != fleet.expected_upload() : up > fleet.client_upload_sent()) {
            it.errors.push_back("server upload byte count " + std::to_string(up) +
                                " does not match the client's " +
                                std::to_string(fleet.expected_upload()));
        }
    }

    // ---- exact counts -------------------------------------------------------
    auto add = [&it](const char* name, std::uint64_t v) { it.counts.emplace_back(name, v); };
    std::uint64_t retransmits = 0;
    std::uint64_t client_segments = 0;
    fleet.for_each_connection([&](const tcp::TcpConnection& c) {
        retransmits += c.stats().retransmits;
        client_segments += c.stats().segments_sent;
    });
    for (const tcp::HostStack* stack : {&d.primary, &d.backup}) {
        for (const auto& c : stack->connections()) retransmits += c->stats().retransmits;
    }
    const auto& ps = d.st_primary->stats();
    const auto& bs = d.st_backup->stats();
    add("sim.events", q.executed());
    add("sim.order_digest", q.order_digest());
    add("sim.scheduled", q.scheduled());
    add("sim.peak_pending", q.peak_pending());
    add("alloc.loop", loop_allocs);
    add("ops.completed", it.completed_ops);
    add("bytes.verified", it.verified_bytes);
    add("net.hub.frames", d.hub.stats().frames_repeated);
    add("net.link.client.drops", d.client_link.stats().frames_dropped_queue);
    add("net.link.primary.drops", d.primary_link.stats().frames_dropped_queue);
    add("net.link.backup.drops", d.backup_link.stats().frames_dropped_queue);
    std::uint64_t rx = 0;
    std::uint64_t filtered = 0;
    for (const net::Nic* nic : {&d.client_nic, &d.primary_nic, &d.backup_nic}) {
        rx += nic->stats().rx_frames;
        filtered += nic->stats().rx_filtered;
    }
    add("net.nic.rx", rx);
    add("net.nic.filtered", filtered);
    add("tcp.retransmits", retransmits);
    add("tcp.client.segments", client_segments);
    add("tcp.backup.suppressed", d.backup.stats().tcp_segments_suppressed);
    add("sttcp.primary.heartbeats", ps.heartbeats_sent);
    add("sttcp.primary.acks_received", ps.backup_acks_received);
    add("sttcp.primary.bytes_released", ps.bytes_released);
    add("sttcp.primary.datagrams", d.st_primary->control_channel_stats().datagrams_sent);
    add("sttcp.backups_declared_dead", ps.backups_declared_dead);
    add("sttcp.backup.acks", bs.acks_sent);
    add("sttcp.backup.heartbeats", bs.heartbeats_sent);
    add("sttcp.backup.gaps", bs.gaps_detected);
    add("sttcp.backup.datagrams", d.st_backup->control_channel_stats().datagrams_sent);
    add("sttcp.backup.failovers", bs.failovers);
    add("app.primary.requests", d.primary_app.stats().requests_served);
    add("app.backup.requests", d.backup_app.stats().requests_served);
    add("app.primary.upload_bytes", up_p);
    add("app.backup.upload_bytes", up_b);
    add("virtual.request_phase_ns", static_cast<std::uint64_t>(it.request_phase_ns));
    std::uint64_t latency_sum = 0;
    for (std::int64_t v : it.latency_ns) latency_sum += static_cast<std::uint64_t>(v);
    add("virtual.latency_sum_ns", latency_sum);
    add("virtual.detect_ns", static_cast<std::uint64_t>(it.detect_ns));
    add("virtual.takeover_ns", static_cast<std::uint64_t>(it.takeover_ns));
    std::uint64_t recovery_sum = 0;
    for (std::int64_t v : it.recovery_ns) recovery_sum += static_cast<std::uint64_t>(v);
    add("virtual.recovery_sum_ns", recovery_sum);
    add("heap.bytes_per_conn", static_cast<std::uint64_t>(it.heap_bytes_per_conn));

    if (options.traced && !options.spans_out.empty()) {
        std::ofstream out{options.spans_out, std::ios::binary};
        out.write(reinterpret_cast<const char*>(spans.data()),
                  static_cast<std::streamsize>(spans.size() * sizeof(Span)));
    }
    return it;
}

} // namespace perfbench
