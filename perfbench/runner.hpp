// One iteration of a benchmark workload: build the deployment, run the
// closed-loop client fleet to completion or to the virtual deadline, verify
// every byte, and collect host times, virtual-time results and exact counts.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "app/client_driver.hpp"
#include "probe.hpp"
#include "sim/time.hpp"

namespace perfbench {

// A workload's parameters; the benchmark prints them with its results.
struct Spec {
    std::string name;
    std::size_t connections = 0;
    app::Workload app;              // rounds, response and upload bytes per op
    std::size_t buffer_bytes = 0;   // TCP send and receive buffer, every stack
    sim::Duration syn_spacing{0};   // connect phase: SYN i leaves near i * spacing
    sim::Duration kick_spacing{0};  // first request of connection i near i * spacing
    sim::Duration crash_at{0};      // primary power-off, virtual; 0 = never
    sim::Duration deadline{0};      // virtual; ops not verified by then have failed
    // Trial seeds a timed run pools. Few closed-loop connections interleave
    // chaotically — one seed repeats exactly, but seeds differ by ~10% in
    // virtual goodput — so such a workload needs more trials per run.
    std::size_t trials = 4;

    [[nodiscard]] std::uint64_t planned_ops() const {
        return static_cast<std::uint64_t>(connections) * app.rounds;
    }
};

// `toy` shrinks every workload to tens of connections and KiB transfers.
[[nodiscard]] std::optional<Spec> make_spec(std::string_view name, bool toy);

struct ClassTotals {
    std::uint64_t events = 0;
    std::uint64_t ns = 0;
    std::uint64_t allocs = 0;
};

struct Iteration {
    // Host CPU seconds: setup (deployment and generator state, up to the
    // first event), connect phase, request phase, and the whole event loop.
    double setup_s = 0;
    double connect_s = 0;
    double request_s = 0;
    double loop_s = 0;
    // Wall-clock seconds of the event loop, and (traced only) the part of
    // it inside event spans.
    double loop_wall_s = 0;
    double span_s = 0;

    std::uint64_t completed_ops = 0;
    std::uint64_t verified_bytes = 0;  // both directions, completed ops only
    std::int64_t request_phase_ns = 0; // virtual: first request to last completion
    // Virtual ns; one entry per planned op (failed ops at the deadline) and
    // one per connection that had a request outstanding at the crash.
    std::vector<std::int64_t> latency_ns;
    std::vector<std::int64_t> recovery_ns;  // crash -> first byte after takeover
    std::vector<std::int64_t> resume_ns;    // takeover -> first byte after takeover
    std::int64_t detect_ns = 0;    // crash -> suspicion
    std::int64_t takeover_ns = 0;  // crash -> takeover complete
    std::int64_t heap_bytes_per_conn = 0;

    // Exact counts, compared for equality between every iteration of a
    // seed, traced or not.
    std::vector<std::pair<const char*, std::uint64_t>> counts;
    [[nodiscard]] std::uint64_t count(std::string_view name) const {
        for (const auto& [key, value] : counts) {
            if (key == name) return value;
        }
        return 0;
    }
    std::array<ClassTotals, kClassCount> classes{};  // traced only

    // Self-check failures; empty when the run is correct.
    std::vector<std::string> errors;
};

struct RunOptions {
    bool setup_only = false;  // build the deployment and generator, then stop
    bool traced = false;
    std::size_t span_capacity = 0;   // preallocated spans (traced only)
    std::int64_t plant_wrong_byte_op = -1;  // corrupt one byte of this op's response
    std::string spans_out;           // write raw spans here (traced only)
};

[[nodiscard]] Iteration run_iteration(const Spec& spec, std::uint64_t seed,
                                      const RunOptions& options);

// Nearest-rank percentile of ns values, in ms.
[[nodiscard]] double percentile_ms(std::vector<std::int64_t> values, double p);

} // namespace perfbench
