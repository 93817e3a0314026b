// perfbench_sim: runs one benchmark workload in one process on one thread
// and prints one JSON line.
//
//   perfbench_sim --workload NAME --seed N --seconds S --mode timed|trace
//                 [--toy] [--plant-wrong-byte] [--spans-out PATH]
//
// timed: runs the untraced workload once for each of the spec's trial seeds
//        derived from N, then keeps cycling through them until S host
//        seconds have passed. Host-time results are medians over every
//        iteration; virtual-time results pool the ops of the trials.
// trace: alternates untraced and traced iterations of seed N itself until S
//        seconds have passed (at least one pair) and reports per-class self
//        time, events and allocations.
// Iterations of one trial seed must produce identical counts and virtual
// results; any self-check failure exits 1 after printing the JSON line.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "check/audit.hpp"
#include "runner.hpp"

using namespace perfbench;

namespace {

constexpr int kSetupRepeats = 25;  // per iteration

std::uint64_t trial_seed(std::uint64_t seed, std::size_t trial) {
    return seed + trial * 0x9e37'79b9'7f4a'7c15ULL;
}

double median(std::vector<double> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string num(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

class JsonObject {
public:
    JsonObject& add_raw(const std::string& key, const std::string& raw) {
        body_ += (body_.empty() ? "" : ", ") + json_string(key) + ": " + raw;
        return *this;
    }
    JsonObject& add(const std::string& key, double v) { return add_raw(key, num(v)); }
    JsonObject& add(const std::string& key, std::uint64_t v) {
        return add_raw(key, std::to_string(v));
    }
    JsonObject& add(const std::string& key, const std::string& v) {
        return add_raw(key, json_string(v));
    }
    JsonObject& metric(const std::string& key, double v, const std::string& unit) {
        return add_raw(key, "{\"value\": " + num(v) + ", \"unit\": " + json_string(unit) + "}");
    }
    [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

private:
    std::string body_;
};

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Virtual-time results, exact for a given seed, over the ops of `trials`
// pooled: percentiles over every op, goodput over the summed request
// phases, failover phases averaged.
void add_virtual_metrics(JsonObject& m, const Spec& spec, const std::vector<Iteration>& trials) {
    std::vector<std::int64_t> latency, recovery, resume;
    double bytes = 0, phase_ns = 0, completed = 0, detect_ns = 0, takeover_ns = 0;
    for (const Iteration& it : trials) {
        latency.insert(latency.end(), it.latency_ns.begin(), it.latency_ns.end());
        recovery.insert(recovery.end(), it.recovery_ns.begin(), it.recovery_ns.end());
        resume.insert(resume.end(), it.resume_ns.begin(), it.resume_ns.end());
        bytes += static_cast<double>(it.verified_bytes);
        phase_ns += static_cast<double>(it.request_phase_ns);
        completed += static_cast<double>(it.completed_ops);
        detect_ns += static_cast<double>(it.detect_ns);
        takeover_ns += static_cast<double>(it.takeover_ns);
    }
    const auto n = static_cast<double>(trials.size());
    const double planned = static_cast<double>(spec.planned_ops()) * n;
    m.metric("vlatency_p50_ms", percentile_ms(latency, 0.50), "ms");
    m.metric("vlatency_p99_ms", percentile_ms(latency, 0.99), "ms");
    m.metric("vlatency_p999_ms", percentile_ms(latency, 0.999), "ms");
    m.metric("vgoodput_Mbps", phase_ns > 0 ? bytes * 8e3 / phase_ns : 0, "Mb/s");
    m.metric("failed_share", (planned - completed) / planned, "ratio");
    if (spec.crash_at.count() > 0) {
        m.metric("detect_ms", detect_ns / n / 1e6, "ms");
        m.metric("takeover_ms", takeover_ns / n / 1e6, "ms");
        m.metric("fence_ms", (takeover_ns - detect_ns) / n / 1e6, "ms");
        m.metric("recovery_p50_ms", percentile_ms(recovery, 0.50), "ms");
        m.metric("recovery_p99_ms", percentile_ms(recovery, 0.99), "ms");
        m.metric("resume_p50_ms", percentile_ms(resume, 0.50), "ms");
        m.metric("resume_p99_ms", percentile_ms(resume, 0.99), "ms");
    }
}

// Iterations `period` apart ran the same seed and must match count for count.
void check_repeatable(const std::vector<Iteration>& its, std::size_t period,
                      std::vector<std::string>& errors) {
    for (std::size_t k = period; k < its.size(); ++k) {
        const Iteration& a = its[k - period];
        const Iteration& b = its[k];
        for (std::size_t j = 0; j < a.counts.size() && j < b.counts.size(); ++j) {
            if (a.counts[j].second != b.counts[j].second) {
                errors.push_back("iteration " + std::to_string(k) + " differs from iteration " +
                                 std::to_string(k - period) + " of the same seed in " +
                                 a.counts[j].first + ": " + std::to_string(b.counts[j].second) +
                                 " vs " + std::to_string(a.counts[j].second));
            }
        }
    }
}

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench_sim --workload echo_10k|upload_bulk|failover_1k --seed N "
                 "--seconds S --mode timed|trace [--toy] [--plant-wrong-byte] "
                 "[--spans-out PATH]\n");
    return 2;
}

} // namespace

int main(int argc, char** argv) {
    std::string workload;
    std::string mode = "timed";
    std::string spans_out;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool toy = false;
    bool plant = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--workload" && has_value) {
            workload = argv[++i];
        } else if (arg == "--seed" && has_value) {
            seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds" && has_value) {
            seconds = std::strtod(argv[++i], nullptr);
        } else if (arg == "--mode" && has_value) {
            mode = argv[++i];
        } else if (arg == "--spans-out" && has_value) {
            spans_out = argv[++i];
        } else if (arg == "--toy") {
            toy = true;
        } else if (arg == "--plant-wrong-byte") {
            plant = true;
        } else {
            return usage();
        }
    }
    const std::optional<Spec> spec = make_spec(workload, toy);
    if (!spec || (mode != "timed" && mode != "trace")) return usage();

    using Clock = std::chrono::steady_clock;
    const Clock::time_point start = Clock::now();
    auto elapsed = [&start] { return std::chrono::duration<double>(Clock::now() - start).count(); };

    RunOptions untraced;
    untraced.plant_wrong_byte_op = plant ? 0 : -1;
    std::vector<Iteration> plain;    // untraced iterations
    std::vector<Iteration> traced;   // traced iterations (trace mode)
    std::vector<Iteration> all;      // both, in run order, for the repeatability check
    std::vector<std::string> errors;
    const bool timed = mode == "timed";
    const std::size_t trials = timed ? spec->trials : 1;
    // Set-up is short, so it is repeated on its own after every iteration,
    // sampling the machine across the whole run, and reported as a median.
    std::vector<double> setup;
    RunOptions setup_only;
    setup_only.setup_only = true;
    while (plain.size() < trials || elapsed() < seconds) {
        plain.push_back(run_iteration(*spec, trial_seed(seed, plain.size() % trials), untraced));
        all.push_back(plain.back());
        for (int k = 0; k < kSetupRepeats; ++k)
            setup.push_back(run_iteration(*spec, seed, setup_only).setup_s);
        if (!timed) {
            RunOptions opts = untraced;
            opts.traced = true;
            opts.span_capacity = static_cast<std::size_t>(plain.front().count("sim.events"));
            opts.spans_out = spans_out;
            traced.push_back(run_iteration(*spec, seed, opts));
            all.push_back(traced.back());
        }
        if (!all.back().errors.empty()) break;  // a failing self-check ends the run
    }
    for (const Iteration& it : all) {
        for (const std::string& e : it.errors) {
            if (std::find(errors.begin(), errors.end(), e) == errors.end()) errors.push_back(e);
        }
    }
    check_repeatable(all, trials, errors);

    const Iteration& first = plain.front();
    const std::vector<Iteration> pooled(
        plain.begin(), plain.begin() + static_cast<std::ptrdiff_t>(std::min(trials, plain.size())));
    const auto n_conns = static_cast<double>(spec->connections);
    JsonObject metrics;
    std::vector<double> connect_rate, request_rate, goodput, loop_untraced, loop_traced,
        wall_traced, span_traced;
    for (const Iteration& it : plain) {
        setup.push_back(it.setup_s);
        connect_rate.push_back(n_conns / it.connect_s);
        request_rate.push_back(static_cast<double>(it.completed_ops) / it.request_s);
        goodput.push_back(static_cast<double>(it.verified_bytes) / it.request_s / 1e6);
        loop_untraced.push_back(it.loop_s);
    }
    metrics.metric("setup_s", median(setup), "s");
    metrics.metric("connect_rate", median(connect_rate), "conn/s");
    metrics.metric("request_rate", median(request_rate), "req/s");
    metrics.metric("goodput_MBps", median(goodput), "MB/s");
    metrics.metric("peak_rss_MB", peak_rss_mb(), "MB");
    add_virtual_metrics(metrics, *spec, pooled);

    JsonObject counts;
    for (const auto& [name, value] : first.counts) counts.add(name, value);

    JsonObject classes;
    for (const Iteration& it : traced) {
        loop_traced.push_back(it.loop_s);
        wall_traced.push_back(it.loop_wall_s);
        span_traced.push_back(it.span_s);
    }
    for (std::size_t c = 0; c < kClassCount && !traced.empty(); ++c) {
        std::vector<double> ns;
        for (const Iteration& it : traced) ns.push_back(static_cast<double>(it.classes[c].ns));
        JsonObject cls;
        cls.add("events", traced.front().classes[c].events);
        cls.add("allocs", traced.front().classes[c].allocs);
        cls.add("ns", median(ns));
        classes.add_raw(std::string{kClassNames[c]}, cls.str());
    }

    JsonObject params;
    params.add("connections", static_cast<std::uint64_t>(spec->connections));
    params.add("rounds", static_cast<std::uint64_t>(spec->app.rounds));
    params.add("request_bytes", static_cast<std::uint64_t>(app::kRequestSize));
    params.add("response_bytes", static_cast<std::uint64_t>(spec->app.response_size));
    params.add("upload_bytes", static_cast<std::uint64_t>(spec->app.upload_size));
    params.add("tcp_buffer_bytes", static_cast<std::uint64_t>(spec->buffer_bytes));
    params.add("syn_spacing_us", static_cast<double>(spec->syn_spacing.count()) / 1e3);
    params.add("kick_spacing_us", static_cast<double>(spec->kick_spacing.count()) / 1e3);
    params.add("crash_at_ms", static_cast<double>(spec->crash_at.count()) / 1e6);
    params.add("deadline_ms", static_cast<double>(spec->deadline.count()) / 1e6);
    params.add("trials", static_cast<std::uint64_t>(trials));

    JsonObject loops;
    loops.add("untraced_s", median(loop_untraced));
    loops.add("traced_s", median(loop_traced));
    loops.add("traced_wall_s", median(wall_traced));
    loops.add("traced_span_s", median(span_traced));

    std::string error_list;
    for (const std::string& e : errors) error_list += (error_list.empty() ? "" : ", ") + json_string(e);

    JsonObject out;
    out.add("workload", spec->name);
    out.add("mode", mode);
    out.add_raw("audit", check::kEnabled ? "true" : "false");
    out.add("seed", seed);
    out.add("iterations", static_cast<std::uint64_t>(all.size()));
    out.add_raw("correct", errors.empty() ? "true" : "false");
    out.add_raw("errors", "[" + error_list + "]");
    std::uint64_t failed_ops = 0;
    for (const Iteration& it : all) failed_ops += spec->planned_ops() - it.completed_ops;
    out.add("planned_ops", spec->planned_ops() * all.size());
    out.add("failed_ops", failed_ops);
    out.add_raw("params", params.str());
    out.add_raw("metrics", metrics.str());
    out.add_raw("counts", counts.str());
    out.add_raw("classes", classes.str());
    out.add_raw("loops", loops.str());
    std::printf("%s\n", out.str().c_str());
    for (const std::string& e : errors) std::fprintf(stderr, "perfbench_sim: %s\n", e.c_str());
    return errors.empty() ? 0 : 1;
}
