// Shared pieces of the perfbench binary: run options, the result record
// every workload fills, process-level probes (CPU time, peak RSS) and
// the small statistics helpers the workloads report with.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// serve_mixed only: closed-loop capacity probe instead of the
    /// open-loop run (used to choose the offered rate).
    bool capacity = false;
    /// Scratch directory for campaign dirs and the exported trace.
    std::string work_dir = ".bench_work";
};

/// One workload's outcome. `metrics` maps name -> (value, unit); an
/// untraced run fills the end-to-end names, a traced run the per-layer
/// names (see per_layer_units()).
struct Result {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, std::pair<double, std::string>> metrics;
    /// Human-readable lines printed before the result (check outcomes,
    /// sizing, the reconciliation table).
    std::vector<std::string> notes;

    void set(const std::string& name, double value, const std::string& unit) {
        metrics[name] = {value, unit};
    }
    void check(bool ok, const std::string& what);
};

/// Every per-layer metric with its unit, in report order. A traced run
/// starts from all of them at 0 (the layer did no work in that
/// workload) and fills in what its workload exercises.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>& per_layer_units();
void init_per_layer(Result& result);

[[nodiscard]] double seconds_since(Clock::time_point t0);
/// User + system CPU seconds of the whole process (all threads).
[[nodiscard]] double process_cpu_s();
[[nodiscard]] double peak_rss_mb();

/// Wall seconds a fixed integer kernel (eight independent chains, so it
/// issues on every ALU port) takes on the calling thread right now. On a
/// host whose cores are shared with other tenants' hyperthreads, the
/// campaigns slow by up to 1.9x for tens of seconds at a time, and this
/// kernel slows with them (a latency-bound kernel does not).
[[nodiscard]] double host_probe_s();
/// host_probe_s() of this benchmark's reference host when uncontended.
/// Campaign timings are scaled by kProbeReferenceS / host_probe_s().
inline constexpr double kProbeReferenceS = 0.05;

/// Nearest-rank quantile (q in [0,1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
    return quantile(std::move(values), 0.5);
}
[[nodiscard]] double sum(const std::vector<double>& values);

/// 64-bit FNV-1a, used for result digests.
[[nodiscard]] std::uint64_t fnv1a(const std::string& text);

/// Deterministic Fisher-Yates shuffle keyed by `seed` (splitmix64), so
/// the same seed deals the same order on every standard library.
void seeded_shuffle(std::vector<std::size_t>& items, std::uint64_t seed);

/// Arms obs::Tracer with every span recorded; the destructor disarms it.
class TraceSession {
public:
    TraceSession();
    ~TraceSession();
    TraceSession(const TraceSession&) = delete;
    TraceSession& operator=(const TraceSession&) = delete;
};

/// Spans drained from the tracer, kept for export at the end of the run.
class SpanLog {
public:
    /// Drains the tracer and returns the new events (also kept).
    std::vector<epea::obs::SpanEvent> drain();
    /// Writes every kept span as a Chrome trace-event document.
    void write(const std::string& path) const;

private:
    std::vector<epea::obs::SpanEvent> events_;
};

/// Summed duration (s) of the spans named `name`.
[[nodiscard]] double span_total_s(const std::vector<epea::obs::SpanEvent>& events,
                                  const std::string& name);
/// Durations (s) of the spans named `name`.
[[nodiscard]] std::vector<double> span_durations_s(
    const std::vector<epea::obs::SpanEvent>& events, const std::string& name);

Result run_perm_campaign(const Options& options);
Result run_severe_campaign(const Options& options);
Result run_serve_mixed(const Options& options);

}  // namespace perfbench
