#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

#include "bench.hpp"
#include "util/rng.hpp"

namespace perfbench {

void Result::check(bool ok, const std::string& what) {
    notes.push_back(std::string(ok ? "check ok: " : "CHECK FAILED: ") + what);
    if (!ok) correct = false;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_units() {
    static const std::vector<std::pair<std::string, std::string>> kUnits = {
        {"fi.lanes_launched", "count"},
        {"fi.lanes_retired_pruned", "count"},
        {"fi.lanes_retired_sealed", "count"},
        {"fi.lanes_retired_end", "count"},
        {"fi.batch_width_mean", "lanes"},
        {"fi.ticks_executed", "count"},
        {"fi.ticks_saved", "count"},
        {"fi.tick_reuse_frac", "frac"},
        {"fi.runs", "count"},
        {"fi.runs_forked", "count"},
        {"fi.runs_pruned", "count"},
        {"fi.runs_skipped", "count"},
        {"fi.golden_capture_s", "s"},
        {"fi.golden_cache_hits", "count"},
        {"fi.golden_cache_misses", "count"},
        {"runtime.ticks_per_busy_s", "1/s"},
        {"ea.check_overhead_frac", "frac"},
        {"ea.detected_eh", "count"},
        {"ea.detected_pa", "count"},
        {"campaign.shard_s_p50", "s"},
        {"campaign.shard_s_max", "s"},
        {"campaign.worker_busy_frac", "frac"},
        {"campaign.checkpoint_s", "s"},
        {"campaign.merge_s", "s"},
        {"campaign.reconcile_residual_frac", "frac"},
        {"exp.case_s_p50", "s"},
        {"exp.case_s_max", "s"},
        {"serve.rtt_us_p50", "us"},
        {"serve.http_overhead_us_p50", "us"},
        {"serve.latency_p99_ms", "ms"},
        {"serve.memo_hit_frac", "frac"},
        {"serve.memo_misses", "count"},
        {"serve.handler_us_p50.predict_pair", "us"},
        {"serve.handler_us_p50.predict_profile", "us"},
        {"serve.handler_us_p50.optimize", "us"},
        {"serve.handler_us_p50.lint", "us"},
        {"serve.handler_us_p50.healthz", "us"},
        {"serve.handler_us_p99.predict_pair", "us"},
        {"serve.handler_us_p99.predict_profile", "us"},
        {"serve.handler_us_p99.optimize", "us"},
        {"serve.handler_us_p99.lint", "us"},
        {"serve.handler_us_p99.healthz", "us"},
        {"serve.singleflight_joins", "count"},
        {"opt.optimize_ms", "ms"},
        {"opt.evaluations", "count"},
        {"opt.structural_prunes", "count"},
        {"prove.hints_ms", "ms"},
        {"analysis.lint_model_ms", "ms"},
        {"analytic.solve_us_p50", "us"},
        {"loadgen.sent", "count"},
        {"loadgen.late_ms_p99", "ms"},
        {"obs.trace_overhead_pct", "%"},
        {"obs.spans_dropped", "count"},
    };
    return kUnits;
}

void init_per_layer(Result& result) {
    for (const auto& [name, unit] : per_layer_units()) result.set(name, 0.0, unit);
}

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_s() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto tv = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
    };
    return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {
volatile std::uint64_t g_probe_sink = 0;
}  // namespace

double host_probe_s() {
    std::uint64_t h[8] = {1, 3, 5, 7, 11, 13, 17, 19};
    const auto t0 = Clock::now();
    for (std::uint64_t r = 0; r < 20'000'000; ++r) {
        h[0] += r ^ (h[0] >> 3);
        h[1] += r ^ (h[1] << 1);
        h[2] ^= h[2] + r;
        h[3] += (h[3] >> 5) + r;
        h[4] += r ^ (h[4] >> 7);
        h[5] ^= h[5] + 3 * r;
        h[6] += (h[6] << 2) ^ r;
        h[7] += (h[7] >> 1) ^ r;
    }
    const double s = seconds_since(t0);
    g_probe_sink = h[0] + h[1] + h[2] + h[3] + h[4] + h[5] + h[6] + h[7];
    return s;
}

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values[std::min(idx, values.size() - 1)];
}

double sum(const std::vector<double>& values) {
    double s = 0.0;
    for (const double v : values) s += v;
    return s;
}

std::uint64_t fnv1a(const std::string& text) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

void seeded_shuffle(std::vector<std::size_t>& items, std::uint64_t seed) {
    std::uint64_t state = seed;
    for (std::size_t i = items.size(); i > 1; --i) {
        const std::uint64_t j = epea::util::splitmix64(state) % i;
        std::swap(items[i - 1], items[j]);
    }
}

TraceSession::TraceSession() {
    auto& tracer = epea::obs::Tracer::instance();
    tracer.set_sampling(1);
    tracer.clear();
    tracer.set_enabled(true);
}

TraceSession::~TraceSession() {
    auto& tracer = epea::obs::Tracer::instance();
    tracer.set_enabled(false);
    tracer.set_sampling(epea::obs::Tracer::kDefaultSampling);
}

std::vector<epea::obs::SpanEvent> SpanLog::drain() {
    std::vector<epea::obs::SpanEvent> fresh = epea::obs::Tracer::instance().drain();
    events_.insert(events_.end(), fresh.begin(), fresh.end());
    return fresh;
}

void SpanLog::write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("perfbench: cannot write " + path);
    epea::obs::write_chrome_trace(out, events_, epea::obs::Tracer::instance().tracks());
}

double span_total_s(const std::vector<epea::obs::SpanEvent>& events,
                    const std::string& name) {
    return sum(span_durations_s(events, name));
}

std::vector<double> span_durations_s(const std::vector<epea::obs::SpanEvent>& events,
                                     const std::string& name) {
    std::vector<double> out;
    for (const auto& e : events) {
        if (e.name == name) out.push_back(1e-9 * static_cast<double>(e.dur_ns));
    }
    return out;
}

}  // namespace perfbench
