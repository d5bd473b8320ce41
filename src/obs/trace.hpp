// Tracing layer (DESIGN.md §10): RAII spans over per-thread bounded ring
// buffers, exported as Chrome trace-event JSON (chrome://tracing /
// Perfetto-loadable) so a whole sharded campaign renders as one flame
// view — one track per worker thread, spans for golden-build, lane
// batches, replayed runs, checkpoint and merge.
//
// Cost model: a disabled tracer costs one relaxed atomic load per span;
// an enabled span costs two monotonic clock reads plus one push into the
// calling thread's own ring buffer (its mutex is only ever contended by
// a drain). Rings are bounded — when full, the oldest events are
// overwritten and counted as dropped, so tracing never grows without
// limit on arbitrarily long campaigns.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/enabled.hpp"

namespace epea::obs {

/// One completed span. `depth` is the nesting level inside its thread at
/// record time (0 = top level); Chrome/Perfetto derive nesting from time
/// containment, depth is kept for deterministic tests and summaries.
struct SpanEvent {
    std::string name;
    std::uint32_t tid = 0;
    std::uint32_t depth = 0;
    std::uint64_t start_ns = 0;  ///< monotonic ns since the process obs epoch
    std::uint64_t dur_ns = 0;
    std::uint64_t arg = 0;  ///< optional payload (shard index, case id, ...)
    bool has_arg = false;
};

/// A thread that recorded at least one span (or named itself).
struct TrackInfo {
    std::uint32_t tid = 0;
    std::string name;  ///< empty when the thread never named itself
};

/// Per-thread count of spans overwritten because the ring was full.
/// Surfaced in manifest.json (`dropped_spans`) so silent trace
/// truncation is visible in every run artifact.
struct DroppedCount {
    std::uint32_t tid = 0;
    std::string name;  ///< track name; empty when the thread never named itself
    std::uint64_t dropped = 0;
};

/// Monotonic nanoseconds since the first obs use in this process.
[[nodiscard]] std::uint64_t now_ns() noexcept;

/// Small stable id of the calling thread (assigned on first obs use).
[[nodiscard]] std::uint32_t current_tid() noexcept;

/// Names the calling thread's track in exported traces ("worker-3").
void set_thread_name(const std::string& name);

/// Process-wide span collector. Disabled at startup; CLI entry points
/// (RunRecorder) enable it for the duration of an observed run.
class Tracer {
public:
    static constexpr std::size_t kDefaultRingCapacity = 1 << 16;  ///< events/thread

    /// Default modulus for EPEA_OBS_SAMPLED_SPAN sites. Run-level spans
    /// (fi.run, sim.run) fire tens of thousands of times per
    /// campaign; recording 1-in-16 keeps the trace representative while
    /// holding instrumentation overhead under the 2% budget
    /// (BENCH_obs.json). EPEA_OBS_SAMPLE=1 records every span.
    static constexpr std::uint32_t kDefaultSampling = 16;

    [[nodiscard]] static Tracer& instance();

    void set_enabled(bool on) noexcept {
        enabled_.store(on, std::memory_order_relaxed);
    }
    [[nodiscard]] bool enabled() const noexcept {
        return kEnabled && enabled_.load(std::memory_order_relaxed);
    }

    /// Sampling knob for EPEA_OBS_SAMPLED_SPAN sites: each site records
    /// every `every_nth` construction (1 = record all, 0 treated as 1).
    /// Plain Span objects are always recorded. Applies per call site, so
    /// a sampled hot span stays representative of its own distribution.
    void set_sampling(std::uint32_t every_nth) noexcept {
        sampling_.store(every_nth == 0 ? 1 : every_nth, std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint32_t sampling() const noexcept {
        return sampling_.load(std::memory_order_relaxed);
    }

    /// Per-thread ring capacity for buffers created afterwards; existing
    /// rings are cleared and re-sized.
    void set_ring_capacity(std::size_t events_per_thread);

    /// Events overwritten because a ring was full, process-wide.
    [[nodiscard]] std::uint64_t dropped() const;

    /// Drop counts per thread (registration order). Drop counters are
    /// cumulative for the process — drain() clears the rings but not
    /// the counters, so callers wanting per-run deltas must diff.
    [[nodiscard]] std::vector<DroppedCount> dropped_by_thread() const;

    void record(SpanEvent event);

    /// Removes and returns all buffered events, merged across threads and
    /// sorted by (start_ns, tid, depth) — a deterministic timeline.
    [[nodiscard]] std::vector<SpanEvent> drain();

    /// Threads seen so far (registration order; survives thread exit).
    [[nodiscard]] std::vector<TrackInfo> tracks() const;

    /// Drops all buffered events (thread registrations are kept).
    void clear();

private:
    Tracer() = default;

    std::atomic<bool> enabled_{false};
    std::atomic<std::uint32_t> sampling_{kDefaultSampling};
};

namespace detail {
struct SampleTag {};
}  // namespace detail

/// RAII tracing scope. Constructing with a string literal keeps the hot
/// path allocation-free for names under the SSO threshold.
class Span {
public:
    explicit Span(const char* name) noexcept : Span(name, 0, false) {}
    Span(const char* name, std::uint64_t arg) noexcept : Span(name, arg, true) {}

    /// Sampled form (see EPEA_OBS_SAMPLED_SPAN): records only every
    /// Tracer::sampling()-th construction at the owning call site.
    Span(const char* name, detail::SampleTag,
         std::atomic<std::uint32_t>& site_counter) noexcept;

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    ~Span();

    [[nodiscard]] bool active() const noexcept { return active_; }

private:
    Span(const char* name, std::uint64_t arg, bool has_arg) noexcept;
    void begin(const char* name) noexcept;

    const char* name_ = nullptr;
    std::uint64_t start_ns_ = 0;
    std::uint64_t arg_ = 0;
    std::uint32_t depth_ = 0;
    bool has_arg_ = false;
    bool active_ = false;
};

/// Writes a Chrome trace-event JSON document ("X" complete events plus
/// thread_name metadata) loadable by chrome://tracing and Perfetto.
void write_chrome_trace(std::ostream& out, const std::vector<SpanEvent>& events,
                        const std::vector<TrackInfo>& tracks);

}  // namespace epea::obs

// Sampled span for hot sites: a per-site counter decides whether this
// construction records, honouring Tracer::set_sampling.
#define EPEA_OBS_CONCAT_INNER(a, b) a##b
#define EPEA_OBS_CONCAT(a, b) EPEA_OBS_CONCAT_INNER(a, b)
#define EPEA_OBS_SAMPLED_SPAN(var, name)                                   \
    static ::std::atomic<::std::uint32_t> EPEA_OBS_CONCAT(var, _site){0};  \
    ::epea::obs::Span var(name, ::epea::obs::detail::SampleTag{},          \
                          EPEA_OBS_CONCAT(var, _site))
