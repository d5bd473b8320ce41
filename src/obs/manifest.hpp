// Run provenance manifests (DESIGN.md §10): one manifest.json per
// campaign/bench run stating exactly how an artifact was produced — tool
// version, full config (hashed), seed base, fast-path on/off and its
// counters, the run's metric snapshot, and wall/CPU time. Any Table-1 /
// Fig-3 / frontier number can be traced back to (and re-launched from)
// its manifest.
//
// RunRecorder bundles the per-run lifecycle every CLI entry point needs:
// begin() arms the tracer and snapshots the metrics registry; finalize()
// drains the spans and computes the metric delta; the write_* methods
// emit the trace/metrics/manifest artifacts.
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

namespace epea::obs {

/// Process CPU time (user+system) in seconds.
[[nodiscard]] double process_cpu_seconds() noexcept;

/// FNV-1a 64-bit — the manifest's config fingerprint.
[[nodiscard]] std::uint64_t fnv1a64(const std::string& data) noexcept;

/// CMAKE_BUILD_TYPE this obs library was compiled under ("Release",
/// "Debug", ... or "unspecified" for single-config builds without one).
/// Reported by `epea_tool version`, /version and every manifest so an
/// artifact can be traced to the binary flavour that produced it.
[[nodiscard]] const char* build_type() noexcept;

struct Manifest {
    /// Bump when fields change meaning; schemas/manifest.schema.json and
    /// the obs tests pin the field set of the current version.
    /// v2: added build_type. v3: added dropped_spans.
    static constexpr std::int64_t kSchemaVersion = 3;

    std::string tool_version;
    std::string command;        ///< e.g. "campaign run"
    util::JsonObject config;    ///< full run config (e.g. the campaign spec)
    std::uint64_t seed_base = 0;
    bool fastpath = true;  ///< batched injection engine on (off = `--no-batch` replay)
    bool obs_enabled = kEnabled;
    std::string build_type = obs::build_type();
    std::size_t threads = 0;
    double wall_seconds = 0.0;
    double cpu_seconds = 0.0;
    util::JsonObject fastpath_stats;  ///< fi::fastpath_stats_json of the run
    MetricsSnapshot metrics;          ///< metric delta over the run
    /// Spans overwritten in full ring buffers during this run, keyed by
    /// track name (or "tid-N" for unnamed threads); only threads that
    /// actually dropped appear. Empty = the trace is complete.
    util::JsonObject dropped_spans;

    /// Hex FNV-1a of the serialized config — two runs with equal hashes
    /// ran under byte-identical configuration.
    [[nodiscard]] std::string config_hash() const;

    [[nodiscard]] util::JsonValue to_json() const;
    [[nodiscard]] static Manifest from_json(const util::JsonValue& v);
};

void write_manifest(const std::string& path, const Manifest& manifest);
[[nodiscard]] Manifest load_manifest(const std::string& path);

/// Per-run observability lifecycle for CLI drivers and benches.
class RunRecorder {
public:
    /// Enables tracing (honouring EPEA_OBS_SAMPLE / EPEA_OBS_RING env
    /// overrides for the sampling modulus and per-thread ring capacity),
    /// drops stale buffered spans, and snapshots the metrics registry.
    void begin();

    /// Stops tracing, drains the span buffers and computes the metric
    /// delta + wall/CPU time into manifest(). Idempotent.
    void finalize();

    /// Fill command/config/seed/fastpath/threads before writing.
    [[nodiscard]] Manifest& manifest() noexcept { return manifest_; }

    [[nodiscard]] const std::vector<SpanEvent>& events() const noexcept {
        return events_;
    }

    /// All writers return false (with a message on stderr) on I/O errors.
    [[nodiscard]] bool write_trace(const std::string& path) const;
    /// `.prom` suffix selects Prometheus text format, JSON otherwise.
    [[nodiscard]] bool write_metrics(const std::string& path) const;
    [[nodiscard]] bool write_manifest_file(const std::string& path) const;

private:
    bool began_ = false;
    bool finalized_ = false;
    MetricsSnapshot before_;
    std::vector<DroppedCount> dropped_before_;
    std::uint64_t start_ns_ = 0;
    double cpu0_ = 0.0;
    std::vector<SpanEvent> events_;
    std::vector<TrackInfo> tracks_;
    Manifest manifest_;
};

/// RunRecorder driven by argv-style flags, shared by epea_tool and the
/// bench drivers: scans `args` for `--trace-out FILE` / `--metrics-out
/// FILE`, arms the recorder on construction, and finish() writes the
/// requested artifacts (plus manifest.json/metrics.json/trace.json into
/// an artifact dir when one is set). finish() returns 0 on success.
class ArgvRecorder {
public:
    ArgvRecorder(const std::vector<std::string>& args, std::string command,
                 std::string tool_version);

    [[nodiscard]] Manifest& manifest() noexcept { return recorder_.manifest(); }
    void set_artifact_dir(std::string dir) { artifact_dir_ = std::move(dir); }
    [[nodiscard]] int finish();

private:
    std::string trace_out_;
    std::string metrics_out_;
    std::string artifact_dir_;
    RunRecorder recorder_;
};

}  // namespace epea::obs
