// Campaign observability: a JSONL event journal (events.jsonl) appended
// as the campaign progresses, per-phase wall-clock timers, and a status
// reader that turns the on-disk artifacts (spec + shard checkpoints +
// journal) into progress counters, run rate and an ETA.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "campaign/json.hpp"
#include "campaign/spec.hpp"
#include "fi/fastpath.hpp"

namespace epea::campaign {

/// Accumulates wall-clock time per named phase (golden runs, injection,
/// merge, ...). begin/end pairs may repeat; times add up.
class PhaseTimers {
public:
    void begin(const std::string& phase);
    void end(const std::string& phase);
    [[nodiscard]] double seconds(const std::string& phase) const;
    /// "phase: 1.23 s" lines, one per phase, insertion order not kept
    /// (sorted by name — deterministic).
    [[nodiscard]] std::string summary() const;

private:
    using Clock = std::chrono::steady_clock;
    std::map<std::string, double> total_;
    std::map<std::string, Clock::time_point> open_;
};

/// Appends one JSON object per line to `<dir>/events.jsonl`. Every event
/// carries `type` and `elapsed_s` (seconds since this observer was
/// created). Thread-safe; an empty dir writes no journal (events are
/// only echoed, when asked), and a null observer swallows events.
class CampaignObserver {
public:
    CampaignObserver() = default;  ///< null observer
    explicit CampaignObserver(const std::string& dir, bool echo_stderr = false);

    void emit(const std::string& type, JsonObject fields = {});
    [[nodiscard]] double elapsed_seconds() const;
    [[nodiscard]] bool active() const { return out_.is_open(); }

private:
    std::ofstream out_;
    bool echo_ = false;
    std::chrono::steady_clock::time_point start_ = std::chrono::steady_clock::now();
    std::mutex mutex_;
};

/// Mirrors every util::log line into the observer's journal for its
/// lifetime as a structured event: {"type":"log","level":...,
/// "component":...,"msg":...}. Process-wide (util::log has one sink);
/// the destructor uninstalls.
class ScopedLogBridge {
public:
    explicit ScopedLogBridge(CampaignObserver& observer);
    ~ScopedLogBridge();

    ScopedLogBridge(const ScopedLogBridge&) = delete;
    ScopedLogBridge& operator=(const ScopedLogBridge&) = delete;
};

/// Progress snapshot assembled from the campaign directory.
struct CampaignStatus {
    CampaignSpec spec;
    std::size_t shards_total = 0;
    std::size_t shards_done = 0;
    std::vector<std::size_t> done_shards;     ///< sorted shard indices
    std::vector<std::size_t> pending_shards;  ///< sorted shard indices
    std::uint64_t runs = 0;            ///< injection runs across done shards
    double wall_seconds = 0.0;         ///< summed shard wall-clock
    double run_rate = 0.0;             ///< runs per second (done shards)
    double eta_seconds = 0.0;          ///< remaining shards x avg shard time
    std::size_t events = 0;            ///< journal lines
    std::string last_event;            ///< raw JSONL of the newest event
    bool adaptive_stopped = false;     ///< journal saw an adaptive_stop event
    std::uint64_t saved_runs = 0;      ///< runs skipped by adaptive stopping
    fi::FastPathStats fastpath;        ///< summed over done shards
    /// Worker-pool size each done shard ran under, aligned with
    /// done_shards (checkpoints without the field report 1).
    std::vector<std::size_t> shard_threads;
    /// Per-shard wall-clock aligned with done_shards. Sourced from the
    /// journal's shard_done events (authoritative even after resume);
    /// shards that never logged one (e.g. resumed from a foreign journal)
    /// fall back to the checkpoint's wall_seconds field.
    std::vector<double> shard_wall;
    /// Flight-recorder summary from timeline.jsonl (DESIGN.md §15);
    /// all zero when no timeline was recorded.
    std::size_t timeline_samples = 0;
    std::uint64_t stalled_workers = 0;  ///< stalled in the latest sample
    std::uint64_t stall_flags = 0;      ///< stall transitions, whole timeline

    [[nodiscard]] bool complete() const {
        return shards_done == shards_total || adaptive_stopped;
    }
};

/// Reads spec.json, shard checkpoints and events.jsonl from `dir`.
/// Throws std::runtime_error if the directory has no readable spec.
[[nodiscard]] CampaignStatus read_status(const std::string& dir);

/// Human-readable multi-line summary of a status snapshot.
[[nodiscard]] std::string render_status(const CampaignStatus& status);

}  // namespace epea::campaign
