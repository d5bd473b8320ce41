// CampaignExecutor — runs a CampaignSpec to completion over a worker
// pool. The case matrix is dealt round-robin into shards; each shard
// runs its cases through the src/exp/ drivers with the case window set
// to one global case at a time, so the merged counts are bit-identical
// to a sequential uninterrupted campaign (the drivers key every
// injection stream by the global case index). Completed shards are
// checkpointed atomically; a killed campaign resumes from the last
// completed shard. Progress is journaled to events.jsonl. With no
// directory the same pool runs in memory: nothing is written and nothing
// resumes — the one runner behind every multi-case campaign.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "campaign/checkpoint.hpp"
#include "campaign/observer.hpp"
#include "campaign/spec.hpp"
#include "epic/matrix.hpp"
#include "exp/recovery.hpp"
#include "fi/fastpath.hpp"
#include "obs/timeline.hpp"

namespace epea::campaign {

struct ExecutorOptions {
    /// Worker threads; each worker owns a private ArrestmentSystem.
    /// 0 = auto: one per hardware thread, clamped by the pending shard
    /// count (and max_shards).
    std::size_t threads = 0;
    /// Execute at most this many *new* shards, then pause (checkpointed).
    /// Tests use 1 to simulate a campaign killed between shards.
    std::size_t max_shards = std::numeric_limits<std::size_t>::max();
    /// Mirror journal events to stderr.
    bool echo_events = false;
    /// Injection engine (DESIGN.md §9): run one-shot injection plans as
    /// lockstep lanes inside each shard. Off replays every plan from
    /// tick 0 — the reference; merged results are bit-identical either
    /// way.
    bool use_batch = true;
    /// Golden cache for a caller that reuses goldens across run() calls
    /// (the opt:: evaluator); mutex-protected, shared by the worker pool.
    /// Null scopes each case's golden data to that case.
    fi::GoldenCache* golden_cache = nullptr;
    /// Flight-recorder cadence (DESIGN.md §15): every interval the
    /// sampler thread appends one per-worker snapshot to
    /// `timeline.jsonl` in the campaign dir. 0 disables the sampler.
    std::uint32_t timeline_interval_ms = 200;
    /// Consecutive silent samples before a worker is flagged stalled
    /// (`campaign.worker.stalled`); 5 s at the default cadence.
    std::uint32_t timeline_stall_samples = 25;
};

class CampaignExecutor {
public:
    /// Creates (or resumes) the campaign in `dir`. Writes spec.json when
    /// absent; when present, the stored spec must serialize identically
    /// to `spec` (resuming under a different spec throws). An empty
    /// `dir` runs in memory: no spec.json, checkpoints, events.jsonl or
    /// timeline.jsonl, and run() continues only from this instance's own
    /// completed shards.
    CampaignExecutor(std::string dir, CampaignSpec spec);

    /// Resumes from an existing campaign directory's spec.json (`dir` must
    /// be non-empty).
    [[nodiscard]] static CampaignExecutor open(const std::string& dir);

    /// Executes pending shards. Returns true when the campaign is
    /// finished (every shard done, or adaptive stopping converged);
    /// false when paused by max_shards with work remaining.
    bool run(const ExecutorOptions& options = {});

    [[nodiscard]] const CampaignSpec& spec() const { return spec_; }
    [[nodiscard]] const std::string& dir() const { return dir_; }
    /// Completed shards (loaded checkpoints + shards run here), sorted.
    [[nodiscard]] const std::vector<ShardResult>& completed() const {
        return completed_;
    }
    [[nodiscard]] bool adaptive_stopped() const { return adaptive_stopped_; }
    /// Runs skipped by adaptive stopping (0 unless it triggered).
    [[nodiscard]] std::uint64_t saved_runs() const { return saved_runs_; }
    /// Per-phase wall-clock of the last run() call.
    [[nodiscard]] const PhaseTimers& timers() const { return timers_; }
    /// Fast-path counters summed over the completed shards.
    [[nodiscard]] fi::FastPathStats fastpath_totals() const;

    /// Merged results over the completed shards — integer count sums, so
    /// the result is independent of shard execution order.
    [[nodiscard]] epic::PermeabilityMatrix merged_matrix(
        const model::SystemModel& system) const;
    [[nodiscard]] exp::SevereCoverageResult merged_severe() const;
    [[nodiscard]] exp::RecoveryResult merged_recovery() const;
    [[nodiscard]] exp::InputCoverageResult merged_input() const;

private:
    [[nodiscard]] ShardResult run_shard(std::size_t shard,
                                        const ExecutorOptions& options,
                                        obs::WorkerProgress* progress) const;
    void load_checkpoints(CampaignObserver& observer);
    [[nodiscard]] exp::CampaignOptions case_options(std::size_t case_id) const;

    std::string dir_;
    CampaignSpec spec_;
    std::vector<ShardResult> completed_;
    bool adaptive_stopped_ = false;
    std::uint64_t saved_runs_ = 0;
    PhaseTimers timers_;
};

}  // namespace epea::campaign
