// Golden data and reference replay for the injection engine (DESIGN.md §9).
//
//  - GoldenCaseData / capture_golden_data: a golden run captured once per
//    test case, optionally with a boundary snapshot every
//    kPruneCheckPeriod ticks plus its end state — the fork points and
//    convergence references of fi::BatchRunner's lanes.
//  - golden_for / GoldenCache: golden data scoped to its case, or — for a
//    caller that reuses it across runs (the opt:: subset evaluator) — a
//    thread-safe, byte-budgeted cache keyed by (context tag, test case).
//  - replay: the reference execution of one plan from tick 0, which the
//    batched engine must reproduce bit for bit.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fi/golden.hpp"
#include "fi/injector.hpp"
#include "runtime/simulator.hpp"
#include "runtime/snapshot.hpp"
#include "util/json.hpp"

namespace epea::fi {

/// Observability counters for the injection engine (per-shard in campaigns;
/// surfaced in events.jsonl and `campaign status`).
struct FastPathStats {
    /// Width histogram buckets: lanes run per sweep, log2-ish
    /// ranges 1, 2, 3-4, 5-8, 9-16, 17-32, 33-64, 65+.
    static constexpr std::size_t kWidthBuckets = 8;

    /// Runs simulated from tick 0 — replays, periodic lanes, and one-shot
    /// lanes injected before the first stride boundary (at < 8).
    std::uint64_t full_runs = 0;
    /// One-shot lanes forked from a golden boundary at tick > 0: the
    /// stride floor of their injection tick, floor(at/8)*8.
    std::uint64_t forked_runs = 0;
    /// Runs terminated early on state re-convergence — pruned lanes, and
    /// merged lanes resolved to a prune; overlaps with forked_runs/full_runs
    /// (a forked run can also prune).
    std::uint64_t pruned_runs = 0;
    std::uint64_t skipped_runs = 0;  ///< runs elided (injection tick beyond golden end)
    /// (Lane-)ticks actually simulated, including the up to 7 fault-free
    /// ticks a lane runs from its stride-floor fork to its injection.
    std::uint64_t ticks_executed = 0;
    /// Golden ticks reused instead of simulated: the fork tick of a forked
    /// lane, plus the ticks after a prune, a seal or a skip, plus a merged
    /// lane's ticks from its merge to its resolved retirement.
    std::uint64_t ticks_saved = 0;
    std::uint64_t cache_hits = 0;      ///< golden-cache lookups served from memory
    std::uint64_t cache_misses = 0;    ///< golden-cache lookups that captured fresh

    // Lane lifecycle of the batched engine (DESIGN.md §9). Lanes also
    // count into the per-run full/forked/skipped/pruned counters, so
    // runs() stays the per-run invariant for lanes and replays alike.
    std::uint64_t lanes_launched = 0;        ///< lanes forked into a batch
    std::uint64_t lanes_retired_pruned = 0;  ///< lanes retired on state re-convergence
    std::uint64_t lanes_retired_end = 0;     ///< lanes retired at env finish / golden end
    std::uint64_t lanes_retired_sealed = 0;  ///< lanes retired on a decided attribution seal
    /// Lanes retired into a state-equal live lane (their outcome is
    /// resolved from that lane's; DESIGN.md §9).
    std::uint64_t lanes_retired_merged = 0;
    std::array<std::uint64_t, kWidthBuckets> batch_widths{};  ///< lanes-per-sweep histogram

    void merge(const FastPathStats& o) noexcept {
        full_runs += o.full_runs;
        forked_runs += o.forked_runs;
        pruned_runs += o.pruned_runs;
        skipped_runs += o.skipped_runs;
        ticks_executed += o.ticks_executed;
        ticks_saved += o.ticks_saved;
        cache_hits += o.cache_hits;
        cache_misses += o.cache_misses;
        lanes_launched += o.lanes_launched;
        lanes_retired_pruned += o.lanes_retired_pruned;
        lanes_retired_end += o.lanes_retired_end;
        lanes_retired_sealed += o.lanes_retired_sealed;
        lanes_retired_merged += o.lanes_retired_merged;
        for (std::size_t b = 0; b < kWidthBuckets; ++b) batch_widths[b] += o.batch_widths[b];
    }

    void record_batch_width(std::size_t width) noexcept {
        std::size_t b = 0;
        while (b < kWidthBuckets - 1 && (std::size_t{1} << b) < width) ++b;
        ++batch_widths[b];
    }

    [[nodiscard]] std::uint64_t runs() const noexcept {
        return full_runs + forked_runs + skipped_runs;
    }
};

/// Adds `delta` to the global obs metrics registry (fi.runs.*,
/// fi.run_ticks, fi.ticks_saved, cache.golden.*). Called once per
/// aggregation boundary (completed campaign shard, finished estimate) —
/// never per run — so the counters match the checkpointed FastPathStats
/// bit-exactly.
void add_fastpath_metrics(const FastPathStats& delta);

/// FastPathStats as a JSON object (the manifest's `fastpath_stats`).
[[nodiscard]] util::JsonObject fastpath_stats_json(const FastPathStats& stats);

/// Stride of the golden boundary snapshots, and with it of the batch
/// runner's convergence-prune check: full-state lane compares are
/// strided (one cache line per word), so they run only on multiples of
/// the stride, and the capture keeps only the boundaries they read. A
/// converged lane evolves exactly like the golden run, so checking late
/// never changes an outcome — it only delays the retirement by up to
/// kPruneCheckPeriod-1 ticks.
inline constexpr runtime::Tick kPruneCheckPeriod = 8;

/// One test case's golden run, optionally with boundary snapshots:
/// boundary[i] is the complete mutable state after i*kPruneCheckPeriod
/// completed ticks (i = 0..run.length/kPruneCheckPeriod), and `last` the
/// state at run.length. Reset-only data (capture_reset_data) holds
/// boundary[0] alone, no `last` and no trace.
struct GoldenCaseData {
    GoldenRun run;
    runtime::Tick max_ticks = 0;  ///< tick budget the run was captured under
    std::vector<runtime::Snapshot> boundary;
    runtime::Snapshot last;

    [[nodiscard]] bool has_snapshots() const noexcept { return !boundary.empty(); }
    [[nodiscard]] std::size_t approx_bytes() const noexcept;
};

/// Captures a golden run from a reset. With `with_snapshots`, a boundary
/// snapshot is stored every kPruneCheckPeriod ticks and at the run's end
/// (requires sim.snapshot_supported()). Tracing is left enabled,
/// matching capture_golden_run.
[[nodiscard]] GoldenCaseData capture_golden_data(runtime::Simulator& sim,
                                                 runtime::Tick max_ticks,
                                                 bool with_snapshots);

/// Reset-only golden data for periodic plans: `golden`'s run length,
/// finish flag and tick budget, no trace, and one boundary snapshot — the
/// reset state under the simulator's current monitors. Periodic lanes
/// fork there and never prune, so they need no later boundary.
[[nodiscard]] GoldenCaseData capture_reset_data(runtime::Simulator& sim,
                                                const GoldenCaseData& golden);

/// Canonical cache key for golden data: `tag` names the capture context
/// (which monitors/recoverers were armed and calibrated), `case_index`
/// the global test case. "trace" is the conventional tag for bare,
/// context-free golden traces (monitors never alter signals, so the
/// trace of a fault-free run is the same in every context).
[[nodiscard]] std::string golden_key(const std::string& tag, std::size_t case_index);

/// Thread-safe golden-run cache with least-recently-used eviction above a
/// byte budget. Entries are immutable and shared; an entry still in use
/// (a live shared_ptr outside the cache) is never evicted.
class GoldenCache {
public:
    static constexpr std::size_t kDefaultByteBudget = 512ULL * 1024 * 1024;

    explicit GoldenCache(std::size_t byte_budget = kDefaultByteBudget)
        : byte_budget_(byte_budget) {}

    /// Returns the cached entry for `key`, or runs `capture` and caches
    /// its result. `stats` (optional) receives the hit/miss count.
    std::shared_ptr<const GoldenCaseData> get_or_capture(
        const std::string& key, const std::function<GoldenCaseData()>& capture,
        FastPathStats* stats = nullptr);

    void clear();
    [[nodiscard]] std::size_t entry_count() const;
    [[nodiscard]] std::size_t byte_count() const;

private:
    /// Evicts least-recently-used entries until within budget. Entries
    /// with a live shared_ptr outside the cache are never evicted;
    /// `just_inserted` (the entry whose data the caller is about to
    /// receive) gets one reference discounted so its own return value
    /// does not pin it — an over-budget insert while everything else is
    /// in use simply declines to keep the new entry.
    void evict_locked(const GoldenCaseData* just_inserted);

    struct Entry {
        std::shared_ptr<const GoldenCaseData> data;
        std::size_t bytes = 0;
        std::uint64_t last_used = 0;
    };

    mutable std::mutex mutex_;
    std::map<std::string, Entry> entries_;
    std::size_t byte_budget_;
    std::size_t bytes_ = 0;
    std::uint64_t clock_ = 0;
};

/// Golden data for `key`: from `cache` when the caller reuses goldens
/// across runs, else captured fresh and owned by the returned pointer
/// alone — freed with its case. `stats` (optional) counts hit or miss.
[[nodiscard]] std::shared_ptr<const GoldenCaseData> golden_for(
    GoldenCache* cache, const std::string& key,
    const std::function<GoldenCaseData()>& capture, FastPathStats* stats = nullptr);

/// Reference execution of one injection plan: arms the injector, resets
/// the simulator and runs it from tick 0 for at most `max_ticks` ticks.
/// Counts one full run and its ticks into `stats`. BatchRunner runs its
/// plans here when the golden data or the target cannot snapshot; the
/// recovery model, whose ERM recoverers the fused kernel refuses, calls
/// it directly.
runtime::RunResult replay(runtime::Simulator& sim, Injector& injector,
                          std::vector<Injection> plan, runtime::Tick max_ticks,
                          std::uint64_t seed, FastPathStats& stats);

}  // namespace epea::fi
