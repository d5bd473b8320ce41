// Ground-truth benefit: the chosen error model actually run through the
// sharded campaign executor (src/campaign/) against the arrestment
// target. The evaluator exploits the fact that the experiment drivers
// score *every* provided EA subset during the same injection runs, so
// pricing any number of new subsets costs exactly one campaign. Measured
// coverages are memoized per (subset, error model, sizing, seed) in a
// SubsetCache — a warm-cache evaluation executes zero campaigns.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fi/fastpath.hpp"
#include "opt/cache.hpp"
#include "opt/types.hpp"

namespace epea::opt {

struct EvaluatorOptions {
    ErrorModel model = ErrorModel::kInput;
    /// Working directory: holds subset_cache.json and one eval-* campaign
    /// subdirectory per executed batch. Empty keeps the cache in memory
    /// and runs every campaign in memory: nothing is written.
    std::string dir;
    std::size_t cases = 25;
    std::size_t times_per_bit = 10;
    std::uint64_t severe_period = 20;  ///< severe model only
    std::uint64_t seed = 0x7ab1e1ULL;
    std::size_t shards = 5;
    std::size_t threads = 1;
    bool echo_events = false;
    /// Injection engine (DESIGN.md §9) for the underlying campaigns; off
    /// replays every run. Ground truth is bit-identical either way.
    bool use_batch = true;
};

class CampaignEvaluator {
public:
    explicit CampaignEvaluator(EvaluatorOptions options);

    /// Measured coverage for each subset (signal names; must all carry an
    /// EA on the arrestment target). All cache misses are batched into
    /// ONE campaign; on a fully warm cache no campaign runs. Results are
    /// flushed to the cache before returning.
    [[nodiscard]] std::vector<CacheEntry> evaluate(
        const std::vector<std::vector<std::string>>& subsets);

    /// Convenience single-subset form.
    [[nodiscard]] double coverage(const std::vector<std::string>& subset);

    /// Campaigns actually executed by this evaluator instance — the
    /// number a warm-cache run must keep at zero.
    [[nodiscard]] std::size_t campaigns_executed() const noexcept {
        return campaigns_executed_;
    }
    [[nodiscard]] std::size_t cache_hits() const noexcept { return cache_hits_; }
    [[nodiscard]] std::size_t cache_misses() const noexcept { return cache_misses_; }
    [[nodiscard]] const SubsetCache& cache() const noexcept { return cache_; }
    [[nodiscard]] const EvaluatorOptions& options() const noexcept { return options_; }

private:
    [[nodiscard]] std::string subset_key(const std::vector<std::string>& subset) const;

    EvaluatorOptions options_;
    SubsetCache cache_;
    std::size_t campaigns_executed_ = 0;
    std::size_t cache_hits_ = 0;
    std::size_t cache_misses_ = 0;
    /// Golden-run cache shared across every campaign this evaluator
    /// executes: batches re-running the same cases (e.g. input + severe
    /// ground truth, or successive search iterations) reuse the captured
    /// golden data instead of re-running fault-free campaigns.
    fi::GoldenCache golden_cache_;
};

}  // namespace epea::opt
