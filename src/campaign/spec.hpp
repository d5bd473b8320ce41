// CampaignSpec — a complete, serializable description of a fault-
// injection campaign: which target and error model, which EA subsets,
// which test-case matrix, how the injection streams are seeded and how
// the plan is sharded. A spec written to disk (spec.json, versioned) is
// everything a later process needs to re-run, resume or audit the
// campaign; results are a pure function of the spec.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/arrestment_experiments.hpp"

namespace epea::campaign {

/// Which experiment family the campaign runs (maps onto the drivers in
/// src/exp/).
enum class CampaignKind {
    kPermeability,  ///< Table 1: per-pair error permeability (error model A)
    kSevere,        ///< Fig 3: RAM/stack coverage under the severe model
    kRecovery,      ///< §extension: paired baseline/ERM severe runs
    kInput,         ///< Table 4: EA-subset coverage for input errors (model A)
};

[[nodiscard]] const char* to_string(CampaignKind kind);
[[nodiscard]] CampaignKind campaign_kind_from_string(const std::string& s);

/// Adaptive early stopping: stop scheduling shards once every estimated
/// proportion's Wilson interval is tighter than `half_width`.
struct AdaptiveOptions {
    bool enabled = false;
    double z = 1.96;           ///< normal quantile (95 %)
    double half_width = 0.05;  ///< convergence threshold on (hi-lo)/2
    std::uint64_t min_trials = 20;  ///< per proportion, before converging
};

struct CampaignSpec {
    /// Format version of spec.json; bump when fields change meaning.
    static constexpr std::int64_t kVersion = 1;

    std::string name = "campaign";
    CampaignKind kind = CampaignKind::kPermeability;
    std::string target = "arrestment";

    /// Global test-case indices (rows of the 5x5 matrix) to run.
    std::vector<std::size_t> case_ids;
    std::size_t times_per_bit = 10;
    std::uint64_t max_ticks = 30000;
    std::uint64_t severe_period = 20;
    /// Base seed of the per-case injection streams (permeability kind).
    std::uint64_t seed = 0x7ab1e1ULL;
    /// Number of shards the case matrix is dealt into (round-robin).
    std::size_t shards = 5;

    /// Delta campaigns (permeability kind): inject only these modules;
    /// empty = all. Serialized only when non-empty, so pre-existing specs
    /// and their manifest config hashes are unchanged.
    std::vector<std::string> module_filter;

    /// EA subsets scored by severe campaigns (defaults: EH and PA sets).
    std::vector<exp::SubsetSpec> subsets;
    /// Signals wrapped with recovery ERMs (recovery kind).
    std::vector<std::string> guarded_signals;

    AdaptiveOptions adaptive;

    /// A spec with the paper's defaults for `kind`: all 25 cases, the
    /// EH/PA subsets, the extended-placement ERM signals.
    [[nodiscard]] static CampaignSpec defaults(CampaignKind kind);
    /// defaults(kind) sized like a sequential driver call: the cases
    /// [case_first, case_first + case_count) that exist, one case per
    /// shard, and `options`' times per bit, seed, tick budget, severe
    /// period and module filter. Running it gives the driver's counts.
    [[nodiscard]] static CampaignSpec from_options(CampaignKind kind,
                                                   const exp::CampaignOptions& options);

    /// The case indices belonging to shard `s` (round-robin deal).
    [[nodiscard]] std::vector<std::size_t> shard_cases(std::size_t s) const;
    /// Shards actually used (never more than there are cases).
    [[nodiscard]] std::size_t effective_shards() const;

    /// Versioned JSON round-trip. from_json throws std::runtime_error on
    /// malformed input or an unsupported version.
    [[nodiscard]] std::string to_json() const;
    [[nodiscard]] static CampaignSpec from_json(const std::string& text);
};

}  // namespace epea::campaign
