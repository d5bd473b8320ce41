// Experiment drivers for the arrestment target — one driver per paper
// artifact (see DESIGN.md §4). The bench binaries print the tables; the
// integration tests assert the reproduced shapes.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ea/bank.hpp"

#include "util/stats.hpp"
#include "ea/calibrate.hpp"
#include "epic/estimator.hpp"
#include "epic/matrix.hpp"
#include "fi/fastpath.hpp"
#include "target/arrestment_system.hpp"

namespace epea::exp {

/// Shared campaign sizing. The paper's full size is 25 cases and 10
/// injection moments per bit; EPEA_CASES / EPEA_TIMES environment
/// variables scale it down for quick runs.
struct CampaignOptions {
    std::size_t case_count = 25;
    /// First test-case index of the campaign window. The drivers key every
    /// injection stream by the *global* case index, so running cases
    /// [first, first+count) here is bit-identical to the same slice of a
    /// full sequential campaign — the property the sharded campaign
    /// executor (src/campaign/) is built on.
    std::size_t case_first = 0;
    std::size_t times_per_bit = 10;
    /// Base seed of the permeability estimator's injection-time streams
    /// (severe/recovery campaigns use fixed bases of their own).
    std::uint64_t seed = 0x7ab1e1ULL;
    runtime::Tick max_ticks = target::kMaxRunTicks;
    /// Severe model (Fig 3): injection period in ticks (paper: 20 ms).
    runtime::Tick severe_period = 20;
    /// EA calibration margins (ablation hook: setting settle_fraction to
    /// 1.0 disables the continuous EAs' steady-state band).
    ea::CalibrationMargins ea_margins{};

    /// Injection engine (DESIGN.md §9): run the plans of a case as
    /// lockstep lanes — one-shot plans forked from golden boundary
    /// snapshots, periodic severe plans from the reset state. Off replays
    /// every plan from tick 0 — the reference. The recovery driver always
    /// replays (the fused kernel refuses its ERM recoverers);
    /// bit-identical results either way.
    bool use_batch = true;
    /// Golden-run cache for a caller that reuses goldens across calls
    /// (the opt:: evaluator); null captures each case's goldens fresh and
    /// frees them with the case.
    fi::GoldenCache* golden_cache = nullptr;
    /// When set, drivers accumulate their injection-engine counters here.
    fi::FastPathStats* fastpath_out = nullptr;
    /// Delta campaigns: restrict permeability injection to these modules
    /// (empty = all). Skipped modules still consume their injection-time
    /// draws, so filtered results are bit-identical per module to a full
    /// run (see epic::EstimatorOptions::module_filter).
    std::vector<std::string> module_filter;

    /// Applies EPEA_CASES / EPEA_TIMES overrides when set.
    [[nodiscard]] static CampaignOptions from_env();
};

/// A named EA subset (e.g. the EH-set or the PA-set).
struct SubsetSpec {
    std::string name;
    std::vector<std::string> ea_names;
};

/// EA-name/signal-name pairs in paper order: EA1..EA7.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
arrestment_ea_signals();

/// Builds the EA1..EA7 bank with parameters calibrated from `golden`
/// fault-free traces of the *current* configuration.
[[nodiscard]] ea::EaBank make_calibrated_bank(
    const model::SystemModel& system, const std::vector<runtime::Trace>& golden,
    const ea::CalibrationMargins& margins = {});

/// Re-calibrates an existing bank in place (per-test-case configuration).
void recalibrate_bank(ea::EaBank& bank, const model::SystemModel& system,
                      const runtime::Trace& golden,
                      const ea::CalibrationMargins& margins = {});

// ---------------------------------------------------------------- Table 1

/// Estimates the 25-pair permeability matrix by fault injection (§5.3).
[[nodiscard]] epic::PermeabilityMatrix estimate_arrestment_permeability(
    target::ArrestmentSystem& sys, const CampaignOptions& options,
    const epic::EstimatorProgress& progress = {});

// ---------------------------------------------------------------- Table 4

/// Per-EA detection coverage for single-bit errors injected into the
/// system input signals (error model A).
struct InputCoverageRow {
    std::string signal;
    std::uint64_t injected = 0;  ///< injections attempted
    std::uint64_t active = 0;    ///< fired before arrestment completed (n_err)
    std::vector<std::uint64_t> detected_per_ea;      ///< indexed like the bank
    std::vector<std::uint64_t> detected_per_subset;  ///< indexed like `subsets`
    std::uint64_t detected_any = 0;  ///< detected by at least one EA
    /// Detection latency [ms] from injection to the earliest EA firing,
    /// over the detected errors (cf. Steininger & Scherrer [18], who
    /// combine coverage and latency when composing EDM sets).
    util::RunningStats latency;
};

struct InputCoverageResult {
    std::vector<std::string> ea_names;
    std::vector<std::string> subset_names;
    std::vector<InputCoverageRow> rows;  ///< one per injected signal
    InputCoverageRow all;                ///< aggregated over all signals
};

struct InputCoverageOptions {
    CampaignOptions campaign;
    /// ADC is excluded by default after the zero-propagation observation
    /// of §6.2 (the bench for Table 4 demonstrates it separately).
    std::vector<std::string> target_signals{"PACNT", "TIC1", "TCNT"};
};

/// Honours options.campaign.case_first/case_count windowing with
/// injection-time streams keyed by the global case index, so shard windows
/// merge bit-identically to a sequential run (the property the campaign
/// executor's kInput kind relies on).
[[nodiscard]] InputCoverageResult input_coverage_experiment(
    target::ArrestmentSystem& sys, const InputCoverageOptions& options,
    const std::vector<SubsetSpec>& subsets);

// ------------------------------------------------------------------ Fig 3

/// Severe error model (§7): periodic bit flips into RAM and stack words.
struct SevereCell {
    std::uint64_t n = 0;
    std::uint64_t detected = 0;
    [[nodiscard]] double coverage() const noexcept {
        return n ? static_cast<double>(detected) / static_cast<double>(n) : 0.0;
    }
};

struct SevereSetResult {
    std::string set_name;
    // [region: 0=RAM, 1=stack, 2=total][class: 0=tot, 1=fail, 2=nofail]
    std::array<std::array<SevereCell, 3>, 3> cells{};
};

struct SevereCoverageResult {
    std::vector<SevereSetResult> sets;
    std::uint64_t runs = 0;
    std::uint64_t failures = 0;  ///< runs classified as system failure (§4.2)
    std::size_t ram_locations = 0;    ///< injectable RAM bytes
    std::size_t stack_locations = 0;  ///< injectable stack bytes
};

[[nodiscard]] SevereCoverageResult severe_coverage_experiment(
    target::ArrestmentSystem& sys, const CampaignOptions& options,
    const std::vector<SubsetSpec>& subsets);

// ------------------------------------------------------------- validation

/// Runs every configured golden run with the bank armed and returns the
/// names of EAs that (incorrectly) fired — must be empty.
[[nodiscard]] std::vector<std::string> false_positive_check(
    target::ArrestmentSystem& sys, const CampaignOptions& options);

}  // namespace epea::exp
