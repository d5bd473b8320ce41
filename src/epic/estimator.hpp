// PermeabilityEstimator — estimates the permeability matrix by fault
// injection exactly as §5.3 describes: golden run per test case, one
// single-bit error per injection run targeting one module input, golden
// run comparison stopping at the first difference, and direct-error
// attribution.
#pragma once

#include <functional>

#include "epic/matrix.hpp"
#include "fi/comparison.hpp"
#include "fi/fastpath.hpp"
#include "fi/injector.hpp"
#include "runtime/simulator.hpp"

namespace epea::epic {

struct EstimatorOptions {
    /// Injection moments per (input port, bit), stratified-randomly
    /// spread over the golden run of each test case.
    std::size_t times_per_bit = 10;
    /// Hard cap on any single run.
    runtime::Tick max_ticks = 20000;
    /// Seed for the stratified injection-time draws. The per-case stream
    /// is derived from (seed, case_index_offset + case), so splitting a
    /// campaign across workers reproduces the sequential results exactly.
    std::uint64_t seed = 0x7ab1e1ULL;
    std::size_t case_index_offset = 0;
    /// Ablations (defaults reproduce the paper's method):
    /// - direct_attribution: apply the §5.3 "direct errors only" rule;
    ///   when off, any output first-difference counts.
    bool direct_attribution = true;
    /// - stratified_times: stratified-random injection moments; when off,
    ///   stratum midpoints are used (exposes alignment artifacts between
    ///   injection times and run-fraction-locked events).
    bool stratified_times = true;
    /// Injection engine (DESIGN.md §9): run the one-shot plans of a case
    /// as lockstep lanes forked from golden boundary snapshots. Off
    /// replays every plan from tick 0 — the reference; bit-identical
    /// results either way.
    bool use_batch = true;
    /// Golden-run cache for a caller that reuses goldens across calls;
    /// null captures each case's golden fresh and frees it with the case.
    fi::GoldenCache* golden_cache = nullptr;
    /// Delta campaigns: when non-empty, only the named modules are
    /// injected. The stratified time draws of skipped modules are still
    /// consumed from the per-case stream, so the filtered run's results
    /// for the measured modules are bit-identical to the same modules'
    /// rows in an unfiltered run — the splice guarantee of the delta
    /// planner (DESIGN.md §12). Unknown names are ignored.
    std::vector<std::string> module_filter;
};

/// Progress callback: (runs completed, total runs planned).
using EstimatorProgress = std::function<void(std::size_t, std::size_t)>;

class PermeabilityEstimator {
public:
    /// The injector must already be installed on `sim`.
    PermeabilityEstimator(runtime::Simulator& sim, fi::Injector& injector)
        : sim_(&sim), injector_(&injector) {}

    /// Runs the full campaign: for each test case (configure_case(c) must
    /// prepare the system; the estimator resets and runs), every module
    /// input port is injected with every bit at times_per_bit moments.
    /// Returns the estimated matrix with per-pair counts.
    [[nodiscard]] PermeabilityMatrix estimate(
        std::size_t case_count, const std::function<void(std::size_t)>& configure_case,
        const EstimatorOptions& options = {}, const EstimatorProgress& progress = {});

    /// Total injection runs executed by the last estimate() call.
    [[nodiscard]] std::size_t runs_executed() const noexcept { return runs_; }

    /// Injection-engine counters of the last estimate() call.
    [[nodiscard]] const fi::FastPathStats& fastpath_stats() const noexcept {
        return fastpath_;
    }

private:
    runtime::Simulator* sim_;
    fi::Injector* injector_;
    std::size_t runs_ = 0;
    fi::FastPathStats fastpath_;
};

}  // namespace epea::epic
