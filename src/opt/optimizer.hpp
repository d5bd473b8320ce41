// PlacementOptimizer — the subsystem facade tying cost model, benefit
// model and search together (DESIGN.md §8). Construct one of:
//
//  - with_detection(...):    analytic benefits from a precomputed
//                            detection matrix D[site][candidate], the
//                            probability that an EA at candidate c sees
//                            an error born at site e. The analytic
//                            engine fills D (analytic::make_engine_optimizer
//                            is the factory; opt cannot link analytic);
//  - ground_truth(options):  benefits measured by sharded fault-injection
//                            campaigns, memoized on disk.
//
// An analytic subset's coverage is the mean, over the error sites of the
// chosen model, of the probability that at least one selected location
// sees the error:
//
//   coverage(S) = mean_e [ 1 - prod_{c in S} (1 - D[e][c]) ]
//
// The independence assumption across locations mirrors the paper's own
// caveat for impact (§8): the estimate is a ranking device for search,
// to be confirmed by the campaign-backed ground truth.
//
// Ask for a budgeted optimum (optimize), the full Pareto frontier
// (frontier), or a report validating the paper's placements against the
// frontier (explain).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "model/system_model.hpp"
#include "opt/evaluator.hpp"
#include "opt/frontier.hpp"
#include "opt/search.hpp"

namespace epea::opt {

/// A named placement from the paper, for labelling frontier points.
struct ReferenceSet {
    std::string label;
    std::vector<std::string> signals;
};

/// The paper's placements on the arrestment target: the heuristic EH-set
/// (§5.1), the propagation-analysis PA-set (§5.3) and the §10 extended
/// set (PA plus the globally-exposed ms_slot_nbr).
[[nodiscard]] std::vector<ReferenceSet> arrestment_reference_sets();

class PlacementOptimizer {
public:
    /// Analytic benefits from a caller-precomputed detection matrix
    /// D[site][candidate]; every row must have one column per candidate.
    /// Every candidate must carry an EA cost (no boolean signals).
    [[nodiscard]] static PlacementOptimizer with_detection(
        const model::SystemModel& system,
        const std::vector<model::SignalId>& candidates,
        std::vector<std::vector<double>> detect);

    /// Campaign-backed benefits, cached under options.dir.
    [[nodiscard]] static PlacementOptimizer ground_truth(EvaluatorOptions options);

    [[nodiscard]] const std::vector<Candidate>& candidates() const noexcept {
        return candidates_;
    }

    /// Benefit of an explicit placement (signal names).
    [[nodiscard]] double coverage(const std::vector<std::string>& signals);

    /// Installs certificate-derived prune hints (prove::structural_hints)
    /// for subsequent optimize() calls. Hint rows must align with
    /// candidates(); a mismatched hint set is ignored by the searches.
    /// Only meaningful for analytic benefits — ground-truth campaigns may
    /// disagree with the structural graph, so callers never attach there.
    void set_structural_hints(StructuralHints hints) { hints_ = std::move(hints); }

    /// Clears hints: optimize() runs unpruned (the CI soundness gate
    /// compares this against the hinted run).
    void clear_structural_hints() { hints_ = StructuralHints{}; }

    /// Best placement within the budget: exact branch-and-bound when the
    /// candidate count allows it, greedy marginal-gain-per-cost beyond.
    [[nodiscard]] SearchResult optimize(const SearchOptions& options = {});

    /// Full subset-lattice Pareto frontier, with the paper's reference
    /// sets labelled where they appear. Ground-truth mode batches every
    /// uncached subset into a single campaign.
    [[nodiscard]] Frontier frontier();

    /// Human-readable frontier report: each reference set's coverage,
    /// cost, frontier membership and coverage slack (distance below the
    /// frontier at its own cost), plus the PA/EH cost ratio the paper's
    /// ~40 % resource-saving claim rests on.
    [[nodiscard]] std::string explain(const Frontier& frontier) const;

    /// Analytic coverage evaluations served so far (search-effort
    /// metric; always 0 in ground-truth mode).
    [[nodiscard]] std::size_t evaluations() const noexcept { return evaluations_; }

    /// Campaigns run so far (always 0 in analytic mode).
    [[nodiscard]] std::size_t campaigns_executed() const noexcept {
        return evaluator_ ? evaluator_->campaigns_executed() : 0;
    }
    [[nodiscard]] CampaignEvaluator* evaluator() noexcept { return evaluator_.get(); }

private:
    PlacementOptimizer() = default;

    /// In ground-truth mode, measure the whole lattice in one campaign so
    /// subsequent benefit lookups are pure cache reads.
    void ensure_ground_truth_lattice();
    [[nodiscard]] BenefitFn benefit_fn();
    /// Analytic coverage of a subset of candidate indices.
    [[nodiscard]] double analytic_coverage(const std::vector<std::size_t>& subset);

    std::vector<Candidate> candidates_;
    StructuralHints hints_;
    std::vector<std::vector<double>> detect_;  // [site][candidate], analytic mode
    std::size_t evaluations_ = 0;
    std::shared_ptr<CampaignEvaluator> evaluator_;
    /// canonical subset -> measured coverage (ground-truth mode).
    std::map<std::string, double> measured_;
    bool lattice_measured_ = false;
};

}  // namespace epea::opt
