// Subset-search strategies over (candidate locations, benefit function,
// cost budget). Two regimes:
//
//  - branch_and_bound: exact optimum for small candidate counts. Guarded
//    by max_exact_candidates — beyond ~20 locations the 2^n lattice is
//    infeasible and the call throws instead of silently running forever.
//  - greedy_search: marginal-gain-per-cost heuristic for large candidate
//    counts; O(n^2) benefit evaluations, the classic (1 - 1/e)-style
//    fallback for monotone coverage objectives.
//
// Both take the benefit as an opaque function of candidate indices, so
// they run identically against the analytic (engine) benefit and the
// campaign-backed ground-truth evaluator.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "opt/cost.hpp"

namespace epea::opt {

/// One placeable EA location.
struct Candidate {
    std::string name;
    PlacementCost cost;
};

/// Benefit of a subset given as sorted indices into the candidate list.
using BenefitFn = std::function<double(const std::vector<std::size_t>&)>;

/// Structural prune hints derived from the signal graph by the prove::
/// verifier. witnesses[c][e] says error site e can ever manifest on
/// candidate c's signal, so coverage of any subset S is bounded above by
/// |union of S's witness sets| / site_count — a bound computable without
/// a benefit evaluation. Sound only for benefit functions whose per-site
/// detection support equals graph reachability (the analytic engine
/// benefit; never attach for campaign ground truth).
struct StructuralHints {
    std::size_t site_count = 0;
    std::vector<std::vector<bool>> witnesses;  ///< [candidate][site]

    [[nodiscard]] bool applies_to(std::size_t candidate_count) const noexcept {
        return site_count > 0 && witnesses.size() == candidate_count;
    }
    /// True when no error can ever reach the candidate — its marginal
    /// gain is exactly zero under any analytic benefit.
    [[nodiscard]] bool dead(std::size_t candidate) const;
};

struct SearchOptions {
    CostBudget budget;
    /// branch_and_bound refuses more candidates than this (throws
    /// std::invalid_argument) — the exact lattice is 2^n nodes.
    std::size_t max_exact_candidates = 20;
    /// Greedy stops when the best remaining marginal gain is below this.
    double min_gain = 1e-9;
    /// Optional certificate-derived prune hints (non-owning; must outlive
    /// the search call). Searches only consult them when applies_to()
    /// matches the candidate count. Results are guaranteed identical with
    /// and without hints — hints only skip benefit evaluations the
    /// searches can prove redundant.
    const StructuralHints* hints = nullptr;
};

struct SearchResult {
    std::vector<std::size_t> selected;  ///< sorted candidate indices
    double coverage = 0.0;
    PlacementCost cost;
    std::size_t evaluations = 0;  ///< benefit calls spent by the search
    std::size_t nodes = 0;        ///< lattice nodes visited / candidates scanned
    std::size_t structural_prunes = 0;  ///< evaluations avoided via hints
    bool exact = false;           ///< true when found by branch-and-bound

    [[nodiscard]] std::vector<std::string> selected_names(
        const std::vector<Candidate>& candidates) const;
};

/// Greedy marginal-gain-per-cost: repeatedly adds the affordable candidate
/// with the highest (coverage gain / cost.total()) until nothing fits or
/// gains fall below min_gain.
[[nodiscard]] SearchResult greedy_search(const std::vector<Candidate>& candidates,
                                         const BenefitFn& benefit,
                                         const SearchOptions& options = {});

/// Exact maximum-coverage subset within budget (ties broken toward lower
/// cost). Assumes benefit is monotone in the subset (adding a location
/// never hurts) — true for any or-composed detection coverage. Throws
/// std::invalid_argument when candidates.size() > max_exact_candidates.
[[nodiscard]] SearchResult branch_and_bound(const std::vector<Candidate>& candidates,
                                            const BenefitFn& benefit,
                                            const SearchOptions& options = {});

}  // namespace epea::opt
