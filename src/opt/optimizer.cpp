#include "opt/optimizer.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "exp/arrestment_experiments.hpp"
#include "exp/paper_data.hpp"
#include "target/arrestment_system.hpp"

namespace epea::opt {

namespace {

/// The EA-carrying signals of the arrestment target (EA1..EA7 locations)
/// as search candidates, with kind-derived costs.
std::vector<Candidate> arrestment_candidates() {
    const model::SystemModel system = target::make_arrestment_model();
    std::vector<model::SignalId> ids;
    for (const auto& [ea_name, signal_name] : exp::arrestment_ea_signals()) {
        ids.push_back(system.signal_id(signal_name));
    }
    const CostModel costs = CostModel::from_signal_kinds(system, ids);
    std::vector<Candidate> out;
    for (const model::SignalId id : ids) {
        out.push_back(Candidate{system.signal_name(id), costs.of(system.signal_name(id))});
    }
    return out;
}

std::vector<std::size_t> indices_of(const std::vector<Candidate>& candidates,
                                    const std::vector<std::string>& signals) {
    std::vector<std::size_t> subset;
    for (const std::string& s : signals) {
        const auto it = std::find_if(candidates.begin(), candidates.end(),
                                     [&](const Candidate& c) { return c.name == s; });
        if (it == candidates.end()) {
            throw std::invalid_argument("PlacementOptimizer: '" + s +
                                        "' is not a candidate location");
        }
        subset.push_back(static_cast<std::size_t>(it - candidates.begin()));
    }
    std::sort(subset.begin(), subset.end());
    return subset;
}

}  // namespace

std::vector<ReferenceSet> arrestment_reference_sets() {
    std::vector<ReferenceSet> sets;
    sets.push_back(ReferenceSet{"EH-set", exp::paper_eh_signals()});
    sets.push_back(ReferenceSet{"PA-set", exp::paper_pa_signals()});
    ReferenceSet ext{"EXT-set", exp::paper_pa_signals()};
    ext.signals.push_back("ms_slot_nbr");  // §10: the globally exposed slot counter
    sets.push_back(std::move(ext));
    return sets;
}

PlacementOptimizer PlacementOptimizer::with_detection(
    const model::SystemModel& system, const std::vector<model::SignalId>& candidates,
    std::vector<std::vector<double>> detect) {
    if (candidates.empty()) {
        throw std::invalid_argument("PlacementOptimizer: no candidate locations");
    }
    PlacementOptimizer opt;
    const CostModel costs = CostModel::from_signal_kinds(system, candidates);
    for (const model::SignalId id : candidates) {
        const std::string& name = system.signal_name(id);
        if (!costs.has(name)) {
            throw std::invalid_argument(
                "PlacementOptimizer::with_detection: candidate '" + name +
                "' carries no EA cost (boolean signal); filter candidates "
                "before building the detection matrix");
        }
        opt.candidates_.push_back(Candidate{name, costs.of(name)});
    }
    for (const std::vector<double>& row : detect) {
        if (row.size() != candidates.size()) {
            throw std::invalid_argument(
                "PlacementOptimizer::with_detection: detection row width "
                "differs from the candidate count");
        }
    }
    opt.detect_ = std::move(detect);
    return opt;
}

PlacementOptimizer PlacementOptimizer::ground_truth(EvaluatorOptions options) {
    PlacementOptimizer opt;
    opt.candidates_ = arrestment_candidates();
    opt.evaluator_ = std::make_shared<CampaignEvaluator>(std::move(options));
    return opt;
}

void PlacementOptimizer::ensure_ground_truth_lattice() {
    if (!evaluator_ || lattice_measured_) return;
    const std::size_t n = candidates_.size();
    if (n > 16) {
        throw std::invalid_argument(
            "PlacementOptimizer: ground-truth lattice over " + std::to_string(n) +
            " candidates is infeasible (2^n campaign subsets)");
    }
    std::vector<std::vector<std::string>> subsets;
    for (std::size_t mask = 1; mask < (std::size_t{1} << n); ++mask) {
        std::vector<std::string> signals;
        for (std::size_t i = 0; i < n; ++i) {
            if (mask & (std::size_t{1} << i)) signals.push_back(candidates_[i].name);
        }
        subsets.push_back(std::move(signals));
    }
    const std::vector<CacheEntry> entries = evaluator_->evaluate(subsets);
    for (std::size_t i = 0; i < subsets.size(); ++i) {
        measured_[canonical_subset(subsets[i])] = entries[i].coverage;
    }
    lattice_measured_ = true;
}

double PlacementOptimizer::analytic_coverage(const std::vector<std::size_t>& subset) {
    ++evaluations_;
    if (detect_.empty()) return 0.0;
    double sum = 0.0;
    for (const std::vector<double>& row : detect_) {
        double miss = 1.0;
        for (const std::size_t c : subset) {
            miss *= 1.0 - row.at(c);
        }
        sum += 1.0 - miss;
    }
    return sum / static_cast<double>(detect_.size());
}

BenefitFn PlacementOptimizer::benefit_fn() {
    if (!evaluator_) {
        return [this](const std::vector<std::size_t>& subset) {
            return analytic_coverage(subset);
        };
    }
    ensure_ground_truth_lattice();
    // Lattice-backed lookup: every non-empty subset the searches can ask
    // about was measured (or cache-loaded) by ensure_ground_truth_lattice.
    // The empty subset — branch-and-bound evaluates it at the root — is
    // no detection at all, not a campaign.
    const auto* measured = &measured_;
    const auto* candidates = &candidates_;
    return [measured, candidates](const std::vector<std::size_t>& subset) {
        if (subset.empty()) return 0.0;
        std::vector<std::string> names;
        for (const std::size_t i : subset) names.push_back((*candidates)[i].name);
        const auto it = measured->find(canonical_subset(names));
        if (it == measured->end()) {
            throw std::logic_error("PlacementOptimizer: subset not in measured lattice");
        }
        return it->second;
    };
}

double PlacementOptimizer::coverage(const std::vector<std::string>& signals) {
    if (signals.empty()) return 0.0;
    return benefit_fn()(indices_of(candidates_, signals));
}

SearchResult PlacementOptimizer::optimize(const SearchOptions& options) {
    const BenefitFn benefit = benefit_fn();
    SearchOptions effective = options;
    if (effective.hints == nullptr && hints_.applies_to(candidates_.size())) {
        effective.hints = &hints_;
    }
    if (candidates_.size() <= effective.max_exact_candidates) {
        return branch_and_bound(candidates_, benefit, effective);
    }
    return greedy_search(candidates_, benefit, effective);
}

Frontier PlacementOptimizer::frontier() {
    Frontier f = enumerate_frontier(candidates_, benefit_fn());
    // Label the points matching the paper's reference placements.
    for (const ReferenceSet& ref : arrestment_reference_sets()) {
        std::vector<std::string> ref_signals = ref.signals;
        const std::string key = canonical_subset(ref_signals);
        for (FrontierPoint& p : f.points) {
            std::vector<std::string> signals = p.signals;
            if (canonical_subset(signals) == key) {
                p.label = ref.label;
                break;
            }
        }
    }
    return f;
}

std::string PlacementOptimizer::explain(const Frontier& f) const {
    std::ostringstream os;
    os << "placement frontier: " << f.points.size() << " subsets over "
       << candidates_.size() << " candidate locations, "
       << f.frontier_points().size() << " on the Pareto frontier\n\n";

    const FrontierPoint* eh = nullptr;
    const FrontierPoint* pa = nullptr;
    for (const FrontierPoint& p : f.points) {
        if (p.label.empty()) continue;
        if (p.label == "EH-set") eh = &p;
        if (p.label == "PA-set") pa = &p;
        os << p.label << " {" << canonical_subset(p.signals) << "}\n"
           << "  coverage " << p.coverage << ", memory " << p.cost.memory
           << " B, time " << p.cost.time << " cmp/tick\n"
           << "  " << (p.on_frontier ? "ON the frontier" : "off the frontier")
           << ", coverage slack " << coverage_slack(f.points, p) << "\n";
    }

    if (eh != nullptr && pa != nullptr && eh->cost.total() > 0.0) {
        os << "\nPA-set vs EH-set: coverage " << pa->coverage << " vs " << eh->coverage
           << ", total cost ratio " << pa->cost.total() / eh->cost.total() << " ("
           << pa->cost.memory << "+" << pa->cost.time << " vs " << eh->cost.memory
           << "+" << eh->cost.time << ")\n";
    }
    return os.str();
}

}  // namespace epea::opt
