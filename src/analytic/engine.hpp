// Analytic propagation engine (DESIGN.md §12) — answers permeability /
// exposure / impact queries *instantly* by composing the measured
// per-module permeability matrix through the signal graph, instead of
// spending an injection campaign per question.
//
// Semantics: an error born at `source` spreads along the non-zero
// permeability edges under the same independence assumption the paper
// applies to impact (Eq. 2). Cycles — the target feeds `i` back into
// CALC — are handled with the ≥2-length fixpoint treatment the matrix
// lint already applies to feedback products: the module-internal i→i
// self-loop is excluded, and the remaining cyclic system is iterated to
// a least fixpoint (Kleene iteration from ⊥, monotone, so it converges
// from below) with a configurable epsilon and iteration cap.
//
// Every answer carries error bars: each matrix cell's Wilson interval
// (from its affected/active estimation counts) is propagated through the
// same composition, which is monotone in every cell value, so running
// the fixpoint on the lo/point/hi cell values yields lo/point/hi bounds
// on the composed quantity.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "epic/matrix.hpp"

namespace epea::analytic {

/// A value with propagated Wilson-interval error bars. For analytically
/// set matrices (no estimation counts) lo == point == hi.
struct Bound {
    double lo = 0.0;
    double point = 0.0;
    double hi = 0.0;
};

struct EngineOptions {
    /// Fixpoint convergence threshold: iterate until no signal's
    /// visibility changed by more than epsilon.
    double epsilon = 1e-10;
    /// Iteration cap for cyclic graphs whose contraction is slow (a
    /// permeability-1.0 cycle never meets epsilon); the profile's
    /// `converged` flag records whether the cap was hit.
    std::size_t max_iterations = 256;
    /// Normal quantile of the per-cell Wilson intervals (95 %).
    double z = 1.96;
};

/// The reach profile of one error source: for every signal, the
/// composed probability that an error born at `source` becomes visible
/// there (source itself pinned at 1).
struct ReachProfile {
    model::SignalId source;
    std::vector<Bound> visibility;  ///< indexed by signal id
    std::size_t iterations = 0;
    bool converged = true;
};

class Engine {
public:
    /// `pm` (and its system) must outlive the engine.
    explicit Engine(const epic::PermeabilityMatrix& pm, EngineOptions options = {});

    [[nodiscard]] const model::SystemModel& system() const noexcept {
        return pm_->system();
    }
    [[nodiscard]] const EngineOptions& options() const noexcept { return options_; }

    /// Reach profile of `source` (cached per source after the first query).
    /// NOT thread-safe (mutates the per-source cache); concurrent callers
    /// must use solve() instead.
    [[nodiscard]] const ReachProfile& reach(model::SignalId source) const;

    /// Pure fixpoint solve of `source` — identical result to reach() but
    /// touches no mutable state, so a shared const Engine can be solved
    /// from many threads at once (the serve layer memoizes the profiles
    /// behind its own shard-locked cache).
    [[nodiscard]] ReachProfile solve(model::SignalId source) const;

    /// Composed source→sink permeability: the probability an error in
    /// `source` becomes visible at `sink`, from the noisy-OR fixpoint.
    /// The analytic counterpart of the exact path oracle epic::impact
    /// (which enumerates simple paths and so cannot walk feedback);
    /// analytic::enumeration_check measures the gap. `source == sink` is
    /// the degenerate 1.0.
    [[nodiscard]] Bound permeability(model::SignalId source,
                                     model::SignalId sink) const;

    /// Eq.-2-style impact of `source` on `sink` — alias of permeability,
    /// kept for symmetry with epic::impact.
    [[nodiscard]] Bound impact(model::SignalId source, model::SignalId sink) const {
        return permeability(source, sink);
    }

    /// Signal error exposure X_s with error bars (Table 2): sum of the
    /// producing module's permeabilities into `s`. System inputs have no
    /// producer and therefore no exposure (nullopt), matching
    /// epic::signal_exposure point-wise.
    [[nodiscard]] std::optional<Bound> exposure(model::SignalId s) const;

    /// True when any reach() call so far hit the iteration cap.
    [[nodiscard]] bool any_unconverged() const noexcept { return any_unconverged_; }

    /// Number of fixpoint solves executed (cache misses).
    [[nodiscard]] std::size_t solves() const noexcept { return solves_; }

private:
    struct Edge {
        std::uint32_t from = 0;  ///< signal index the error enters on
        Bound p;                 ///< cell permeability with Wilson bounds
    };

    const epic::PermeabilityMatrix* pm_;
    EngineOptions options_;
    /// incoming_[t]: all permeability edges into signal t (module-internal
    /// self-loops u == t excluded per the ≥2-length rule).
    std::vector<std::vector<Edge>> incoming_;
    mutable std::vector<std::optional<ReachProfile>> cache_;
    mutable bool any_unconverged_ = false;
    mutable std::size_t solves_ = 0;
};

}  // namespace epea::analytic
