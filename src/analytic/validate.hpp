// Validation of the analytic engine (DESIGN.md §12): where does
// composed propagation agree with exhaustive path enumeration, and where
// does either agree with campaign ground truth?
//
// Three prongs, one JSON report (the CI `analytic-parity` artifact):
//  1. enumeration_check — engine fixpoint vs the exact path-enumeration
//     measures (epic::impact per source/observer pair and
//     epic::signal_exposure per signal) on a given matrix. On the paper's
//     Table-1 matrix this is the Table-1/2 agreement gate.
//  2. campaign_check — on a *measured* arrestment matrix, compare the
//     engine's composed input→output permeability against directly
//     measured end-to-end deviation rates (first golden-run difference at
//     the system output) from the same injection budget.
//  3. synth_sweep — a seeded corpus of src/synth graphs, acyclic and
//     cyclic, mapping out where composition breaks down (reconvergent
//     fan-in and feedback walks are exactly where fixpoint and simple-
//     path enumeration part ways).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analytic/engine.hpp"
#include "exp/arrestment_experiments.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

namespace epea::analytic {

/// Worst source/observer disagreement of an enumeration check.
struct PairDeviation {
    std::string source;
    std::string observer;
    double analytic = 0.0;
    double reference = 0.0;
};

struct EnumerationCheck {
    std::size_t pairs = 0;
    double max_abs_diff = 0.0;
    double mean_abs_diff = 0.0;
    /// Engine exposure vs epic::signal_exposure (must agree to float
    /// noise — both are the same direct sum).
    double exposure_max_abs_diff = 0.0;
    PairDeviation worst;
    bool all_converged = true;

    [[nodiscard]] util::JsonValue to_json() const;
};

/// Engine (fixpoint) vs exact path enumeration on every ordered signal
/// pair of `pm`'s system.
[[nodiscard]] EnumerationCheck enumeration_check(const epic::PermeabilityMatrix& pm,
                                                 const EngineOptions& engine = {});

/// Structural exactness: the engine's composed permeability is positive
/// exactly when the §16 prover finds a positive-permeability path in the
/// signal graph. Any mismatch means the two reachability semantics have
/// drifted apart (prover edge rule vs engine cell bound).
struct ExactnessCheck {
    std::size_t pairs = 0;
    std::size_t mismatches = 0;
    /// First mismatching pair (reference is 1.0 when the prover finds a
    /// path the engine calls unreachable, 0.0 for the converse).
    PairDeviation worst;

    [[nodiscard]] util::JsonValue to_json() const;
};

/// Engine reach positivity vs prover path-existence on every ordered
/// signal pair of `pm`'s system.
[[nodiscard]] ExactnessCheck exactness_check(const epic::PermeabilityMatrix& pm,
                                             const EngineOptions& engine = {});

/// Fills every structural input/output pair of `system` with permeability
/// `p` — the hand-written-target harness for exactness_check on models
/// that ship without a measured matrix (the tank).
[[nodiscard]] epic::PermeabilityMatrix uniform_matrix(const model::SystemModel& system,
                                                      double p);

/// One (system input, system output) row of the campaign prong.
struct CampaignRow {
    std::string input;
    std::string output;
    util::Proportion measured;  ///< end-to-end deviation rate (Wilson CI)
    Bound analytic;             ///< engine prediction from the measured matrix
    [[nodiscard]] double abs_diff() const noexcept {
        return measured.point > analytic.point ? measured.point - analytic.point
                                               : analytic.point - measured.point;
    }
};

struct CampaignCheck {
    std::vector<CampaignRow> rows;
    double max_abs_diff = 0.0;
    std::uint64_t runs = 0;  ///< injection runs spent on the end-to-end side

    [[nodiscard]] util::JsonValue to_json() const;
};

/// Estimates the arrestment matrix with `options`, then measures
/// end-to-end input→output deviation rates with the same sizing and
/// compares them against the engine's composed prediction.
[[nodiscard]] CampaignCheck campaign_check(const exp::CampaignOptions& options,
                                           const EngineOptions& engine = {});

struct SynthSweep {
    std::size_t graphs = 0;
    std::size_t cyclic_graphs = 0;
    double max_abs_diff_acyclic = 0.0;
    double max_abs_diff_cyclic = 0.0;
    bool all_converged = true;
    /// Engine-vs-prover reachability mismatches across the corpus; gated
    /// to zero (positivity must agree even where magnitudes diverge).
    std::size_t exactness_mismatches = 0;

    [[nodiscard]] util::JsonValue to_json() const;
};

/// Runs enumeration checks over `graphs` seeded synth systems (half of
/// them rewired with cycle_density 0.25).
[[nodiscard]] SynthSweep synth_sweep(std::size_t graphs, std::uint64_t seed,
                                     const EngineOptions& engine = {});

struct ValidateOptions {
    exp::CampaignOptions campaign = exp::CampaignOptions::from_env();
    EngineOptions engine;
    /// Committed tolerances (see DESIGN.md §12): the CI analytic-parity
    /// job fails when a prong exceeds its bound. Calibrated against the
    /// arrestment target: the Table-1 enumeration prong measures 4.1e-5
    /// (the ≥2-length cycle treatment vs exact simple paths), the full
    /// 25x10 campaign prong 0.091 (composition underestimates PACNT→TOC2
    /// because reconvergent paths through CALC are not independent).
    double enumeration_tolerance = 0.001;
    double campaign_tolerance = 0.15;
    std::size_t synth_graphs = 6;
    std::uint64_t synth_seed = 42;
    bool run_campaign = true;  ///< the expensive prong; CLI --no-campaign
    bool run_synth = true;
};

struct ValidateResult {
    bool pass = true;
    util::JsonValue report;  ///< full comparison JSON (the CI artifact)
};

/// Runs all requested prongs on the arrestment target (prong 1 uses the
/// paper's Table-1 matrix, so Table-2 agreement is checked even when the
/// campaign prong is skipped).
[[nodiscard]] ValidateResult validate_arrestment(const ValidateOptions& options);

}  // namespace epea::analytic
