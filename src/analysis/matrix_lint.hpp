// Permeability-matrix sanity (DESIGN.md §11, EPEA-E03x/W03x): value
// ranges, estimation-count consistency, confidence-interval width, and
// the weighted-cycle checks that protect the analytic engine's fixpoint
// (analytic::Engine): a heavy feedback cycle is where its independent
// walks are least trustworthy, and a near-lossless one never contracts,
// so the Kleene iteration stops at its cap unconverged.
#pragma once

#include <istream>
#include <string>

#include "analysis/finding.hpp"
#include "epic/matrix.hpp"

namespace epea::analysis {

struct MatrixLintOptions {
    /// EPEA-W032: warn when a counted pair's Wilson 95 % interval has a
    /// half-width above this (estimate too noisy to rank placements).
    double max_ci_half_width = 0.15;
    /// EPEA-W033: warn when a feedback cycle's permeability product
    /// reaches this.
    double feedback_warn = 0.5;
    /// EPEA-E034: error when it reaches this (effectively lossless).
    double feedback_error = 0.999;
};

[[nodiscard]] Report lint_matrix(const epic::PermeabilityMatrix& pm,
                                 const std::string& artifact,
                                 const MatrixLintOptions& options = {});

/// Lints a matrix CSV (save_matrix_csv format) leniently — unlike
/// epic::load_matrix_csv, which throws on the very defects a linter must
/// report. Rows are checked structurally (EPEA-E013 malformed line,
/// EPEA-E010 unknown module/signal, EPEA-E030 out-of-range value,
/// EPEA-E031 inconsistent counts); when every row parses cleanly the
/// loaded matrix additionally gets the deep lint_matrix checks.
[[nodiscard]] Report lint_matrix_csv(std::istream& in,
                                     const model::SystemModel& system,
                                     const std::string& artifact,
                                     const MatrixLintOptions& options = {});

}  // namespace epea::analysis
