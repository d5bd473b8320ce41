// Engine-backed placement benefits: the `analytic` benefit mode of
// `place optimize` (the other is campaign ground truth). The engine's
// fixpoint reach fills the detection matrix D[site][candidate], and
// opt's machinery does the rest through
// PlacementOptimizer::with_detection. This is the one analytic-optimizer
// factory: opt cannot link analytic (analytic -> prove -> opt).
#pragma once

#include <vector>

#include "analytic/engine.hpp"
#include "opt/optimizer.hpp"

namespace epea::analytic {

/// D[site][candidate] = engine reach of an error born at the site when
/// observed at the candidate. Sites follow the error model (input:
/// system inputs; severe: every signal, since RAM flips can corrupt any
/// of them).
[[nodiscard]] std::vector<std::vector<double>> detection_matrix(
    const Engine& engine, opt::ErrorModel model,
    const std::vector<model::SignalId>& candidates);

/// Optimizer over an explicit candidate list. Boolean candidates are
/// dropped (no boolean EA exists); synthetic systems pass
/// epic::ea_candidate_signals here.
[[nodiscard]] opt::PlacementOptimizer make_engine_optimizer(
    const epic::PermeabilityMatrix& pm, opt::ErrorModel model,
    const std::vector<model::SignalId>& candidates,
    const EngineOptions& options = {});

/// Optimizer over the arrestment target's EA-carrying signals.
[[nodiscard]] opt::PlacementOptimizer make_engine_optimizer(
    const epic::PermeabilityMatrix& pm, opt::ErrorModel model,
    const EngineOptions& options = {});

}  // namespace epea::analytic
