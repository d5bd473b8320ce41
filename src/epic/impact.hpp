// Effect analysis — the paper's §8 extension: impact (Eq. 2) and
// criticality (Eqs. 3-4).
//
//   impact(Ss -> So)  = 1 - Π_paths (1 - w_path)
//   C(s,i)            = C_{o,i} * impact(Ss -> So_i)
//   C(s)              = 1 - Π_i (1 - C(s,i))
//
// The paths composed for impact(Ss -> So) are the distinct simple
// forward paths from Ss that reach So, whether or not they continue past
// it: for a system output nothing consumes these are exactly the impact
// tree's leaves at So (Table 5, Figs 4-6), and for an intermediate
// observer they are the prefixes through which an EA placed there sees
// the error. This is the repo's exact path oracle; analytic::Engine's
// fixpoint is checked against it (analytic::enumeration_check).
//
// Impact is a relative ranking measure (independence across paths rarely
// holds); criticality additionally folds in designer-assigned output
// criticalities and only matters for systems with multiple outputs.
#pragma once

#include <optional>
#include <vector>

#include "epic/paths.hpp"

namespace epea::epic {

/// Impact of errors in `source` on `observer` (Eq. 2): 1 - prod over the
/// distinct forward-path prefixes from source ending at observer of
/// (1 - prefix weight). Returns 0 when no propagation path exists.
/// `source == observer` is the degenerate case the paper footnotes as
/// "impact 1.0". Throws std::runtime_error past options.max_paths.
[[nodiscard]] double impact(const PermeabilityMatrix& pm, model::SignalId source,
                            model::SignalId observer, const TreeOptions& options = {});

/// One row of the Table-5 impact profile.
struct ImpactRow {
    model::SignalId signal;
    /// nullopt for the sink itself (no impact value is assigned to the
    /// system output signal in Table 5).
    std::optional<double> impact;
};

/// Impact of every signal on `sink`, in signal-id order.
[[nodiscard]] std::vector<ImpactRow> impact_profile(const PermeabilityMatrix& pm,
                                                    model::SignalId sink,
                                                    const TreeOptions& options = {});

/// A designer-assigned output criticality C_{o,i} in [0,1] (§8).
struct OutputCriticality {
    model::SignalId output;
    double criticality = 1.0;
};

/// Per-output criticality C(s,i) of `source` (Eq. 3).
[[nodiscard]] double criticality_wrt(const PermeabilityMatrix& pm,
                                     model::SignalId source,
                                     const OutputCriticality& output,
                                     const TreeOptions& options = {});

/// Total criticality C(s) of `source` over all outputs (Eq. 4).
[[nodiscard]] double criticality(const PermeabilityMatrix& pm, model::SignalId source,
                                 const std::vector<OutputCriticality>& outputs,
                                 const TreeOptions& options = {});

}  // namespace epea::epic
