// Golden-run comparison — implements the paper's measurement semantics
// (§5.3): per-signal first-difference detection and "direct error"
// attribution for module outputs.
#pragma once

#include <optional>
#include <vector>

#include "fi/golden.hpp"
#include "model/system_model.hpp"
#include "runtime/trace.hpp"

namespace epea::fi {

/// First tick at which the injection-run trace differs from the golden
/// run on `signal` (std::nullopt if identical, including equal length).
[[nodiscard]] std::optional<runtime::Tick> first_difference(
    const GoldenRun& gr, const runtime::Trace& ir, model::SignalId signal);

/// Direct-error attribution for one module-input injection.
///
/// For an error injected into input port `injected_port` of `module`, an
/// output port counts as directly affected only if its first trace
/// difference occurs no later than the first difference observed on any
/// *other* input of the module — the paper's rule of not counting errors
/// that "propagated via one of the other outputs and then came back"
/// (§5.3). Under the kernel's unit-delay semantics a contaminated input
/// can influence outputs only on later ticks, so `<=` is the correct cut.
struct DirectOutcome {
    /// affected[k] == true when output port k was directly affected.
    std::vector<bool> affected;
    /// First difference tick per output port (kInvalidTick when none).
    std::vector<runtime::Tick> first_diff;
    /// First contamination tick over the module's other inputs
    /// (kInvalidTick when none were contaminated).
    runtime::Tick contamination = runtime::kInvalidTick;
};

/// Per-signal first value-difference of an injection-run trace against
/// its golden run over their common prefix (index = SignalId,
/// kInvalidTick = none). A changed run length is not a value difference —
/// the table the batched engine records online for every lane.
[[nodiscard]] std::vector<runtime::Tick> first_value_differences(
    const GoldenRun& gr, const runtime::Trace& ir);

/// Direct attribution from a per-signal first-difference table (see
/// first_value_differences). Attribution compares values over the common
/// prefix only: a changed run length makes every signal "differ" at the
/// boundary, which must not register as a direct output effect.
[[nodiscard]] DirectOutcome attribute_direct_from_first_diff(
    const model::SystemModel& system, model::ModuleId module,
    std::uint32_t injected_port, const std::vector<runtime::Tick>& first_diff_by_signal);

/// attribute_direct_from_first_diff over an injection run's full trace.
[[nodiscard]] DirectOutcome attribute_direct(const model::SystemModel& system,
                                             const GoldenRun& gr,
                                             const runtime::Trace& ir,
                                             model::ModuleId module,
                                             std::uint32_t injected_port);

}  // namespace epea::fi
