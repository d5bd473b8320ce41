#include "fi/comparison.hpp"

#include <algorithm>

namespace epea::fi {

std::optional<runtime::Tick> first_difference(const GoldenRun& gr,
                                              const runtime::Trace& ir,
                                              model::SignalId signal) {
    return ir.first_difference(gr.trace, signal);
}

std::vector<runtime::Tick> first_value_differences(const GoldenRun& gr,
                                                   const runtime::Trace& ir) {
    std::vector<runtime::Tick> first_diff(gr.trace.signal_count(), runtime::kInvalidTick);
    for (std::size_t s = 0; s < first_diff.size(); ++s) {
        const model::SignalId sid{static_cast<std::uint32_t>(s)};
        if (const auto t =
                ir.first_difference(gr.trace, sid, /*include_length_mismatch=*/false)) {
            first_diff[s] = *t;
        }
    }
    return first_diff;
}

DirectOutcome attribute_direct(const model::SystemModel& system, const GoldenRun& gr,
                               const runtime::Trace& ir, model::ModuleId module,
                               std::uint32_t injected_port) {
    return attribute_direct_from_first_diff(system, module, injected_port,
                                            first_value_differences(gr, ir));
}

DirectOutcome attribute_direct_from_first_diff(
    const model::SystemModel& system, model::ModuleId module,
    std::uint32_t injected_port, const std::vector<runtime::Tick>& first_diff_by_signal) {
    const auto& spec = system.module(module);
    DirectOutcome out;
    out.affected.assign(spec.outputs.size(), false);
    out.first_diff.assign(spec.outputs.size(), runtime::kInvalidTick);

    for (std::uint32_t p = 0; p < spec.inputs.size(); ++p) {
        if (p == injected_port) continue;
        const runtime::Tick t = first_diff_by_signal[spec.inputs[p].index()];
        if (t != runtime::kInvalidTick) out.contamination = std::min(out.contamination, t);
    }
    for (std::uint32_t k = 0; k < spec.outputs.size(); ++k) {
        const runtime::Tick t = first_diff_by_signal[spec.outputs[k].index()];
        if (t != runtime::kInvalidTick) {
            out.first_diff[k] = t;
            out.affected[k] = t <= out.contamination;
        }
    }
    return out;
}

}  // namespace epea::fi
