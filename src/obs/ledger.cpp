#include "obs/ledger.hpp"

#include <string>

#include "obs/metrics.hpp"

namespace epea::obs {

void publish_stage_ledger() {
    if constexpr (kStageLedger) {
        StageLedger& ledger = stage_ledger();
        auto& reg = MetricsRegistry::global();
        for (std::size_t s = 0; s < kStageCount; ++s) {
            std::string name = "fi.stage_cycles.";
            name += kStageNames[s];
            reg.counter(name).add(ledger.cycles[s]);
        }
        reg.counter("fi.stage_cycles.runner").add(ledger.runner_cycles);
        reg.counter("fi.lanes.follower_ticks").add(ledger.follower_lane_ticks);
        ledger = StageLedger{};
    }
}

}  // namespace epea::obs
