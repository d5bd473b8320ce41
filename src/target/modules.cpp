#include "target/modules.hpp"

#include <string>

namespace epea::target {

void register_words(runtime::InitContext& ctx, std::string_view module,
                    std::span<const WordBlock> blocks, std::uint32_t* words) {
    for (const WordBlock& b : blocks) {
        for (std::size_t k = 0; k < b.count; ++k) {
            std::string label = std::string(module) + "." + b.stem;
            if (b.count > 1) label += "[" + std::to_string(k) + "]";
            if (b.region == runtime::Region::kRam) {
                ctx.ram(std::move(label), words + b.first + k, b.width);
            } else {
                ctx.stack(std::move(label), words + b.first + k, b.width);
            }
        }
    }
}

// ------------------------------------------------------------------ CLOCK

void ClockModule::reset() {
    w_.fill(0);
    for (std::uint32_t k = 0; k < kSlots; ++k) w_[kSlotMap + k] = k;
}

// ------------------------------------------------------------------- CALC

namespace {

/// Pressure program in percent of the plateau. Decreasing: the hook-load
/// limit shrinks as the aircraft slows, so the program brakes hardest
/// early (the distance-based soft-start cap paces the pull-up) and fades
/// as the permissible force falls.
constexpr std::array<std::uint32_t, CalcModule::kProgSteps> kProgramPct = {
    108, 106, 104, 102, 100, 98, 96, 94, 92, 90, 88, 86, 84, 82, 80, 78};

}  // namespace

void CalcModule::set_config(const SoftwareConfig& cfg) {
    cfg_ = cfg;
    rebuild_program();
}

void CalcModule::rebuild_program() {
    for (std::uint32_t k = 0; k < kProgSteps; ++k) {
        w_[kProg + k] = cfg_.plateau_pressure * kProgramPct[k] / 100;
    }
}

void CalcModule::reset() {
    w_.fill(0);
    rebuild_program();
}

}  // namespace epea::target
