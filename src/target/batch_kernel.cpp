#include "target/batch_kernel.hpp"

#include <algorithm>
#include <optional>
#include <span>

#include "target/modules.hpp"
#include "util/bitops.hpp"

namespace epea::target {

namespace {

enum ModuleIndex : std::size_t { kClock, kDistS, kCalc, kPresS, kVReg, kPresA, kModules };

/// Most output ports of one module (or sensors of the plant) the kernel
/// binds.
constexpr std::size_t kMaxPorts = 8;

/// Word k of one lane: row k of a word-major section at that lane.
template <class T>
struct LaneWords {
    T* row0;  ///< row 0, offset to the lane
    std::size_t stride;
    T& operator[](std::size_t k) const noexcept { return row0[k * stride]; }
};

/// A stage's port rows. Each stage copies them into a local, so the
/// lane loop's row stores cannot alias them.
struct PortRows {
    const std::uint32_t* frame = nullptr;  ///< frame row of input port 0
    std::array<std::uint32_t*, kMaxPorts> out{};
    std::array<std::uint8_t, kMaxPorts> width{};
    std::size_t stride = 0;
};

/// One lane's ModuleContext: inputs from its frame rows, outputs to its
/// signal rows, masked to the signal width as SignalStore::set does.
struct LaneIo {
    const PortRows& rows;
    std::size_t lane;

    [[nodiscard]] std::uint32_t in(std::size_t port) const noexcept {
        return rows.frame[port * rows.stride + lane];
    }
    [[nodiscard]] bool in_bool(std::size_t port) const noexcept { return in(port) != 0; }
    void out(std::size_t port, std::uint32_t value) const noexcept {
        rows.out[port][lane] = util::mask_width(value, rows.width[port]);
    }
    void out_bool(std::size_t port, bool value) const noexcept {
        rows.out[port][lane] = value ? 1U : 0U;
    }
};

template <class M>
const M* behaviour_as(const runtime::Simulator& sim, std::size_t m) {
    return dynamic_cast<const M*>(
        &sim.behaviour(model::ModuleId{static_cast<std::uint32_t>(m)}));
}

/// Index of the memory word registered at `words[0]`, provided all of
/// `words` are registered consecutively and in order.
std::optional<std::size_t> word_index(const runtime::MemoryMap& memory,
                                      std::span<const std::uint32_t> words) {
    const auto all = memory.words();
    const auto it = std::find_if(all.begin(), all.end(), [&](const runtime::MemWord& w) {
        return w.word == words.data();
    });
    const auto first = static_cast<std::size_t>(it - all.begin());
    if (it == all.end() || first + words.size() > all.size()) return std::nullopt;
    for (std::size_t k = 1; k < words.size(); ++k) {
        if (all[first + k].word != &words[k]) return std::nullopt;
    }
    return first;
}

}  // namespace

bool ArrestmentBatchBackend::resolve() {
    if (resolved_ != 0) return resolved_ > 0;
    resolved_ = -1;

    const model::SystemModel& model = sim_->system();
    plant_ = dynamic_cast<const Plant*>(&sim_->environment());
    if (plant_ == nullptr || model.module_count() != kModules) return false;
    const auto* clock = behaviour_as<ClockModule>(*sim_, kClock);
    dist_ = behaviour_as<DistSModule>(*sim_, kDistS);
    calc_ = behaviour_as<CalcModule>(*sim_, kCalc);
    const auto* pres_s = behaviour_as<PresSModule>(*sim_, kPresS);
    const auto* v_reg = behaviour_as<VRegModule>(*sim_, kVReg);
    const auto* pres_a = behaviour_as<PresAModule>(*sim_, kPresA);
    if (!clock || !dist_ || !calc_ || !pres_s || !v_reg || !pres_a) return false;
    const std::array<std::span<const std::uint32_t>, kModules> state = {
        clock->words(), dist_->words(), calc_->words(),
        pres_s->words(), v_reg->words(), pres_a->words()};

    const auto bind_outputs = [&](std::span<const model::SignalId> signals, Binding& b) {
        if (signals.size() > kMaxPorts) return false;
        b.outputs.clear();
        b.widths.clear();
        for (const model::SignalId s : signals) {
            b.outputs.push_back(s.index());
            b.widths.push_back(model.signal(s).width);
        }
        return true;
    };
    const runtime::MemoryMap& memory = sim_->memory();
    for (std::size_t m = 0; m < kModules; ++m) {
        const model::ModuleId mid{static_cast<std::uint32_t>(m)};
        const model::ModuleSpec& spec = model.module(mid);
        Binding& b = modules_[m];
        const auto words = word_index(memory, state[m]);
        const auto frame = word_index(memory, sim_->frame(mid));
        if (!words || !frame || !bind_outputs(spec.outputs, b)) return false;
        b.words = *words;
        b.frame = *frame;
        b.inputs.clear();
        for (const model::SignalId s : spec.inputs) b.inputs.push_back(s.index());
    }
    if (!bind_outputs(plant_->sensors(), sensors_)) return false;
    actuator_ = plant_->actuator().index();

    resolved_ = 1;
    return true;
}

bool ArrestmentBatchBackend::begin(runtime::BatchState& state) {
    if (!resolve()) return false;
    const runtime::SnapshotLayout& layout = state.layout();
    if (layout.signals != sim_->system().signal_count() ||
        layout.memory != sim_->memory().word_count() || layout.behaviours != 1 ||
        layout.environment != Plant::kWords || layout.recoverers != 0 ||
        !sim_->recoverers().empty()) {
        return false;
    }
    eas_.clear();
    for (const runtime::SignalMonitor* m : sim_->monitors()) {
        const auto* ea = dynamic_cast<const ea::ExecutableAssertion*>(m);
        if (!ea) return false;
        eas_.push_back(EaRef{ea->signal().index(), ea->params()});
    }
    return layout.monitors == eas_.size() * 4;
}

void ArrestmentBatchBackend::step(runtime::BatchState& st, runtime::Tick now) {
    const std::size_t n = st.live();
    if (n == 0) return;
    const std::size_t W = st.width();
    std::uint32_t* const sig0 = st.signals_row(0);
    std::uint32_t* const mem0 = st.memory_row(0);
    std::uint64_t* const env0 = st.environment_row(0);
    const auto sg = [&](std::size_t s) noexcept { return sig0 + s * W; };
    const auto mw = [&](std::size_t w) noexcept { return mem0 + w * W; };
    const auto port_rows = [&](const Binding& b) noexcept {
        PortRows rows;
        rows.frame = mw(b.frame);
        for (std::size_t p = 0; p < b.outputs.size(); ++p) {
            rows.out[p] = sg(b.outputs[p]);
            rows.width[p] = b.widths[p];
        }
        rows.stride = W;
        return rows;
    };
    // One module stage: every live lane runs `step_lane(s, io, lane)` on
    // its state words `s` and ports `io`.
    const auto stage = [&](std::size_t m, auto&& step_lane) {
        const PortRows rows = port_rows(modules_[m]);
        std::uint32_t* const words = mw(modules_[m].words);
        for (std::size_t lane = 0; lane < n; ++lane) {
            LaneWords<std::uint32_t> s{words + lane, W};
            LaneIo io{rows, lane};
            step_lane(s, io, lane);
        }
    };

    // ------------------------------------------------------ plant sense
    {
        const PortRows rows = port_rows(sensors_);
        const PlantConstants pc = plant_->constants();
        const double mass_kg = plant_->test_case().mass_kg;
        for (std::size_t lane = 0; lane < n; ++lane) {
            LaneWords<std::uint64_t> s{env0 + lane, W};
            LaneIo io{rows, lane};
            Plant::sense_words(s, io, pc, mass_kg);
        }
    }

    // ------------------------------------------- signal-point launch flips
    const bool launching_any = st.launch_count() != 0;
    if (launching_any) {
        for (std::size_t lane = 0; lane < n; ++lane) {
            if (!st.launching(lane)) continue;
            const runtime::BatchFlip& f = st.flip(lane);
            if (f.point != runtime::BatchFlip::Point::kSignal) continue;
            std::uint32_t* row = sg(f.signal.index());
            row[lane] = util::flip_bit(row[lane], f.bit, sim_->signals().width(f.signal));
        }
    }

    // ------------------------------------------------------- frame loads
    for (const Binding& b : modules_) {
        for (std::size_t p = 0; p < b.inputs.size(); ++p) {
            std::copy_n(sg(b.inputs[p]), n, mw(b.frame + p));
        }
    }

    // ----------------------------------- frame/memory-point launch flips
    if (launching_any) {
        for (std::size_t lane = 0; lane < n; ++lane) {
            if (!st.launching(lane)) continue;
            const runtime::BatchFlip& f = st.flip(lane);
            if (f.point == runtime::BatchFlip::Point::kFrame) {
                const Binding& b = modules_.at(f.module.index());
                if (f.port < b.inputs.size()) {
                    const model::SignalId in{static_cast<std::uint32_t>(b.inputs[f.port])};
                    const unsigned width = sim_->signals().width(in);
                    std::uint32_t* row = mw(b.frame + f.port);
                    row[lane] = util::flip_bit(row[lane], f.bit, width);
                }
            } else if (f.point == runtime::BatchFlip::Point::kMemory) {
                const unsigned width = sim_->memory().word(f.word_index).width;
                std::uint32_t* row = mw(f.word_index);
                row[lane] = util::flip_bit(row[lane], f.bit, width);
            }
        }
    }

    // ----------------------------------------------------------- modules
    stage(kClock, [](auto& s, auto& io, std::size_t) { ClockModule::step_words(s, io); });
    {
        const SoftwareConfig cfg = dist_->config();
        std::uint64_t* const first = st.behaviours_row(0);
        stage(kDistS, [&](auto& s, auto& io, std::size_t lane) {
            DistSModule::step_words(s, io, first[lane], cfg);
        });
    }
    {
        const SoftwareConfig cfg = calc_->config();
        stage(kCalc,
              [&](auto& s, auto& io, std::size_t) { CalcModule::step_words(s, io, cfg); });
    }
    stage(kPresS, [](auto& s, auto& io, std::size_t) { PresSModule::step_words(s, io); });
    stage(kVReg, [](auto& s, auto& io, std::size_t) { VRegModule::step_words(s, io); });
    stage(kPresA, [](auto& s, auto& io, std::size_t) { PresAModule::step_words(s, io); });

    // ------------------------------------------------------ EAs (observe)
    // The rule is chosen once per EA and tick; the lane loop runs it inlined.
    for (std::size_t e = 0; e < eas_.size(); ++e) {
        const EaRef& ea = eas_[e];
        const std::uint32_t* const watched = sg(ea.signal);
        std::uint64_t* const last = st.monitors_row(4 * e);
        std::uint64_t* const have = st.monitors_row(4 * e + 1);
        std::uint64_t* const firstdet = st.monitors_row(4 * e + 2);
        std::uint64_t* const viol = st.monitors_row(4 * e + 3);
        const auto observe = [&]<ea::EaType T>() {
            for (std::size_t lane = 0; lane < n; ++lane) {
                const auto value = static_cast<std::int64_t>(watched[lane]);
                if (ea::violates_as<T>(ea.params, static_cast<std::int64_t>(last[lane]),
                                       value, have[lane] != 0, now)) {
                    viol[lane] += 1;
                    if (firstdet[lane] == runtime::kInvalidTick) firstdet[lane] = now;
                }
                last[lane] = static_cast<std::uint64_t>(value);
                have[lane] = 1;
            }
        };
        using enum ea::EaType;
        switch (ea.params.type) {
            case kContinuous: observe.template operator()<kContinuous>(); break;
            case kMonotonic: observe.template operator()<kMonotonic>(); break;
            case kDiscrete: observe.template operator()<kDiscrete>(); break;
        }
    }

    // ---------------------------------------------------- plant actuate
    {
        const std::uint32_t* const toc2 = sg(actuator_);
        const std::uint64_t settle_ticks = plant_->constants().settle_ticks;
        for (std::size_t lane = 0; lane < n; ++lane) {
            LaneWords<std::uint64_t> s{env0 + lane, W};
            Plant::actuate_words(s, toc2[lane]);
            st.set_finished(lane, Plant::finished_words(s, settle_ticks));
        }
    }
}

}  // namespace epea::target
